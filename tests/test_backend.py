import os
import stat
import textwrap

import pytest

from conftest import fixture_text
from muhflz.backend import BackendVerdict, Builtin, External, lower, solve
from muhflz.driver import approximate, prepare
from muhflz.eval import Domain
from muhflz.parser import parse_hes
from muhflz.transform import ApproxParams
from muhflz.typecheck import typecheck


def _approx(name, c, d):
    h = typecheck(parse_hes(fixture_text(name)))
    return approximate(prepare(h), ApproxParams(c, d, c, d))


def test_builtin_countdown_valid():
    v = solve(Builtin(Domain(-6, 6)), _approx("countdown.hes", 1, 1))
    assert v.outcome == "valid"


def test_builtin_scaled_invalid_then_valid():
    assert solve(Builtin(Domain(-8, 8)), _approx("countdown_scaled.hes", 1, 1)).outcome == "invalid"
    assert solve(Builtin(Domain(-8, 8)), _approx("countdown_scaled.hes", 2, 2)).outcome == "valid"


def test_builtin_is_deterministic():
    spec = Builtin(Domain(-8, 8))
    h = _approx("countdown_scaled.hes", 1, 1)
    assert {solve(spec, h).outcome for _ in range(3)} == {"invalid"}


def test_mu_rejected_before_dispatch():
    h = typecheck(parse_hes(fixture_text("countdown.hes")))
    with pytest.raises(ValueError):
        solve(Builtin(Domain(-4, 4)), prepare(h).formula)
    with pytest.raises(ValueError):
        solve(External(("/nonexistent/solver",)), prepare(h).formula)
    # an existential desugars into a least-fixpoint walker, which no
    # solver may receive
    g = prepare(typecheck(parse_hes("Main =v exists x. x >= 0;"))).formula
    assert solve(Builtin(Domain(-4, 4)), g).outcome == "valid"
    with pytest.raises(ValueError):
        lower(g, quantifiers=False)
    with pytest.raises(ValueError):
        solve(External(("/nonexistent/solver",), supports_quantifiers=False), g)


@pytest.mark.parametrize("seconds", [0.0, -1.0, float("nan")])
def test_external_timeout_must_be_positive(seconds):
    with pytest.raises(ValueError):
        External(("/nonexistent/solver",), timeout_s=seconds)


def _stub(tmp_path, body: str) -> External:
    path = tmp_path / "solver.sh"
    path.write_text("#!/bin/sh\n" + textwrap.dedent(body))
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return External((str(path),), timeout_s=5.0)


def test_external_verdict_parsing(tmp_path):
    f = _approx("countdown.hes", 1, 1)
    assert solve(_stub(tmp_path, 'echo "  VALID  "\n'), f).outcome == "valid"
    assert solve(_stub(tmp_path, 'echo noise\necho invalid\n'), f).outcome == "invalid"
    v = solve(_stub(tmp_path, 'echo unknown\n'), f)
    assert v.outcome == "unknown"


def test_external_garbage_is_unknown(tmp_path):
    v = solve(_stub(tmp_path, 'echo maybe\nexit 7\n'), _approx("countdown.hes", 1, 1))
    assert v.outcome == "unknown"
    assert "exit 7" in v.detail


def test_external_timeout_is_unknown(tmp_path):
    v = solve(_stub(tmp_path, "sleep 30\n"), _approx("countdown.hes", 1, 1))
    # the driver deadline is tighter than the sleep
    assert v.outcome == "unknown"


def test_external_receives_the_hes_file(tmp_path):
    ext = _stub(
        tmp_path,
        'grep -q "=v" "$1" && echo valid || echo unknown\n',
    )
    assert solve(ext, _approx("countdown.hes", 1, 1)).outcome == "valid"


def test_external_missing_binary_is_unknown():
    v = solve(External(("/nonexistent/solver",), timeout_s=2.0), _approx("countdown.hes", 1, 1))
    assert v.outcome == "unknown"


def test_external_timeout_capped_by_deadline(tmp_path):
    import time

    ext = _stub(tmp_path, "sleep 30\n")
    t0 = time.monotonic()
    v = solve(ext, _approx("countdown.hes", 1, 1), deadline=time.monotonic() + 1.0)
    assert v.outcome == "unknown"
    assert time.monotonic() - t0 < 10
