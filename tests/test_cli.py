import json
import shlex
import subprocess
import sys

import pytest

from conftest import FIXTURES, STUB_SOLVER
from muhflz.backend import Builtin, External
from muhflz.cli import _build_parser, _checked_backend, run
from muhflz.eval import Domain
from muhflz.parser import parse_hes
from muhflz.printer import print_hes


def _run(*args, capsys=None):
    code = run(list(args))
    return code


def test_prove_countdown(capsys):
    code = run(["prove", str(FIXTURES / "countdown.hes"), "--backend", "builtin", "--domain", "-6..6"])
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "valid"
    assert code == 0


def test_emit_nu_contains_counter(capsys):
    code = run(["--emit", "nu", str(FIXTURES / "fib_termination.hes")])
    out = capsys.readouterr().out
    assert code == 0
    assert "Fib u" in out
    assert "=u" not in out  # nu-only


def test_emit_nu_deterministic(capsys):
    args = ["--emit", "nu", str(FIXTURES / "succ_chain.hes")]
    run(args)
    first = capsys.readouterr().out
    run(args)
    second = capsys.readouterr().out
    assert first == second


def test_emit_nu_is_the_file_an_external_solver_receives(tmp_path, monkeypatch, capsys):
    # the stub keeps a copy of the system it is handed on the first prover step
    copy = tmp_path / "received.hes"
    stub = tmp_path / "solver.sh"
    stub.write_text(f'#!/bin/sh\ncp "$1" "{copy}"\necho unknown\n')
    stub.chmod(0o755)
    path = str(FIXTURES / "fib_termination.hes")
    emitted = []
    for flags in ([], ["--no-quantifiers"], ["--counters", "2"], ["--no-extra-args"]):
        code = run(["prove", path, "--backend", str(stub), "--max-iterations", "1", *flags])
        assert code == 2
        capsys.readouterr()
        assert run(["--emit", "nu", path, *flags]) == 0
        out = capsys.readouterr().out
        assert out == copy.read_text(encoding="utf-8"), flags
        emitted.append(out)
    assert len(set(emitted)) == 4, "each flag must change the emitted system"
    assert "forall" in emitted[0] and "forall" not in emitted[1]
    # a command from the environment takes --no-quantifiers like --backend
    monkeypatch.setenv("MUHFLZ_BACKEND", str(stub))
    copy.unlink()
    assert run(["prove", path, "--max-iterations", "1", "--no-quantifiers"]) == 2
    assert copy.read_text(encoding="utf-8") == emitted[1]


def test_emit_dual(capsys):
    code = run(["--emit", "dual", str(FIXTURES / "countdown.hes")])
    out = capsys.readouterr().out
    assert code == 0
    assert "exists" in out and "=v" in out


def test_emit_tags_json(capsys):
    code = run(["--emit", "tags", str(FIXTURES / "succ_chain_pure.hes")])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert "binders" in payload


def test_missing_file_exits_3(capsys):
    assert run(["prove", "missing.hes"]) == 3


@pytest.mark.parametrize("body, where", [
    ("Main =v X;\n", "bad.hes:1:9: expected defined name"),
    ("Main =v F 0;\nF x =v x >= 0;\nF y =v y >= 1;\n", "bad.hes:3:1: expected distinct equation names"),
    ("Main =v true;\nMain =v false;\n", "bad.hes:2:1: expected distinct equation names, found Main"),
    ("Main =v F 1 2;\nF x =v x >= 0;\n", "bad.hes: "),
], ids=["undefined_name", "duplicate_name", "duplicate_main", "type_error"])
def test_parse_error_exits_3(tmp_path, capsys, body, where):
    bad = tmp_path / "bad.hes"
    bad.write_text(body)
    assert run(["prove", str(bad)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("muhflz: ") and where in err


def test_bad_mode_exits_3(capsys):
    assert run(["frobnicate", str(FIXTURES / "countdown.hes")]) == 3
    assert run(["prove", str(FIXTURES / "countdown.hes"), "extra"]) == 3


def test_invalid_exits_1(tmp_path, capsys):
    f = tmp_path / "false.hes"
    f.write_text("Main =v 0 >= 1;\n")
    code = run([str(f), "--domain", "-4..4", "--max-iterations", "2", "--deadline", "10"])
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "invalid"
    assert code == 1


def test_unknown_exits_2(tmp_path, capsys):
    f = tmp_path / "succ.hes"
    f.write_text((FIXTURES / "succ_chain.hes").read_text())
    code = run(
        ["prove", str(f), "--domain", "0..10", "--no-extra-args",
         "--max-iterations", "2", "--deadline", "20"]
    )
    assert code == 2


def test_json_report(capsys):
    code = run([str(FIXTURES / "countdown.hes"), "--domain", "-6..6", "--report", "json"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["outcome"] == "valid"
    assert code == 0


def test_env_backend_used_when_flag_absent(tmp_path, monkeypatch, capsys):
    stub = tmp_path / "solver.sh"
    stub.write_text("#!/bin/sh\necho valid\n")
    stub.chmod(0o755)
    monkeypatch.setenv("MUHFLZ_BACKEND", str(stub))
    code = run(["prove", str(FIXTURES / "countdown.hes"), "--deadline", "10"])
    out = capsys.readouterr().out
    assert code == 0 and out.splitlines()[0] == "valid"


def test_env_backend_command(monkeypatch):
    def spec(*flags):
        return _checked_backend(_build_parser().parse_args(["in.hes", *flags]))

    monkeypatch.setenv("MUHFLZ_BACKEND", "/usr/bin/solver --fast")
    assert spec() == External(("/usr/bin/solver", "--fast"))
    assert spec("--timeout", "5", "--no-quantifiers") == External(
        ("/usr/bin/solver", "--fast"), timeout_s=5.0, supports_quantifiers=False
    )
    assert isinstance(spec("--backend", "builtin"), Builtin)
    monkeypatch.setenv("MUHFLZ_BACKEND", "")
    assert isinstance(spec(), Builtin)
    monkeypatch.delenv("MUHFLZ_BACKEND")
    assert isinstance(spec(), Builtin)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--max-iterations", "0"], "--max-iterations must be at least 1"),
        (["--counters", "0"], "--counters must be at least 1"),
        (["--timeout", "0", "--backend", "true"], "--timeout must be a positive number"),
        (["--backend", ""], "empty external command"),
        (["--backend", "solver 'a"], "backend command \"solver 'a\": No closing quotation"),
    ],
    ids=["max_iterations", "counters", "timeout", "empty_backend", "unbalanced_quote"],
)
def test_invalid_option_value_exits_3(flags, message, capsys):
    code = run(["prove", str(FIXTURES / "countdown.hes"), *flags])
    err = capsys.readouterr().err
    assert code == 3
    assert err == f"muhflz: {message}\n"


@pytest.mark.parametrize("domain", ["1..", "3..1"], ids=["open", "empty"])
def test_bad_domain_exits_3(domain, capsys):
    code = run(["prove", str(FIXTURES / "countdown.hes"), "--domain", domain])
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err
    assert "error: argument --domain" in err


def test_repeated_domain_last_one_wins(monkeypatch, capsys):
    # each dash-leading --domain value is joined onto its own option, so a
    # repeated --domain keeps argparse's rule: the last one given wins
    seen = []

    def spy(ns):
        seen.append(ns.domain)
        return _checked_backend(ns)

    monkeypatch.setattr("muhflz.cli._checked_backend", spy)
    path = str(FIXTURES / "countdown.hes")
    assert run(["prove", path, "--domain", "-6..6", "--domain", "-5..5"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "valid"
    assert run(["prove", path, "--domain", "-6..6", "--domain=0..4", "--domain", "-4..4"]) == 0
    assert seen == [Domain(-5, 5), Domain(-4, 4)]


@pytest.mark.parametrize("flags", [
    ["--timeout", "nan"],
    ["--timeout", "nan", "--backend", "true"],
    ["--deadline", "nan"],
    ["--deadline", "0"],
], ids=["timeout_nan", "timeout_nan_external", "deadline_nan", "deadline_0"])
def test_seconds_must_be_a_positive_number(flags, capsys):
    code = run(["prove", str(FIXTURES / "countdown.hes"), *flags])
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err
    assert err.startswith("muhflz: ") and "positive" in err


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "muhflz.cli"],
        input="",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3  # no file given


@pytest.mark.parametrize("body", ["(" * 1500 + "0 >= 1" + ")" * 1500], ids=["deep_parens"])
def test_deep_input_exits_3_without_traceback(tmp_path, body):
    f = tmp_path / "deep.hes"
    f.write_text(f"Main =v {body};\n")
    proc = subprocess.run(
        [sys.executable, "-m", "muhflz.cli", "prove", str(f)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip() == f"muhflz: {f}: input nested too deeply"


def _flat(op: str, n: int = 1000) -> str:
    return f" {op} ".join(["x"] * n)


# a sum nests nothing, so its length meets no nesting bound
@pytest.mark.parametrize("text, flags, code", [
    (f"{_flat('+')} >= 0;", [], 1),
    (f"{_flat('-')} >= 0;", [], 1),
    (f"{_flat('*')} >= 0;", [], 0),
    (f"F ({_flat('+')});\nF y =v y >= 0 \\/ y < 0;", [], 0),
    (f"{_flat('-')} >= 0;", ["--emit", "nu"], 0),
    (f"{_flat('+', 10_000)} >= 0;",
     ["--backend", f"sh {shlex.quote(str(STUB_SOLVER))}", "--no-quantifiers"], 2),
], ids=["sum", "difference", "product", "argument", "emit_nu", "sum_10000_external"])
def test_flat_sum_of_a_thousand_terms_gets_a_verdict(tmp_path, capsys, text, flags, code):
    path = tmp_path / "flat.hes"
    path.write_text(f"Main =v forall x. {text}\n")
    assert run([str(path), *flags]) == code
    out = capsys.readouterr().out
    if "--emit" in flags:
        assert print_hes(parse_hes(out)) == out


_OR, _AND = " \\/ ", " /\\ "
WIDE_OR = "forall x. " + _OR.join([f"x >= {i}" for i in range(1, 3000)] + ["0 >= x"]) + ";"
WIDE_AND = "forall x. " + _AND.join(f"x + {i} >= 0" for i in range(3000)) + ";"
MIXED = "forall x. " + _OR.join([f"x >= {i}{_AND}{i} >= x" for i in range(3000)] + ["0 >= x + 1"]) + ";"
MU_BODY = "forall x. F x;\nF y =u " + _OR.join([f"y + {i} >= 0" for i in range(3000)] + ["F (y + 1)"]) + ";"


# a chain of \/ or /\ is one node, so its width meets no nesting bound
@pytest.mark.parametrize("text, flags, code", [
    (WIDE_OR, [], 0),
    (WIDE_AND, [], 1),
    (MIXED, [], 0),
    (MU_BODY, [], 0),
    (MIXED, ["--emit", "nu"], 0),
    (MIXED, ["--emit", "dual"], 0),
    (MU_BODY, ["--emit", "tags"], 0),
    (WIDE_AND, ["--report", "json"], 1),
    (_OR.join(["0 >= 1"] * 30_000) + ";",
     ["--backend", f"sh {shlex.quote(str(STUB_SOLVER))}", "--no-quantifiers"], 2),
], ids=["or", "and", "mixed", "mu_body", "emit_nu", "emit_dual", "emit_tags", "report_json",
        "or_30000_external"])
def test_wide_chain_gets_a_verdict(tmp_path, capsys, text, flags, code):
    path = tmp_path / "wide.hes"
    path.write_text(f"Main =v {text}\n")
    assert run([str(path), *flags]) == code
    out = capsys.readouterr().out
    last = flags[-1] if flags else ""
    if last in ("nu", "dual"):
        assert print_hes(parse_hes(out)) == out
    elif last == "tags":
        assert json.loads(out)
    else:
        verdict = json.loads(out)["outcome"] if last == "json" else out.splitlines()[0]
        assert verdict == ("valid", "invalid", "unknown")[code]


def test_scaled_companion_with_abs_ends_unknown():
    # at the c=2 rows a companion holding |x| is scaled as 2*(2|x| + 2),
    # which the abs elimination must distribute rather than reject
    proc = subprocess.run(
        [sys.executable, "-m", "muhflz.cli", str(FIXTURES / "partial_apply.hes"),
         "--backend", f"sh {shlex.quote(str(STUB_SOLVER))}", "--no-quantifiers"],
        capture_output=True,
        text=True,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 2
    assert proc.stdout.splitlines()[0] == "unknown"
