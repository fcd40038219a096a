import json
import shlex
import subprocess
import sys

import pytest

from conftest import FIXTURES
from muhflz.backend import Builtin, External
from muhflz.cli import _build_parser, _checked_backend, run


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
    ("Main =v F 1 2;\nF x =v x >= 0;\n", "bad.hes: "),
], ids=["undefined_name", "duplicate_name", "type_error"])
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
    "flags",
    [["--max-iterations", "0"], ["--counters", "0"], ["--timeout", "0", "--backend", "true"],
     ["--backend", ""]],
    ids=["max_iterations", "counters", "timeout", "empty_backend"],
)
def test_invalid_option_value_exits_3(flags, capsys):
    code = run(["prove", str(FIXTURES / "countdown.hes"), *flags])
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("muhflz: ")


@pytest.mark.parametrize("domain", ["1..", "3..1"], ids=["open", "empty"])
def test_bad_domain_exits_3(domain, capsys):
    code = run(["prove", str(FIXTURES / "countdown.hes"), "--domain", domain])
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err
    assert "error: argument --domain" in err


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


@pytest.mark.parametrize(
    "body",
    [" \\/ ".join(["0 >= 1"] * 3000), "(" * 1500 + "0 >= 1" + ")" * 1500],
    ids=["wide_or", "deep_parens"],
)
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


def test_scaled_companion_with_abs_ends_unknown():
    # at the c=2 rows a companion holding |x| is scaled as 2*(2|x| + 2),
    # which the abs elimination must distribute rather than reject
    stub = FIXTURES.parent / "perfbench" / "stub_solver.sh"
    proc = subprocess.run(
        [sys.executable, "-m", "muhflz.cli", str(FIXTURES / "partial_apply.hes"),
         "--backend", f"sh {shlex.quote(str(stub))}", "--no-quantifiers"],
        capture_output=True,
        text=True,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 2
    assert proc.stdout.splitlines()[0] == "unknown"
