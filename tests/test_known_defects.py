"""Known wrong answers, each a strict xfail that names its ROADMAP item.

Each test asserts the right answer.  When a change mends the defect the
test passes, strict xfail turns that into a failure, and the mark comes
off with the mend.  Each mark names the exception the defect raises, so a
test that breaks in another way (a name gone, a wrong call) fails the run."""

import contextlib
import copy
import os
import pathlib
import signal
import time

import pytest

from conftest import ELIMINATION_EDGES, fixture_text
from gen import random_instance
from muhflz.backend import Builtin, External, solve
from muhflz.convert import hes_to_formula
from muhflz.driver import verify
from muhflz.eval import (
    BoundedResult, Domain, IterationCap, check_validity_bounded,
)
from muhflz.parser import parse_hes
from muhflz.syntax import map_children
from muhflz.typecheck import typecheck


def _typed(text: str):
    return typecheck(parse_hes(text))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1, note (c): a vacuous budget quantifier makes the row-1 "
    "disprover step valid, so partial_apply, VALID in its window, is reported invalid"
))
def test_partial_apply_disprover_does_not_decide_invalid():
    h = _typed(fixture_text("partial_apply.hes"))
    assert verify(h, Builtin(Domain(-6, 6)), mode="disprove").outcome != "invalid"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: the beta-redex repro; the budget premise u <= 3 + |n| holds "
    "for every u in -3..3, so the row-1 prover step is vacuously valid"
))
def test_beta_redex_head_is_not_reported_valid():
    h = _typed(ELIMINATION_EDGES["beta_head"])
    assert check_validity_bounded(hes_to_formula(h), Domain(-3, 3)) is BoundedResult.INVALID
    assert verify(h, Builtin(Domain(-3, 3))).outcome != "valid"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 3, defect 1: a strict closure keyed by its table over the window "
    "also computes outside it, so the conjunction reads VALID though its second "
    "conjunct alone is INVALID"
))
def test_strict_sharing_conjunction_is_not_valid():
    f = hes_to_formula(_typed(
        r"Main =v R (\k. k 4) (\y. y >= 5) /\ R (\k. k 4) (\y. y >= 6);"
        r" R x k =v x (\y. k (y + 1)) /\ R x k;"
    ))
    assert check_validity_bounded(f, Domain(0, 4)) is not BoundedResult.VALID


@pytest.mark.xfail(strict=True, raises=IterationCap, reason=(
    "ROADMAP item 3, defect 2: a closure capturing an in-flight instance is keyed "
    "by its syntax, so the keys grow and the solver ends in IterationCap('fixpoint-passes')"
))
def test_in_flight_keys_system_is_invalid():
    f = hes_to_formula(_typed(
        r"Main =v X (\a. a >= 1); X p =v p 1 /\ X Y;"
        r" Y x =u x >= 3 \/ (X Y /\ Y (x + 1));"
    ))
    assert check_validity_bounded(f, Domain(-3, 3)) is BoundedResult.INVALID


def _unshared(f):
    # every node rebuilt: map_children copies a node whose children changed,
    # and a leaf is copied here
    g = map_children(f, lambda c, _: _unshared(c))
    return copy.copy(g) if g is f else g


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 3, defect 3: one instance per fixpoint node object, so gen152 "
    "escapes the window as hes_to_formula shares its nodes, and is VALID rebuilt "
    "with no node shared"
))
def test_results_do_not_depend_on_sharing():
    f = hes_to_formula(random_instance(152))
    got = [
        check_validity_bounded(g, Domain(-3, 3), step_limit=10_000)
        for g in (f, _unshared(f))
    ]
    assert got[0] is got[1]


def _running(pid: int) -> bool:
    """Whether ``pid`` runs: a zombie left to its reaper does not."""
    try:
        os.kill(pid, 0)
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except ProcessLookupError:
        return False
    except OSError:  # no /proc: signal 0 reached it
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 8, process hygiene: on a timeout solve kills only the shell "
    "it started, so the solver's own child keeps running"
))
def test_timed_out_solver_leaves_no_child(tmp_path):
    pidfile = tmp_path / "pid"
    stub = tmp_path / "solver.sh"
    # no `exec`: the sleep is the shell's child, not the shell itself
    stub.write_text(f'#!/bin/sh\nsleep 30 &\necho $! > "{pidfile}"\nwait\n')
    stub.chmod(0o755)
    try:
        v = solve(External((str(stub),), timeout_s=0.5), hes_to_formula(_typed("Main =v true;")))
        assert (v.outcome, v.detail) == ("unknown", "timeout")
        pid = int(pidfile.read_text())
        deadline = time.monotonic() + 2.0
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(pid), f"solver child {pid} outlived the timeout"
    finally:
        if pidfile.exists():
            with contextlib.suppress(ProcessLookupError, ValueError):
                os.kill(int(pidfile.read_text()), signal.SIGKILL)
