"""Acceptance suite: worked-example fidelity, the soundness and
monotonicity property suites, semantic-preservation checks, structural
guarantees of the transformation, and schedule conformance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion.
"""

import time

import pytest

from conftest import FIXTURES, all_fixture_names, fixture_text
from gen import instances
from muhflz.backend import Builtin
from muhflz.convert import formula_to_hes, hes_to_formula
from muhflz.driver import approximate, default_schedule, prepare, verify
from muhflz.eval import (
    BoundedResult, Domain, IterationCap, check_validity_bounded,
)
from muhflz.parser import parse_hes
from muhflz.printer import print_hes
from muhflz.syntax import Sign, contains_mu, formula_has_int_abs
from muhflz.tags import infer_tags_formula
from muhflz.transform import (
    ApproxParams, PartialMuApplication, desugar_quantifiers, dualize,
    eliminate_abs, eta_expand_mu_partials, transform_formula,
)
from muhflz.typecheck import typecheck

STRICT3 = Domain(-3, 3)
CLAMP3 = Domain(-3, 3, strict=False)


def _load(name):
    return typecheck(parse_hes(fixture_text(name)))


def _verify(name, lo, hi, **kw):
    return verify(
        _load(name), Builtin(Domain(lo, hi)), default_schedule(8), deadline_s=60, **kw
    )


@pytest.fixture(scope="module")
def corpus():
    return list(instances(500))


# ---------------------------------------------------------------------------
# Criterion 1: worked-example fidelity


def test_criterion_1_worked_examples():
    t0 = time.time()

    r = _verify("countdown.hes", -6, 6)
    assert r.outcome == "valid" and r.winning_side == "prover"
    prover = [it for it in r.iterations if it.side == "prover"]
    assert len(prover) == 1
    assert prover[0].params == ApproxParams(1, 2, 1, 1, 1)

    r = _verify("countdown_scaled.hes", -8, 8)
    assert r.outcome == "valid"
    prover = [it for it in r.iterations if it.side == "prover"]
    assert len(prover) >= 2, "refinement must be visible in the report"
    assert prover[0].verdict.outcome != "valid", "the first budget must be too small"
    d16_index = next(i for i, it in enumerate(prover) if it.params.d >= 16)
    assert any(it.verdict.outcome == "valid" for it in prover[: d16_index + 1]), (
        "must succeed by the d=16 step"
    )

    r = _verify("fib_termination.hes", -5, 5)
    if r.outcome != "valid":  # tolerated escape: enlarge the window
        r = _verify("fib_termination.hes", -8, 8)
    assert r.outcome == "valid"
    assert sum(1 for it in r.iterations if it.side == "prover") == 1

    r = _verify("partial_apply.hes", -6, 6)
    assert r.outcome == "valid"
    assert sum(1 for it in r.iterations if it.side == "prover") == 1
    # with eta-expansion disabled the transformer must refuse, never
    # silently mis-approximate
    h = _load("partial_apply.hes")
    raw = hes_to_formula(h)
    with pytest.raises(PartialMuApplication):
        transform_formula(infer_tags_formula(raw), ApproxParams(1, 2, 1, 1))

    # companion arguments are what make the higher-order chain provable
    r = _verify("succ_chain.hes", 0, 10)
    assert r.outcome == "valid"
    assert sum(1 for it in r.iterations if it.side == "prover") == 1
    r = verify(
        _load("succ_chain.hes"), Builtin(Domain(0, 10)), default_schedule(4),
        deadline_s=60, mode="prove", no_extra_args=True,
    )
    assert r.outcome == "unknown"
    assert len(r.iterations) == 4
    assert all(it.verdict.outcome in ("unknown", "invalid") for it in r.iterations)

    r = _verify("inner_outer_loop.hes", 0, 8)
    assert r.outcome == "valid"
    assert sum(1 for it in r.iterations if it.side == "prover") == 1

    elapsed = time.time() - t0
    assert elapsed < 60
    print(f"\nACCEPTANCE 1 (worked-example fidelity): PASS ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# Criterion 2: soundness of the approximation


def test_criterion_2_soundness(corpus):
    t0 = time.time()
    evaluated = 0
    violations = []
    for seed, h in corpus:
        try:
            tags = prepare(h)
            approx = transform_formula(tags, ApproxParams(1, 2, 1, 1))
            orig = check_validity_bounded(hes_to_formula(h), STRICT3, step_limit=400_000)
            tr = check_validity_bounded(approx, STRICT3, step_limit=400_000)
        except IterationCap:
            continue
        if BoundedResult.RANGE_ESCAPE in (orig, tr):
            continue
        evaluated += 1
        if tr is BoundedResult.VALID and orig is not BoundedResult.VALID:
            violations.append(seed)
    elapsed = time.time() - t0
    assert evaluated >= 250, "the corpus must exercise the transformation"
    assert violations == [], f"soundness violations at seeds {violations}"
    assert elapsed < 300
    print(
        f"\nACCEPTANCE 2 (soundness, {evaluated} instances evaluated): "
        f"PASS ({elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# Criterion 3: monotonicity of the approximation


def test_criterion_3_monotonicity(corpus):
    t0 = time.time()
    evaluated = 0
    violations = []
    for seed, h in corpus:
        try:
            tags = prepare(h)  # one derivation for both steps
            small = check_validity_bounded(
                transform_formula(tags, ApproxParams(1, 1, 1, 1)),
                STRICT3, step_limit=400_000,
            )
            large = check_validity_bounded(
                transform_formula(tags, ApproxParams(2, 3, 2, 3)),
                STRICT3, step_limit=400_000,
            )
        except IterationCap:
            continue
        if BoundedResult.RANGE_ESCAPE in (small, large):
            continue
        evaluated += 1
        if small is BoundedResult.VALID and large is not BoundedResult.VALID:
            violations.append(seed)
    elapsed = time.time() - t0
    assert evaluated >= 250
    assert violations == [], f"monotonicity violations at seeds {violations}"
    assert elapsed < 300
    print(
        f"\nACCEPTANCE 3 (monotonicity, {evaluated} instances evaluated): "
        f"PASS ({elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# Criterion 4: semantic preservation of the auxiliary rewrites


def test_criterion_4_semantic_preservation(corpus):
    t0 = time.time()
    counts = {"dual": 0, "eta": 0, "quant": 0, "abs": 0}
    for seed, h in corpus[:200]:
        f = hes_to_formula(h)
        try:
            a = check_validity_bounded(f, STRICT3, step_limit=300_000)
            b = check_validity_bounded(dualize(f), STRICT3, step_limit=300_000)
            if BoundedResult.RANGE_ESCAPE not in (a, b):
                assert (a is BoundedResult.VALID) == (b is BoundedResult.INVALID), (
                    f"dualization not a complement at seed {seed}"
                )
                counts["dual"] += 1
        except IterationCap:
            pass
        try:
            a = check_validity_bounded(f, STRICT3, step_limit=300_000)
            b = check_validity_bounded(
                eta_expand_mu_partials(f), STRICT3, step_limit=300_000
            )
            if BoundedResult.RANGE_ESCAPE not in (a, b):
                assert a is b, f"eta changed semantics at seed {seed}"
                counts["eta"] += 1
        except IterationCap:
            pass
        try:
            # shifted walkers probe past any finite window, so the
            # comparison runs in the total clamping semantics
            a = check_validity_bounded(f, CLAMP3, step_limit=300_000)
            b = check_validity_bounded(
                desugar_quantifiers(f), CLAMP3, step_limit=300_000
            )
            assert a is b, f"quantifier desugaring changed semantics at seed {seed}"
            counts["quant"] += 1
        except IterationCap:
            pass
        try:
            tags = prepare(h)
            direct = transform_formula(tags, ApproxParams(1, 2, 1, 1))
            a = check_validity_bounded(direct, STRICT3, step_limit=300_000)
            b = check_validity_bounded(
                eliminate_abs(direct), STRICT3, step_limit=300_000
            )
            if a is not BoundedResult.RANGE_ESCAPE:
                assert a is b, f"abs elimination changed semantics at seed {seed}"
                counts["abs"] += 1
        except IterationCap:
            pass
    elapsed = time.time() - t0
    for name, n in counts.items():
        assert n >= 100, f"{name}: only {n} comparisons ran"
    assert elapsed < 300
    print(
        f"\nACCEPTANCE 4 (semantic preservation {counts}): PASS ({elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# Criterion 5: structural guarantees and golden files


GOLDEN = ["countdown", "countdown_scaled", "partial_apply", "fib_termination", "succ_chain"]


def test_criterion_5_structure_and_goldens(corpus):
    t0 = time.time()
    params = ApproxParams(1, 2, 1, 1, 1)
    for name in all_fixture_names():
        h = _load(name)
        out = formula_to_hes(approximate(prepare(h), params))
        assert all(eq.sign is Sign.NU for eq in out.equations), f"{name}: not nu-only"
        f = hes_to_formula(typecheck(out))  # must typecheck
        assert not contains_mu(f)
        assert not formula_has_int_abs(f)
    random_checked = 0
    for seed, h in corpus:
        try:
            out = formula_to_hes(approximate(prepare(h), params))
        except IterationCap:
            continue
        assert all(eq.sign is Sign.NU for eq in out.equations), f"seed {seed}"
        typecheck(out)
        random_checked += 1
    assert random_checked >= 450
    for base in GOLDEN:
        h = _load(f"{base}.hes")
        got = print_hes(formula_to_hes(approximate(prepare(h), params)))
        want = (FIXTURES / "golden" / f"{base}.nu.hes").read_text(encoding="utf-8")
        assert got == want, f"golden mismatch for {base}"
    elapsed = time.time() - t0
    assert elapsed < 300
    print(
        f"\nACCEPTANCE 5 (nu-only + typed on {random_checked} random instances, "
        f"golden files stable): PASS ({elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# Criterion 6: schedule conformance


def test_criterion_6_schedule():
    s = default_schedule(8)
    assert s[0] == ApproxParams(1, 2, 1, 1, 1)
    assert s[1] == ApproxParams(1, 2, 1, 1, 2)
    assert s[2] == ApproxParams(1, 16, 1, 1, 1)
    assert s[3] == ApproxParams(1, 16, 1, 1, 2)
    for i in (4, 6):
        pair = (i - 4) // 2 + 1
        scale = 2 ** pair
        assert s[i] == ApproxParams(scale, 16 * scale, scale, scale, 1)
        assert s[i + 1] == ApproxParams(scale, 16 * scale, scale, scale, 2)
    print("\nACCEPTANCE 6 (schedule conformance): PASS")
