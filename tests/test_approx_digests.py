"""Golden approximations: one sha256 per input over everything the
approximation pipeline produces for it, recorded in ``approx_digests.json``.

For each input -- ``instances(100)``, every fixture and
``perfbench/loop.hes``, each as written and dualized -- the digest covers,
for every combination of ``all_f`` and ``desugar``, the tag-derivation
JSON of ``prepare`` and the lifted, printed approximation of schedule rows
1, 2 and 5.

A refactor of the rewrites must leave every digest unchanged.  After a
deliberate change of what the pipeline emits, regenerate the file with
``PYTHONPATH=src python tests/test_approx_digests.py``.
"""

import hashlib
import json
import pathlib

from conftest import FIXTURES, all_fixture_names, fixture_text
from gen import instances
from muhflz.convert import formula_to_hes
from muhflz.driver import approximate, default_schedule, prepare
from muhflz.parser import parse_hes
from muhflz.printer import print_hes
from muhflz.transform import dual_hes
from muhflz.typecheck import typecheck

GOLDEN = pathlib.Path(__file__).parent / "approx_digests.json"
LOOP = FIXTURES.parent / "perfbench" / "loop.hes"

CORPUS_COUNT = 100
ROWS = tuple(default_schedule(5).steps[i] for i in (0, 1, 4))


def _inputs():
    for seed, h in instances(CORPUS_COUNT):
        yield f"gen{seed}", h
    for name in all_fixture_names():
        yield name.removesuffix(".hes"), typecheck(parse_hes(fixture_text(name)))
    yield "loop", typecheck(parse_hes(LOOP.read_text(encoding="utf-8")))


def _digest(h) -> str:
    sha = hashlib.sha256()
    for all_f in (False, True):
        for desugar in (False, True):
            der = prepare(h, all_f=all_f, desugar=desugar)
            sha.update(der.to_json().encode())
            for row in ROWS:
                approx = approximate(der, row)
                sha.update(print_hes(formula_to_hes(approx)).encode())
    return sha.hexdigest()


def measure() -> dict:
    out = {}
    for name, h in _inputs():
        out[name] = _digest(h)
        out[f"{name}~dual"] = _digest(dual_hes(h))
    return out


def test_approximations_match_golden():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = measure()
    assert got.keys() == want.keys()
    diffs = sorted(k for k in want if want[k] != got[k])
    assert not diffs, f"approximations changed for {diffs}"


if __name__ == "__main__":
    rows = sorted(measure().items())
    text = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in rows)
    GOLDEN.write_text("{\n" + text + "\n}\n", encoding="utf-8")
