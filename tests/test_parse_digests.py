"""Golden parses: the sha256 of ``repr(parse_hes(text))`` for each input,
recorded in ``parse_digests.json``.

The inputs are every fixture, ``perfbench/loop.hes`` and the HES texts of
``conftest``, one digest each, and the printed ``random_instance(s)`` for
s = 0..1999 under one digest together.  A rewrite of the parser must leave
every digest unchanged.  After a deliberate change of what it builds,
regenerate the file with ``PYTHONPATH=src python tests/test_parse_digests.py``.
"""

import hashlib
import json
import pathlib

from conftest import ELIMINATION_EDGES, LOOP, SUCC_PRED, all_fixture_names, fixture_text
from gen import random_instance
from muhflz.parser import parse_hes
from muhflz.printer import print_hes

GOLDEN = pathlib.Path(__file__).parent / "parse_digests.json"

GENERATED_COUNT = 2000


def _texts():
    for name in all_fixture_names():
        yield name.removesuffix(".hes"), fixture_text(name)
    yield "loop", LOOP.read_text(encoding="utf-8")
    yield "succ_pred", SUCC_PRED
    yield from ELIMINATION_EDGES.items()


def _digest(texts) -> str:
    sha = hashlib.sha256()
    for text in texts:
        sha.update(repr(parse_hes(text)).encode())
    return sha.hexdigest()


def measure() -> dict:
    out = {name: _digest([text]) for name, text in _texts()}
    generated = (print_hes(random_instance(s)) for s in range(GENERATED_COUNT))
    out[f"gen0-{GENERATED_COUNT - 1}"] = _digest(generated)
    return out


def test_parses_match_golden():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = measure()
    assert got.keys() == want.keys()
    diffs = sorted(k for k in want if want[k] != got[k])
    assert not diffs, f"parses changed for {diffs}"


if __name__ == "__main__":
    rows = sorted(measure().items())
    text = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in rows)
    GOLDEN.write_text("{\n" + text + "\n}\n", encoding="utf-8")
