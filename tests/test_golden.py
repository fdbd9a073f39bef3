"""Every artifact of a fixed case list matches the committed golden tree.

``tests/golden/regenerate.py`` holds the case list and rewrites the tree.
Each case runs here at threads 1 and 2, so the seeds are split into one
batch and into two. A CSV must keep its header and row count, and each
cell its kind (empty, integer text or float text). A JSON file must keep
its keys in order and each value's type. Integers, strings, flags and
stop steps match exactly; floats match within ``REL_TOL``. Timings are
skipped.
"""

import csv
import json
import math
import re
from pathlib import Path

import pytest

from golden.regenerate import GOLDEN, TIMING_KEYS, produce

# fixed: strategic bits depend on the BLAS kernel
REL_TOL = 1e-9

_INTEGER = re.compile(r"-?[0-9]+")


def _artifacts(root: Path) -> list:
    return sorted(
        str(p.relative_to(root)) for p in root.rglob("*")
        if p.is_file() and p.suffix in (".csv", ".json")
    )


def _same_float(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _cell_kind(cell: str) -> str:
    if cell == "":
        return "empty"
    return "integer" if _INTEGER.fullmatch(cell) else "float"


def _compare_csv(got: Path, want: Path) -> list:
    with open(got, newline="") as fh:
        got_rows = list(csv.reader(fh))
    with open(want, newline="") as fh:
        want_rows = list(csv.reader(fh))
    if got_rows[:1] != want_rows[:1]:
        return [f"header {got_rows[:1]} != {want_rows[:1]}"]
    if len(got_rows) != len(want_rows):
        return [f"{len(got_rows) - 1} rows != {len(want_rows) - 1}"]
    errors = []
    header = want_rows[0]
    for lineno, (g_row, w_row) in enumerate(zip(got_rows[1:], want_rows[1:]), start=2):
        if len(g_row) != len(w_row):
            errors.append(f"line {lineno}: {len(g_row)} cells != {len(w_row)}")
            continue
        for col, g, w in zip(header, g_row, w_row):
            kind = _cell_kind(w)
            if _cell_kind(g) != kind:
                errors.append(f"line {lineno} {col}: {g!r} is not {kind} text like {w!r}")
            elif kind == "integer" and int(g) != int(w):
                errors.append(f"line {lineno} {col}: {g} != {w}")
            elif kind == "float" and not _same_float(float(g), float(w)):
                errors.append(f"line {lineno} {col}: {g} != {w}")
    return errors


def _compare_json(got, want, where="") -> list:
    if type(got) is not type(want):
        return [f"{where or '/'}: {type(got).__name__} {got!r} != {type(want).__name__} {want!r}"]
    if isinstance(want, dict):
        if list(got) != list(want):
            return [f"{where or '/'}: keys {list(got)} != {list(want)}"]
        return [e for k in want if k not in TIMING_KEYS
                for e in _compare_json(got[k], want[k], f"{where}/{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: {len(got)} items != {len(want)}"]
        return [e for k, (g, w) in enumerate(zip(got, want)) for e in _compare_json(g, w, f"{where}/{k}")]
    if isinstance(want, float):
        return [] if _same_float(got, want) else [f"{where}: {got!r} != {want!r}"]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def compare_trees(got: Path, want: Path) -> list:
    """One message per difference between two artifact trees."""
    names = _artifacts(want)
    if _artifacts(got) != names:
        return [f"files differ: {sorted(set(_artifacts(got)) ^ set(names))}"]
    errors = []
    for name in names:
        if name.endswith(".csv"):
            found = _compare_csv(got / name, want / name)
        else:
            found = _compare_json(json.loads((got / name).read_text()),
                                  json.loads((want / name).read_text()))
        errors += [f"{name}: {e}" for e in found]
    return errors


@pytest.mark.parametrize("threads", [1, 2])
def test_artifacts_match_the_golden_tree(tmp_path, threads):
    produce(tmp_path, threads)
    errors = compare_trees(tmp_path, GOLDEN)
    assert not errors, "\n".join(errors[:20])
