"""Time a verdict's set-up at the table2 corners and matrix mode's extraction.

The corners are H10, H11 and H12(20,20,20).  The set-up is everything
before the cell enumeration: the spec build, `deficit`, and
`is_nonnegative` up to its call of `enumerate_cells`, which is almost all
`_chamber_walls`.  The enumeration itself is not run:
`verify.enumerate_cells` is swapped for a stub that records the walls it
is given and stops the decision, so the script runs unchanged on any
checkout whose `is_nonnegative` calls `enumerate_cells(..., restrict=walls)`.

The extraction is `matrices.extract_weights` alone, on the explicit
matrices `matrix_input_for_block_pattern` gives for H1(16,8), H1(16,16)
and H4(24,24) (n = 24, 32 and 48); each input is built once, outside the
timer.

Each stage is timed as the median of RUNS = 3 runs, in wall seconds.  The
record holds, per corner, the stage times, the wall count (57 at each
corner, where the derived chamber is simplicial) and a digest of the
walls, and per extraction, its time, the sizes of the bases and a digest
of the extracted modules as a document writes them, so two checkouts'
records show whether their walls and modules agree.  The script exits 1
when a wall count is not 57.  The run metadata is perfbench's, less its
seed and points.

Run from the repository root:

    python3 tools/setup_corners.py --out BENCH_corners.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from run import metadata  # noqa: E402

from temperkit import serialize, verify  # noqa: E402
from temperkit.generators import (TABLE1_PATTERNS, TABLE2_PATTERNS,  # noqa: E402
                                  build_sl_block, matrix_input_for_block_pattern)
from temperkit.matrices import extract_weights  # noqa: E402
from temperkit.model import deficit  # noqa: E402

CORNERS = [("H10", (20, 20, 20)), ("H11", (20, 20, 20)), ("H12", (20, 20, 20))]
WALLS = 57
EXTRACTIONS = [("H1", (16, 8)), ("H1", (16, 16)), ("H4", (24, 24))]
RUNS = 3


class _Stop(Exception):
    """Raised by the enumeration stub once it has the walls."""


def _to_enumeration(f, spec, timing: dict):
    """The walls is_nonnegative(f, spec) hands the enumeration, and the
    seconds its _chamber_walls call took."""
    seen = {}
    chamber_walls = verify._chamber_walls

    def stub(*args, restrict=(), **kwargs):
        seen["walls"] = [list(w) for w in restrict]
        raise _Stop

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return chamber_walls(*args, **kwargs)
        finally:
            timing["walls_s"] = time.perf_counter() - t0

    enumerate_cells, verify.enumerate_cells = verify.enumerate_cells, stub
    verify._chamber_walls = timed
    try:
        verify.is_nonnegative(f, spec)
    except _Stop:
        pass
    finally:
        verify.enumerate_cells, verify._chamber_walls = enumerate_cells, chamber_walls
    return seen["walls"]


def corner(name: str, sizes: tuple) -> dict:
    times: dict[str, list] = {"build_s": [], "deficit_s": [], "to_enumeration_s": [],
                              "walls_s": []}
    walls = None
    for _ in range(RUNS):
        t0 = time.perf_counter()
        spec = build_sl_block(TABLE2_PATTERNS[name](*sizes))
        t1 = time.perf_counter()
        f = deficit(spec)
        t2 = time.perf_counter()
        timing: dict = {}
        walls = _to_enumeration(f, spec, timing)
        t3 = time.perf_counter()
        for key, value in (("build_s", t1 - t0), ("deficit_s", t2 - t1),
                           ("to_enumeration_s", t3 - t2),
                           ("walls_s", timing.get("walls_s", 0.0))):
            times[key].append(value)
    digest = hashlib.sha256(json.dumps(walls).encode()).hexdigest()
    return {"point": f"{name}{sizes}".replace(" ", ""),
            "slice_dim": f.space.dim, "hyperplanes": len(f.terms),
            "walls": len(walls), "walls_sha256": digest,
            **{key: round(statistics.median(v), 4) for key, v in times.items()}}


def extraction(name: str, sizes: tuple) -> dict:
    inp = matrix_input_for_block_pattern(TABLE1_PATTERNS[name](*sizes))
    times = []
    for _ in range(RUNS):
        t0 = time.perf_counter()
        spec = extract_weights(inp)
        times.append(time.perf_counter() - t0)
    modules = serialize.dumps(serialize.pair_spec_to_json(spec))
    return {"point": f"{name}{sizes}".replace(" ", ""), "n": inp.ambient_dim,
            "h_basis": len(inp.h_basis), "g_basis": len(inp.g_basis),
            "modules_sha256": hashlib.sha256(modules.encode()).hexdigest(),
            "extract_s": round(statistics.median(times), 4)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the record to this file as well")
    args = parser.parse_args(argv)
    meta = metadata(None, ())
    del meta["seed"], meta["points"]
    record = {"runs": RUNS, "corners": [corner(name, sizes) for name, sizes in CORNERS],
              "extractions": [extraction(name, sizes) for name, sizes in EXTRACTIONS],
              "meta": meta}
    line = json.dumps(record)
    print(line)
    if args.out:
        Path(args.out).write_text(line + "\n")
    bad = [c["point"] for c in record["corners"] if c["walls"] != WALLS]
    if bad:
        print(f"wall count is not {WALLS} at {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
