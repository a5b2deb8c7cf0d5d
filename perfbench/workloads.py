"""Workload pools and the seeded draw that turns a seed into benchmark inputs.

scan-mix runs its whole pool in seeded order. The other pools are lists of
slots. A slot holds interchangeable points: mirror or permutation images
of one block pattern, which have the same chamber and ray counts, so the
same cost. The run length picks which slots a run takes, in a fixed
priority order; the seed picks one member of each slot and shuffles the
order of the points. So two seeds run the same amount of work on
different inputs, and the spread between seeds measures the program, not
the draw.

Builders resolve public names through the package at call time, so the
traced run sees every call.
"""

from __future__ import annotations

import itertools
import random
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import temperkit as tk


@dataclass(frozen=True)
class Point:
    name: str
    build: Callable[[], object]      # returns a PairSpec
    use_symmetry: bool
    predicted: Optional[bool]        # closed-form verdict, None if there is none


@dataclass(frozen=True)
class Slot:
    points: tuple[Point, ...]
    # decide + recheck seconds, measured once on a 2-core Intel Xeon with
    # Python 3.11.7; costs only size the draw and are never reported
    cost_s: float


def _family_point(table: str, pattern: str, sizes: tuple) -> Point:
    patterns = tk.TABLE1_PATTERNS if table == "table1" else tk.TABLE2_PATTERNS
    predicates = tk.TABLE1_PREDICATES if table == "table1" else tk.TABLE2_PREDICATES
    return Point(name=f"{table}/{pattern}{sizes}".replace(" ", ""),
                 build=lambda: tk.build_sl_block(patterns[pattern](*sizes)),
                 use_symmetry=True,
                 predicted=predicates[pattern](*sizes))


# ---------------------------------------------------------------------------
# scan-mix: the acceptance gate's family scans in miniature

def _example_builder(family: str, params: tuple) -> Callable[[], object]:
    """The public builder call that the family scan makes for these params."""
    if family == "example52-sl":
        return lambda: tk.build_product_in_sl(params[0])
    if family == "example52-sp":
        return lambda: tk.build_product_in_sp(params[0])
    if family == "example52-so":
        return lambda: tk.build_so_pair(*params)
    kind = params[0]
    if kind == "so_in_sl":
        return lambda: tk.build_classical_in_sl("so", *params[1:])
    if kind == "sp_in_sl":
        return lambda: tk.build_classical_in_sl("sp", *params[1:])
    m, n = params[1:]
    if kind == "sl_C":
        return lambda: tk.realify(tk.build_product_in_sl((m, n)))
    if kind == "so_C":
        return lambda: tk.realify(tk.build_so_pair((m + 1) // 2, m // 2,
                                                   (n + 1) // 2, n // 2))
    if kind == "sp_C":
        return lambda: tk.realify(tk.build_product_in_sp((m, n)))
    raise ValueError(f"unknown example51 point {params!r}")


def _label(family: str, params: tuple) -> str:
    """sp_C(2,2) for example51 points, (2,2) for a partition or signature."""
    kind, args = "", params
    if family == "example51":
        kind, *args = params
    elif family != "example52-so":
        args = params[0]
    return f"{kind}({','.join(map(str, args))})"


def _example_points() -> list[Point]:
    """Example 5.1 and 5.2 points, with the predicates their scans yield.

    The scan generators build each spec eagerly; the benchmark rebuilds it
    through the public builder inside the timed pass, so it checks here
    once that both builds agree.
    """
    families = sys.modules["temperkit.check"].FAMILIES
    ranges = {"example51": {"total": 6, "rank": 4},
              "example52-sl": {"n": 8},
              "example52-sp": {"n": 4},
              "example52-so": {"total": 6}}
    points = []
    for family, kwargs in ranges.items():
        for params, spec, predicted in families[family](**kwargs):
            build = _example_builder(family, params)
            if build() != spec:
                raise RuntimeError(f"{family}{params}: benchmark builder "
                                   "disagrees with the family scan")
            points.append(Point(f"{family}/{_label(family, params)}", build,
                                True, predicted))
    return points


def scan_mix_pool() -> list[Point]:
    """The whole pool; every run takes all of it, sp-boundary points included."""
    points = [_family_point("table1", n, (p, q))
              for n in tk.TABLE1_PATTERNS
              for p, q in itertools.product(range(1, 6), repeat=2)]
    points += [_family_point("table2", n, s)
               for n in tk.TABLE2_PATTERNS
               for s in itertools.product(range(1, 4), repeat=3)]
    return points + _example_points()


# ---------------------------------------------------------------------------
# large-arrangement: a few big symmetric points, verify-bound

# (table, pattern, member sizes, cost_s), in priority order
_LARGE = [
    ("table2", "H10", [(4, 3, 3), (3, 4, 3), (3, 3, 4)], 10.8),
    ("table1", "H4", [(5, 6), (6, 5)], 5.3),
    ("table1", "H4", [(4, 6), (6, 4)], 1.7),
    ("table2", "H11", [(3, 4, 3)], 3.5),
    ("table2", "H11", [(4, 4, 3), (3, 4, 4)], 9.0),
    ("table2", "H11", [(4, 3, 4)], 4.3),
    ("table1", "H4", [(6, 6)], 11.6),
    ("table2", "H11", [(4, 4, 4)], 21.0),
]


def large_arrangement_pool() -> list[Slot]:
    return [Slot(tuple(_family_point(t, n, s) for s in members), cost)
            for t, n, members, cost in _LARGE]


# ---------------------------------------------------------------------------
# matrix-input: matrix-mode extraction, then full enumeration

# decide + recheck seconds per table1 point (p, q), measured like Slot.cost_s
_MATRIX_COST_S = {
    "H1": {(1, 1): 0.0, (1, 2): 0.0, (1, 3): 0.0, (1, 4): 0.01, (2, 1): 0.01,
           (2, 2): 0.02, (2, 3): 0.04, (2, 4): 0.07, (3, 1): 0.08, (3, 2): 0.14,
           (3, 3): 0.25, (3, 4): 0.44, (4, 1): 0.57, (4, 2): 0.85, (4, 3): 1.33},
    "H2": {(1, 1): 0.0, (1, 2): 0.0, (1, 3): 0.01, (1, 4): 0.03, (2, 1): 0.01,
           (2, 2): 0.04, (2, 3): 0.12, (2, 4): 0.25, (3, 1): 0.1, (3, 2): 0.39,
           (3, 3): 0.83, (3, 4): 1.79, (4, 1): 1.01, (4, 2): 2.37, (4, 3): 4.69},
    "H3": {(1, 1): 0.0, (1, 2): 0.02, (1, 3): 0.15, (1, 4): 0.89, (2, 1): 0.02,
           (2, 2): 0.1, (2, 3): 0.49, (2, 4): 2.59, (3, 1): 0.1, (3, 2): 0.49,
           (3, 3): 2.09, (3, 4): 7.04, (4, 1): 0.79, (4, 2): 2.67, (4, 3): 6.5},
    "H4": {(1, 1): 0.0, (1, 2): 0.01, (1, 3): 0.07, (1, 4): 0.57, (2, 1): 0.01,
           (2, 2): 0.04, (2, 3): 0.34, (2, 4): 1.89, (3, 1): 0.08, (3, 2): 0.36,
           (3, 3): 1.56, (3, 4): 11.63, (4, 1): 0.59, (4, 2): 1.95, (4, 3): 11.09},
}
_SP21_COST_S = 2.35
# H3 and H4 treat both blocks alike, so (p, q) and (q, p) are mirror images
_MIRRORED = ("H3", "H4")
# except in cost here: the replay of H4(4,3)'s document takes a third
# longer than H4(3,4)'s and makes up most of a run's recheck time, so each
# is a slot of its own
_UNPAIRED = (("H4", 3, 4), ("H4", 4, 3))
# taken first: the 3,600-chamber full enumeration, then the one matrix input
# that no table pattern gives
_MATRIX_FIRST = ("matrix/H4(3,4)", "matrix/sp21")


def _matrix_point(pattern: str, p: int, q: int) -> Point:
    generators = sys.modules["temperkit.generators"]
    inp = generators.matrix_input_for_block_pattern(tk.TABLE1_PATTERNS[pattern](p, q))
    return Point(name=f"matrix/{pattern}({p},{q})",
                 build=lambda: tk.extract_weights(inp),
                 use_symmetry=False,
                 predicted=tk.TABLE1_PREDICATES[pattern](p, q))


def matrix_input_pool() -> list[Slot]:
    """Slots in priority order: _MATRIX_FIRST, then cheapest first."""
    slots = []
    for pattern, costs in _MATRIX_COST_S.items():
        for p, q in costs:
            paired = pattern in _MIRRORED and (pattern, p, q) not in _UNPAIRED
            if paired and p > q:
                continue
            members = [(p, q)]
            if paired and p != q:
                members.append((q, p))
            slots.append(Slot(tuple(_matrix_point(pattern, *m) for m in members),
                              sum(costs[m] for m in members) / len(members)))
    sp21 = tk.example_sp21_input()
    slots.append(Slot((Point(name="matrix/sp21",
                             build=lambda: tk.extract_weights(sp21),
                             use_symmetry=False, predicted=None),),
                      _SP21_COST_S))
    slots.sort(key=lambda s: (s.points[0].name not in _MATRIX_FIRST,
                              s.points[0].name != _MATRIX_FIRST[0], s.cost_s))
    return slots


SLOT_POOLS: dict[str, Callable[[], list[Slot]]] = {
    "large-arrangement": large_arrangement_pool,
    "matrix-input": matrix_input_pool,
}


# times each document is replayed per run: enough that recheck time sums to
# a few seconds even where the documents are few
REPLAYS = {"scan-mix": 1, "large-arrangement": 3, "matrix-input": 4}


def draw(workload: str, seed: int, seconds: float) -> list[Point]:
    """The points of one run, in seeded order.

    scan-mix takes its whole pool. The other pools take slots in priority
    order, skipping a slot that would overrun the run length, with a seeded
    member of each.
    """
    rng = random.Random(seed)
    if workload == "scan-mix":
        chosen = scan_mix_pool()
    else:
        chosen, total = [], 0.0
        for slot in SLOT_POOLS[workload]():
            if chosen and total + slot.cost_s > seconds:
                continue
            total += slot.cost_s
            chosen.append(rng.choice(slot.points))
    rng.shuffle(chosen)
    return chosen
