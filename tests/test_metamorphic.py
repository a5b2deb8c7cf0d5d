"""Metamorphic verdict tests: relations between the verdicts of related pair
specs that any correct engine satisfies, on random specs no closed form
covers.

The specs are drawn as test_verify's
test_walls_match_the_dense_reference_on_random_pairs draws them: tori on
n = 2..5 coordinates with up to two constraint rows, so that many have a
slice basis with entries other than 1 at its free columns, and weight forms
with entries in {0, +-1, +-2, 1/2}, many roots of h closed under negation.
About a third of them carry an extra module V.

- (a) A unimodular change of ambient coordinates P, every constraint and
  weight row times P, leaves the verdict unchanged; each side's witness,
  mapped by P^-1 or P, has the same value on the other side, by
  evaluation only.
- (b) Scaling every weight by 3/2 and doubling every multiplicity scales
  the deficit by 3: the evidence keeps its rays or direction, and its
  values are tripled.
- (c) A direct sum of two drawn pairs on the product torus is tempered
  exactly when both factors are; a factor's witness, padded with zeros,
  has the same value on the sum.
- (d) Adding a weight w and -w to g/h or to V never turns "tempered" into
  "not tempered", and adding them to h never does the reverse; a witness
  of the side with the larger deficit is valued on the other side no
  higher.
- (e) Zero weights added to g/h, to h and to V change nothing.
"""

import functools
import random
from fractions import Fraction as F

from temperkit.check import check
from temperkit.model import (NonnegCertificate, PairSpec, TorusSpace, WeightModule,
                             deficit, evaluate_pl)

from reference import mat_inv


def _spec(n, constraints, modules) -> PairSpec:
    """The pair spec of (g, h, v) weight lists on the torus of these
    constraint rows; v may be None."""
    space = TorusSpace(n, constraints)
    g, h, v = (None if M is None else WeightModule(space, M) for M in modules)
    return PairSpec(g_module=g, h_module=h, v_module=v)


@functools.lru_cache(maxsize=None)
def _drawn():
    """600 draws, as (n, constraint rows, (g, h, v) weight lists, spec,
    verdict) for each one whose constraints are independent."""
    rng = random.Random(11)
    out = []
    for _ in range(600):
        n = rng.randint(2, 5)
        constraints = [[rng.choice([0, 0, 1, -1, 2, 3, -2]) for _ in range(n)]
                       for _ in range(rng.randint(0, min(2, n - 1)))]

        def form():
            return tuple(rng.choice([0, 0, 1, -1, 2, -2, F(1, 2)]) for _ in range(n))

        h = [(form(), rng.randint(1, 2)) for _ in range(rng.randint(1, 5))]
        g = [(form(), rng.randint(1, 3)) for _ in range(rng.randint(1, 6))]
        h += [(tuple(-x for x in w), m) for w, m in h if rng.random() < 0.7]
        g += [(tuple(-x for x in w), m) for w, m in g if rng.random() < 0.5]
        v = [(form(), 1) for _ in range(rng.randint(1, 2))] if rng.random() < 0.3 else None
        try:
            spec = _spec(n, constraints, (g, h, v))
        except ValueError:      # dependent constraints
            continue
        out.append((n, constraints, (g, h, v), spec, check(spec)))
    return out


def _times(row, P):
    """The row vector row.P."""
    return tuple(sum(x * P[i][j] for i, x in enumerate(row)) for j in range(len(P)))


def _apply(P, y):
    """The column vector P.y."""
    return tuple(sum(x * z for x, z in zip(row, y)) for row in P)


def _unimodular(rng, n):
    """A random integer n x n matrix of determinant +-1: elementary column
    operations on the identity, then one column's sign flipped."""
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n + 2):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.3:
            for row in P:
                row[i], row[j] = row[j], row[i]
        else:
            k = rng.choice([-2, -1, 1, 2])
            for row in P:
                row[j] += k * row[i]
    j = rng.randrange(n)
    for row in P:
        row[j] = -row[j]
    return P


def test_unimodular_change_of_coordinates():
    rng = random.Random(13)
    witnesses = reduced = scaled = 0
    for n, constraints, modules, spec, verdict in _drawn():
        P = _unimodular(rng, n)
        Pinv = mat_inv([[F(x) for x in row] for row in P])
        moved = _spec(n, [_times(c, P) for c in constraints],
                      [None if M is None else [(_times(w, P), m) for w, m in M]
                       for M in modules])
        other = check(moved)
        assert other.tempered == verdict.tempered, (n, constraints, modules, P)
        if not verdict.tempered:
            y = verdict.evidence.direction
            assert evaluate_pl(deficit(moved), _apply(Pinv, y)) == verdict.evidence.value
            y = other.evidence.direction
            assert evaluate_pl(deficit(spec), _apply(P, y)) == other.evidence.value
            witnesses += 1
        else:
            reduced += verdict.evidence.symmetry_reduced
        scaled += spec.space._scale != 1
    assert witnesses > 350 and reduced > 60 and scaled > 150


def test_scaled_weights_and_multiplicities():
    witnesses = certificates = 0
    for n, constraints, modules, _, verdict in _drawn():
        scaled = check(_spec(n, constraints,
                             [None if M is None else [(tuple(F(3, 2) * x for x in w), 2 * m)
                                                      for w, m in M] for M in modules]))
        assert scaled.tempered == verdict.tempered
        ev, other = verdict.evidence, scaled.evidence
        if isinstance(ev, NonnegCertificate):
            assert other.rays == ev.rays
            assert other.ray_values == tuple(3 * x for x in ev.ray_values)
            certificates += 1
        else:
            assert (other.direction, other.value) == (ev.direction, 3 * ev.value)
            witnesses += 1
    assert witnesses > 350 and certificates > 150


def test_zero_weights_change_nothing():
    for n, constraints, modules, _, verdict in _drawn():
        zero = ((0,) * n, 2)
        padded = [None if M is None else M + [zero] for M in modules]
        assert check(_spec(n, constraints, padded)) == verdict


def _direct_sum(one, two):
    """The spec of the two drawn pairs side by side on the product torus:
    constraint rows and weights padded with zeros, V kept when either
    factor has one."""
    (n1, c1, m1), (n2, c2, m2) = one[:3], two[:3]

    def pad(row, left):
        return (*(0,) * left, *row, *(0,) * (n1 + n2 - left - len(row)))

    modules = []
    for M1, M2 in zip(m1, m2):
        rows = [(pad(w, 0), m) for w, m in M1 or ()] + [(pad(w, n1), m) for w, m in M2 or ()]
        modules.append(rows if M1 is not None or M2 is not None else None)
    return _spec(n1 + n2, [pad(c, 0) for c in c1] + [pad(c, n1) for c in c2], modules)


def test_direct_sum_is_tempered_exactly_when_both_factors_are():
    rng = random.Random(17)
    drawn = _drawn()
    tempered = 0
    for _ in range(300):
        one, two = rng.sample(drawn, 2)
        total = _direct_sum(one, two)
        verdict = check(total)
        assert verdict.tempered == (one[4].tempered and two[4].tempered), (one[:3], two[:3])
        tempered += verdict.tempered
        for factor, left, right in ((one[4], 0, two[0]), (two[4], one[0], 0)):
            if not factor.tempered:
                y = (0,) * left + factor.evidence.direction + (0,) * right
                assert evaluate_pl(deficit(total), y) == factor.evidence.value
    assert 20 < tempered < 280


def test_added_weights_move_the_verdict_one_way_only():
    rng = random.Random(19)
    flips = [0, 0, 0]
    for n, constraints, modules, spec, verdict in _drawn():
        w = tuple(rng.choice([0, 1, -1, 2, F(1, 2)]) for _ in range(n))
        pm = [(w, 1), (tuple(-x for x in w), 1)]
        for k in range(3):      # g/h, h, V
            grown = _spec(n, constraints, [(M or []) + pm if i == k else M
                                           for i, M in enumerate(modules)])
            other = check(grown)
            # adding to g/h or V raises the deficit, adding to h lowers it
            (low, low_verdict), (high, high_verdict) = (
                ((spec, verdict), (grown, other)) if k != 1 else ((grown, other), (spec, verdict)))
            assert low_verdict.tempered <= high_verdict.tempered, (n, constraints, modules, k, w)
            if not high_verdict.tempered:
                ev = high_verdict.evidence
                assert evaluate_pl(deficit(low), ev.direction) <= ev.value
            flips[k] += other.tempered != verdict.tempered
    assert min(flips) > 30, flips
