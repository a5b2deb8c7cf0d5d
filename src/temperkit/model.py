"""Exact data model: torus coordinates, weight modules, piecewise-linear rho functions.

All data is held as integer rows over one positive denominator per object;
no floating point enters the decision path.  A "torus space" is a linear
slice of an ambient rational coordinate space cut out by equality
constraints (for instance a trace-zero condition per diagonal block).
Forms are reduced to a canonical representative modulo the constraint rows,
so equality of forms *on the slice* is decidable by tuple comparison.
Rationals enter only through JSON documents and matrix-mode extraction;
_integer_row scales them to integers once, when a LinearForm or a rational
weight reaches a constructor here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter, mul
from typing import Iterable, Optional, Sequence

from .errors import (ArityError, ConstraintViolationError, SpaceMismatchError,
                     SymmetryError)
from .linalg import rref


def _dot(row: Sequence[int], Z: Sequence[int]) -> int:
    return sum(map(mul, row, Z))


def _integer_row(coeffs) -> tuple[list[int], int]:
    """(row, d) with row = d * coeffs integral for the least d >= 1, for a
    LinearForm or a sequence of rationals."""
    coeffs = getattr(coeffs, "coeffs", coeffs)
    try:
        d = math.lcm(*(c.denominator for c in coeffs))
    except AttributeError:      # not ints or Fractions: convert exactly
        return _integer_row([Fraction(c) for c in coeffs])
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _ratios(row: Sequence[int], den: int) -> Sequence:
    """The exact rationals row / den."""
    return row if den == 1 else [Fraction(x, den) for x in row]


def _canonical_terms(terms: Iterable[tuple[int, Sequence[int]]]):
    """Integer abs terms (c, row), standing for sum c*|row.Y|, made canonical.

    Each row is made primitive with its first nonzero entry positive, the
    factor folded into its coefficient, and equal rows merged; zero rows
    and zero coefficients are dropped, and the terms are sorted by row.
    The function's gradient jumps by 2*c*row across each row.Y = 0, so two
    sums with one linear part are one function exactly when their
    canonical terms are equal.
    """
    merged: dict[tuple[int, ...], int] = {}
    for c, row in terms:
        g = math.gcd(*row)
        if not g:
            continue
        if next(x for x in row if x) < 0:
            g = -g
        row = tuple(row) if g == 1 else tuple(x // g for x in row)
        merged[row] = merged.get(row, 0) + c * abs(g)
    return tuple(sorted(((c, row) for row, c in merged.items() if c),
                        key=itemgetter(1)))


class LinearForm:
    """An exact rational covector on the ambient coordinate space."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        object.__setattr__(self, "coeffs", tuple(
            c if type(c) in (int, Fraction) else Fraction(c) for c in coeffs))

    def __setattr__(self, *a):  # immutable
        raise AttributeError("LinearForm is immutable")

    def __call__(self, Y: Sequence) -> Fraction:
        if len(Y) != len(self.coeffs):
            raise ArityError(f"form arity {len(self.coeffs)} vs point arity {len(Y)}")
        return sum((c * Fraction(y) for c, y in zip(self.coeffs, Y)), Fraction(0))

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearForm) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "LinearForm") -> "LinearForm":
        if len(other.coeffs) != len(self.coeffs):
            raise ArityError("cannot add forms of different arity")
        return LinearForm(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return self + (-other)

    def __neg__(self) -> "LinearForm":
        return LinearForm(-c for c in self.coeffs)

    def scale(self, t) -> "LinearForm":
        t = Fraction(t)
        return LinearForm(t * c for c in self.coeffs)

    def __repr__(self) -> str:
        return f"LinearForm({[str(c) for c in self.coeffs]})"


class TorusSpace:
    """Coordinate model of a maximal split abelian subalgebra.

    The space is the subspace of Q^ambient_dim where every constraint form
    vanishes.  Constraints are normalized to reduced row echelon form at
    construction, each row scaled to a primitive integer row with a
    positive pivot entry; dependent constraint sets are rejected.
    """

    __slots__ = ("ambient_dim", "coordinate_labels", "rows", "_pivots", "_scale")

    def __init__(self, ambient_dim: int, constraints: Iterable = (),
                 coordinate_labels: Optional[Sequence[str]] = None):
        if ambient_dim < 0:
            raise ValueError("ambient_dim must be nonnegative")
        rows = [_integer_row(c)[0] for c in constraints]
        if any(len(r) != ambient_dim for r in rows):
            raise ArityError("constraint arity does not match ambient dimension")
        reduced, pivots = rref(rows)
        if len(reduced) != len(rows):
            raise ValueError("constraint set is linearly dependent")
        # an RREF row has a 1 at its pivot, so its integer row is primitive
        rows = tuple(tuple(_integer_row(r)[0]) for r in reduced)
        if coordinate_labels is None:
            coordinate_labels = tuple(f"t{i}" for i in range(ambient_dim))
        elif len(coordinate_labels) != ambient_dim:
            raise ValueError("need one label per ambient coordinate")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "coordinate_labels", tuple(coordinate_labels))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_pivots", tuple(pivots))
        object.__setattr__(self, "_scale",
                           math.lcm(*(r[p] for r, p in zip(rows, pivots))))

    def __setattr__(self, *a):
        raise AttributeError("TorusSpace is immutable")

    @property
    def dim(self) -> int:
        return self.ambient_dim - len(self.rows)

    @property
    def constraints(self) -> tuple[LinearForm, ...]:
        """The reduced row echelon form of the constraints, as exact forms."""
        return tuple(LinearForm(_ratios(r, r[p]))
                     for r, p in zip(self.rows, self._pivots))

    def __eq__(self, other) -> bool:
        return (isinstance(other, TorusSpace)
                and self.ambient_dim == other.ambient_dim
                and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.rows))

    def _reduce(self, v: Sequence[int]) -> tuple[int, ...]:
        """The representative of the integer row _scale*v modulo the constraint
        rows that vanishes at every pivot column.  Each pivot entry divides
        _scale, so every step stays integral."""
        if len(v) != self.ambient_dim:
            raise ArityError("form arity does not match ambient dimension")
        if self._scale != 1:
            v = [self._scale * x for x in v]
        for row, p in zip(self.rows, self._pivots):
            c = v[p]
            if c:
                c //= row[p]
                v = [x - c * r for x, r in zip(v, row)]
        return tuple(v)

    def reduce(self, form: LinearForm) -> LinearForm:
        """Canonical representative of ``form`` modulo the constraint row space."""
        row, d = _integer_row(form.coeffs)
        return LinearForm(_ratios(self._reduce(row), d * self._scale))

    def contains(self, Y: Sequence) -> bool:
        try:
            self._scaled_point(Y)
        except ConstraintViolationError:
            return False
        return True

    def require_point(self, Y: Sequence) -> tuple:
        self._scaled_point(Y)
        return tuple(Y)

    def _scaled_point(self, Y: Sequence) -> tuple[list[int], int]:
        """Clear the denominators of a point of the slice: (Z, m) with
        Z = m*Y integral for the least m >= 1.  Raises ArityError or
        ConstraintViolationError."""
        if len(Y) != self.ambient_dim:
            raise ArityError("point arity does not match ambient dimension")
        Z, m = _integer_row(Y)
        if any(_dot(row, Z) for row in self.rows):
            raise ConstraintViolationError("point violates torus constraints")
        return Z, m

    def slice_basis(self) -> tuple[tuple[int, ...], ...]:
        """Primitive integer basis of the slice (kernel of the constraint
        matrix): one vector per free column j, positive at j and zero at
        the other free columns."""
        basis = []
        for j in range(self.ambient_dim):
            if j in self._pivots:
                continue
            vec = [0] * self.ambient_dim
            vec[j] = self._scale
            for row, p in zip(self.rows, self._pivots):
                vec[p] = -row[j] * (self._scale // row[p])
            g = math.gcd(*vec)
            basis.append(tuple(x // g for x in vec))
        return tuple(basis)

    def lift(self, slice_vec: Sequence) -> tuple:
        """Map rational slice coordinates to an ambient point."""
        basis = self.slice_basis()
        if len(slice_vec) != len(basis):
            raise ArityError("slice vector arity mismatch")
        return tuple(sum(c * b[i] for c, b in zip(slice_vec, basis))
                     for i in range(self.ambient_dim))

    def __repr__(self) -> str:
        return f"TorusSpace(ambient_dim={self.ambient_dim}, dim={self.dim})"


class WeightModule:
    """Finite multiset of (weight, multiplicity) pairs over a torus space.

    Held as sorted (row, multiplicity) ``rows`` over one denominator ``den``
    (weight = row/den), in lowest terms.  Weights, given as LinearForms or
    sequences of rationals, are reduced modulo the torus constraints and
    merged, so no two stored entries are equal on the slice.  Zero weights
    are kept: they add nothing to rho but keep dimension accounting exact.
    """

    __slots__ = ("space", "rows", "den", "name")

    def __init__(self, space: TorusSpace, weights: Iterable[tuple[object, int]],
                 name: str = ""):
        given = [(_integer_row(form), int(mult)) for form, mult in weights]
        if any(mult <= 0 for _, mult in given):
            raise ValueError("multiplicities must be positive")
        den = math.lcm(*(d for (_, d), _ in given))
        merged: dict[tuple[int, ...], int] = {}
        for (row, d), mult in given:
            red = space._reduce(row if d == den else [x * (den // d) for x in row])
            merged[red] = merged.get(red, 0) + mult
        den *= space._scale
        g = math.gcd(den, *(x for row in merged for x in row)) if den > 1 else 1
        if g > 1:
            den //= g
            merged = {tuple(x // g for x in row): m for row, m in merged.items()}
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "rows", tuple(sorted(merged.items())))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "name", name)

    def __setattr__(self, *a):
        raise AttributeError("WeightModule is immutable")

    @property
    def weights(self) -> tuple[tuple[LinearForm, int], ...]:
        """The (weight, multiplicity) pairs as exact forms."""
        return tuple((LinearForm(_ratios(row, self.den)), m) for row, m in self.rows)

    @property
    def total_dim(self) -> int:
        return sum(m for _, m in self.rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, WeightModule) and self.space == other.space
                and self.den == other.den and self.rows == other.rows)

    def __repr__(self) -> str:
        return f"WeightModule({self.name!r}, dim={self.total_dim}, weights={len(self.rows)})"


class PLFunction:
    """Finite sum  sum_i c_i * |alpha_i(Y)|  +  ell(Y)  with rational data.

    Held in one canonical form, f(Y) = (linear.Y + sum c*|row.Y|) / den
    with integer data: ``terms``, the (c, row) of _canonical_terms, and
    ``linear`` are reduced modulo the constraints; den > 0, and den, linear
    and the c share no common factor.
    So f == g exactly when f and g are the same function on the slice.
    Evaluation is positively homogeneous of degree 1 by construction.
    """

    __slots__ = ("space", "den", "linear", "terms")

    def __new__(cls, space: TorusSpace, abs_terms: Iterable[tuple[Fraction, LinearForm]],
                linear_term: Optional[LinearForm] = None):
        # c*|form| = (c/d)*|row| for row = d*form; over the common denominator
        # den of the c/d and the linear part, _reduce scales rows by _scale
        abs_terms = list(abs_terms)
        rows = [_integer_row(form) for _, form in abs_terms]
        linear = (0,) * space.ambient_dim if linear_term is None else linear_term.coeffs
        ints, den = _integer_row([Fraction(c) / d for (c, _), (_, d) in zip(abs_terms, rows)]
                                 + list(linear))
        return cls._from_integers(
            space, den * space._scale, space._reduce(ints[len(rows):]),
            [(c, space._reduce(row)) for c, (row, _) in zip(ints, rows)])

    @classmethod
    def _from_integers(cls, space, den, linear, terms) -> "PLFunction":
        """(linear.Y + sum c*|row.Y|) / den, its rows and linear part
        already reduced modulo the constraints, in canonical form."""
        terms = _canonical_terms(terms)
        g = math.gcd(den, *linear, *(c for c, _ in terms))
        if g > 1:
            den //= g
            linear = [x // g for x in linear]
            terms = tuple((c // g, row) for c, row in terms)
        f = object.__new__(cls)
        for name, value in (("space", space), ("den", den), ("linear", tuple(linear)),
                            ("terms", terms)):
            object.__setattr__(f, name, value)
        return f

    def __setattr__(self, *a):
        raise AttributeError("PLFunction is immutable")

    @property
    def abs_terms(self) -> tuple[tuple[Fraction, LinearForm], ...]:
        """The (coefficient, form) pairs: f = sum c*|form| + linear_term."""
        return tuple((Fraction(c, self.den), LinearForm(row)) for c, row in self.terms)

    @property
    def linear_term(self) -> LinearForm:
        return LinearForm(_ratios(self.linear, self.den))

    def __call__(self, Y: Sequence) -> Fraction:
        return evaluate_pl(self, Y)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PLFunction) and self.space == other.space
                and self.den == other.den and self.linear == other.linear
                and self.terms == other.terms)

    def __add__(self, other: "PLFunction") -> "PLFunction":
        if other.space != self.space:
            raise SpaceMismatchError("cannot add functions over different spaces")
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return PLFunction._from_integers(
            self.space, den,
            [a * x + b * y for x, y in zip(self.linear, other.linear)],
            [(a * c, row) for c, row in self.terms]
            + [(b * c, row) for c, row in other.terms])

    def __sub__(self, other: "PLFunction") -> "PLFunction":
        return self + other.scale(-1)

    def scale(self, t) -> "PLFunction":
        t = Fraction(t)
        k = t.numerator
        return PLFunction._from_integers(
            self.space, self.den * t.denominator, [k * x for x in self.linear],
            [(k * c, row) for c, row in self.terms])

    def is_zero(self) -> bool:
        return not self.terms and not any(self.linear)

    def __repr__(self) -> str:
        return f"PLFunction(terms={len(self.terms)}, dim={self.space.dim})"


@dataclass(frozen=True)
class SymmetryBlock:
    """A set of ambient coordinates the weight data is symmetric under.

    ``coords`` may be permuted arbitrarily; if ``signed`` the coordinates may
    additionally change sign, all without changing the weight multiset.
    """

    coords: tuple[int, ...]
    signed: bool = False


def _check_symmetry_coords(symmetry: Sequence[SymmetryBlock], ambient_dim: int) -> None:
    """Raise SymmetryError naming the first block whose coords are not
    distinct integer coordinates in 0..ambient_dim-1."""
    for i, block in enumerate(symmetry):
        coords = block.coords
        if (not all(type(a) is int and 0 <= a < ambient_dim for a in coords)
                or len(set(coords)) != len(coords)):
            raise SymmetryError(f"symmetry[{i}].coords: {list(coords)} are not "
                                f"distinct coordinates in 0..{ambient_dim - 1}")


@dataclass(frozen=True)
class PairSpec:
    """Weight data of a subalgebra pair, plus an optional extra module."""

    g_module: WeightModule     # weights on the quotient g/h
    h_module: WeightModule
    v_module: Optional[WeightModule] = None
    metadata: dict = field(default_factory=dict)
    symmetry: tuple[SymmetryBlock, ...] = ()

    def __post_init__(self):
        if self.h_module.space != self.g_module.space:
            raise SpaceMismatchError("h and g/h modules live on different torus spaces")
        if self.v_module is not None and self.v_module.space != self.g_module.space:
            raise SpaceMismatchError("extra module lives on a different torus space")
        _check_symmetry_coords(self.symmetry, self.g_module.space.ambient_dim)

    @property
    def space(self) -> TorusSpace:
        return self.g_module.space


# ---------------------------------------------------------------------------
# operations

def evaluate_pl(f: PLFunction, Y: Sequence) -> Fraction:
    """Evaluate sum c_i |alpha_i(Y)| + ell(Y) exactly at a point of the slice.

    The sums run in integers: f is positively homogeneous, so
    f(Y) = f(m*Y)/m where m clears the denominators of Y.
    """
    Z, m = f.space._scaled_point(Y)
    total = _dot(f.linear, Z)
    for c, row in f.terms:
        total += c * abs(_dot(row, Z))
    return Fraction(total, f.den * m)


def rho_plus(M: WeightModule, Y: Sequence) -> Fraction:
    """Trace of Y on the positive part: sum of m*alpha(Y) over alpha(Y) > 0."""
    Z, m = M.space._scaled_point(Y)
    total = sum(mult * max(_dot(row, Z), 0) for row, mult in M.rows)
    return Fraction(total, M.den * m)


def rho_function(M: WeightModule) -> PLFunction:
    """The function (1/2) sum_alpha m_alpha |alpha(Y)| as a PLFunction."""
    return PLFunction._from_integers(M.space, 2 * M.den, [0] * M.space.ambient_dim,
                                     [(m, row) for row, m in M.rows])


def deficit(spec: PairSpec) -> PLFunction:
    """rho_{g/h} + 2 rho_V - rho_h; the pair is tempered iff this is >= 0 everywhere.

    Built in one merge: a module M taken k times contributes the terms
    (k*m/(2*M.den)) * |row| over its rows.
    """
    parts = [(spec.g_module, 1), (spec.h_module, -1)]
    if spec.v_module is not None:
        parts.append((spec.v_module, 2))
    den = math.lcm(*(2 * M.den for M, _ in parts))
    return PLFunction._from_integers(
        spec.space, den, (0,) * spec.space.ambient_dim,
        [(k * (den // (2 * M.den)) * m, row) for M, k in parts for row, m in M.rows])
