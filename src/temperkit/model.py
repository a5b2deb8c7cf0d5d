"""Exact data model: torus coordinates, weight modules, piecewise-linear rho functions.

All data is held as integer rows over one positive denominator per object;
no floating point enters the decision path.  A "torus space" is a linear
slice of an ambient rational coordinate space cut out by equality
constraints (for instance a trace-zero condition per diagonal block).
Forms are reduced to a canonical representative modulo the constraint rows,
so equality of forms *on the slice* is decidable by tuple comparison.
Rationals enter only through JSON documents and matrix-mode extraction;
_integer_row scales a sequence of them to an integer row once, when it
reaches a constructor here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, itemgetter, sub
from typing import Iterable, Optional, Sequence

from .errors import ArityError, ConstraintViolationError, SpaceMismatchError
from .linalg import rref


def _integer_row(coeffs) -> tuple[Sequence[int], int]:
    """(row, d) with row = d * coeffs integral for the least d >= 1, for an
    iterable of rationals, read once."""
    coeffs = tuple(coeffs)
    if {*map(type, coeffs)} <= {int}:
        return coeffs, 1
    try:
        d = math.lcm(*(c.denominator for c in coeffs))
    except AttributeError:      # not ints or Fractions: convert exactly
        return _integer_row([Fraction(c) for c in coeffs])
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _ratios(row: Sequence[int], den: int) -> tuple:
    """The exact rationals row / den."""
    return tuple(row) if den == 1 else tuple(Fraction(x, den) for x in row)


def _lex_positive(v) -> bool:
    """Whether the first nonzero entry of v is positive."""
    for x in v:
        if x:
            return x > 0
    return False


def _primitive(row: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """(row/g, g) for the g that makes the nonzero row primitive with its
    first nonzero entry positive."""
    g = math.gcd(*row) if next(filter(None, row)) > 0 else -math.gcd(*row)
    return (tuple(row) if g == 1 else tuple([x // g for x in row])), g


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
        if any(row):
            row, g = _primitive(row)
            merged[row] = merged.get(row, 0) + c * abs(g)
    return tuple(sorted(((c, row) for row, c in merged.items() if c),
                        key=itemgetter(1)))


class Record:
    """Base of the immutable records, which need no generated code.

    A subclass lists its attributes in __slots__ and sets them in __init__
    through _set (in that order) or object.__setattr__ (faster, for
    TorusSpace and WeightModule, built for every spec).  ``_fields`` names
    what repr shows and equality and hashing compare, unless _key is
    overridden; records of different classes are never equal.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class TorusSpace(Record):
    """Coordinate model of a maximal split abelian subalgebra.

    The space is the subspace of Q^ambient_dim where every constraint form
    vanishes.  Constraints are normalized to reduced row echelon form at
    construction, each row scaled to a primitive integer row with a
    positive pivot entry; dependent constraint sets are rejected.
    """

    __slots__ = ("ambient_dim", "rows", "_pivots", "_scale")
    _fields = ("ambient_dim", "rows")

    def __init__(self, ambient_dim: int, constraints: Iterable[Sequence] = ()):
        if ambient_dim < 0:
            raise ValueError("ambient_dim must be nonnegative")
        rows = [_integer_row(c)[0] for c in constraints]
        if any(len(r) != ambient_dim for r in rows):
            raise ArityError("constraint arity does not match ambient dimension")
        reduced, pivots = rref(rows)
        if len(reduced) != len(rows):
            raise ValueError("constraint set is linearly dependent")
        self._fill(ambient_dim, tuple(map(tuple, reduced)), tuple(pivots))

    @classmethod
    def _from_reduced(cls, ambient_dim: int, rows, pivots) -> "TorusSpace":
        """The space of constraint rows already in the form __init__ gives
        them: integer tuples in reduced row echelon form, each primitive
        with a positive entry at its pivot column, the pivots increasing."""
        space = object.__new__(cls)
        space._fill(ambient_dim, tuple(rows), tuple(pivots))
        return space

    def _fill(self, ambient_dim: int, rows: tuple, pivots: tuple) -> None:
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_pivots", pivots)
        object.__setattr__(self, "_scale",
                           math.lcm(*(r[p] for r, p in zip(rows, pivots))))

    @property
    def dim(self) -> int:
        return self.ambient_dim - len(self.rows)

    @property
    def constraints(self) -> tuple[tuple, ...]:
        """The reduced row echelon form of the constraints, as exact rationals."""
        return tuple(_ratios(r, r[p]) for r, p in zip(self.rows, self._pivots))

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

    def slice_view(self) -> tuple[list[int], list[list[int]]]:
        """(free, vectors): the free columns and, per free column c, the
        integer vector _scale*Y of the slice point Y that is 1 at c and 0 at
        the other free columns.  A reduced row is zero at the pivots, so its
        entries at the free columns are its form in these coordinates."""
        free = [c for c in range(self.ambient_dim) if c not in self._pivots]
        vectors = []
        for c in free:
            vec = [0] * self.ambient_dim
            vec[c] = self._scale
            for row, p in zip(self.rows, self._pivots):
                vec[p] = -row[c] * (self._scale // row[p])
            vectors.append(vec)
        return free, vectors

    def slice_basis(self) -> tuple[tuple[int, ...], ...]:
        """Primitive integer basis of the slice (kernel of the constraint
        matrix): the vectors of slice_view, each made primitive, one per
        free column j, positive at j and zero at the other free columns."""
        basis = []
        for vec in self.slice_view()[1]:
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


class WeightModule(Record):
    """Finite multiset of (weight, multiplicity) pairs over a torus space.

    Held as sorted (row, multiplicity) ``rows`` over one denominator ``den``
    (weight = row/den), in lowest terms.  Weights, given as sequences of
    rationals (or, through _from_integers, as integer rows over one
    denominator), are reduced modulo the torus constraints and
    merged, so no two stored entries are equal on the slice.  Zero weights
    are kept: they add nothing to rho but keep dimension accounting exact.
    """

    __slots__ = _fields = ("space", "rows", "den")
    __hash__ = None

    def __init__(self, space: TorusSpace, weights: Iterable[tuple[Sequence, int]]):
        given = [(_integer_row(form), int(mult)) for form, mult in weights]
        if any(mult <= 0 for _, mult in given):
            raise ValueError("multiplicities must be positive")
        den = math.lcm(*(d for (_, d), _ in given))
        self._fill(space, [(space._reduce(row if d == den else
                                          [x * (den // d) for x in row]), mult)
                           for (row, d), mult in given], den * space._scale)

    @classmethod
    def _from_integers(cls, space: TorusSpace, rows, den: int = 1) -> "WeightModule":
        """The module of the weights row/den, for (row, mult) pairs of
        integer row tuples already reduced modulo the constraints
        (TorusSpace._reduce multiplies a row by _scale) and positive
        multiplicities."""
        M = object.__new__(cls)
        M._fill(space, rows, den)
        return M

    def _fill(self, space: TorusSpace, rows, den: int):
        merged: dict[tuple[int, ...], int] = {}
        for row, mult in rows:
            merged[row] = merged.get(row, 0) + mult
        g = math.gcd(den, *(x for row in merged for x in row)) if den > 1 else 1
        if g > 1:
            den //= g
            merged = {tuple(x // g for x in row): m for row, m in merged.items()}
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "rows", tuple(sorted(merged.items())))
        object.__setattr__(self, "den", den)

    @property
    def weights(self) -> tuple[tuple[tuple, int], ...]:
        """The (weight, multiplicity) pairs, each weight as exact rationals."""
        return tuple((_ratios(row, self.den), m) for row, m in self.rows)

    @property
    def total_dim(self) -> int:
        return sum(m for _, m in self.rows)

    def __repr__(self) -> str:
        return f"WeightModule(dim={self.total_dim}, weights={len(self.rows)})"


class PLFunction(Record):
    """Finite sum  sum_i c_i * |alpha_i(Y)|  +  ell(Y)  with rational data.

    Held in one canonical form, f(Y) = (linear.Y + sum c*|row.Y|) / den
    with integer data: ``terms``, the (c, row) of _canonical_terms, and
    ``linear`` are reduced modulo the constraints; den > 0, and den, linear
    and the c share no common factor.
    So f == g exactly when f and g are the same function on the slice.
    Evaluation is positively homogeneous of degree 1 by construction.
    """

    __slots__ = _fields = ("space", "den", "linear", "terms")
    __hash__ = None

    def __new__(cls, space: TorusSpace, abs_terms: Iterable[tuple[object, Sequence]],
                linear_term: Optional[Sequence] = None):
        # c*|form| = (c/d)*|row| for row = d*form; over the common denominator
        # den of the c/d and the linear part, _reduce scales rows by _scale
        abs_terms = list(abs_terms)
        rows = [_integer_row(form) for _, form in abs_terms]
        linear = (0,) * space.ambient_dim if linear_term is None else linear_term
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
        f._set(space, den, tuple(linear), terms)
        return f

    def __call__(self, Y: Sequence) -> Fraction:
        return evaluate_pl(self, Y)

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


class PairSpec(Record):
    """Weight data of a subalgebra pair, plus an optional extra module.

    ``built`` marks a spec that a family builder made from its metadata
    alone, so that the metadata states the whole question; serialize then
    writes the metadata only.  It is neither shown nor compared.
    """

    __slots__ = ("g_module", "h_module", "v_module", "metadata", "built")
    _fields = __slots__[:4]

    def __init__(self, g_module: WeightModule, h_module: WeightModule,
                 v_module: Optional[WeightModule] = None,
                 metadata: Optional[dict] = None, built: bool = False):
        # g_module holds the weights on the quotient g/h
        if h_module.space != g_module.space:
            raise SpaceMismatchError("h and g/h modules live on different torus spaces")
        if v_module is not None and v_module.space != g_module.space:
            raise SpaceMismatchError("extra module lives on a different torus space")
        self._set(g_module, h_module, v_module,
                  {} if metadata is None else metadata, built)

    @property
    def space(self) -> TorusSpace:
        return self.g_module.space


# ---------------------------------------------------------------------------
# operations

def _combine_columns(entries, columns, zero: Optional[list] = None):
    """The sum of a*columns[j] over the entries (j, a): for enumerate(row),
    row.Z at every point Z that ``columns`` lists column by column.  It is
    ``zero``, [0] per point where a row may vanish, when every a is 0."""
    out = None
    for j, a in entries:
        if a and out is None:
            out = columns[j] if a == 1 else list(map(a.__mul__, columns[j]))
        elif a == 1:
            out = list(map(add, out, columns[j]))
        elif a == -1:
            out = list(map(sub, out, columns[j]))
        elif a:
            out = list(map(add, out, map(a.__mul__, columns[j])))
    return zero if out is None else out


def _pl_totals(linear, terms, columns, zero) -> list:
    """linear.Z + sum c*|row.Z| over the (c, row) of ``terms``, for every
    point Z that ``columns`` lists column by column, as _combine_columns."""
    total = _combine_columns(enumerate(linear), columns, zero)
    sums: dict[int, list] = {}      # sum |row.Z| over the terms of each coefficient
    for c, row in terms:
        values = map(abs, _combine_columns(enumerate(row), columns, zero))
        sums[c] = list(map(add, sums.get(c, zero), values))
    for c, values in sums.items():
        total = list(map(add, total, map(c.__mul__, values)))
    return total


def _evaluate(f: PLFunction, points: Sequence[Sequence]) -> list:
    """f at each of the points exactly, as (total, scale) with f(Y) =
    total/scale and scale > 0, or None at a point off the slice.

    Each point Y is scaled to the integer Z = m*Y for the least m >= 1, and
    f(Y) = (linear.Z + sum c*|row.Z|) / (den*m), f being positively
    homogeneous.  Each constraint row, term row and the linear part is
    summed for all points at once, a coordinate column per nonzero entry.
    Raises ArityError if a point's length is not the ambient dimension.
    """
    if any(len(Y) != f.space.ambient_dim for Y in points):
        raise ArityError("point arity does not match ambient dimension")
    if not points:
        return []
    scaled = [_integer_row(Y) for Y in points]
    columns = list(zip(*(Z for Z, _ in scaled)))
    zero = [0] * len(scaled)
    off = map(any, zip(zero, *(_combine_columns(enumerate(row), columns, zero)
                               for row in f.space.rows)))
    total = _pl_totals(f.linear, f.terms, columns, zero)
    return [None if o else (t, f.den * m) for o, t, (_, m) in zip(off, total, scaled)]


def evaluate_at(f: PLFunction, points: Sequence[Sequence]) -> list:
    """f at each of the points as an exact Fraction, or None at a point off
    the slice, by _evaluate.  Raises ArityError if a point's length is not
    the ambient dimension."""
    return [None if v is None else Fraction(*v) for v in _evaluate(f, points)]


def evaluate_pl(f: PLFunction, Y: Sequence) -> Fraction:
    """sum c_i |alpha_i(Y)| + ell(Y) exactly at a point of the slice, by
    evaluate_at.  Raises ArityError or ConstraintViolationError."""
    value, = evaluate_at(f, [Y])
    if value is None:
        raise ConstraintViolationError("point violates torus constraints")
    return value


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
