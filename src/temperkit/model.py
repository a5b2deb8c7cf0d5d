"""Exact data model: torus coordinates, weight modules, piecewise-linear rho functions.

All arithmetic is exact (`fractions.Fraction`); no floating point enters the
decision path.  A "torus space" is a linear slice of an ambient rational
coordinate space cut out by equality constraints (for instance a trace-zero
condition per diagonal block).  Linear forms are stored in ambient
coordinates and reduced to a canonical representative modulo the constraint
row space, so equality of forms *on the slice* is decidable by tuple
comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import (ArityError, ConstraintViolationError, SpaceMismatchError,
                     SymmetryError)
from .linalg import rref


def _as_fraction_tuple(coeffs: Iterable) -> tuple[Fraction, ...]:
    return tuple(Fraction(c) for c in coeffs)


def _sparse(ints: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """(index, value) pairs of the nonzero entries of an integer row."""
    return tuple((i, a) for i, a in enumerate(ints) if a)


def _dot(row: tuple[tuple[int, int], ...], Z: Sequence[int]) -> int:
    return sum(a * Z[i] for i, a in row)


class LinearForm:
    """An exact rational covector on the ambient coordinate space."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        object.__setattr__(self, "coeffs", _as_fraction_tuple(coeffs))

    def __setattr__(self, *a):  # immutable
        raise AttributeError("LinearForm is immutable")

    def __reduce__(self):
        return (LinearForm, (self.coeffs,))

    @property
    def arity(self) -> int:
        return len(self.coeffs)

    def __call__(self, Y: Sequence) -> Fraction:
        if len(Y) != len(self.coeffs):
            raise ArityError(f"form arity {len(self.coeffs)} vs point arity {len(Y)}")
        return sum((c * Fraction(y) for c, y in zip(self.coeffs, Y)), Fraction(0))

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearForm) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "LinearForm") -> "LinearForm":
        if other.arity != self.arity:
            raise ArityError("cannot add forms of different arity")
        return LinearForm(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return self + (-other)

    def __neg__(self) -> "LinearForm":
        return LinearForm(-c for c in self.coeffs)

    def scale(self, t) -> "LinearForm":
        t = Fraction(t)
        return LinearForm(t * c for c in self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def sign_normalized(self) -> "LinearForm":
        """Flip so the first nonzero coefficient is positive."""
        for c in self.coeffs:
            if c != 0:
                return self if c > 0 else -self
        return self

    def primitive(self) -> "LinearForm":
        """Scale to integer coefficients with content 1, first nonzero positive."""
        if self.is_zero():
            return self
        den = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * den) for c in self.coeffs]
        g = math.gcd(*ints)
        form = LinearForm(Fraction(v, g) for v in ints)
        return form.sign_normalized()

    def integer_coeffs(self) -> tuple[int, ...]:
        den = math.lcm(*(c.denominator for c in self.coeffs)) if self.coeffs else 1
        return tuple(int(c * den) for c in self.coeffs)

    def __repr__(self) -> str:
        return f"LinearForm({[str(c) for c in self.coeffs]})"


class TorusSpace:
    """Coordinate model of a maximal split abelian subalgebra.

    The space is the subspace of Q^ambient_dim where every constraint form
    vanishes.  Constraints are normalized to reduced row echelon form at
    construction; dependent constraint sets are rejected.
    """

    __slots__ = ("ambient_dim", "coordinate_labels", "constraints", "_pivots", "_basis",
                 "_int_rows")

    def __init__(self, ambient_dim: int, constraints: Iterable[LinearForm] = (),
                 coordinate_labels: Optional[Sequence[str]] = None):
        if ambient_dim < 0:
            raise ValueError("ambient_dim must be nonnegative")
        rows = [list(c.coeffs) for c in constraints]
        for r in rows:
            if len(r) != ambient_dim:
                raise ArityError("constraint arity does not match ambient dimension")
        nrows = len(rows)
        reduced, pivots = rref(rows)
        if len(reduced) != nrows:
            raise ValueError("constraint set is linearly dependent")
        constraints = tuple(LinearForm(r) for r in reduced)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "_pivots", tuple(pivots))
        object.__setattr__(self, "_int_rows",
                           tuple(_sparse(c.integer_coeffs()) for c in constraints))
        if coordinate_labels is None:
            coordinate_labels = tuple(f"t{i}" for i in range(ambient_dim))
        elif len(coordinate_labels) != ambient_dim:
            raise ValueError("need one label per ambient coordinate")
        object.__setattr__(self, "coordinate_labels", tuple(coordinate_labels))
        object.__setattr__(self, "_basis", None)

    def __setattr__(self, *a):
        raise AttributeError("TorusSpace is immutable")

    def __reduce__(self):
        return (TorusSpace, (self.ambient_dim, self.constraints,
                             self.coordinate_labels))

    @property
    def dim(self) -> int:
        return self.ambient_dim - len(self.constraints)

    def __eq__(self, other) -> bool:
        return (isinstance(other, TorusSpace)
                and self.ambient_dim == other.ambient_dim
                and self.constraints == other.constraints)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.constraints))

    def reduce(self, form: LinearForm) -> LinearForm:
        """Canonical representative of ``form`` modulo the constraint row space."""
        if form.arity != self.ambient_dim:
            raise ArityError("form arity does not match ambient dimension")
        coeffs = list(form.coeffs)
        for row, p in zip(self.constraints, self._pivots):
            c = coeffs[p]
            if c != 0:
                for i, r in enumerate(row.coeffs):
                    if r != 0:
                        coeffs[i] -= c * r
        return LinearForm(coeffs)

    def contains(self, Y: Sequence) -> bool:
        try:
            self._scaled_point(Y)
        except ConstraintViolationError:
            return False
        return True

    def require_point(self, Y: Sequence) -> tuple[Fraction, ...]:
        Y = _as_fraction_tuple(Y)
        self._scaled_point(Y)
        return Y

    def _scaled_point(self, Y: Sequence) -> tuple[list[int], int]:
        """Clear the denominators of a point of the slice: (Z, m) with
        Z = m*Y integral for the least m >= 1.  Raises like require_point."""
        Y = _as_fraction_tuple(Y)
        if len(Y) != self.ambient_dim:
            raise ArityError("point arity does not match ambient dimension")
        m = math.lcm(*(y.denominator for y in Y))
        Z = [y.numerator * (m // y.denominator) for y in Y]
        if any(_dot(row, Z) for row in self._int_rows):
            raise ConstraintViolationError("point violates torus constraints")
        return Z, m

    def slice_basis(self) -> tuple[tuple[int, ...], ...]:
        """Integer basis of the slice (kernel of the constraint matrix)."""
        cached = object.__getattribute__(self, "_basis")
        if cached is not None:
            return cached
        n = self.ambient_dim
        pivots = set(self._pivots)
        free = [j for j in range(n) if j not in pivots]
        basis = []
        for j in free:
            vec = [Fraction(0)] * n
            vec[j] = Fraction(1)
            for row, p in zip(self.constraints, self._pivots):
                vec[p] = -row.coeffs[j]
            den = math.lcm(*(v.denominator for v in vec))
            ivec = tuple(int(v * den) for v in vec)
            basis.append(ivec)
        result = tuple(basis)
        object.__setattr__(self, "_basis", result)
        return result

    def lift(self, slice_vec: Sequence) -> tuple[Fraction, ...]:
        """Map slice coordinates to an ambient point."""
        basis = self.slice_basis()
        if len(slice_vec) != len(basis):
            raise ArityError("slice vector arity mismatch")
        out = [Fraction(0)] * self.ambient_dim
        for c, b in zip(slice_vec, basis):
            c = Fraction(c)
            if c != 0:
                for i, bi in enumerate(b):
                    out[i] += c * bi
        return tuple(out)

    def __repr__(self) -> str:
        return f"TorusSpace(ambient_dim={self.ambient_dim}, dim={self.dim})"


class WeightModule:
    """Finite multiset of (weight, multiplicity) pairs over a torus space.

    Weights are reduced modulo the torus constraints and merged, so no two
    stored entries are equal on the slice.  Zero weights are kept: they
    contribute nothing to rho but keep dimension accounting exact.
    """

    __slots__ = ("space", "weights", "name")

    def __init__(self, space: TorusSpace, weights: Iterable[tuple[LinearForm, int]],
                 name: str = ""):
        merged: dict[LinearForm, int] = {}
        for form, mult in weights:
            mult = int(mult)
            if mult <= 0:
                raise ValueError("multiplicities must be positive")
            red = space.reduce(form)
            merged[red] = merged.get(red, 0) + mult
        items = sorted(merged.items(), key=lambda kv: kv[0].coeffs)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "weights", tuple(items))
        object.__setattr__(self, "name", name)

    def __setattr__(self, *a):
        raise AttributeError("WeightModule is immutable")

    def __reduce__(self):
        return (WeightModule, (self.space, self.weights, self.name))

    @property
    def total_dim(self) -> int:
        return sum(m for _, m in self.weights)

    def __eq__(self, other) -> bool:
        return (isinstance(other, WeightModule) and self.space == other.space
                and self.weights == other.weights)

    def __repr__(self) -> str:
        return f"WeightModule({self.name!r}, dim={self.total_dim}, weights={len(self.weights)})"


class PLFunction:
    """Finite sum  sum_i c_i * |alpha_i(Y)|  +  ell(Y)  with rational data.

    Abs terms are canonicalized: forms reduced modulo the constraints,
    sign-normalized (|a| = |-a|), merged, zero forms and zero coefficients
    dropped, and sorted lexicographically.  Evaluation is positively
    homogeneous of degree 1 by construction.
    """

    __slots__ = ("space", "abs_terms", "linear_term", "_scaled")

    def __init__(self, space: TorusSpace, abs_terms: Iterable[tuple[Fraction, LinearForm]],
                 linear_term: Optional[LinearForm] = None):
        merged: dict[LinearForm, Fraction] = {}
        for coeff, form in abs_terms:
            coeff = Fraction(coeff)
            red = space.reduce(form).sign_normalized()
            if red.is_zero() or coeff == 0:
                continue
            merged[red] = merged.get(red, Fraction(0)) + coeff
        items = sorted(((c, f) for f, c in merged.items() if c != 0),
                       key=lambda cf: cf[1].coeffs)
        if linear_term is None:
            linear_term = LinearForm([Fraction(0)] * space.ambient_dim)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "abs_terms", tuple(items))
        object.__setattr__(self, "linear_term", space.reduce(linear_term))
        object.__setattr__(self, "_scaled", None)

    def __setattr__(self, *a):
        raise AttributeError("PLFunction is immutable")

    def _integer_scaled(self):
        """(den, linear, terms): den*f(Z) = linear.Z + sum c*|row.Z| on the
        integer points Z of the slice, with integer data and sparse rows.

        Built on first use.  Each abs form is scaled to a primitive integer
        row, its scale factor folded into the coefficient, and terms that
        share a row are merged.
        """
        if self._scaled is None:
            merged: dict[tuple[int, ...], Fraction] = {}
            for c, form in self.abs_terms:
                d = math.lcm(*(x.denominator for x in form.coeffs))
                ints = [x.numerator * (d // x.denominator) for x in form.coeffs]
                g = math.gcd(*ints)
                row = tuple(v // g for v in ints)
                merged[row] = merged.get(row, 0) + c * Fraction(g, d)
            lin = self.linear_term.coeffs
            den = math.lcm(*(x.denominator for x in lin),
                           *(c.denominator for c in merged.values()))
            linear = _sparse([x.numerator * (den // x.denominator) for x in lin])
            terms = tuple((int(c * den), _sparse(row))
                          for row, c in merged.items() if c)
            object.__setattr__(self, "_scaled", (den, linear, terms))
        return self._scaled

    def __reduce__(self):
        return (PLFunction, (self.space, self.abs_terms, self.linear_term))

    def __call__(self, Y: Sequence) -> Fraction:
        return evaluate_pl(self, Y)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PLFunction) and self.space == other.space
                and self.abs_terms == other.abs_terms
                and self.linear_term == other.linear_term)

    def __add__(self, other: "PLFunction") -> "PLFunction":
        if other.space != self.space:
            raise SpaceMismatchError("cannot add functions over different spaces")
        return PLFunction(self.space,
                          list(self.abs_terms) + list(other.abs_terms),
                          self.linear_term + other.linear_term)

    def __sub__(self, other: "PLFunction") -> "PLFunction":
        return self + other.scale(-1)

    def scale(self, t) -> "PLFunction":
        t = Fraction(t)
        return PLFunction(self.space, [(t * c, f) for c, f in self.abs_terms],
                          self.linear_term.scale(t))

    def is_zero(self) -> bool:
        return not self.abs_terms and self.linear_term.is_zero()

    def __repr__(self) -> str:
        return f"PLFunction(terms={len(self.abs_terms)}, dim={self.space.dim})"


@dataclass(frozen=True)
class SymmetryBlock:
    """A set of ambient coordinates the weight data is symmetric under.

    ``coords`` may be permuted arbitrarily; if ``signed`` the coordinates may
    additionally change sign, all without changing the weight multiset.
    """

    coords: tuple[int, ...]
    signed: bool = False


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
        n = self.g_module.space.ambient_dim
        for i, block in enumerate(self.symmetry):
            coords = block.coords
            if (len(set(coords)) != len(coords)
                    or not all(0 <= a < n for a in coords)):
                raise SymmetryError(f"symmetry[{i}].coords: {list(coords)} are not "
                                    f"distinct coordinates in 0..{n - 1}")

    @property
    def space(self) -> TorusSpace:
        return self.g_module.space


# ---------------------------------------------------------------------------
# operations

def evaluate_pl(f: PLFunction, Y: Sequence) -> Fraction:
    """Evaluate sum c_i |alpha_i(Y)| + ell(Y) exactly at a point of the slice.

    The sums run in integers on f's integer-scaled copy: f is positively
    homogeneous, so f(Y) = f(m*Y)/m where m clears the denominators of Y.
    """
    Z, m = f.space._scaled_point(Y)
    den, linear, terms = f._integer_scaled()
    total = _dot(linear, Z)
    for c, row in terms:
        total += c * abs(_dot(row, Z))
    return Fraction(total, den * m)


def rho_plus(M: WeightModule, Y: Sequence) -> Fraction:
    """Trace of Y on the positive part: sum of m*alpha(Y) over alpha(Y) > 0."""
    Y = M.space.require_point(Y)
    total = Fraction(0)
    for form, mult in M.weights:
        v = form(Y)
        if v > 0:
            total += mult * v
    return total


def rho_function(M: WeightModule) -> PLFunction:
    """The function (1/2) sum_alpha m_alpha |alpha(Y)| as a PLFunction."""
    return PLFunction(M.space, [(Fraction(mult, 2), form) for form, mult in M.weights])


def deficit(spec: PairSpec) -> PLFunction:
    """rho_{g/h} + 2 rho_V - rho_h; the pair is tempered iff this is >= 0 everywhere."""
    f = rho_function(spec.g_module) - rho_function(spec.h_module)
    if spec.v_module is not None:
        f = f + rho_function(spec.v_module).scale(2)
    return f
