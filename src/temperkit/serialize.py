"""JSON serialization for the exact data model, certificates, and verdicts.

Rationals travel as "num/den" strings (or "num" when integral) so every
round trip is lossless; integral ones are read back as ints.  Documents
carry a schema_version field.  Parsing errors, including a container of the
wrong JSON type, raise SchemaError with a JSON-pointer-style location.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

from .check import Verdict
from .errors import (ArityError, ConstraintViolationError, SchemaError,
                     SymmetryError)
from .model import (LinearForm, PairSpec, PLFunction, SymmetryBlock,
                    TorusSpace, WeightModule)
from .verify import NonnegCertificate, Witness

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# rationals

def rational_to_str(x) -> str:
    return str(x if type(x) in (int, Fraction) else Fraction(x))


def rational_from_str(s, where: str = ""):
    """An int for an integral value, else a Fraction."""
    if isinstance(s, int):
        return int(s)
    if not isinstance(s, str):
        raise SchemaError(f"{where}: expected rational string, got {type(s).__name__}")
    try:
        num, _, den = s.partition("/")
        if den == "":
            return int(num)
        d = int(den)
        if d == 0:
            raise ZeroDivisionError
        return Fraction(int(num), d)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"{where}: malformed rational {s!r}") from None


def _vec_to_json(vec):
    return [rational_to_str(x) for x in vec]


def _vec_from_json(data, where: str):
    return tuple(rational_from_str(x, f"{where}[{i}]")
                 for i, x in enumerate(_expect(data, list, where)))


def _expect(data, kind: type, where: str):
    """data, if it has the JSON type kind (list, dict or str); else SchemaError."""
    if not isinstance(data, kind):
        name = {list: "a list", dict: "an object", str: "a string"}[kind]
        raise SchemaError(f"{where}: expected {name}")
    return data


# ---------------------------------------------------------------------------
# core model objects

def torus_space_to_json(space: TorusSpace) -> dict:
    return {"ambient_dim": space.ambient_dim,
            "coordinate_labels": list(space.coordinate_labels),
            "constraints": [_vec_to_json(c.coeffs) for c in space.constraints]}


def torus_space_from_json(data: dict, where: str = "torus") -> TorusSpace:
    _expect(data, dict, where)
    try:
        dim = int(data["ambient_dim"])
    except (KeyError, TypeError, ValueError):
        raise SchemaError(f"{where}.ambient_dim: missing or not an integer") from None
    constraints = [LinearForm(_vec_from_json(c, f"{where}.constraints[{i}]"))
                   for i, c in enumerate(_expect(data.get("constraints", []), list,
                                                 f"{where}.constraints"))]
    labels = data.get("coordinate_labels")
    if labels is not None:
        _expect(labels, list, f"{where}.coordinate_labels")
    try:
        return TorusSpace(dim, constraints, coordinate_labels=labels)
    except ValueError as e:
        raise SchemaError(f"{where}: {e}") from None


def weight_module_to_json(M: WeightModule) -> dict:
    return {"name": M.name,
            "weights": [{"form": _vec_to_json(f.coeffs), "mult": m}
                        for f, m in M.weights]}


def weight_module_from_json(data: dict, space: TorusSpace,
                            where: str = "module") -> WeightModule:
    _expect(data, dict, where)
    weights = []
    for i, entry in enumerate(_expect(data.get("weights", []), list,
                                      f"{where}.weights")):
        loc = f"{where}.weights[{i}]"
        if not isinstance(entry, dict) or "form" not in entry:
            raise SchemaError(f"{loc}: expected an object with a form")
        mult = entry.get("mult", 1)
        if not isinstance(mult, int) or mult < 1:
            raise SchemaError(f"{loc}.mult: expected a positive integer")
        weights.append((LinearForm(_vec_from_json(entry["form"], f"{loc}.form")),
                        mult))
    try:
        return WeightModule(space, weights, name=data.get("name", ""))
    except ValueError as e:
        raise SchemaError(f"{where}: {e}") from None


def pl_function_to_json(f: PLFunction) -> dict:
    return {"space": torus_space_to_json(f.space),
            "abs_terms": [{"coeff": rational_to_str(c),
                           "form": _vec_to_json(a.coeffs)}
                          for c, a in f.abs_terms],
            "linear_term": _vec_to_json(f.linear_term.coeffs)}


def pl_function_from_json(data: dict, where: str = "function") -> PLFunction:
    _expect(data, dict, where)
    space = torus_space_from_json(data.get("space", {}), f"{where}.space")
    terms = []
    for i, entry in enumerate(_expect(data.get("abs_terms", []), list,
                                      f"{where}.abs_terms")):
        loc = f"{where}.abs_terms[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{loc}: expected an object")
        terms.append((rational_from_str(entry.get("coeff", "1"), f"{loc}.coeff"),
                      LinearForm(_vec_from_json(entry.get("form", []),
                                                f"{loc}.form"))))
    linear = data.get("linear_term")
    lin = LinearForm(_vec_from_json(linear, f"{where}.linear_term")) \
        if linear is not None else None
    try:
        return PLFunction(space, terms, lin)
    except ValueError as e:
        raise SchemaError(f"{where}: {e}") from None


def pair_spec_to_json(spec: PairSpec) -> dict:
    out = {"schema_version": SCHEMA_VERSION,
           "space": torus_space_to_json(spec.space),
           "h_module": weight_module_to_json(spec.h_module),
           "g_module": weight_module_to_json(spec.g_module),
           "metadata": spec.metadata}
    if spec.v_module is not None:
        out["v_module"] = weight_module_to_json(spec.v_module)
    if spec.symmetry:
        out["symmetry"] = [{"coords": list(b.coords), "signed": b.signed}
                           for b in spec.symmetry]
    return out


def pair_spec_from_json(data: dict, where: str = "pair_spec") -> PairSpec:
    _expect(data, dict, where)
    space = torus_space_from_json(data.get("space", {}), f"{where}.space")
    h = weight_module_from_json(data.get("h_module", {}), space,
                                f"{where}.h_module")
    g = weight_module_from_json(data.get("g_module", {}), space,
                                f"{where}.g_module")
    v = None
    if "v_module" in data:
        v = weight_module_from_json(data["v_module"], space, f"{where}.v_module")
    symmetry = []
    for i, b in enumerate(_expect(data.get("symmetry", []), list,
                                  f"{where}.symmetry")):
        loc = f"{where}.symmetry[{i}]"
        if not isinstance(b, dict) or "coords" not in b:
            raise SchemaError(f"{loc}: expected an object with coords")
        coords = _expect(b["coords"], list, f"{loc}.coords")
        symmetry.append(SymmetryBlock(tuple(coords), bool(b.get("signed", False))))
    try:
        return PairSpec(g_module=g, h_module=h, v_module=v,
                        metadata=dict(_expect(data.get("metadata", {}), dict,
                                              f"{where}.metadata")),
                        symmetry=tuple(symmetry))
    except SymmetryError as e:
        raise SchemaError(f"{where}.{e}") from None


# ---------------------------------------------------------------------------
# evidence

def evidence_to_json(ev) -> dict:
    if isinstance(ev, Witness):
        return {"kind": "witness",
                "direction": _vec_to_json(ev.direction),
                "value": rational_to_str(ev.value)}
    if isinstance(ev, NonnegCertificate):
        return {"kind": "certificate",
                "hyperplanes": [_vec_to_json(h.coeffs) for h in ev.hyperplanes],
                "rays": [_vec_to_json(r) for r in ev.rays],
                "ray_values": [rational_to_str(v) for v in ev.ray_values],
                "symmetry_reduced": ev.symmetry_reduced}
    raise TypeError(f"not evidence: {type(ev).__name__}")


def evidence_from_json(data: dict, where: str = "evidence"):
    if not isinstance(data, dict) or "kind" not in data:
        raise SchemaError(f"{where}: expected an object with a kind")
    kind = data["kind"]

    def entries(key):
        return enumerate(_expect(data.get(key, []), list, f"{where}.{key}"))

    if kind == "witness":
        return Witness(direction=_vec_from_json(data.get("direction", []),
                                                f"{where}.direction"),
                       value=rational_from_str(data.get("value", ""),
                                               f"{where}.value"))
    if kind == "certificate":
        rays = tuple(_vec_from_json(r, f"{where}.rays[{i}]")
                     for i, r in entries("rays"))
        values = tuple(rational_from_str(v, f"{where}.ray_values[{i}]")
                       for i, v in entries("ray_values"))
        hyperplanes = tuple(
            LinearForm(_vec_from_json(h, f"{where}.hyperplanes[{i}]"))
            for i, h in entries("hyperplanes"))
        # older documents also carry "chambers" (with a "linear_form" each),
        # "lineality" and "antipodal_reduced"; no check reads them
        return NonnegCertificate(hyperplanes=hyperplanes, rays=rays,
                                 ray_values=values,
                                 symmetry_reduced=bool(
                                     data.get("symmetry_reduced", False)))
    raise SchemaError(f"{where}.kind: unknown kind {kind!r}")


def verdict_to_json(verdict: Verdict, spec: Optional[PairSpec] = None) -> dict:
    out = {"schema_version": SCHEMA_VERSION,
           "tempered": verdict.tempered,
           "deficit_summary": verdict.deficit_summary,
           "spec_echo": verdict.spec_echo,
           "evidence": evidence_to_json(verdict.evidence)}
    if spec is not None:
        out["pair_spec"] = pair_spec_to_json(spec)
    return out


# ---------------------------------------------------------------------------
# certificate replay

def recheck_document(data: dict) -> list[str]:
    """Re-validate a serialized verdict document through evaluation only.

    Rebuilds the deficit from the embedded pair spec and re-evaluates it at
    every listed ray (or at the witness direction), comparing against the
    recorded exact values.  The arrangement is never re-enumerated, so
    nothing checks that the rays cover the slice.  Returns a list of
    human-readable problems, each naming the ray or the witness it is
    about; empty means consistent.
    """
    from .model import deficit, evaluate_pl

    problems = []
    if "pair_spec" not in _expect(data, dict, "document"):
        return ["document has no pair_spec to recheck against"]
    spec = pair_spec_from_json(data["pair_spec"])
    f = deficit(spec)
    ev = evidence_from_json(data.get("evidence", {}))
    tempered = data.get("tempered")

    def value_at(point, name):
        try:
            return evaluate_pl(f, point)
        except (ArityError, ConstraintViolationError) as e:
            problems.append(f"{name}: {e}")
            return None

    if isinstance(ev, Witness):
        if tempered is not False:
            problems.append("witness evidence but tempered is not false")
        value = value_at(ev.direction, "witness direction")
        if value is None:
            return problems
        if value != ev.value:
            problems.append(
                f"witness value mismatch: recorded {ev.value}, computed {value}")
        if value >= 0:
            problems.append("witness direction does not make the deficit negative")
        return problems
    if tempered is not True:
        problems.append("certificate evidence but tempered is not true")
    if len(ev.rays) != len(ev.ray_values):
        problems.append("ray and value counts differ")
        return problems
    for i, (ray, recorded) in enumerate(zip(ev.rays, ev.ray_values)):
        value = value_at(ray, f"ray {i}")
        if value is None:
            continue
        if value != recorded:
            problems.append(
                f"ray {i}: recorded value {recorded}, computed {value}")
        elif value < 0:
            problems.append(f"ray {i}: negative deficit {value} in a certificate")
    if f.space.dim > 0 and not ev.rays:
        problems.append("certificate has no rays")
    return problems


def dumps(document: dict) -> str:
    """Byte-deterministic JSON encoding."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))
