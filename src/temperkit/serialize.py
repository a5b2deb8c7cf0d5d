"""JSON serialization for the exact data model, certificates, and verdicts.

Integral rationals travel as JSON integers and the others as "num/den"
strings, so every round trip is lossless; readers also accept integral
ones written as "num" strings, and read them back as ints.  Documents
carry a schema_version field.  Parsing errors, including a container of the
wrong JSON type, raise SchemaError with a JSON-pointer-style location.

Readers ignore the keys that older documents of schema version 1 also
carry and no check reads: top-level "spec_echo", pair_spec "symmetry",
space "coordinate_labels", module "name", and evidence "hyperplanes",
"chambers" (with a "linear_form" each), "lineality" and
"antipodal_reduced".
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Optional

from .check import Verdict
from .errors import ArityError, ConstraintViolationError, SchemaError
from .model import PairSpec, TorusSpace, WeightModule
from .verify import NonnegCertificate, Witness

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# rationals

def rational_to_json(x):
    """x as a JSON integer when it is integral, else as a "num/den" string."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else str(x)


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rational_from_str(s, where: str = ""):
    """An int for an integral value, else a Fraction; s is a JSON integer
    (true and false are not) or an ASCII string -?[0-9]+(/[0-9]+)? with a
    nonzero denominator."""
    if type(s) is int:
        return s
    if not isinstance(s, str):
        raise SchemaError(f"{where}: expected a rational, got {type(s).__name__}")
    match = _RATIONAL.fullmatch(s)
    if match is None or match[2] is not None and not int(match[2]):
        raise SchemaError(f"{where}: malformed rational {s!r}")
    num, den = match.groups()
    return int(num) if den is None else Fraction(int(num), int(den))


def _vec_to_json(vec):
    return [rational_to_json(x) for x in vec]


def _vec_from_json(data, where: str):
    if all(type(x) is int for x in _expect(data, list, where)):
        return tuple(data)
    return tuple(rational_from_str(x, f"{where}[{i}]") for i, x in enumerate(data))


def _int_from_json(data, where: str) -> int:
    """data, if it is a JSON integer (true and false are not); else SchemaError."""
    if type(data) is not int:
        raise SchemaError(f"{where}: expected an integer")
    return data


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
            "constraints": [_vec_to_json(c) for c in space.constraints]}


def torus_space_from_json(data: dict, where: str = "torus") -> TorusSpace:
    _expect(data, dict, where)
    dim = _int_from_json(data.get("ambient_dim"), f"{where}.ambient_dim")
    constraints = [_vec_from_json(c, f"{where}.constraints[{i}]")
                   for i, c in enumerate(_expect(data.get("constraints", []), list,
                                                 f"{where}.constraints"))]
    try:
        return TorusSpace(dim, constraints)
    except ValueError as e:
        raise SchemaError(f"{where}: {e}") from None


def weight_module_to_json(M: WeightModule) -> dict:
    return {"weights": [{"form": _vec_to_json(f), "mult": m} for f, m in M.weights]}


def weight_module_from_json(data: dict, space: TorusSpace,
                            where: str = "module") -> WeightModule:
    _expect(data, dict, where)
    weights = []
    for i, entry in enumerate(_expect(data.get("weights", []), list,
                                      f"{where}.weights")):
        loc = f"{where}.weights[{i}]"
        if not isinstance(entry, dict) or "form" not in entry:
            raise SchemaError(f"{loc}: expected an object with a form")
        mult = _int_from_json(entry.get("mult", 1), f"{loc}.mult")
        if mult < 1:
            raise SchemaError(f"{loc}.mult: expected a positive integer")
        weights.append((_vec_from_json(entry["form"], f"{loc}.form"), mult))
    try:
        return WeightModule(space, weights)
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
    return PairSpec(g_module=g, h_module=h, v_module=v,
                    metadata=dict(_expect(data.get("metadata", {}), dict,
                                          f"{where}.metadata")))


# ---------------------------------------------------------------------------
# evidence

def evidence_to_json(ev) -> dict:
    if isinstance(ev, Witness):
        return {"kind": "witness",
                "direction": _vec_to_json(ev.direction),
                "value": rational_to_json(ev.value)}
    if isinstance(ev, NonnegCertificate):
        return {"kind": "certificate",
                "rays": [_vec_to_json(r) for r in ev.rays],
                "ray_values": _vec_to_json(ev.ray_values),
                "symmetry_reduced": ev.symmetry_reduced}
    raise TypeError(f"not evidence: {type(ev).__name__}")


def evidence_from_json(data: dict, where: str = "evidence"):
    if not isinstance(data, dict) or "kind" not in data:
        raise SchemaError(f"{where}: expected an object with a kind")
    kind = data["kind"]
    if kind == "witness":
        return Witness(direction=_vec_from_json(data.get("direction", []),
                                                f"{where}.direction"),
                       value=rational_from_str(data.get("value", ""),
                                               f"{where}.value"))
    if kind == "certificate":
        rays = tuple(_vec_from_json(r, f"{where}.rays[{i}]") for i, r in
                     enumerate(_expect(data.get("rays", []), list, f"{where}.rays")))
        values = _vec_from_json(data.get("ray_values", []), f"{where}.ray_values")
        reduced = data.get("symmetry_reduced", False)
        if type(reduced) is not bool:
            raise SchemaError(f"{where}.symmetry_reduced: expected a boolean")
        return NonnegCertificate(rays=rays, ray_values=values, symmetry_reduced=reduced)
    raise SchemaError(f"{where}.kind: unknown kind {kind!r}")


def verdict_to_json(verdict: Verdict, spec: Optional[PairSpec] = None) -> dict:
    out = {"schema_version": SCHEMA_VERSION,
           "tempered": verdict.tempered,
           "deficit_summary": verdict.deficit_summary,
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
