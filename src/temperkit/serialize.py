"""JSON serialization for the exact data model, certificates, and verdicts.

Integral rationals travel as JSON integers and the others as "num/den"
strings, so every round trip is lossless; readers also accept integral
ones written as "num" strings, and read them back as ints.  Documents
carry a schema_version field.  Parsing errors, including a container of the
wrong JSON type, raise SchemaError with a JSON-pointer-style location.

Schema version 2 writes each question once: a verdict document whose spec
a family builder made (PairSpec.built) carries only that spec's metadata,
which names the builder call; any other spec carries its space and modules
as well.  Readers take every version by one rule (read_pair_spec): metadata
that names a builder call is bounded and rebuilt, and binds any space,
modules and metadata the object also carries.  Version 1 documents, which
carry the space and modules of every spec, read the same way.

Readers ignore the keys that older documents of schema version 1 also
carry and no check reads: top-level "spec_echo", pair_spec "symmetry",
space "coordinate_labels", module "name", and evidence "hyperplanes",
"chambers" (with a "linear_form" each), "lineality" and
"antipodal_reduced".  A pair_spec object or a matrix_pair input refuses
any key it does not read or ignore, naming it.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import Optional

from .check import QUESTION_CEILING, Verdict
from .errors import SchemaError, TemperkitError
from .generators import (TABLE1_PATTERNS, TABLE2_PATTERNS, BlockPattern,
                         build_product_in_sl, build_sl_block, realify)
from .model import PairSpec, TorusSpace, WeightModule, _evaluate, deficit
from .verify import NonnegCertificate, Witness

SCHEMA_VERSION = 2


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
    nonzero denominator, each of no more digits than int() converts."""
    if type(s) is int:
        return s
    if not isinstance(s, str):
        raise SchemaError(f"{where}: expected a rational, got {type(s).__name__}")
    match = _RATIONAL.fullmatch(s)
    if match is None or match[2] is not None and not match[2].strip("0"):
        raise SchemaError(f"{where}: malformed rational {s!r}")
    num, den = match.groups()
    try:
        return int(num) if den is None else Fraction(int(num), int(den))
    except ValueError as e:     # more digits than int() converts
        raise SchemaError(f"{where}: {e}") from None


def _digits(k: int) -> int:
    """The decimal digits of |k|, counted without str()."""
    k = abs(k)
    d = 1 + int(math.log10(k)) if k else 1
    return d + (k >= 10 ** d) - (k < 10 ** (d - 1))


def _rational_text(x) -> str:
    """str(x) for a problem line, or "a rational of N digits", N those of
    its numerator and any denominator other than 1, when one of them has
    more digits than str() converts; never raises."""
    try:
        return str(x)
    except ValueError:
        parts = (x.numerator,) if x.denominator == 1 else (x.numerator, x.denominator)
        return f"a rational of {sum(map(_digits, parts))} digits"


def _vec_to_json(vec):
    return [rational_to_json(x) for x in vec]


def _vec_from_json(data, where: str):
    if {*map(type, _expect(data, list, where))} <= {int}:
        return tuple(data)
    return tuple(rational_from_str(x, f"{where}[{i}]") for i, x in enumerate(data))


def _int_from_json(data, where: str) -> int:
    """data, if it is a JSON integer (true and false are not); else SchemaError."""
    if type(data) is not int:
        raise SchemaError(f"{where}: expected an integer")
    return data


def _bounded(data, where: str) -> int:
    """data, if it is a JSON integer at most QUESTION_CEILING; else SchemaError."""
    if _int_from_json(data, where) > QUESTION_CEILING:
        raise SchemaError(f"{where}: {data} exceeds the ceiling {QUESTION_CEILING}")
    return data


def _expect(data, kind: type, where: str):
    """data, if it has the JSON type kind (list, dict or str); else SchemaError."""
    if not isinstance(data, kind):
        name = {list: "a list", dict: "an object", str: "a string"}[kind]
        raise SchemaError(f"{where}: expected {name}")
    return data


def _unknown_key(data: dict, keys, where: str, why: str) -> None:
    """SchemaError naming the first key of data that is not in keys."""
    key = next((key for key in data if key not in keys), None)
    if key is not None:
        raise SchemaError(f"{where}.{key}: {why}")


# ---------------------------------------------------------------------------
# core model objects

def torus_space_to_json(space: TorusSpace) -> dict:
    return {"ambient_dim": space.ambient_dim,
            "constraints": [_vec_to_json(c) for c in space.constraints]}


def torus_space_from_json(data: dict, where: str = "torus") -> TorusSpace:
    _expect(data, dict, where)
    dim = _bounded(data.get("ambient_dim"), f"{where}.ambient_dim")
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


# ---------------------------------------------------------------------------
# questions: the builder call that a spec's metadata names

def _int_list(value, where: str, count: Optional[int] = None) -> list:
    if not isinstance(value, list) or count is not None and len(value) != count:
        many = "integers" if count is None else f"{count} integer{'s' * (count != 1)}"
        raise SchemaError(f"{where}: expected a list of {many}")
    return [_bounded(x, f"{where}[{i}]") for i, x in enumerate(value)]


def _ints(meta: dict, key: str, where: str, count: Optional[int] = None) -> list:
    return _int_list(meta.get(key), f"{where}.{key}", count)


def _sl_block_question(meta, where):
    sizes = _ints(meta, "sizes", where)
    kinds = meta.get("diagonal_kind", [])
    if not isinstance(kinds, list) or any(type(k) is not str for k in kinds):
        raise SchemaError(f"{where}.diagonal_kind: expected a list of strings")
    blocks = _expect(meta.get("upper_blocks", []), list, f"{where}.upper_blocks")
    upper = frozenset(tuple(_int_list(b, f"{where}.upper_blocks[{i}]", 2))
                      for i, b in enumerate(blocks))
    return sum(sizes), lambda: build_sl_block(
        BlockPattern(tuple(sizes), tuple(kinds), upper))


def _product_question(meta, where):
    parts = _ints(meta, "parts", where)
    if meta["family"] == "product_in_sl":
        build = build_product_in_sl
    else:
        from .families import build_product_in_sp as build
    return sum(parts), lambda: build(parts)


def _so_pair_question(meta, where):
    from .families import build_so_pair
    signature = _ints(meta, "signature", where, 4)
    return sum(signature), lambda: build_so_pair(*signature)


def _classical_question(meta, where):
    from .families import build_classical_in_sl
    kind = meta.get("kind")
    if kind == "so":
        p, q = _ints(meta, "signature", where, 2)
        return p + q, lambda: build_classical_in_sl("so", p, q)
    if kind == "sp":
        m = _bounded(meta.get("m"), f"{where}.m")
        return 2 * m, lambda: build_classical_in_sl("sp", m)
    raise SchemaError(f'{where}.kind: expected "so" or "sp"')


# family name -> reader of its metadata: (matrix size, build)
BUILDERS = {
    "sl_block": _sl_block_question,
    "product_in_sl": _product_question,
    "product_in_sp": _product_question,
    "so_pair": _so_pair_question,
    "classical_in_sl": _classical_question,
}


def read_question(meta: dict, where: str) -> Optional[PairSpec]:
    """The spec of the builder call that a spec's metadata names, rebuilt,
    or None if it names none.

    The metadata names a call when its "question" is "tensor_product" or
    its "family" is a key of BUILDERS; "realified" makes it the
    realification of that pair.  The parameters are read, type-checked and
    bounded by QUESTION_CEILING, and the matrix size n with them, before
    anything is built, so the build is small.  A parameter the builder
    rejects raises SchemaError located at where; its domain errors
    (TemperkitError) pass through.
    """
    family = meta.get("family")
    if meta.get("question") == "tensor_product":
        from .families import tensor_question
        spec = tensor_question(meta.get("variant"), meta, where)
    elif type(family) is str and family in BUILDERS:
        n, build = BUILDERS[family](meta, where)
        if n > QUESTION_CEILING:
            raise SchemaError(f"{where}: matrix size {n} exceeds the ceiling "
                              f"{QUESTION_CEILING}")
        try:
            spec = build()
        except TemperkitError:
            raise
        except (TypeError, ValueError) as e:
            raise SchemaError(f"{where}: {e}") from None
    else:
        return None
    return realify(spec) if meta.get("realified") else spec


def _rebuild(meta: dict, where: str) -> Optional[PairSpec]:
    """read_question at {where}.metadata, with a domain error of the
    builder an input error there too."""
    try:
        return read_question(meta, f"{where}.metadata")
    except SchemaError:
        raise
    except TemperkitError as e:
        raise SchemaError(f"{where}.metadata: {e}") from None


def _modules_from_json(data: dict, space: TorusSpace, where: str) -> dict:
    """The modules that a pair_spec object carries, by key."""
    return {key: weight_module_from_json(data[key], space, f"{where}.{key}")
            for key in ("h_module", "g_module", "v_module") if key in data}


def _bind(spec: PairSpec, meta: dict, carried: dict, where: str) -> list[str]:
    """A problem for meta, and for each space or module that carried gives
    by key, that is not spec's, the rebuilt one."""
    problems = []
    if dumps(spec.metadata) != dumps(meta):
        problems.append(f"{where}.metadata: not the metadata its builder writes, "
                        f"{dumps(spec.metadata)}")
    for key, value in carried.items():
        if value != getattr(spec, key):
            kind = "space" if key == "space" else "module"
            problems.append(f"{where}.{key}: not the {kind} {where}.metadata names")
    return problems


# the keys a pair_spec object may carry; the last two are read by no check
PAIR_SPEC_KEYS = ("space", "h_module", "g_module", "v_module", "metadata",
                  "schema_version", "symmetry")


def read_pair_spec(data: dict, where: str = "pair_spec") -> tuple[PairSpec, list[str]]:
    """The spec that a pair_spec object states, and how the object contradicts it.

    When the metadata names a builder call (read_question), the spec
    is that call's, rebuilt; any space or module the object also carries,
    and the metadata itself, must equal the rebuilt ones, and each that
    does not is a problem naming its key.  Otherwise the spec is the
    carried space and modules.
    """
    _unknown_key(_expect(data, dict, where), PAIR_SPEC_KEYS, where, "not a pair_spec key")
    meta = dict(_expect(data.get("metadata", {}), dict, f"{where}.metadata"))
    spec = _rebuild(meta, where)
    if spec is None:
        space = torus_space_from_json(data.get("space", {}), f"{where}.space")
        modules = _modules_from_json({"h_module": {}, "g_module": {}, **data},
                                     space, where)
        return PairSpec(g_module=modules["g_module"], h_module=modules["h_module"],
                        v_module=modules.get("v_module"), metadata=meta), []
    # the modules are read on the carried space, or else the rebuilt one
    space, carried = spec.space, {}
    if "space" in data:
        space = carried["space"] = torus_space_from_json(data["space"], f"{where}.space")
    carried.update(_modules_from_json(data, space, where))
    return spec, _bind(spec, meta, carried, where)


# ---------------------------------------------------------------------------
# check inputs: a spec file holds one question, in one of four modes

def read_input(data) -> PairSpec:
    """The spec of the question that a spec file's object asks, in one of
    four modes.  A family input is rewritten into its builder call's
    metadata, read as a pair_spec's is and bound to the builder's by key;
    tensor_question reads a tensor_product input and a document's alike."""
    modes = ("family", "pair_spec", "tensor_product", "matrix_pair")
    found = [mode for mode in modes if mode in data] if isinstance(data, dict) else []
    if len(found) != 1:
        raise SchemaError(f"spec file must contain exactly one of {', '.join(modes)}; "
                          f"found {found or 'none'}")
    mode, = found
    if mode == "pair_spec":
        spec, problems = read_pair_spec(data[mode])
    elif mode == "family":
        meta, where = _family_metadata(data[mode])
        spec = read_question(meta, where)
        # bound by key, not value: a builder writes the values it is given in
        # its own form (an sl_block's upper_blocks sorted, and [] if left out)
        problems = [f"{where}.{key}: not a key of the metadata its builder writes, "
                    f"{dumps(spec.metadata)}" for key in meta if key not in spec.metadata]
    elif mode == "tensor_product":
        from .families import tensor_question
        question = _expect(data[mode], dict, mode)
        params = _expect(question.get("params"), list, f"{mode}.params")
        return tensor_question(question.get("variant"), params, mode)
    else:
        spec, problems = _matrix_pair_spec(data[mode])
    if problems:
        raise SchemaError(problems[0])
    return spec


def _family_metadata(data) -> tuple[dict, str]:
    """The metadata of the builder call that a family input names, and its
    location.  The input is that metadata with "name" for "family" and
    "realify" for "realified" (false adds no key), or with two shorthands:
    an sl_block "pattern" applied to its "sizes", and classical_in_sl "params".
    """
    name = _expect(data, dict, "family").get("name")
    if type(name) is not str or name not in BUILDERS:
        raise SchemaError(f"family.name: unknown family {name!r}")
    where = f"family.{name}"
    realify = data.get("realify", False)
    if type(realify) is not bool:
        raise SchemaError(f"{where}.realify: expected true or false")
    for key, use in (("family", "name"), ("realified", "realify"),
                     ("question", "tensor_product")):
        if key in data:
            raise SchemaError(f"{where}.{key}: not a family input key; use {use!r}")
    meta = {**{k: v for k, v in data.items() if k not in ("name", "realify")}, "family": name}
    if realify:
        meta["realified"] = True
    if name == "sl_block" and "pattern" in meta:
        for key in ("diagonal_kind", "upper_blocks"):
            if key in meta:
                raise SchemaError(f"{where}.{key}: not allowed with pattern, "
                                  "which sets it")
        sizes = _ints(meta, "sizes", where)
        if len(sizes) not in (2, 3):
            raise SchemaError(f"{where}.sizes: a pattern takes 2 or 3 "
                              f"sizes, got {len(sizes)}")
        given = _expect(meta.pop("pattern"), str, f"{where}.pattern")
        table = TABLE1_PATTERNS if len(sizes) == 2 else TABLE2_PATTERNS
        if given not in table:
            raise SchemaError(f"{where}.pattern: unknown pattern "
                              f"{given!r} for {len(sizes)} blocks")
        try:
            pattern = table[given](*sizes)
        except ValueError as e:     # a negative size
            raise SchemaError(f"{where}: {e}") from None
        meta.update(sizes=list(pattern.sizes), diagonal_kind=list(pattern.diagonal_kind),
                    upper_blocks=sorted(map(list, pattern.upper_blocks)))
    elif name == "classical_in_sl" and "params" in meta and meta.get("kind") in ("so", "sp"):
        so = meta["kind"] == "so"
        key = "signature" if so else "m"
        if key in meta:
            raise SchemaError(f"{where}.params: not allowed with {key}, which it sets")
        params = _int_list(meta.pop("params"), f"{where}.params", 2 if so else 1)
        meta[key] = params if so else params[0]
    return meta, where


# the keys of a matrix_pair input of explicit matrices
MATRIX_PAIR_KEYS = ("ambient_dim", "g_basis", "h_basis", "torus_basis",
                    "diagonalizer", "metadata")


def _matrix_pair_spec(data) -> tuple[PairSpec, list[str]]:
    """The spec that a matrix_pair input's matrices give, and, when its
    metadata names a builder call, how the spec contradicts that call's."""
    from .matrices import MatrixPairInput, example_sp21_input, extract_weights
    where = "matrix_pair"
    mp = _expect(data, dict, where)
    if "preset" in mp:
        _unknown_key(mp, ("preset",), where, "not allowed with preset, which sets it")
        if mp["preset"] != "sp21":
            raise SchemaError(f"{where}.preset: unknown preset {mp['preset']!r}")
        return extract_weights(example_sp21_input()), []
    _unknown_key(mp, MATRIX_PAIR_KEYS, where, "not a matrix_pair key")

    def items(data, at, read=_vec_from_json):
        # a basis is a list of matrices, a matrix a list of rows
        return tuple(read(x, f"{at}[{i}]")
                     for i, x in enumerate(_expect(data, list, at)))

    try:
        inp = MatrixPairInput(
            ambient_dim=_int_from_json(mp.get("ambient_dim"), f"{where}.ambient_dim"),
            **{key: items(mp.get(key, []), f"{where}.{key}", items)
               for key in ("g_basis", "h_basis", "torus_basis")},
            diagonalizer=items(mp.get("diagonalizer", []), f"{where}.diagonalizer"),
            metadata=_expect(mp.get("metadata", {}), dict, f"{where}.metadata"))
    except TemperkitError:
        raise
    except (TypeError, ValueError) as e:
        raise SchemaError(f"{where}: {e}") from None
    if len(inp.torus_basis) > QUESTION_CEILING:     # the spec's ambient dimension
        raise SchemaError(f"{where}.torus_basis: more than {QUESTION_CEILING} elements")
    spec = extract_weights(inp)
    rebuilt = _rebuild(spec.metadata, where)
    if rebuilt is None:
        return spec, []
    # metadata that names a builder call binds the weights to it, as in a
    # document; the spec is still written with its weights
    carried = {key: value for key in ("space", "h_module", "g_module", "v_module")
               if (value := getattr(spec, key)) is not None}
    return spec, _bind(rebuilt, spec.metadata, carried, where)


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
    """The verdict document; a spec that a family builder made is written as
    its metadata alone, any other as its space and modules too."""
    out = {"schema_version": SCHEMA_VERSION,
           "tempered": verdict.tempered,
           "deficit_summary": verdict.deficit_summary,
           "evidence": evidence_to_json(verdict.evidence)}
    if spec is not None:
        out["pair_spec"] = ({"metadata": spec.metadata} if spec.built
                            else pair_spec_to_json(spec))
    return out


# ---------------------------------------------------------------------------
# certificate replay

def recheck_document(data: dict) -> list[str]:
    """Re-validate a serialized verdict document through evaluation only.

    Documents of every schema version are read by one rule
    (read_pair_spec): when the metadata names a builder call, the spec is
    rebuilt from it, after the call's parameters are bounded, and any space,
    module or metadata the document also carries must equal the rebuilt
    one.  Each evidence vector's length is then checked against the spec's
    ambient dimension, before anything is valued.  One rule then replays
    either kind of evidence: the document is tempered exactly when its
    evidence is a certificate, and one model._evaluate pass values the
    deficit at the witness direction or every ray as an exact total/scale,
    each of which must lie on the slice, have its recorded value p/q
    (total*q == p*scale), and have the sign the verdict claims (total < 0
    at a witness, >= 0 at a ray).  The value is made a Fraction, and the
    point named, only for a problem line.  The arrangement is never
    re-enumerated, so nothing checks that the rays cover the slice.
    Returns a list of human-readable problems, each naming the field, the
    ray or the witness it is about; empty means consistent.  A malformed
    document raises SchemaError.
    """
    if "pair_spec" not in _expect(data, dict, "document"):
        return ["document has no pair_spec to recheck against"]
    ev = evidence_from_json(data.get("evidence", {}))
    spec, problems = read_pair_spec(data["pair_spec"])
    dim = spec.space.ambient_dim
    tempered = isinstance(ev, NonnegCertificate)
    points, recorded = ((ev.rays, ev.ray_values) if tempered
                        else ([ev.direction], [ev.value]))

    def name(i: int) -> str:
        return f"ray {i}" if tempered else "witness direction"

    arity = [f"{name(i)}: point arity {len(point)} does not match the ambient "
             f"dimension {dim}"
             for i, point in enumerate(points) if len(point) != dim]
    if arity:
        return problems + arity
    if data.get("tempered") is not tempered:
        kind = "certificate" if tempered else "witness"
        problems.append(f"{kind} evidence but tempered is not {dumps(tempered)}")
    if len(points) != len(recorded):
        problems.append("ray and value counts differ")
        return problems
    f = deficit(spec)
    for i, (value, expected) in enumerate(zip(_evaluate(f, points), recorded)):
        if value is None:
            problems.append(f"{name(i)}: point violates torus constraints")
            continue
        total, scale = value
        if total * expected.denominator != expected.numerator * scale:
            problems.append(f"{name(i)}: recorded value {_rational_text(expected)}, "
                            f"computed {_rational_text(Fraction(total, scale))}")
        elif (total >= 0) != tempered:
            problems.append(f"{name(i)}: deficit {_rational_text(Fraction(total, scale))} "
                            f"contradicts tempered {dumps(tempered)}")
    if tempered and f.space.dim > 0 and not points:
        problems.append("certificate has no rays")
    return problems


def dumps(document: dict) -> str:
    """Byte-deterministic JSON encoding."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))
