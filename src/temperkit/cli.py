"""Command-line front end.

Subcommands: check (single spec file), scan (named parameter family),
volume (Monte-Carlo decay and translate validations), recheck (replay a
serialized verdict).  Exit codes: 0 success, 1 verification or scan
mismatch, 2 input error, 3 domain error.  Temperedness itself is reported
in the JSON payload, never through the exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from . import serialize
from .check import (FAMILIES, QUESTION_CEILING, render_scan_table, scan_family,
                    tensor_product_spec, check as run_check)
from .errors import BasisError, SchemaError, TemperkitError
from .generators import (TABLE1_PATTERNS, TABLE2_PATTERNS, MatrixPairInput,
                         example_sp21_input, extract_weights)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_DOMAIN = 3

RANGE_FLAGS = ("pmax", "qmax", "max", "n", "total", "rank")


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: not valid JSON ({e})") from None


def _spec_from_family(data: dict):
    """The spec of a family input: a builder call written like the metadata
    it yields (serialize.read_question), with "name" for "family" and "realify"
    for "realified", or with two shorthands, an sl_block "pattern" name
    applied to its "sizes" and classical_in_sl "params"."""
    name = serialize._expect(data, dict, "family").get("name")
    if type(name) is not str or name not in serialize.BUILDERS:
        raise SchemaError(f"family.name: unknown family {name!r}")
    where = f"family.{name}"
    meta = {key: value for key, value in data.items()
            if key not in ("name", "realify", "pattern", "params", "question")}
    realify = data.get("realify", False)
    if type(realify) is not bool:
        raise SchemaError(f"{where}.realify: expected true or false")
    meta.update(family=name, realified=realify)
    try:
        if name == "sl_block" and "pattern" in data:
            sizes = serialize._ints(data, "sizes", where)
            if len(sizes) not in (2, 3):
                raise SchemaError(f"{where}.sizes: a pattern takes 2 or 3 "
                                  f"sizes, got {len(sizes)}")
            given = serialize._expect(data["pattern"], str, f"{where}.pattern")
            table = TABLE1_PATTERNS if len(sizes) == 2 else TABLE2_PATTERNS
            if given not in table:
                raise SchemaError(f"{where}.pattern: unknown pattern "
                                  f"{given!r} for {len(sizes)} blocks")
            pattern = table[given](*sizes)
            meta.update(sizes=list(pattern.sizes),
                        diagonal_kind=list(pattern.diagonal_kind),
                        upper_blocks=sorted(map(list, pattern.upper_blocks)))
        elif name == "classical_in_sl" and "params" in data:
            params = serialize._expect(data["params"], list, f"{where}.params")
            if data.get("kind") == "so":
                meta["signature"] = params
            elif len(params) == 1:
                meta["m"] = params[0]
    except TemperkitError:
        raise
    except (TypeError, ValueError) as e:
        # a pattern rejecting its sizes is an input error
        raise SchemaError(f"{where}: {e}") from None
    _, build = serialize.read_question(meta, where)
    return build()


def _spec_from_file(data: dict):
    modes = [m for m in ("family", "pair_spec", "tensor_product", "matrix_pair")
             if m in data]
    if len(modes) != 1:
        raise SchemaError("spec file must contain exactly one of family, "
                          "pair_spec, tensor_product, matrix_pair; "
                          f"found {modes or 'none'}")
    mode = modes[0]
    if mode == "family":
        return _spec_from_family(data["family"])
    if mode == "pair_spec":
        return serialize.pair_spec_from_json(data["pair_spec"])
    if mode == "tensor_product":
        q = serialize._expect(data["tensor_product"], dict, "tensor_product")
        return tensor_product_spec(q.get("variant"), *serialize._expect(
            q.get("params"), list, "tensor_product.params"))
    # matrix_pair
    where = "matrix_pair"
    mp = serialize._expect(data[where], dict, where)
    if "preset" in mp:
        if mp["preset"] != "sp21":
            raise SchemaError(f"{where}.preset: unknown preset {mp['preset']!r}")
        return extract_weights(example_sp21_input())

    def items(data, at, read=serialize._vec_from_json):
        # a basis is a list of matrices, a matrix a list of rows
        return tuple(read(x, f"{at}[{i}]")
                     for i, x in enumerate(serialize._expect(data, list, at)))

    try:
        inp = MatrixPairInput(
            ambient_dim=serialize._int_from_json(mp.get("ambient_dim"),
                                                 f"{where}.ambient_dim"),
            **{key: items(mp.get(key, []), f"{where}.{key}", items)
               for key in ("g_basis", "h_basis", "torus_basis")},
            diagonalizer=items(mp.get("diagonalizer", []), f"{where}.diagonalizer"),
            metadata=serialize._expect(mp.get("metadata", {}), dict, f"{where}.metadata"))
    except TemperkitError:
        raise
    except (TypeError, ValueError) as e:
        raise SchemaError(f"{where}: {e}") from None
    if len(inp.torus_basis) > QUESTION_CEILING:     # the spec's ambient dimension
        raise SchemaError(f"{where}.torus_basis: more than {QUESTION_CEILING} elements")
    spec = extract_weights(inp)
    if serialize.read_question(spec.metadata, f"{where}.metadata") is not None:
        # metadata that names a builder call binds the weights to it, as in
        # a document; the spec is still written with its weights
        serialize.pair_spec_from_json(serialize.pair_spec_to_json(spec), where)
    return spec


def cmd_check(args) -> int:
    spec = _spec_from_file(_load_json(args.spec))
    verdict = run_check(spec)
    if args.witness_only:
        if verdict.tempered:
            doc = {"tempered": True, "witness": None}
        else:
            doc = {"tempered": False,
                   "witness": serialize.evidence_to_json(verdict.evidence)}
        print(serialize.dumps(doc))
        return EXIT_OK
    print(serialize.dumps(serialize.verdict_to_json(verdict, spec)))
    return EXIT_OK


def cmd_scan(args) -> int:
    ranges = {}
    for key in RANGE_FLAGS:
        value = getattr(args, key, None)
        if value is not None:
            _at_least(value, f"--{key}")
            ranges[key] = value
    try:
        report = scan_family(args.family, **ranges)
    except KeyError as e:
        print(f"error: {e.args[0]}", file=sys.stderr)
        return EXIT_INPUT
    except TypeError:
        # a family's parameters are the range flags it takes
        code = FAMILIES[args.family].__code__
        takes = [k for k in RANGE_FLAGS if k in code.co_varnames[:code.co_argcount]]
        extra = [k for k in ranges if k not in takes]
        if not extra:
            raise
        raise SchemaError(f"{args.family} takes the range flags "
                          f"{', '.join('--' + k for k in takes)}, not "
                          f"{', '.join('--' + k for k in extra)}") from None
    if not report.points:
        raise SchemaError(f"{args.family}: the ranges {ranges} hold no points")
    print(render_scan_table(report))
    doc = {"family": report.family, "ranges": report.ranges,
           "points": [{"params": _jsonable(p.params), "tempered": p.tempered,
                       "predicted": p.predicted} for p in report.points],
           "mismatches": [_jsonable(p.params) for p in report.mismatches]}
    print(serialize.dumps(doc))
    return EXIT_OK if report.clean else EXIT_MISMATCH


def _jsonable(obj):
    if isinstance(obj, tuple):
        return [_jsonable(x) for x in obj]
    return obj


def _at_least(value: int, flag: str, least: int = 1) -> int:
    if not value >= least:      # so a NaN fails too
        raise SchemaError(f"{flag}: must be at least {least}, got {value}")
    return value


def _parse_matrix(text: str):
    import numpy as np
    text = text.strip()
    try:
        if text.startswith("diag(") and text.endswith(")"):
            A = np.diag([float(x) for x in text[5:-1].split(",")])
        else:
            A = np.array(json.loads(text), dtype=float)
    except (ValueError, TypeError):     # JSONDecodeError is a ValueError
        raise SchemaError(f"--matrix: cannot parse {text!r}; use diag(...) or "
                          "a JSON list of rows") from None
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not A.size:
        raise SchemaError(f"--matrix: {text!r} is not a square matrix")
    return A


def _parse_body(text: str, dim: int):
    from .volume import ConvexBody
    for name, make in (("box", ConvexBody.box), ("ball", ConvexBody.ball)):
        if text.startswith(name):
            digits = text[len(name):]
            if digits and not (digits.isascii() and digits.isdigit()
                               and int(digits) > 0):
                break
            return make(int(digits) if digits else dim)
    raise SchemaError(f"--body: unknown body {text!r}; use boxN or ballN, N >= 1")


def cmd_volume(args) -> int:
    import numpy as np
    from . import volume as vol
    if args.volume_cmd == "decay":
        A = _parse_matrix(args.matrix)
        body = _parse_body(args.body, A.shape[0])
        if body.dimension != A.shape[0]:
            print("error: body and matrix dimensions differ", file=sys.stderr)
            return EXIT_INPUT
        times = list(np.linspace(args.tmin, args.tmax,
                                 _at_least(args.points, "--points", 3)))
        samples = _at_least(args.samples, "--samples", 1000)
        _at_least(args.tolerance, "--tolerance", 0)
        try:    # before sampling, so a path that cannot be written fails at once
            data = open(args.data, "w") if args.data else contextlib.nullcontext()
        except OSError as e:
            raise SchemaError(f"--data: cannot write {args.data!r}: {e.strerror}") from None
        with data as fh:
            try:
                fit = vol.verify_lemma_2_8(A, body, times, samples, args.seed,
                                           tolerance=args.tolerance)
            except TemperkitError:
                raise
            except ValueError as e:     # too few surviving times, an overflow
                raise SchemaError(f"volume decay: {e}") from None
            if fh is not None:
                fh.writelines(f"{t} {y}\n" for t, y in zip(fit.times, fit.log_volumes))
        doc = {"times": list(fit.times), "log_volumes": list(fit.log_volumes),
               "stderrs": list(fit.stderrs), "fitted_slope": fit.fitted_slope,
               "predicted_slope": fit.predicted_slope,
               "tolerance": fit.tolerance, "passed": fit.passed,
               "dropped_times": list(fit.dropped_times)}
        print(serialize.dumps(doc))
        return EXIT_OK if fit.passed else EXIT_MISMATCH
    # translate
    for flag, least in (("dim", 2), ("trials", 1), ("samples", 1)):
        _at_least(getattr(args, flag), f"--{flag}", least)
    rng = np.random.default_rng(args.seed)
    failures = []
    for trial in range(args.trials):
        B = vol.random_symmetric_polytope(args.dim, rng)
        B2 = vol.random_symmetric_polytope(args.dim, rng)
        v = rng.normal(size=args.dim)
        result = vol.check_brunn_translate(B, B2, v, args.samples,
                                           args.seed + 1000 + trial)
        if not result["passed"]:
            failures.append(trial)
    doc = {"trials": args.trials, "failures": failures,
           "passed": not failures}
    print(serialize.dumps(doc))
    return EXIT_OK if not failures else EXIT_MISMATCH


def cmd_recheck(args) -> int:
    data = _load_json(args.certificate)
    problems = serialize.recheck_document(data)
    doc = {"consistent": not problems, "problems": problems}
    print(serialize.dumps(doc))
    return EXIT_OK if not problems else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="temperkit",
        description="Exact decision engine for the temperedness inequality "
                    "rho_h <= rho_{g/h} + 2 rho_V on a split torus.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide a single spec file")
    p.add_argument("spec", help="JSON spec file")
    p.add_argument("--witness-only", action="store_true",
                   help="print only the witness (or null when tempered)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("scan", help="run a named family scan")
    p.add_argument("family", help="family name, e.g. table1, table2, "
                                  "example51, example52-sl")
    p.add_argument("--pmax", type=int)
    p.add_argument("--qmax", type=int)
    p.add_argument("--max", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--total", type=int)
    p.add_argument("--rank", type=int)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("volume", help="Monte-Carlo volume validations")
    vsub = p.add_subparsers(dest="volume_cmd", required=True)
    d = vsub.add_parser("decay", help="intersection-volume decay rate")
    d.add_argument("--matrix", required=True, help='e.g. "diag(1,-1)"')
    d.add_argument("--body", default="box2", help="boxN or ballN")
    d.add_argument("--tmin", type=float, default=0.5)
    d.add_argument("--tmax", type=float, default=6.0)
    d.add_argument("--points", type=int, default=12)
    d.add_argument("--samples", type=int, default=100_000)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--tolerance", type=float, default=0.1)
    d.add_argument("--data", help="write (t, log volume) pairs to this file")
    t = vsub.add_parser("translate", help="symmetric translate bound")
    t.add_argument("--dim", type=int, default=3)
    t.add_argument("--trials", type=int, default=100)
    t.add_argument("--samples", type=int, default=20_000)
    t.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("recheck", help="replay a serialized verdict")
    p.add_argument("certificate", help="JSON verdict file")
    p.set_defaults(func=cmd_recheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, BasisError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except TemperkitError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
