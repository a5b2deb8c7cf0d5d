"""Command-line front end.

Subcommands: check (single spec file), scan (named parameter family),
volume (Monte-Carlo decay and translate validations), recheck (replay a
serialized verdict).  Exit codes: 0 success, 1 verification or scan
mismatch, 2 input error, 3 domain error.  Temperedness itself is reported
in the JSON payload, never through the exit code.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import serialize
from .check import (render_scan_table, scan_family, tensor_product_check,
                    check as run_check)
from .errors import BasisError, SchemaError, TemperkitError
from .generators import (TABLE1_PATTERNS, TABLE2_PATTERNS, BlockPattern,
                         MatrixPairInput, build_classical_in_sl,
                         build_product_in_sl, build_product_in_sp,
                         build_so_pair, build_sl_block, example_sp21_input,
                         extract_weights, realify)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_DOMAIN = 3


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: not valid JSON ({e})") from None


def _spec_from_family(data: dict):
    name = serialize._expect(data, dict, "family").get("name")
    try:
        if name == "sl_block":
            if "pattern" in data:
                sizes = data.get("sizes", [])
                table = TABLE1_PATTERNS if len(sizes) == 2 else TABLE2_PATTERNS
                if data["pattern"] not in table:
                    raise SchemaError(f"family.pattern: unknown pattern "
                                      f"{data['pattern']!r} for {len(sizes)} blocks")
                pattern = table[data["pattern"]](*sizes)
            else:
                pattern = BlockPattern(
                    tuple(data.get("sizes", [])), tuple(data.get("diagonal_kind", [])),
                    frozenset(map(tuple, data.get("upper_blocks", []))))
            spec = build_sl_block(pattern)
        elif name == "product_in_sl":
            spec = build_product_in_sl(data.get("parts", []))
        elif name == "product_in_sp":
            spec = build_product_in_sp(data.get("parts", []))
        elif name == "so_pair":
            spec = build_so_pair(*data.get("signature", []))
        elif name == "classical_in_sl":
            spec = build_classical_in_sl(data.get("kind", ""), *data.get("params", []))
        else:
            raise SchemaError(f"family.name: unknown family {name!r}")
    except TemperkitError:
        raise
    except (TypeError, ValueError) as e:
        # a builder rejecting its parameters is an input error
        raise SchemaError(f"family.{name}: {e}") from None
    if data.get("realify"):
        spec = realify(spec)
    return spec


def _spec_from_file(data: dict):
    modes = [m for m in ("family", "pair_spec", "tensor_product", "matrix_pair")
             if m in data]
    if len(modes) != 1:
        raise SchemaError("spec file must contain exactly one of family, "
                          "pair_spec, tensor_product, matrix_pair; "
                          f"found {modes or 'none'}")
    mode = modes[0]
    if mode == "family":
        return _spec_from_family(data["family"]), None
    if mode == "pair_spec":
        return serialize.pair_spec_from_json(data["pair_spec"]), None
    if mode == "tensor_product":
        q = data["tensor_product"]
        try:
            variant = int(q["variant"])
            params = [int(x) for x in q["params"]]
        except (KeyError, TypeError, ValueError):
            raise SchemaError("tensor_product: need integer variant and params") from None
        return None, (variant, params)
    # matrix_pair
    mp = serialize._expect(data["matrix_pair"], dict, "matrix_pair")
    if mp.get("preset") == "sp21":
        return extract_weights(example_sp21_input()), None
    where = "matrix_pair"

    def mats(key):
        out = []
        for i, M in enumerate(mp.get(key, [])):
            out.append(tuple(serialize._vec_from_json(row, f"{where}.{key}[{i}][{j}]")
                             for j, row in enumerate(M)))
        return tuple(out)

    try:
        inp = MatrixPairInput(
            ambient_dim=int(mp["ambient_dim"]),
            g_basis=mats("g_basis"), h_basis=mats("h_basis"),
            torus_basis=mats("torus_basis"),
            diagonalizer=tuple(serialize._vec_from_json(
                row, f"{where}.diagonalizer[{i}]")
                for i, row in enumerate(mp.get("diagonalizer", []))),
            metadata=dict(mp.get("metadata", {})))
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"{where}: {e}") from None
    return extract_weights(inp), None


def cmd_check(args) -> int:
    data = _load_json(args.spec)
    spec, tensor = _spec_from_file(data)
    if tensor is not None:
        variant, params = tensor
        verdict = tensor_product_check(variant, *params)
        spec = None
    else:
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
    for key in ("pmax", "qmax", "max", "n", "total", "rank"):
        value = getattr(args, key, None)
        if value is not None:
            ranges[key] = value
    try:
        report = scan_family(args.family, **ranges)
    except KeyError as e:
        print(f"error: {e.args[0]}", file=sys.stderr)
        return EXIT_INPUT
    except TypeError as e:
        print(f"error: bad range flags for {args.family}: {e}", file=sys.stderr)
        return EXIT_INPUT
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


def _parse_matrix(text: str) -> np.ndarray:
    text = text.strip()
    if text.startswith("diag(") and text.endswith(")"):
        entries = [float(x) for x in text[5:-1].split(",")]
        return np.diag(entries)
    try:
        rows = json.loads(text)
        return np.array(rows, dtype=float)
    except (json.JSONDecodeError, ValueError):
        raise SchemaError(f"cannot parse matrix {text!r}; use diag(...) or "
                          "a JSON list of rows") from None


def _parse_body(text: str, dim: int):
    from .volume import ConvexBody
    if text.startswith("box"):
        d = int(text[3:]) if len(text) > 3 else dim
        return ConvexBody.box(d)
    if text.startswith("ball"):
        d = int(text[4:]) if len(text) > 4 else dim
        return ConvexBody.ball(d)
    raise SchemaError(f"unknown body {text!r}; use boxN or ballN")


def cmd_volume(args) -> int:
    from . import volume as vol
    if args.volume_cmd == "decay":
        A = _parse_matrix(args.matrix)
        body = _parse_body(args.body, A.shape[0])
        if body.dimension != A.shape[0]:
            print("error: body and matrix dimensions differ", file=sys.stderr)
            return EXIT_INPUT
        times = list(np.linspace(args.tmin, args.tmax, args.points))
        fit = vol.verify_lemma_2_8(A, body, times, args.samples, args.seed,
                                   tolerance=args.tolerance)
        if args.data:
            with open(args.data, "w") as fh:
                for t, y in zip(fit.times, fit.log_volumes):
                    fh.write(f"{t} {y}\n")
        doc = {"times": list(fit.times), "log_volumes": list(fit.log_volumes),
               "stderrs": list(fit.stderrs), "fitted_slope": fit.fitted_slope,
               "predicted_slope": fit.predicted_slope,
               "tolerance": fit.tolerance, "passed": fit.passed,
               "dropped_times": list(fit.dropped_times)}
        print(serialize.dumps(doc))
        return EXIT_OK if fit.passed else EXIT_MISMATCH
    # translate
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
