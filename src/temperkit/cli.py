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
import math
import sys

from . import serialize
from .check import check as run_check
from .errors import BasisError, SchemaError, TemperkitError

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
    except RecursionError:
        raise SchemaError(f"{path}: nested too deeply to read") from None
    except ValueError as e:     # not UTF-8, or an integer of more digits than int() converts
        raise SchemaError(f"{path}: {e}") from None


def cmd_check(args) -> int:
    spec = serialize.read_input(_load_json(args.spec))
    verdict = run_check(spec)
    try:
        if args.witness_only:
            doc = {"tempered": verdict.tempered, "witness": None if verdict.tempered
                   else serialize.evidence_to_json(verdict.evidence)}
        else:
            doc = serialize.verdict_to_json(verdict, spec)
        text = serialize.dumps(doc)
    except ValueError:
        # str() converts no integer of more digits than int() does, the limit
        # on every number a reader takes, so no document may hold this one
        raise SchemaError(f"{args.spec}: the verdict holds a number of more than "
                          f"{sys.get_int_max_str_digits()} digits, too long to "
                          "write") from None
    print(text)
    return EXIT_OK


def cmd_scan(args) -> int:
    from .families import SCAN_SIZES, render_scan_table, scan_family
    ranges = {}
    for key in RANGE_FLAGS:
        value = getattr(args, key, None)
        if value is not None:
            _at_least(value, f"--{key}")
            ranges[key] = value
    size = SCAN_SIZES.get(args.family)
    if size is None:
        raise SchemaError(f"unknown family {args.family!r}; known: {sorted(SCAN_SIZES)}")
    # a family's parameters are the range flags it takes
    takes = size.__code__.co_varnames[:size.__code__.co_argcount]
    if extra := [k for k in ranges if k not in takes]:
        raise SchemaError(f"{args.family} takes the range flags "
                          f"{', '.join('--' + k for k in takes)}, not "
                          f"{', '.join('--' + k for k in extra)}")
    if (n := size(**ranges)) > serialize.QUESTION_CEILING:     # before any point is built
        flags = ", ".join(f"--{k} {v}" for k, v in ranges.items())
        raise SchemaError(f"{args.family}: {flags} reach matrix size {n}, past the "
                          f"ceiling {serialize.QUESTION_CEILING}")
    report = scan_family(args.family, **ranges)
    if not report.points:
        raise SchemaError(f"{args.family}: the ranges {ranges} hold no points")
    print(render_scan_table(report))
    doc = {"family": report.family, "ranges": report.ranges,
           "points": [{"params": p.params, "tempered": p.tempered,
                       "predicted": p.predicted} for p in report.points],
           "mismatches": [p.params for p in report.mismatches]}
    print(serialize.dumps(doc))
    return EXIT_OK if report.clean else EXIT_MISMATCH


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
    try:
        import numpy as np
        from . import volume as vol
    except ImportError as e:
        print(f"error: volume needs numpy and scipy, installed by "
              f"`pip install 'temperkit[volume]'`: {e}", file=sys.stderr)
        return EXIT_INPUT
    if args.volume_cmd == "decay":
        A = _parse_matrix(args.matrix)
        body = _parse_body(args.body, A.shape[0])
        if body.dimension != A.shape[0]:
            print("error: body and matrix dimensions differ", file=sys.stderr)
            return EXIT_INPUT
        if not -math.inf < args.tmin < args.tmax < math.inf:     # so a NaN fails too
            raise SchemaError(f"--tmin and --tmax: need finite --tmin < --tmax, "
                              f"got {args.tmin} and {args.tmax}")
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
        print(serialize.dumps({name: getattr(fit, name) for name in fit._fields}))
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
    for key in RANGE_FLAGS:
        p.add_argument(f"--{key}", type=int)
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
