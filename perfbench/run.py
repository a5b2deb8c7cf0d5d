"""temperkit benchmark: time to verdict and time to replay the evidence.

Closed loop, one process, one thread: each point is built, decided and
emitted, and its document parsed and replayed through recheck_document,
before the next point starts.

    python3 perfbench/run.py --workload scan-mix --seed 1 --seconds 24 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (see
README.md). The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; --out FILE also appends the
full record, with run metadata, for compare.py. --workload all runs every
workload, each in a fresh process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refspeed

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("scan-mix", "large-arrangement", "matrix-input")
SETUP_REPEATS = 9
# import plus the first verdict on the tiny spec H1(1,1), in a fresh interpreter
SETUP_PROGRAM = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import temperkit as tk\n"
    "v = tk.check(tk.build_sl_block(tk.TABLE1_PATTERNS['H1'](1, 1)))\n"
    "print(time.perf_counter() - t0, v.tempered)\n")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _import_package():
    if not (SRC / "temperkit" / "__init__.py").is_file():
        sys.exit(f"error: no temperkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import temperkit
    import temperkit.serialize  # not imported by the package itself
    if Path(temperkit.__file__).resolve().parent != SRC / "temperkit":
        sys.exit(f"error: imported temperkit from {temperkit.__file__}, not {SRC}")
    return temperkit


def _run_child(program: str) -> list[str]:
    return subprocess.run([sys.executable, "-c", program], cwd=ROOT,
                          env=_child_env(), capture_output=True, text=True,
                          timeout=60, check=True).stdout.split()


def measure_setup() -> tuple[float, float, bool]:
    """Median set-up time over fresh interpreters, in reference and in wall
    seconds, and whether every one returned the right verdict.

    Each set-up child follows a reference start-up child, which imports
    standard-library modules only; the two medians give the scale.
    """
    times, ref_times, ok = [], [], True
    for _ in range(SETUP_REPEATS):
        ref_times.append(float(_run_child(refspeed.REF_STARTUP_PROGRAM)[0]))
        out = _run_child(SETUP_PROGRAM)
        times.append(float(out[0]))
        ok = ok and out[1] == "True"
    wall = statistics.median(times)
    return wall * refspeed.REF_STARTUP_S / statistics.median(ref_times), wall, ok


def run_points(tk, points, tracer=None, sampler=None, replays=1) -> dict:
    """One closed-loop pass over the points.

    Per point: build the spec, decide and emit its document (timed as
    decide), then parse and replay the document `replays` times (timed as
    recheck, per replay). Doing both per point spreads the recheck samples
    over the whole run, so machine noise averages out in both totals
    alike. The time the sampler's handler takes is no part of either.
    """
    serialize = sys.modules["temperkit.serialize"]
    out = {"decide": [], "recheck_s": 0.0, "doc_bytes": 0, "outcomes": [],
           "problems": []}
    clock = time.perf_counter

    def spent():
        return sampler.spent if sampler else 0.0

    for point in points:
        for phased in (tracer, sampler):
            if phased:
                phased.use("decide")
        s0, t0 = spent(), clock()
        try:
            spec = point.build()
            verdict = tk.check(spec, use_symmetry=point.use_symmetry)
            doc = serialize.dumps(serialize.verdict_to_json(verdict, spec))
        except Exception as exc:    # a failed point is counted, not fatal
            out["decide"].append(clock() - t0 - (spent() - s0))
            out["outcomes"].append(f"{type(exc).__name__}: {exc}")
            out["problems"].append(None)
            continue
        out["decide"].append(clock() - t0 - (spent() - s0))
        out["doc_bytes"] += len(doc)
        # a witness is replayed after the pass; a certificate needs only its doc
        out["outcomes"].append((spec, verdict.evidence) if not verdict.tempered
                               else None)
        for phased in (tracer, sampler):
            if phased:
                phased.use("recheck")
        problems = []
        s0, t0 = spent(), clock()
        for _ in range(replays):
            try:
                found = serialize.recheck_document(json.loads(doc))
            except Exception as exc:    # a failed replay is counted, not fatal
                found = [f"{type(exc).__name__}: {exc}"]
            problems = problems or found
        out["recheck_s"] += (clock() - t0 - (spent() - s0)) / replays
        out["problems"].append(problems)
    return out


# the sp boundary (ROADMAP item 0): the engine answers "not tempered" where
# the example predicates say tempered. A fix may shrink this set; any
# mismatch outside it makes a run incorrect.
KNOWN_MISMATCHES = frozenset(
    ["example52-sp/(1,1)", "example52-sp/(2,2)"]
    + [f"example51/sp_C({m},{m})" for m in range(1, 5)])


def check_outputs(points, outcomes, problems):
    """Failures and predicate mismatches, from checks independent of check().

    A point fails when it raised, when its document does not replay, or
    when its witness does not evaluate to the recorded negative value.
    recheck_document does not check that certificate rays cover the torus,
    so the closed-form predicate is the reference for the verdict. The
    witness replay above uses the same model code as the engine, so it
    cannot tell a wrong "not tempered" from a wrong predicate: any
    disagreement outside KNOWN_MISMATCHES makes the run incorrect.
    """
    model = sys.modules["temperkit.model"]
    failures, mismatches = [], []
    for point, outcome, probs in zip(points, outcomes, problems):
        if isinstance(outcome, str):
            failures.append((point.name, outcome))
            continue
        if probs:
            failures.append((point.name, "; ".join(probs[:3])))
            continue
        if outcome is not None:
            spec, witness = outcome
            value = model.evaluate_pl(model.deficit(spec), witness.direction)
            if not (value == witness.value and value < 0):
                failures.append((point.name, f"witness replays to {value}, "
                                             f"recorded {witness.value}"))
                continue
        if point.predicted is not None and (outcome is None) != point.predicted:
            mismatches.append(point.name)
    return failures, sorted(mismatches)


def _percentile_ms(latencies, q: int):
    """The q-th percentile in ms, when at least ten samples lie beyond it."""
    if len(latencies) * (100 - q) / 100 < 10:
        return None
    return statistics.quantiles(latencies, n=100)[q - 1] * 1000


def metadata(seed: int, points) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    sha = ""
    if (ROOT / ".git").exists():   # a bare source checkout has no history
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                 capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted((SRC / "temperkit").rglob("*.py")))
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "git_sha": sha or "unknown",
            "seed": seed, "src_lines": src_lines,
            "points": [p.name for p in points]}


def _exact_counts_in_child(args) -> dict:
    """The exact counts of the same draw, traced in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "1", "--counts-only"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=170, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def run_workload(args) -> dict:
    tk = _import_package()
    from spans import EXACT, Tracer, layer_metrics
    import workloads

    setup = measure_setup() if args.trace == 0 else None
    points = workloads.draw(args.workload, args.seed, args.seconds)
    # first-call costs are measured by setup_s, not by the passes
    tk.check(tk.build_sl_block(tk.TABLE1_PATTERNS["H1"](1, 1)))

    metrics: dict = {}
    if args.trace == 0:
        with refspeed.Sampler() as sampler:
            run = run_points(tk, points, sampler=sampler,
                             replays=workloads.REPLAYS[args.workload])
        scale = {phase: sampler.scale(phase) for phase in ("decide", "recheck")}
        decide_s = sum(run["decide"])
        metrics["decide_ref_s"] = (decide_s * scale["decide"], "s")
        metrics["recheck_ref_s"] = (run["recheck_s"] * scale["recheck"], "s")
        metrics["setup_s"] = (setup[0], "s")
        metrics["decide_s"] = (decide_s, "s")
        metrics["recheck_s"] = (run["recheck_s"], "s")
        metrics["setup_wall_s"] = (setup[1], "s")
        for phase in ("decide", "recheck"):
            metrics[f"{phase}_kernel_us"] = (
                refspeed.REF_KERNEL_S / scale[phase] * 1e6, "us")
        metrics["decide_ms.p50"] = (statistics.median(run["decide"]) * 1000, "ms")
        p95 = _percentile_ms(run["decide"], 95)
        if p95 is not None:
            metrics["decide_ms.p95"] = (p95, "ms")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    else:
        untraced_s = None
        if not args.counts_only:
            untraced_s = sum(run_points(tk, points)["decide"])
        with Tracer() as tracer:
            run = run_points(tk, points, tracer)
        decide_s = sum(run["decide"])
        metrics.update(layer_metrics(tracer.phases["decide"], tracer.phases["recheck"],
                                     decide_s, untraced_s or decide_s))
    metrics["doc_kb"] = (run["doc_bytes"] / 1024, "KiB")
    exact = {name: metrics[name][0] for name in EXACT + ("doc_kb",) if name in metrics}
    if args.counts_only:
        return {"exact": exact}

    failures, mismatches = check_outputs(points, run["outcomes"], run["problems"])
    unexpected = [name for name in mismatches if name not in KNOWN_MISMATCHES]
    metrics["fail_rate"] = (len(failures) / len(points), "ratio")
    metrics["predicate_mismatches"] = (len(mismatches), "count")
    nondeterministic = []
    if args.trace == 1:
        again = _exact_counts_in_child(args)["exact"]
        nondeterministic = sorted(k for k in exact if again.get(k) != exact[k])
    correct = (not failures and not unexpected and not nondeterministic
               and (setup is None or setup[2]))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": len(points),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": [{"point": p, "error": e} for p, e in failures],
        "predicate_mismatch_points": mismatches,
        "unexpected_mismatch_points": unexpected,
        "nondeterministic_counts": nondeterministic,
        "meta": metadata(args.seed, points),
    }


def _contract_line(record: dict) -> str:
    """The result line: the metrics BENCHMARK.json names for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end" if record["trace"] == 0 else "per_layer"]]
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"],
                       "metrics": {n: record["metrics"][n] for n in names}})


def _print_report(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"points {record['attempted']}  trace {record['trace']}")
    for name, m in record["metrics"].items():
        print(f"  {name:<30} {m['value']:>14.6g} {m['unit']}")
    for key in ("predicate_mismatch_points", "unexpected_mismatch_points",
                "nondeterministic_counts"):
        if record[key]:
            print(f"  {key}: {', '.join(record[key])}")
    for f in record["failures"]:
        print(f"  failed {f['point']}: {f['error']}")
    meta = record["meta"]
    print(f"  {meta['nproc']} cpus, {meta['cpu']}, Python {meta['python']}, "
          f"git {meta['git_sha'][:12]}, src/temperkit {meta['src_lines']} lines")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="run length: the draw is sized to this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="append the full record as one JSON line")
    parser.add_argument("--counts-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        status = 0
        for workload in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            if args.out:
                cmd += ["--out", str(args.out.resolve())]
            status |= subprocess.run(cmd, cwd=ROOT).returncode
        return status

    record = run_workload(args)
    if args.counts_only:
        print(json.dumps(record))
        return 0
    _print_report(record)
    if args.out:
        with args.out.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(_contract_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
