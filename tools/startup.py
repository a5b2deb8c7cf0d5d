"""Time fresh temperkit processes: the import plus the first verdict, and the
check, recheck and scan commands.

Each command runs in a new interpreter and is timed from outside, in wall
seconds from spawn to exit, with the bytecode cache of the package cold and
then warm:

- cold: a copy of src/temperkit without __pycache__, run with
  PYTHONDONTWRITEBYTECODE=1, so every process compiles the package, as one
  does from a fresh checkout under an interpreter that writes no bytecode
  (the standard library keeps its installed cache);
- warm: the same copy with PYTHONPYCACHEPREFIX in a temporary directory,
  which one untimed run of each command fills first.

The commands, each run once per round, in this order, for RUNS rounds:

- python: `python3 -c pass`, the interpreter alone, for scale;
- setup: perfbench's set-up program, `import temperkit` and the verdict
  on table1 H1(1,1); setup_in_process is the time it measures itself, from
  before the import to the verdict, as perfbench's setup_wall_s does;
- check: `temperkit check` on the sl_block family question H2(3,1);
- recheck: `temperkit recheck` on the document that check writes;
- scan: `temperkit scan table1 --pmax 2 --qmax 2`.

The record gives each time's median and quartiles, import_lines, the
source lines of the temperkit modules that the set-up program loads, and
src_lines, those of the whole package.

Run from the repository root:

    python3 tools/startup.py > BENCH_startup.json
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = 21
SETUP_PROGRAM = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import temperkit as tk\n"
    "v = tk.check(tk.build_sl_block(tk.TABLE1_PATTERNS['H1'](1, 1)))\n"
    "print(time.perf_counter() - t0, v.tempered)\n")
LINES_PROGRAM = (
    SETUP_PROGRAM +
    "import sys\n"
    "print(sum(len(open(m.__file__).readlines()) for name, m in list(sys.modules.items())"
    " if name.split('.')[0] == 'temperkit'))\n")
SPEC = {"family": {"name": "sl_block", "pattern": "H2", "sizes": [3, 1]}}


def commands(work: Path) -> dict[str, list[str]]:
    cli = [sys.executable, "-m", "temperkit.cli"]
    return {"python": [sys.executable, "-c", "pass"],
            "setup": [sys.executable, "-c", SETUP_PROGRAM],
            "check": cli + ["check", str(work / "spec.json")],
            "recheck": cli + ["recheck", str(work / "verdict.json")],
            "scan": cli + ["scan", "table1", "--pmax", "2", "--qmax", "2"]}


def environments(work: Path) -> dict[str, dict]:
    base = {k: v for k, v in os.environ.items()
            if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    base["PYTHONPATH"] = os.pathsep.join(
        [str(work / "src")] + ([base["PYTHONPATH"]] if base.get("PYTHONPATH") else []))
    return {"cold": dict(base, PYTHONDONTWRITEBYTECODE="1"),
            "warm": dict(base, PYTHONPYCACHEPREFIX=str(work / "pycache"))}


def run(argv: list[str], env: dict) -> tuple[float, str]:
    t0 = time.perf_counter()
    out = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=60, check=True).stdout
    return time.perf_counter() - t0, out


def summary(times: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src" / "temperkit", work / "src" / "temperkit",
                        ignore=shutil.ignore_patterns("__pycache__"))
        (work / "spec.json").write_text(json.dumps(SPEC))
        cmds, envs = commands(work), environments(work)
        (work / "verdict.json").write_text(run(cmds["check"], envs["cold"])[1])
        import_lines = int(run([sys.executable, "-c", LINES_PROGRAM],
                               envs["cold"])[1].split()[-1])
        for argv in cmds.values():     # fill the warm cache
            run(argv, envs["warm"])
        times = {mode: {name: [] for name in [*cmds, "setup_in_process"]}
                 for mode in envs}
        for _ in range(RUNS):
            for mode, env in envs.items():
                for name, argv in cmds.items():
                    wall, out = run(argv, env)
                    times[mode][name].append(wall)
                    if name == "setup":
                        seconds, tempered = out.split()
                        if tempered != "True":
                            sys.exit(f"error: the set-up verdict is {tempered}")
                        times[mode]["setup_in_process"].append(float(seconds))
    record = {name: {mode: summary(times[mode][name]) for mode in times}
              for name in times["cold"]}
    record["meta"] = {"runs": RUNS, "unit": "s", "python": platform.python_version(),
                      "nproc": os.cpu_count(),
                      "import_lines": import_lines,
                      "src_lines": sum(len(p.read_bytes().splitlines()) for p in
                                       sorted((ROOT / "src" / "temperkit").rglob("*.py")))}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
