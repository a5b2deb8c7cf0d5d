"""The benchmark's contract with the package: perfbench reads public and
module names of temperkit (check, serialize, model, generators, the family
tables), so a change that moves one fails here, on the cheapest inputs of
each workload, and not only when the benchmark runs."""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import run
        import spans
        import workloads
        yield run, spans, workloads


def test_cheapest_points_run_and_check_out(bench):
    # the first scan-mix point and the cheapest slot of each slot pool,
    # untraced and traced
    run, spans, workloads = bench
    import temperkit as tk
    import temperkit.serialize  # noqa: F401  run_points reads it from sys.modules
    points = [workloads.scan_mix_pool()[0]]
    points += [min(pool(), key=lambda slot: slot.cost_s).points[0]
               for pool in workloads.SLOT_POOLS.values()]
    assert len(points) == len(run.WORKLOADS)
    untraced = run.run_points(tk, points)
    with spans.Tracer() as tracer:
        traced = run.run_points(tk, points, tracer)
    for out in (untraced, traced):
        assert run.check_outputs(points, out["outcomes"], out["problems"])[0] == []
    assert traced["doc_bytes"] == untraced["doc_bytes"] > 0
    assert tracer.phases["decide"].calls["check.check"] == len(points)
