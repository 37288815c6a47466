"""The benchmark's tracer must observe the library without changing it.

Runs small versions of the three workloads with and without the tracer's
wrappers and requires bitwise-equal outputs, exactly repeating counts,
restored module attributes, and metric names that match BENCHMARK.json.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import spi_recon.bench  # noqa: E402
import spi_recon.cli  # noqa: E402
import spi_recon.io  # noqa: E402
import spi_recon.solvers  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "sweep": lambda: workloads.Sweep(size=8),
    "iterate": lambda: workloads.Iterate(
        size=16, budgets={"gd": 5, "cgd": 30, "poisson": 5, "ap": 3, "cs-dct": 3, "cs-tv": 3}),
    "chain": lambda: workloads.Chain(size=16),
}
MODULES = [spi_recon.bench, spi_recon.cli, spi_recon.io, spi_recon.solvers]


def _fingerprint(outcomes):
    return [(o.op, o.digest, o.refusal, o.rmse, o.iterations, o.terminated_by)
            for o in outcomes]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_outputs_bitwise_equal_with_and_without_tracer(name, tmp_path):
    wl = SMALL[name]()
    state = wl.prepare(3, tmp_path)
    plain = wl.outcomes(state, wl.unit(state))
    tracer = layertrace.Tracer()
    with tracer:
        raw = wl.unit(state)
    traced = wl.outcomes(state, raw)
    assert _fingerprint(traced) == _fingerprint(plain)
    assert [workloads.check(o, None) for o in plain] == [None] * len(plain)
    assert not tracer.missing


def test_counts_repeat_exactly_and_names_are_restored(tmp_path):
    before = [dict(vars(m)) for m in MODULES]
    wl = SMALL["sweep"]()  # runs cells on worker threads
    state = wl.prepare(5, tmp_path)
    runs = []
    for _ in range(2):
        tracer = layertrace.Tracer()
        with tracer:
            wl.unit(state)
        runs.append((dict(tracer.calls()), dict(tracer.counts()),
                     tracer.unique_pattern_inputs()))
    assert runs[0] == runs[1]
    assert runs[0][0]["bench.run_cell"] == 36
    assert [dict(vars(m)) for m in MODULES] == before


def test_metric_names_match_benchmark_json_and_unexercised_are_unmeasured():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    untraced = {"solve_s": {}, "cpu_s": 1.0, "wall_s": 2.0, "traced_wall_s": 2.5,
                "after_wall_s": 2.1}
    metrics = layertrace.per_layer_metrics(layertrace.Tracer(), untraced)
    assert [(k, u) for k, (_, u) in metrics.items()] == [
        (m["name"], m["unit"]) for m in spec["per_layer"]]
    measured = {k for k, (v, _) in metrics.items() if v is not None}
    assert measured == {"process.cpu_s", "process.cpu_util", "trace.overhead_s"}
