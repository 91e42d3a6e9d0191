"""The benchmark's per-layer metrics are all reached, on small inputs.

``BENCHMARK.json`` lists the per-layer metrics every workload reports. A
metric whose layer a change stops calling drops out of the trace, and the
benchmark output is then incomplete. These tests run ``cli.main`` under the
benchmark's own tracer (``bench/tracing.py``, used as it is) on each
workload's inputs at a small weight, and check that every listed metric is
produced.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from poishom import cli

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from tracing import Tracer  # noqa: E402

PER_LAYER = [
    metric["name"]
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    if metric["name"] != "trace.overhead"  # set by bench/run.py, not by the tracer
]

# The inputs of each benchmark workload, at small weights.
RUNS = {
    "so3-cohomology": [("cohomology", "problems/so3.json", "--max-weight", "2")],
    "sympl4-cohomology": [
        ("cohomology", "bench/inputs/symplectic4.json", "--max-weight", "1"),
    ],
    "duality-mix": [
        ("duality", "problems/so3.json", "--max-weight", "2", "--trials", "3"),
        ("duality", "problems/quadratic_rank2.json", "--max-weight", "2", "--trials", "3"),
    ],
}


@pytest.mark.parametrize("workload", sorted(RUNS))
def test_every_per_layer_metric_is_reached(workload):
    tracer = Tracer()
    tracer.install()
    try:
        for command, path, *options in RUNS[workload]:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([command, str(ROOT / path), *options, "--format", "json"])
            assert code == cli.EXIT_OK
    finally:
        tracer.uninstall()
    metrics, _, absent = tracer.layer_metrics(0)
    assert not tracer.missing
    assert [name for name in PER_LAYER if name not in metrics] == [], absent
