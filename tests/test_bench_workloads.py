"""The benchmark's output checks, run in the test suite on small inputs.

``bench/workloads.py`` checks every iteration it times: among others, that
``passive_probability`` equals ``full_table`` within 1e-9, that every table
sums to 1, that scan files are byte-identical from one iteration to the
next, and that Monte Carlo estimates lie near their twins.  One small
iteration of each workload must pass them, and so must the checks a
workload makes once per run.  Only ``events_file`` writes a scan through
``cli.main`` without reading its rows.
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("name", ["analytic_grid", "eraser_scan", "events_file"])
def test_small_bench_iteration_passes_its_checks(monkeypatch, tmp_path, name):
    # the bench is read, never written: no bytecode cache lands in it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import workloads

    workload = workloads.WORKLOADS[name].small(1, tmp_path)
    iteration = workload.run_once()
    assert iteration.failures == []
    assert iteration.rows > 0
    assert workload.run_checks() in (None, [])  # None: the workload has no such check
