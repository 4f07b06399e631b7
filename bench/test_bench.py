"""Self-tests of the benchmark: its checks catch broken outputs, and the
tracer's arithmetic is right.

Run from the repository root:  python3 -m pytest bench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import workloads  # noqa: E402
from kaon_eraser import experiments, generator, params, probabilities  # noqa: E402
from hostspeed import REF_S, HostClock  # noqa: E402
from tracer import NO_PARENT, Tracer, self_times, summarize  # noqa: E402


@pytest.fixture
def default_params():
    return params.load_params()


def test_flipped_byte_in_scan_csv_is_rejected(tmp_path):
    wl = workloads.AnalyticGrid.small(3, tmp_path)
    assert wl.run_once().failures == []
    assert wl.run_once().failures == []  # identical bytes on a repeat
    path = tmp_path / "scan_a_r2.csv"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    failures = workloads.hash_failures(wl.reference_hashes, {path.name: workloads.sha256_file(path)})
    assert failures and path.name in failures[0]


def test_forbidden_two_pi_two_pi_event_is_rejected(default_params):
    events = generator.generate(generator.GeneratorConfig(seed=5, n_pairs=20_000), default_params)
    _, _, p_value = generator.mode_pair_chi2(events, default_params)
    assert workloads.event_failures(events, p_value, default_params) == []

    two_pi = 0  # public mode code of TwoPi
    mode_l, mode_r = events.mode_l.copy(), events.mode_r.copy()
    mode_l[7] = mode_r[7] = two_pi
    bad = dataclasses.replace(events, mode_l=mode_l, mode_r=mode_r)
    assert workloads.forbidden_cell_events(bad.mode_l, bad.mode_r, default_params) == 1
    _, _, p_bad = generator.mode_pair_chi2(bad, default_params)
    failures = workloads.event_failures(bad, p_bad, default_params)
    assert any("forbidden" in f for f in failures)


@pytest.mark.parametrize(
    "command, flag, value, code",
    [
        ("experiment", "--events-in", "missing.csv", 3),  # returned I/O error
        ("generate", "--pairs", "0", 2),                   # argparse SystemExit
    ],
)
def test_nonzero_cli_exit_is_rejected(tmp_path, command, flag, value, code):
    wl = workloads.EventsFile.small(4, tmp_path)
    argv = wl.argv[command]
    argv[argv.index(flag) + 1] = value
    it = wl.run_once()
    assert it.failures == [f"cli {command} exited with {code}"]


def test_passive_and_table_checks(tmp_path):
    assert workloads.table_sum_failures([1.0, 1.0 + 1e-12]) == []
    assert workloads.table_sum_failures([1.0, 1.001])
    assert workloads.passive_failures(np.array([0.25]), np.array([0.25 + 1e-12])) == []
    assert workloads.passive_failures(np.array([0.25]), np.array([0.26]))


def test_events_equal_is_bitwise(default_params):
    config = generator.GeneratorConfig(seed=6, n_pairs=5_000)
    a = generator.generate(config, default_params)
    b = generator.generate(config, default_params, threads=2)
    assert workloads.events_equal(a, b)
    tau = a.tau_l.copy()
    tau[0] = np.nextafter(tau[0], np.inf)
    assert not workloads.events_equal(a, dataclasses.replace(a, tau_l=tau))


def test_self_time_of_synthetic_span_tree():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping, union 5 s)
    # and [8, 12] (sticks out of the root: 2 s count); [1, 4] has a child [2, 3]
    ids = [0, 1, 2, 3, 4]
    starts = [0.0, 1.0, 3.0, 8.0, 2.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0]
    parents = [NO_PARENT, 0, 0, 0, 1]
    own = self_times(ids, starts, ends, parents)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 3.0, 3: 4.0, 4: 1.0})


def test_host_clock_spreads_kernel_runs_and_scales_by_those_around_an_interval():
    clock = HostClock()
    clock.sample()
    clock.sample()  # less than INTERVAL_S after the first run: nothing is due
    assert len(clock.samples) == 1
    # the runs inside [5, 6] and the nearest one on each side count
    clock.samples = [(1.0, 0.08), (4.0, 0.02), (5.5, 0.04), (7.0, 0.06), (9.0, 0.08)]
    assert clock.scale(5.0, 6.0) == pytest.approx(REF_S / 0.04)
    assert clock.scale(0.0, 0.5) == pytest.approx(REF_S / 0.08)
    assert clock.scale(9.5, 9.9) == pytest.approx(REF_S / 0.08)
    with pytest.raises(ValueError):
        HostClock().scale(0.0, 1.0)


def test_tracer_sees_internal_calls_and_restores_originals(tmp_path):
    original = experiments.window_table
    tracer = run.build_tracer()
    tracer.install()
    try:
        assert experiments.window_table is not original
        spec = experiments.ExperimentSpec(
            kind="a", tau_r0=1.0, tau_l_grid=(0.0, 0.5, 1.0), n_pairs=0
        )
        experiments.run_experiment(spec, params.load_params())
    finally:
        tracer.uninstall()
    assert experiments.window_table is original is probabilities.window_table
    summary = summarize(tracer, 0, len(tracer))
    assert summary["probabilities.window_table"]["calls"] == 6
    assert summary["probabilities.survival_weight"]["calls"] == 6
    assert summary["params.load_params"]["calls"] == 1
    run_a = summary["experiments.run_experiment.a"]
    assert run_a["calls"] == 1 and 0.0 < run_a["self_s"] < run_a["s"]


def test_worker_thread_spans_hang_under_the_calling_span(default_params):
    tracer = run.build_tracer()
    tracer.install()
    try:
        generator.generate(generator.GeneratorConfig(seed=1, n_pairs=3 * 8192), default_params, threads=2)
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    names = [tracer.names[i] for i in spans["name"]]
    generate_id = spans["id"][names.index("generator.generate")]
    kernels = [p for n, p in zip(names, spans["parent"]) if n == "generator.sampling_kernel"]
    assert kernels == [generate_id] * 3


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = set(run.layer_metrics({}, {})) - {"_generate_per_call_s"}
    layer |= {"generator.generate.speedup", "trace_overhead"}
    assert layer == {m["name"] for m in spec["per_layer"]}
    assert spec["paths"] == ["bench"]


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "eraser_scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
