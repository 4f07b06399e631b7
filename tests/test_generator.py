import concurrent.futures
import dataclasses
import hashlib
import io
import itertools
import math
import os
import signal
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import expit

from kaon_eraser import (
    sampling_kernel,
    EventFormatError,
    EventSet,
    GeneratorConfig,
    PhysicsParams,
    generate,
    integrated_mode_pair_probabilities,
    mode_pair_chi2,
    read_events,
    write_events,
)
from kaon_eraser import generator, textio
from kaon_eraser.decay import (CHANNEL_TO_MODE_CODE, MODE_ORDER, DecayMode, _mode_cells,
                               amplitudes)
from kaon_eraser.generator import _BATCH, _TASK, _X_HIGH, _X_LOW, _saturated_cells
from kaon_eraser.textio import _HEADER_COLUMNS, _WRITE_BATCH, EVENT_SCHEMA_VERSION, _event_lines
from kaon_eraser.probabilities import _sech
from tests.conftest import random_params


@pytest.fixture(scope="module")
def events_1m(default_params):
    return generate(GeneratorConfig(seed=42, n_pairs=1_000_000), default_params)


def test_config_validation():
    with pytest.raises(ValueError, match="n_pairs"):
        GeneratorConfig(seed=1, n_pairs=0)
    config = GeneratorConfig(seed=1, n_pairs=10, tau_max=20.0)
    with pytest.raises(ValueError, match="tau_max"):
        config.validate_horizon(PhysicsParams())


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("seed", True), ("seed", np.float64(1.0)), ("seed", "1"),
    ("n_pairs", 10.0), ("n_pairs", np.True_), ("n_pairs", None),
])
def test_config_refuses_what_is_no_integer(field, value):
    # seed=1.5 drew seed 1's events and wrote seed=1.5 into the header
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        GeneratorConfig(**{"seed": 1, "n_pairs": 10, field: value})


def test_config_takes_numpy_integers(default_params):
    config = GeneratorConfig(seed=np.uint64(2**64 - 1), n_pairs=np.int32(10))
    assert generate(config, default_params).n == 10
    numpy_seed = generate(GeneratorConfig(seed=np.int64(3), n_pairs=10), default_params)
    np.testing.assert_array_equal(numpy_seed.tau_l,
                                  generate(GeneratorConfig(3, 10), default_params).tau_l)


@pytest.mark.parametrize("threads", [0, -3, 2.5, None, True])
def test_generate_refuses_a_thread_count_that_is_no_positive_integer(default_params, threads):
    with pytest.raises(ValueError, match="threads must be"):
        generate(GeneratorConfig(seed=1, n_pairs=10), default_params, threads=threads)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_an_interrupted_generate_runs_no_queued_task(monkeypatch, default_params, threads):
    # Ctrl-C during the second kernel call: ``map`` cancels the tasks not
    # yet started, and then the pool shuts down.  Every call from the second
    # on waits for that shutdown, so no worker is free to start a queued
    # task before the cancel, on any host: the first call and one call per
    # worker run.  An interrupt raised in a worker instead reaches the main
    # thread only after the results ahead of it, while the other workers go
    # on starting tasks.
    calls = itertools.count(1)
    kernel = generator.sampling_kernel
    shutdown = concurrent.futures.ThreadPoolExecutor.shutdown
    shutting_down = threading.Event()
    waits = []

    def signalled_shutdown(pool, *args, **kwargs):
        shutting_down.set()
        return shutdown(pool, *args, **kwargs)

    def interrupted(*args):
        call = next(calls)
        if call == 2:
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        if call >= 2:
            waits.append(shutting_down.wait(60))
        return kernel(*args)

    monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "shutdown", signalled_shutdown)
    monkeypatch.setattr(generator, "sampling_kernel", interrupted)
    config = GeneratorConfig(seed=1, n_pairs=20 * _TASK * _BATCH)
    before = set(threading.enumerate())
    with pytest.raises(KeyboardInterrupt):
        generate(config, default_params, threads=threads)
    # an interrupt between a worker's start and the pool's record of it
    # leaves that worker out of the shutdown's join: join it here
    for worker in set(threading.enumerate()) - before:
        worker.join(60)
    assert waits and all(waits)
    assert next(calls) - 1 <= threads + 1


def test_an_interrupt_while_generate_submits_runs_no_queued_task(monkeypatch, default_params):
    # Ctrl-C while the tasks are still being submitted, on one worker: the
    # third submit queues its task and waits for the interrupt, which the
    # first kernel call sends.  That call then waits until the pool's
    # shutdown has cancelled what it cancels, so only the first call runs.
    calls = itertools.count(1)
    submits = itertools.count(1)
    kernel = generator.sampling_kernel
    pool_class = concurrent.futures.ThreadPoolExecutor
    submit, shutdown = pool_class.submit, pool_class.shutdown
    third_queued, shut_down = threading.Event(), threading.Event()

    def waiting_submit(pool, *args, **kwargs):
        future = submit(pool, *args, **kwargs)
        if next(submits) == 3:
            third_queued.set()
            threading.Event().wait(60)  # ended by the interrupt
        return future

    def signalled_shutdown(pool, wait=True, **kwargs):
        shutdown(pool, wait=False, **kwargs)
        shut_down.set()
        shutdown(pool, wait=wait, **kwargs)

    def interrupted(*args):
        if next(calls) == 1:
            third_queued.wait(60)
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            shut_down.wait(60)
        return kernel(*args)

    monkeypatch.setattr(pool_class, "submit", waiting_submit)
    monkeypatch.setattr(pool_class, "shutdown", signalled_shutdown)
    monkeypatch.setattr(generator, "sampling_kernel", interrupted)
    with pytest.raises(KeyboardInterrupt):
        generate(GeneratorConfig(seed=1, n_pairs=3 * _TASK * _BATCH), default_params, threads=1)
    assert next(calls) - 1 == 1


def test_identical_seeds_identical_streams(default_params):
    a = generate(GeneratorConfig(seed=9, n_pairs=20_000), default_params)
    b = generate(GeneratorConfig(seed=9, n_pairs=20_000), default_params)
    np.testing.assert_array_equal(a.tau_l, b.tau_l)
    np.testing.assert_array_equal(a.mode_l, b.mode_l)
    np.testing.assert_array_equal(a.tau_r, b.tau_r)
    np.testing.assert_array_equal(a.mode_r, b.mode_r)


def test_thread_count_does_not_change_stream(default_params):
    # ten tasks on more workers than cores, switching threads as often as
    # the interpreter allows: each task writes its own slice of the outputs
    config = GeneratorConfig(seed=3, n_pairs=9 * _TASK * _BATCH + 5)
    serial = generate(config, default_params, threads=1)
    interval = sys.getswitchinterval()
    for threads in (2, 8):
        sys.setswitchinterval(1e-6)
        try:
            parallel = generate(config, default_params, threads=threads)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(serial.tau_l, parallel.tau_l)
        np.testing.assert_array_equal(serial.mode_l, parallel.mode_l)
        np.testing.assert_array_equal(serial.tau_r, parallel.tau_r)
        np.testing.assert_array_equal(serial.mode_r, parallel.mode_r)


def test_different_seed_different_stream(default_params):
    a = generate(GeneratorConfig(seed=1, n_pairs=5_000), default_params)
    b = generate(GeneratorConfig(seed=2, n_pairs=5_000), default_params)
    assert not np.array_equal(a.tau_l, b.tau_l)


def test_same_seed_same_file_digest(tmp_path, default_params):
    digests = []
    for run in range(2):
        events = generate(GeneratorConfig(seed=77, n_pairs=10_000), default_params)
        path = tmp_path / f"run{run}.csv"
        write_events(path, events)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_emitted_times_within_horizon(default_params):
    events = generate(GeneratorConfig(seed=5, n_pairs=100_000), default_params)
    horizon = 50.0 * default_params.gamma_s / default_params.gamma_l
    assert events.tau_l.min() >= 0.0 and events.tau_r.min() >= 0.0
    assert events.tau_l.max() <= horizon and events.tau_r.max() <= horizon


def test_forbidden_mode_pairs_never_occur(events_1m):
    code_2pi, code_3pi = 0, 1
    assert not np.any((events_1m.mode_l == code_2pi) & (events_1m.mode_r == code_2pi))
    assert not np.any((events_1m.mode_l == code_3pi) & (events_1m.mode_r == code_3pi))


def test_left_two_pi_fraction(events_1m, default_params):
    # independent oracle: numerically integrate the joint rate over the
    # right side (all channels) and both times to get the left 2pi weight
    from kaon_eraser.decay import N_CHANNELS, TransitionAmplitudes

    params = default_params
    amps = TransitionAmplitudes.from_params(params)
    horizon = 45.0 / params.gamma_l
    edges = [0.0]
    while edges[-1] < horizon:
        edges.append(max(edges[-1] * 2.0, 0.5))
    x, w = np.polynomial.legendre.leggauss(24)
    nodes = np.concatenate([0.5 * (b - a) * x + 0.5 * (a + b) for a, b in zip(edges, edges[1:])])
    weights = np.concatenate([0.5 * (b - a) * w for a, b in zip(edges, edges[1:])])
    c_sl = -np.sqrt(0.5) * np.exp(
        -1j * (params.lambda_s * nodes[:, None] + params.lambda_l * nodes[None, :])
    )
    c_ls = np.sqrt(0.5) * np.exp(
        -1j * (params.lambda_l * nodes[:, None] + params.lambda_s * nodes[None, :])
    )
    a = amps.a
    ch_2pi = 0
    expected = sum(
        float(
            weights
            @ (np.abs(c_sl * a[ch_2pi, 0] * a[ch_r, 1] + c_ls * a[ch_2pi, 1] * a[ch_r, 0]) ** 2)
            @ weights
        )
        for ch_r in range(N_CHANNELS)
    )
    assert expected == pytest.approx(0.5 * params.br_s_2pi, abs=1e-9)
    observed = float(np.mean(events_1m.mode_l == 0))
    sigma = np.sqrt(expected * (1 - expected) / events_1m.n)
    assert abs(observed - expected) < 3.0 * sigma


def test_mode_pair_chi2_passes(events_1m, default_params):
    stat, dof, pvalue = mode_pair_chi2(events_1m, default_params)
    assert dof > 5
    assert pvalue > 1e-3


@pytest.mark.parametrize("n_pairs", [1, 3, 50, 100_000])
def test_mode_pair_chi2_p_value_is_the_chi2_tail(default_params, n_pairs):
    # one or three pairs pool into one cell: no degree of freedom, p is NaN
    events = generate(GeneratorConfig(seed=11, n_pairs=n_pairs), default_params)
    stat, dof, pvalue = mode_pair_chi2(events, default_params)
    expected = float(stats.chi2.sf(stat, dof))
    assert (dof >= 1) == (n_pairs > 3)
    assert pvalue == expected or (math.isnan(pvalue) and math.isnan(expected))


def test_mode_pair_chi2_of_no_events(default_params):
    # an event file with an empty body reads as such a set: no cell, dof 0
    empty = EventSet(
        tau_l=np.zeros(0), mode_l=np.zeros(0, np.int8), tau_r=np.zeros(0),
        mode_r=np.zeros(0, np.int8), seed=0, tau_max=50.0, params_digest="",
    )
    stat, dof, pvalue = mode_pair_chi2(empty, default_params)
    assert (stat, dof) == (0.0, 0) and math.isnan(pvalue)


def test_mode_pair_chi2_of_a_forbidden_cell(default_params):
    # a (TwoPi, TwoPi) record needs K_S K_S, which the antisymmetric pair never holds
    events = generate(GeneratorConfig(seed=3, n_pairs=1000), default_params)
    two_pi = MODE_ORDER.index(DecayMode.TWO_PI)
    mode_l, mode_r = events.mode_l.copy(), events.mode_r.copy()
    mode_l[0] = mode_r[0] = two_pi
    forbidden = dataclasses.replace(events, mode_l=mode_l, mode_r=mode_r)
    assert mode_pair_chi2(forbidden, default_params) == (math.inf, 0, 0.0)


def test_mode_pair_chi2_refuses_a_mode_code_outside_the_mode_table(default_params):
    # code 7 used to count as the cell (ThreePi, SemileptonicPlus): 50 such
    # records in 1e5 pairs gave p = 4e-52 where the set should be refused
    events = generate(GeneratorConfig(seed=3, n_pairs=100_000), default_params)
    modes = events.mode_r.copy()
    modes[1000:51000:1000] = 7
    with pytest.raises(ValueError, match=r"record id 1000: mode codes must be in \[0, 5\), "
                                         r"got mode_l=\d, mode_r=7"):
        mode_pair_chi2(dataclasses.replace(events, mode_r=modes), default_params)


def _fresh_interpreter(code: str, *args: str) -> str:
    """The stdout of ``code`` run by a new interpreter on this one's path."""
    out = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    return out.stdout.strip()


#: The closed forms, analytic scans of kinds a and b with their CSV, and
#: the ``table`` and analytic ``experiment`` commands; then the names of the
#: scipy modules loaded.
_ANALYTIC_PATHS = """
import sys
from pathlib import Path
import kaon_eraser
from kaon_eraser import (Basis, DecayMode, ExperimentSpec, PhysicsParams, cli, full_table,
                         integrated_mode_pair_probabilities, passive_probability,
                         run_experiment, write_scan_csv)
out = Path(sys.argv[1])
p = PhysicsParams()
full_table(Basis.STRANGENESS, Basis.LIFETIME, 1.0, 2.5, p)
passive_probability(DecayMode.SEMILEPTONIC_PLUS, 1.0, DecayMode.TWO_PI, 2.5, p)
integrated_mode_pair_probabilities(p)
for kind in "ab":
    spec = ExperimentSpec(kind=kind, tau_r0=1.0, tau_l_grid=(0.0, 0.5, 1.0), n_pairs=0)
    write_scan_csv(out / f"{kind}.csv", run_experiment(spec, p), kaon_eraser.__version__)
assert cli.main(["table", "--left", "strangeness", "--right", "lifetime",
                 "--tau-l", "1", "--tau-r", "2"]) == 0
assert cli.main(["experiment", "a", "--tau-r0", "1", "--grid", "0:1:0.5", "--pairs", "0",
                 "--out", str(out / "cli.csv")]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_analytic_paths_leave_scipy_unloaded(tmp_path):
    # scipy is loaded where a sample is drawn or tested, not with the package
    assert _fresh_interpreter(_ANALYTIC_PATHS, str(tmp_path)).splitlines()[-1] == "[]"


def test_kernel_and_chi2_import_scipy_on_first_call():
    # without ``generate``, which makes the first import of scipy itself
    code = """
import sys
import numpy as np
from kaon_eraser import EventSet, PhysicsParams, mode_pair_chi2, sampling_kernel
p = PhysicsParams()
assert "scipy" not in sys.modules
u = np.random.Generator(np.random.Philox(key=3)).random((4, 4096))
tau_l, mode_l, tau_r, mode_r = sampling_kernel(u, p)
events = EventSet(tau_l=tau_l, mode_l=mode_l, tau_r=tau_r, mode_r=mode_r,
                  seed=3, tau_max=50.0, params_digest=p.digest())
stat, dof, pvalue = mode_pair_chi2(events, p)
assert dof >= 1 and 0.0 < pvalue <= 1.0, (stat, dof, pvalue)
print(tau_l.size, "scipy.special" in sys.modules)
"""
    assert _fresh_interpreter(code) == "4096 True"


def test_mode_pair_counts_match_expectations(events_1m, default_params):
    counts = np.zeros((5, 5))
    np.add.at(counts, (events_1m.mode_l.astype(int), events_1m.mode_r.astype(int)), 1.0)
    expected = events_1m.n * integrated_mode_pair_probabilities(default_params)
    mask = expected > 25
    z = (counts[mask] - expected[mask]) / np.sqrt(expected[mask])
    assert np.max(np.abs(z)) < 5.0


def test_sampling_kernel_inverse_cdf(default_params):
    # known uniforms map through the truncated-exponential inverse CDF
    p = default_params
    u = np.array([[0.1, 0.9], [0.5, 0.5], [0.25, 0.25], [0.0, 0.0]])
    tau_l, mode_l, tau_r, mode_r = np.asarray(
        sampling_kernel(u, p), dtype=object
    )
    # column 0: left paced by gamma_s, column 1: left paced by gamma_l
    for col, gamma in ((0, p.gamma_s), (1, p.gamma_l)):
        horizon = 50.0 * p.gamma_s / gamma
        mass = -np.expm1(-gamma * horizon)
        expected = -np.log1p(-0.5 * mass) / gamma
        assert tau_l[col] == pytest.approx(expected, rel=1e-12)
    # u3 = 0 lands in the first nonempty mode cell
    assert mode_l.shape == (2,) and mode_r.shape == (2,)


def test_sampling_kernel_zero_target_avoids_forbidden_cells(default_params):
    # Philox gives exactly 0.0 with probability 2^-53; such a mode-cell
    # target must still land in a cell of nonzero probability
    rng = np.random.Generator(np.random.Philox(key=0))
    u = rng.random((4, 1000))
    u[3, :5] = 0.0
    _, mode_l, _, mode_r = sampling_kernel(u, default_params)
    allowed = integrated_mode_pair_probabilities(default_params) > 0.0
    assert np.all(allowed[mode_l[:5], mode_r[:5]])
    assert np.all(allowed[mode_l, mode_r])


def _oracle_columns(u, params, tau_max):
    """Per-column decay times, horizons and masses, ``r`` and the fringe on
    every column, as the kernel computed them before it skipped any."""
    gs = params.gamma_s
    s_paced_left = u[0] < 0.5
    times = []
    for u_side, gamma in ((u[1], np.where(s_paced_left, gs, params.gamma_l)),
                          (u[2], np.where(s_paced_left, params.gamma_l, gs))):
        mass = -np.expm1(-gamma * (tau_max * gs / gamma))
        times.append(-np.log1p(-u_side * mass) / gamma)
    dt = times[0] - times[1]
    r = expit(params.delta_gamma * dt)
    fringe = _sech(0.5 * params.delta_gamma * dt) * np.cos(params.delta_m * dt)
    return times[0], times[1], r, fringe


def _oracle_kernel(u, params, tau_max=50.0):
    """Oracle: the sampling kernel that computes every term on every draw,
    with its per-column horizons, the fringe on every SL×SL row and column
    and a clipped count over all running totals.  Returns the four event
    columns and the (cells, n) running totals."""
    tau_l, tau_r, r, fringe = _oracle_columns(u, params, tau_max)
    code_l, code_r, m_sl, m_ls, m_x = _mode_cells(params)
    p = np.multiply.outer(m_sl, r)
    one_minus_r = 1.0 - r
    term = np.empty_like(r)
    for row, w in zip(p, m_ls):
        np.add(row, np.multiply(w, one_minus_r, out=term), out=row)
    for j in np.flatnonzero(m_x):
        row = p[j]
        np.subtract(row, np.multiply(m_x[j], fringe, out=term), out=row)
        np.maximum(row, 0.0, out=row)
    for prev, row in zip(p, p[1:]):
        np.add(row, prev, out=row)
    target = u[3] * p[-1]
    pick = np.minimum((p < target).sum(axis=0), m_sl.size - 1)
    return (tau_l, code_l[pick], tau_r, code_r[pick]), p


def _oracle_generate(config, params):
    """Oracle: one kernel call per batch, joined by a final concatenate."""
    n = config.n_pairs
    parts = [
        _oracle_kernel(
            np.random.Generator(np.random.Philox(key=config.seed).jumped(k))
            .random((4, min(_BATCH, n - k * _BATCH))),
            params, config.tau_max,
        )[0]
        for k in range((n + _BATCH - 1) // _BATCH)
    ]
    return tuple(np.concatenate(column) for column in zip(*parts))


def _assert_same_bytes(got, expected, label):
    for a, b in zip(got, expected, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape, label
        assert a.tobytes() == b.tobytes(), label


def _edge_params():
    """No oscillation; semileptonic widths tiny and so tiny that the SL×SL
    weights are subnormal; and widths so close that the fringe reach
    covers every draw."""
    gl = 1.0 / 579.0
    return {
        "delta_m_0": PhysicsParams(delta_m=0.0),
        "tiny_semileptonic": PhysicsParams(br_semileptonic_s=1e-9 * gl, br_semileptonic_l=1e-9),
        "subnormal_semileptonic": PhysicsParams(
            br_semileptonic_s=1e-157 * gl, br_semileptonic_l=1e-157),
        "near_equal_widths": PhysicsParams(
            gamma_l=1.0 - 1e-9, br_s_2pi=0.3, br_l_3pi=0.3,
            br_semileptonic_s=0.5 * (1.0 - 1e-9), br_semileptonic_l=0.5),
    }


def _oracle_param_sets(default_params, rich_params):
    rng = np.random.default_rng(15)
    sets = {"default": default_params, "rich": rich_params}
    sets.update({f"random_{i}": random_params(rng) for i in range(6)})
    sets.update(_edge_params())
    return sets


def test_edge_params_reach_the_fringe_rule_limits(default_params):
    # the reach is finite at defaults and covers every draw, or none, at the edges
    def reach(params):
        return _saturated_cells(params)[0]

    edges = _edge_params()
    assert 80.0 < reach(default_params) < 90.0
    assert reach(edges["subnormal_semileptonic"]) == math.inf
    horizon = 50.0 / edges["near_equal_widths"].gamma_l
    assert reach(edges["near_equal_widths"]) > horizon
    # a fringe term below a thirty-second of half an ulp everywhere: no draw needs it
    assert reach(edges["tiny_semileptonic"]) < reach(default_params)


@pytest.mark.parametrize("width", [1, 7, _BATCH - 1, _BATCH, _TASK * _BATCH])
def test_kernel_matches_oracle_bytes(default_params, rich_params, width):
    for n_set, (name, params) in enumerate(_oracle_param_sets(default_params, rich_params).items()):
        u = np.random.Generator(np.random.Philox(key=width).jumped(n_set)).random((4, width))
        # targets on running totals, where a last-bit change of a total
        # moves the draw (see test_kernel_is_bitwise_broadcast_reference)
        _, cum = _oracle_kernel(u, params)
        cols = np.arange(0, width, 2)
        edge = np.random.default_rng(n_set).integers(0, cum.shape[0] - 1, size=cols.size)
        u[3, cols] = cum[edge, cols] / cum[-1, cols]
        u[3, 1::97] = 0.0
        u[0, 1::89] = 0.5
        _assert_same_bytes(sampling_kernel(u, params), _oracle_kernel(u, params)[0], (name, width))
        if width > 1:
            # a strided view of the uniforms, as a caller may pass
            wide = np.repeat(u, 2, axis=1)[:, ::2]
            _assert_same_bytes(sampling_kernel(wide, params, 60.0),
                               _oracle_kernel(u, params, 60.0)[0], (name, width, "strided"))


@pytest.mark.parametrize("n_pairs", [1, _BATCH, 3 * _BATCH + 17, 2 * _TASK * _BATCH + 1])
@pytest.mark.parametrize("threads", [1, 2, 3])
def test_generate_matches_oracle_bytes(default_params, rich_params, n_pairs, threads):
    sets = {"default": default_params, "rich": rich_params,
            "near_equal_widths": _edge_params()["near_equal_widths"]}
    for name, params in sets.items():
        config = GeneratorConfig(seed=n_pairs, n_pairs=n_pairs)
        events = generate(config, params, threads=threads)
        got = (events.tau_l, events.mode_l, events.tau_r, events.mode_r)
        _assert_same_bytes(got, _oracle_generate(config, params), (name, n_pairs, threads))


def _broadcast_kernel(u, params, tau_max=50.0):
    """Reference: the mode cell drawn from broadcast (n, cells) products and
    ``np.cumsum(axis=1)``; same truncated exponentials, r and fringe.
    Returns the four event columns and the running cell totals."""
    tau_l, tau_r, r, fringe = _oracle_columns(u, params, tau_max)
    amps = amplitudes(params)
    gs_gl = params.gamma_s * params.gamma_l
    m_sl = np.outer(amps.w_s, amps.w_l).ravel() / gs_gl
    m_ls = np.outer(amps.w_l, amps.w_s).ravel() / gs_gl
    m_x = np.outer(amps.interference, amps.interference).ravel() / gs_gl
    live = np.flatnonzero((m_sl != 0.0) | (m_ls != 0.0) | (m_x != 0.0))
    p = (
        r[:, None] * m_sl[None, live]
        + (1.0 - r)[:, None] * m_ls[None, live]
        - fringe[:, None] * m_x[None, live]
    )
    np.clip(p, 0.0, None, out=p)
    cum = np.cumsum(p, axis=1)
    target = u[3] * cum[:, -1]
    cell = live[np.minimum((cum < target[:, None]).sum(axis=1), live.size - 1)]
    events = (tau_l, CHANNEL_TO_MODE_CODE[cell // 6], tau_r, CHANNEL_TO_MODE_CODE[cell % 6])
    return events, cum


def test_kernel_is_bitwise_broadcast_reference(default_params, rich_params):
    # The cell-major in-place kernel must give the reference's bytes: the
    # same IEEE operations on each cell, in the same order.  A last-bit
    # change of a running total moves a draw only where the target sits on
    # it, so every other column gets such a target: u3 = cum[j] / cum[-1]
    # for a random cell j (u3 * cum[-1] then lands on cum[j] for most
    # columns).  A target of exactly 0 is in every batch as well.
    rng = np.random.default_rng(2024)
    param_sets = [default_params, rich_params] + [random_params(rng) for _ in range(5)]
    for n_set, params in enumerate(param_sets):
        for k in range(8):
            u = np.random.Generator(np.random.Philox(key=n_set).jumped(k)).random((4, _BATCH))
            _, cum = _broadcast_kernel(u, params)
            cols = np.arange(0, _BATCH, 2)
            edge = rng.integers(0, cum.shape[1] - 1, size=cols.size)
            u[3, cols] = cum[cols, edge] / cum[cols, -1]
            u[3, k::509] = 0.0
            expected, _ = _broadcast_kernel(u, params)
            for a, b in zip(sampling_kernel(u, params), expected):
                assert a.dtype == b.dtype
                assert a.tobytes() == b.tobytes(), (n_set, k)


def test_cell_weights_are_cached_and_read_only(default_params):
    weights = _mode_cells(default_params)
    assert _mode_cells(PhysicsParams()) is weights
    for a in weights:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def test_saturated_cells_are_cached_and_read_only(default_params, rich_params):
    for params in _oracle_param_sets(default_params, rich_params).values():
        _, totals_sl, totals_ls = constants = _saturated_cells(params)
        assert _saturated_cells(dataclasses.replace(params)) is constants
        _, _, m_sl, m_ls, _ = _mode_cells(params)
        for totals, weights in ((totals_sl, m_sl), (totals_ls, m_ls)):
            expected = list(itertools.accumulate(weights.tolist(), initial=0.0))[1:]
            assert totals.tolist() == expected
            with pytest.raises(ValueError, match="read-only"):
                totals[0] = 0


def _pacing_grid():
    """The two bounds, their float neighbours and a log-spaced grid past
    each out to 1e308."""
    neighbours = [np.nextafter(bound, toward) for bound in (_X_HIGH, _X_LOW)
                  for toward in (-np.inf, np.inf)]
    return np.concatenate([[_X_HIGH, _X_LOW], neighbours,
                           np.logspace(np.log10(_X_HIGH), 308.0, 400),
                           -np.logspace(np.log10(-_X_LOW), 308.0, 400)])


def test_expit_is_exactly_one_above_40_and_zero_below_minus_746():
    from kaon_eraser.probabilities import _expit

    x = _pacing_grid()
    r = expit(x)
    assert np.all(r[x >= _X_HIGH] == 1.0) and np.all(r[x <= _X_LOW] == 0.0)
    assert x.max() == 1e308 and x.min() == -1e308
    # probabilities._expit is scipy's formula on one double
    assert [_expit(v) for v in x.tolist()] == r.tolist()
    # the high bound is not tight: below ln(2**53) = 36.74, r is not 1
    assert expit(36.7) < 1.0 and expit(36.8) == 1.0


def _uniforms_crossing(params, sign, bounds, measure=np.abs):
    """Uniforms (4, 3k), the other decay time 0 and ``u3`` 0.5: per bound
    that a draw can reach, the last uniform of the varied time at which
    ``measure(dt)`` is below the bound, the first at which it is not, and
    the float after that.  ``dt`` is ``tau_l`` with the left kaon L-paced
    for ``sign`` +1, and ``-tau_r`` with the right kaon L-paced for -1;
    ``measure`` must grow with ``|dt|``."""
    varied = 1 if sign > 0 else 2
    u = np.zeros((4, 1))
    u[0], u[3] = (0.75 if sign > 0 else 0.25), 0.5

    def past(uniforms, bounds):
        u[varied] = uniforms
        tau_l, tau_r, _, _ = _oracle_columns(u, params, 50.0)
        return measure(tau_l - tau_r) >= bounds

    bounds = np.asarray(bounds, float)
    bounds = bounds[past(np.nextafter(1.0, 0.0), bounds)]
    u = np.repeat(u, bounds.size, axis=1)
    # bisect on the bits of the varied uniform, which order as its values
    lo, hi = np.zeros(bounds.size, np.int64), np.full(bounds.size, np.float64(1.0).view(np.int64))
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // 2
        crossed = past(mid.view(np.float64), bounds)
        lo, hi = np.where(crossed, lo, mid), np.where(crossed, mid, hi)
    u = np.repeat(u, 3, axis=1)
    u[varied] = np.stack([lo, hi, hi + 1], axis=1).ravel().view(np.float64)
    return u


def _saturation_uniforms(params):
    """Uniform columns across the bounds of the saturated partition: ``x``
    on 40 and -746 and through the 36.74 where ``r`` becomes 1, ``|dt|``
    on the fringe reach ``T``, and draws with ``x > 40`` inside ``T``."""
    reach = _saturated_cells(params)[0]
    pacing = lambda dt: np.abs(params.delta_gamma * dt)  # noqa: E731
    parts = [
        _uniforms_crossing(params, -1, [_X_HIGH], pacing),
        _uniforms_crossing(params, +1, [-_X_LOW], pacing),
        _uniforms_crossing(params, -1, np.linspace(30.0, 45.0, 31), pacing),
        _uniforms_crossing(params, -1, [53.0 * math.log(2.0)], pacing),
        _uniforms_crossing(params, +1, np.linspace(700.0, 800.0, 11), pacing),
    ]
    if 0.0 < reach < math.inf:
        parts += [_uniforms_crossing(params, sign, [reach]) for sign in (-1, +1)]
        parts.append(_uniforms_crossing(
            params, -1, np.linspace(_X_HIGH / abs(params.delta_gamma), reach, 30)))
    return np.concatenate(parts, axis=1)


def _with_targets(u, params):
    """Each column of ``u`` once per target: ``u3`` of 0, of the least
    subnormal, of ``totals[j] / totals[-1]`` on both constant running totals
    of :func:`_saturated_cells` (their plateaus included, where a cell's
    weight is 0) and of ``cum[j] / cum[-1]`` on the column's own running
    totals, for every cell j but the last; a plateau up to the last total
    gives the float below 1, as ``u3 < 1``."""
    _, totals_sl, totals_ls = _saturated_cells(params)
    _, cum = _oracle_kernel(u, params)
    fixed = np.concatenate([[0.0, 5e-324], totals_sl[:-1] / totals_sl[-1],
                            totals_ls[:-1] / totals_ls[-1]])
    targets = np.concatenate([np.repeat(fixed[:, None], u.shape[1], axis=1), cum[:-1] / cum[-1]])
    out = np.repeat(u[:, None, :], targets.shape[0], axis=1)
    out[3] = np.minimum(targets, np.nextafter(1.0, 0.0))
    return out.reshape(4, -1)


def _zero_semileptonic():
    """No semileptonic mode, so no fringe: ``T`` is 0, and the bounds on
    ``x`` alone decide which draw saturates."""
    return PhysicsParams(br_semileptonic_s=0.0, br_semileptonic_l=0.0)


def test_saturated_partition_matches_oracle_bytes(default_params, rich_params):
    sets = {"default": default_params, "rich": rich_params,
            "zero_semileptonic": _zero_semileptonic(),
            "tiny_semileptonic": _edge_params()["tiny_semileptonic"]}
    assert _saturated_cells(sets["zero_semileptonic"])[0] == 0.0
    for name, params in sets.items():
        u = _with_targets(_saturation_uniforms(params), params)
        assert np.all((u >= 0.0) & (u < 1.0))
        tau_l, tau_r, _, _ = _oracle_columns(u, params, 50.0)
        dt = tau_l - tau_r
        x = params.delta_gamma * dt
        saturated = (np.abs(dt) >= _saturated_cells(params)[0]) & ((x > _X_HIGH) | (x < _X_LOW))
        assert 0 < saturated.sum() < saturated.size, name
        batches = {"mixed": u, "all saturated": u[:, saturated], "none saturated": u[:, ~saturated],
                   "strided": np.repeat(u, 2, axis=1)[:, ::2]}
        for kind in (saturated & (x > 0), saturated & (x < 0), ~saturated):
            c = np.flatnonzero(kind)[:1]
            batches[f"column {c}"] = u[:, c]
        for label, batch in batches.items():
            _assert_same_bytes(sampling_kernel(batch, params), _oracle_kernel(batch, params)[0],
                               (name, label))


@pytest.mark.parametrize("params, low, high", [("default_params", 0.50, 0.65),
                                              ("rich_params", 0.0, 0.0)])
def test_saturated_share_of_a_batch(monkeypatch, request, params, low, high):
    # the share of a task's draws that builds no cell row, read off the
    # columns the row builder receives: the fast path cannot go dead
    params = request.getfixturevalue(params)
    drawn = []
    draw_cells = generator._draw_cells
    monkeypatch.setattr(generator, "_draw_cells",
                        lambda x, *args: drawn.append(x.size) or draw_cells(x, *args))
    n = _TASK * _BATCH
    u = np.random.Generator(np.random.Philox(key=7)).random((4, n))
    sampling_kernel(u, params)
    assert len(drawn) == 1
    assert low <= 1.0 - drawn[0] / n <= high


def test_factorizing_degenerate_case_kolmogorov_smirnov():
    # near-equal widths, no oscillation, purely semileptonic modes: both
    # decay times are independent unit-rate exponentials
    p = PhysicsParams(
        gamma_s=1.0, gamma_l=1.0 - 1e-9, delta_m=0.0,
        br_s_2pi=0.0, br_l_3pi=0.0,
        br_semileptonic_s=1.0 - 1e-9, br_semileptonic_l=1.0,
    )
    events = generate(GeneratorConfig(seed=8, n_pairs=100_000), p)
    for sample in (events.tau_l, events.tau_r):
        d, pvalue = stats.kstest(sample, "expon", args=(0.0, 1.0))
        assert pvalue > 1e-3
    corr = np.corrcoef(events.tau_l, events.tau_r)[0, 1]
    assert abs(corr) < 0.015


def test_equal_time_like_strangeness_suppression(events_1m, default_params):
    # the like-strangeness joint density vanishes quadratically at equal
    # times; count events in a narrow diagonal band against the density
    # bound integrated over it
    band = 0.05
    like = (
        ((events_1m.mode_l == 2) & (events_1m.mode_r == 2))
        | ((events_1m.mode_l == 3) & (events_1m.mode_r == 3))
    )
    observed = int(np.sum(like & (np.abs(events_1m.tau_l - events_1m.tau_r) < band)))
    # bound: density <= N(t,t) g^4 (dm^2 + dG^2/4) dt^2 / 4 across the band
    p = default_params
    g2 = p.br_semileptonic_s * p.gamma_s
    curvature = p.delta_m**2 + 0.25 * p.delta_gamma**2
    # integral of N(t, t) dt = 1/(gamma_s + gamma_l)
    bound = (
        events_1m.n
        * g2**2
        * curvature
        * (2.0 / 3.0)
        * band**3
        / (p.gamma_s + p.gamma_l)
    )
    assert observed <= bound + 5.0 * np.sqrt(bound) + 5.0


def test_round_trip_serialization(tmp_path, default_params):
    events = generate(GeneratorConfig(seed=13, n_pairs=2_000), default_params)
    path = tmp_path / "events.csv"
    write_events(path, events)
    lines = path.read_text().splitlines()
    assert len(lines) == 2_000 + 3  # schema line, metadata line, column header
    back = read_events(path)
    np.testing.assert_array_equal(back.tau_l, events.tau_l)
    np.testing.assert_array_equal(back.mode_l, events.mode_l)
    np.testing.assert_array_equal(back.tau_r, events.tau_r)
    np.testing.assert_array_equal(back.mode_r, events.mode_r)
    assert back.seed == events.seed
    assert back.params_digest == events.params_digest


def test_read_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("not a header\n")
    with pytest.raises(EventFormatError, match="line 1"):
        read_events(path)

    path.write_text(
        "# kaon-eraser events v1\n# seed=0 n_pairs=1 tau_max=50 params_digest=x\n"
        "id,tau_l,mode_l,tau_r,mode_r\n0,1.0,TwoPi,1.0\n"
    )
    with pytest.raises(EventFormatError, match="line 4"):
        read_events(path)

    path.write_text(
        "# kaon-eraser events v1\n# seed=0 n_pairs=1 tau_max=50 params_digest=x\n"
        "id,tau_l,mode_l,tau_r,mode_r\n0,1.0,FourPi,1.0,TwoPi\n"
    )
    with pytest.raises(EventFormatError, match="unknown decay mode"):
        read_events(path)

    path.write_text(
        "# kaon-eraser events v1\n# seed=0 n_pairs=1 tau_max=50 params_digest=x\n"
        "id,tau_l,mode_l,tau_r,mode_r\n5,1.0,TwoPi,1.0,TwoPi\n"
    )
    with pytest.raises(EventFormatError, match="sequential"):
        read_events(path)


#: The message on a metadata line that is not the writer's: the line's form.
_NOT_METADATA = ("line 2: expected"
                 " '# seed=<%d> n_pairs=<%d> tau_max=<%.17g> params_digest=<digest>'")


def _write_small_event_file(path, n_pairs, rows):
    path.write_text(
        f"# kaon-eraser events v1\n# seed=0 n_pairs={n_pairs} tau_max=50 params_digest=x\n"
        "id,tau_l,mode_l,tau_r,mode_r\n" + "".join(f"{row}\n" for row in rows)
    )


#: Times that are not finite and >= 0: a decimal that ``float()`` reads as
#: inf or a negative one fails the record rules of ``EventSet``, and ``nan``
#: and ``inf``, which are no decimals, fail the record grammar.
_BAD_TIMES = {
    "1e+400": "record id 1: decay times must be finite and >= 0, got tau_l=2.0, tau_r=inf",
    "-1.5": "record id 1: decay times must be finite and >= 0, got tau_l=2.0, tau_r=-1.5",
    "nan": "line 5: '1,2.0,TwoPi,nan,ThreePi' does not parse",
    "inf": "line 5: '1,2.0,TwoPi,inf,ThreePi' does not parse",
}


@pytest.mark.parametrize("bad", list(_BAD_TIMES))
def test_read_rejects_non_finite_times(tmp_path, bad):
    path = tmp_path / "bad.csv"
    _write_small_event_file(path, 2, ["0,1.0,TwoPi,1.0,TwoPi", f"1,2.0,TwoPi,{bad},ThreePi"])
    with pytest.raises(EventFormatError) as err:
        read_events(path)
    assert str(err.value) == _BAD_TIMES[bad]


def test_write_events_refuses_records_that_break_the_record_rules(tmp_path):
    # mode code -1 was written as Other and read back as code 4, and a NaN
    # time was written as nan, which read_events refused
    path = tmp_path / "events.csv"
    times, modes = np.array([0.5, 1.5]), np.zeros(2, np.int8)
    with pytest.raises(ValueError, match=r"record id 1: mode codes must be in \[0, 5\), "
                                         r"got mode_l=-1, mode_r=0"):
        write_events(path, EventSet(times, np.array([0, -1], np.int8), times, modes,
                                    1, 50.0, "x"))
    with pytest.raises(ValueError, match=r"record id 1: decay times must be finite and >= 0, "
                                         r"got tau_l=1.5, tau_r=nan"):
        write_events(path, EventSet(times, modes, np.array([0.5, math.nan]), modes,
                                    1, 50.0, "x"))
    assert not path.exists()


@pytest.mark.parametrize("columns", [
    ([0.5], [0], [0.5], [0]),
    (np.zeros((1, 2)), np.zeros((1, 2), np.int8), np.zeros((1, 2)), np.zeros((1, 2), np.int8)),
    (np.zeros(2), np.zeros(2, np.int8), np.zeros(3), np.zeros(2, np.int8)),
    (np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2)),
])
def test_event_set_refuses_malformed_columns(columns):
    with pytest.raises(ValueError, match="event columns must be 1-D NumPy arrays of one length"):
        EventSet(*columns, 0, 50.0, "x")


def test_read_rejects_record_count_other_than_header(tmp_path):
    path = tmp_path / "short.csv"
    _write_small_event_file(path, 3, ["0,1.0,TwoPi,1.0,ThreePi", "1,2.0,TwoPi,3.0,ThreePi"])
    with pytest.raises(EventFormatError, match="n_pairs=3 but the file holds 2"):
        read_events(path)
    path.write_text(path.read_text().replace(" n_pairs=3", ""))
    with pytest.raises(EventFormatError) as err:
        read_events(path)
    assert str(err.value) == _NOT_METADATA


def test_read_rejects_malformed_metadata_value(tmp_path):
    path = tmp_path / "seed.csv"
    _write_small_event_file(path, 1, ["0,1.0,TwoPi,1.0,ThreePi"])
    path.write_text(path.read_text().replace("seed=0", "seed=abc"))
    with pytest.raises(EventFormatError) as err:
        read_events(path)
    assert str(err.value) == _NOT_METADATA


@pytest.mark.parametrize(
    "before, after, message",
    [("seed=0", "s_ed=3", _NOT_METADATA),
     ("tau_max=50", "ta_max=50", _NOT_METADATA),
     ("seed=0", "seed=0 seed=0", _NOT_METADATA),
     (" tau_max=50", "", _NOT_METADATA),
     ("params_digest=x", "params_digest=x y",
      "line 2: params_digest must be printable ASCII without spaces, got 'x y'"),
     # spellings that no writer writes, and values that it refuses
     ("tau_max=50", "tau_max=00", _NOT_METADATA),
     ("tau_max=50", "tau_max=nan", "line 2: tau_max must be finite, got nan"),
     ("tau_max=50", "tau_max=inf", "line 2: tau_max must be finite, got inf"),
     ("tau_max=50", "tau_max=+5E1", _NOT_METADATA),
     ("seed=0", "seed=+3", _NOT_METADATA),
     ("seed=0", "seed=-1", "line 2: seed must be an integer in [0, 2**64), got -1"),
     ("seed=0", "seed=18446744073709551616",
      "line 2: seed must be an integer in [0, 2**64), got 18446744073709551616"),
     ("seed=0 n_pairs=1", "n_pairs=1 seed=0", _NOT_METADATA),
     ("n_pairs=1 ", "n_pairs=1\n# ", _NOT_METADATA),
     ("# seed", "#\tseed", _NOT_METADATA),
     ("tau_max=50", "tau_max=05", _NOT_METADATA),
     ("seed=0", "seed=00", _NOT_METADATA),
     ("n_pairs=1", "n_pairs=01", _NOT_METADATA),
     ("n_pairs=1 ", "n_pairs=1  ", _NOT_METADATA)],
)
def test_read_refuses_unknown_repeated_and_missing_metadata_keys(tmp_path, before, after,
                                                                 message):
    # a key with one byte changed, repeated or left out is no default value,
    # and the metadata line is refused unless it is the line the writer writes
    path = tmp_path / "meta.csv"
    _write_small_event_file(path, 1, ["0,1.0,TwoPi,1.0,ThreePi"])
    path.write_text(path.read_text().replace(before, after))
    with pytest.raises(EventFormatError) as err:
        read_events(path)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "before, after",
    [("seed=0", "seed=1_0"), ("n_pairs=1", "n_pairs=0_1"), ("tau_max=50", "tau_max=5_0"),
     ("seed=0", "seed=\uff11")],
)
def test_read_refuses_metadata_numbers_that_records_refuse(tmp_path, before, after):
    # Python's int() and float() read "1_0" as 10 and a fullwidth digit as a
    # digit; the record grammar refuses both, and so does the header
    path = tmp_path / "meta.csv"
    _write_small_event_file(path, 1, ["0,1.0,TwoPi,1.0,ThreePi"])
    path.write_text(path.read_text().replace(before, after))
    with pytest.raises(EventFormatError) as err:
        read_events(path)
    assert str(err.value) == _NOT_METADATA


_ONE_RECORD = EventSet(np.array([1.5]), np.array([0], np.int8), np.array([2.5]),
                       np.array([1], np.int8), 15, 50.0, "x")


def test_one_byte_changes_of_the_metadata_line_read_as_written_or_not_at_all(tmp_path):
    # every byte of the line put to each of a set of bytes: a file that reads
    # holds the line that the writer writes for what was read, so no spelling
    # reads as values that the line does not hold
    path, again = tmp_path / "one.csv", tmp_path / "again.csv"
    write_events(path, _ONE_RECORD)
    schema, metadata, rest = path.read_bytes().split(b"\n", 2)
    accepted, changed = 0, []
    for at, byte in itertools.product(range(len(metadata)), b"0159+-.eE_x= \t#"):
        line = metadata[:at] + bytes([byte]) + metadata[at + 1 :]
        path.write_bytes(b"\n".join([schema, line, rest]))
        try:
            back = read_events(path)
        except EventFormatError:
            continue
        write_events(again, back)
        accepted += 1
        if again.read_bytes().split(b"\n")[1] != line:
            changed.append(line)
    assert changed == []
    assert accepted  # among them the line itself, and changed seeds and digests


@pytest.mark.parametrize("field, value", [
    ("tau_max", math.nan), ("tau_max", math.inf), ("seed", -1), ("seed", 2**64),
    ("params_digest", "a b"), ("params_digest", "a\nb"), ("params_digest", "\u00e9"),
])
def test_write_refuses_metadata_that_the_reader_refuses(tmp_path, field, value):
    # the file at the path stays as it was, and no other file is left
    path = tmp_path / "events.csv"
    path.write_bytes(b"an earlier file\n")
    with pytest.raises(ValueError, match=field):
        write_events(path, dataclasses.replace(_ONE_RECORD, **{field: value}))
    assert path.read_bytes() == b"an earlier file\n"
    assert os.listdir(tmp_path) == ["events.csv"]


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("n", [0, 2])
@pytest.mark.parametrize("tau_max", [50.0, 1e22])
@pytest.mark.parametrize("digest", ["", PhysicsParams().digest()])
def test_every_metadata_line_the_writer_writes_reads_back(tmp_path, seed, n, tau_max, digest):
    times = np.arange(n, dtype=np.float64)
    modes = np.zeros(n, np.int8)
    path, again = tmp_path / "events.csv", tmp_path / "again.csv"
    write_events(path, EventSet(times, modes, times, modes, seed, tau_max, digest))
    back = read_events(path)
    assert (back.seed, back.n, back.params_digest) == (seed, n, digest)
    assert np.float64(back.tau_max).tobytes() == np.float64(tau_max).tobytes()
    write_events(again, back)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "rows, match",
    [
        # one byte longer than the longest name
        (["0,1.0,SemileptonicMinusX,1.0,TwoPi"], "unknown decay mode"),
        # '#' does not start a comment in a record, and no field is stripped
        (["0,1.0,TwoPi # c,1.0,TwoPi"], "line 4"),
        (["0,1.0,TwoPi,1.0,TwoPi # c"], "line 4"),
        (["0,1.0, TwoPi,1.0,TwoPi"], "line 4"),
        (["0,1.0,TwoPi,1.0,TwoPi "], "line 4"),
        # a NUL after a name is not dropped to leave TwoPi
        (["0,1.0,TwoPi\0,1.0,TwoPi"], "line 4"),
        (["0,1.0,TwoPi,1.0,ThreePi", "1,2.0,TwoPi,1.0"], "line 5"),
        (["0,1.0,TwoPi,1.0,ThreePi", "1,2.0,TwoPi,1.0,TwoPi,"], "line 5"),
        (["0,1.0,TwoPi,1.0,ThreePi", "1,2.0,TwoPi,x,TwoPi"], "line 5"),
        (["0,1.0,TwoPi,1.0,ThreePi", "1,2.0,TwoPi,1.0,TwoPi", "z,1.0,TwoPi,1.0,TwoPi"],
         "line 6"),
        # the first of two bad lines, a blank one
        (["0,1.0,TwoPi,1.0,ThreePi", "", "1,,TwoPi,1.0,TwoPi"], "line 5"),
        (["0,1.0,TwoPi,1.0,ThreePi", "   "], "line 5"),
    ],
)
def test_read_refuses_malformed_records(tmp_path, rows, match):
    path = tmp_path / "bad.csv"
    _write_small_event_file(path, len(rows), rows)
    with pytest.raises(EventFormatError, match=match):
        read_events(path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_read_refuses_bad_record_from_a_pipe(tmp_path):
    # a pipe cannot be read a second time: the line is named from the block at hand
    fifo = tmp_path / "events.fifo"
    os.mkfifo(fifo)
    errors = []

    def read():
        try:
            read_events(fifo)
        except EventFormatError as exc:
            errors.append(str(exc))

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    fifo.write_text(
        "# kaon-eraser events v1\n# seed=0 n_pairs=2 tau_max=50 params_digest=x\n"
        "id,tau_l,mode_l,tau_r,mode_r\n0,1.0,TwoPi,1.0,ThreePi\n1,x,TwoPi,1.0,TwoPi\n"
    )
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert len(errors) == 1
    assert "line 5" in errors[0]


def test_round_trip_is_bitwise_at_extreme_times(tmp_path):
    times = np.array(
        [0.0, 5e-324, 2.2250738585072014e-308, 1e308, 1.0 - 2.0**-53, 0.1 + 0.2]
    )
    modes = np.arange(times.size, dtype=np.int8) % 5
    events = EventSet(times, modes, times[::-1].copy(), modes[::-1].copy(), 3, 50.0, "x")
    path = tmp_path / "extreme.csv"
    write_events(path, events)
    back = read_events(path)
    for name in ("tau_l", "mode_l", "tau_r", "mode_r"):
        assert getattr(back, name).tobytes() == getattr(events, name).tobytes(), name
    for name, dtype in (("tau_l", np.float64), ("tau_r", np.float64),
                        ("mode_l", np.int8), ("mode_r", np.int8)):
        array = getattr(back, name)
        assert array.dtype == dtype and array.flags.c_contiguous, name


# The writer that came before the byte matrices, kept as the byte oracle:
# one ``%`` per row over ``.tolist()`` columns, 8192 rows per write.
_ORACLE_LINE = "%d,%.17g,%s,%.17g,%s\n"


def _oracle_lines(start, tau_l, mode_l, tau_r, mode_r):
    names = np.array([m.value for m in MODE_ORDER], dtype=object)
    rows = zip(range(start, start + len(tau_l)), tau_l.tolist(), names[mode_l].tolist(),
               tau_r.tolist(), names[mode_r].tolist())
    return "".join([_ORACLE_LINE % row for row in rows])


def _oracle_write_events(path, events):
    with open(path, "w") as fh:
        fh.write(f"# kaon-eraser events v{EVENT_SCHEMA_VERSION}\n")
        fh.write(
            f"# seed={events.seed} n_pairs={events.n} tau_max={events.tau_max:.17g}"
            f" params_digest={events.params_digest}\n"
        )
        fh.write(_HEADER_COLUMNS + "\n")
        for start in range(0, events.n, _BATCH):
            chunk = slice(start, start + _BATCH)
            fh.write(_oracle_lines(start, events.tau_l[chunk], events.mode_l[chunk],
                                   events.tau_r[chunk], events.mode_r[chunk]))


def _edge_times(n, tau_max, rng):
    """``n`` decay times cycling through 0, times below 1e-4 (exponent
    notation), decade boundaries and their neighbours, times near
    ``tau_max`` and exponential draws."""
    decades = 10.0 ** np.arange(-8, 18)
    edges = np.concatenate([
        [0.0, 5e-5, 9.9999999999999995e-5, 1e-4, 1e-300, 5e-324],
        decades, np.nextafter(decades, 0.0), np.nextafter(decades, np.inf),
        tau_max * np.array([1.0, 0.5, 1.0 - 2.0**-53, 1e-3]),
        rng.exponential(1.0, 64), rng.exponential(579.0, 64),
    ])
    return edges[np.arange(n) % edges.size].copy()


@pytest.mark.parametrize("n", [1, _WRITE_BATCH - 1, _WRITE_BATCH, _WRITE_BATCH + 1])
@pytest.mark.parametrize("tau_max", [50.0, 1e22])
def test_write_events_gives_the_bytes_of_the_per_row_writer(tmp_path, n, tau_max):
    rng = np.random.default_rng(n)
    tau_l = _edge_times(n, tau_max, rng)
    tau_r = np.roll(_edge_times(n + 7, tau_max, rng), 3)[:n].copy()
    # every (mode_l, mode_r) pair
    codes = np.arange(n)
    mode_l = (codes % len(MODE_ORDER)).astype(np.int8)
    mode_r = (codes // len(MODE_ORDER) % len(MODE_ORDER)).astype(np.int8)
    events = EventSet(tau_l, mode_l, tau_r, mode_r, 2**64 - 1, tau_max, "digest")
    write_events(tmp_path / "new.csv", events)
    _oracle_write_events(tmp_path / "old.csv", events)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_events_gives_the_bytes_of_the_per_row_writer_on_a_sample(tmp_path, default_params):
    events = generate(GeneratorConfig(seed=21, n_pairs=3 * _BATCH + 11), default_params)
    write_events(tmp_path / "new.csv", events)
    _oracle_write_events(tmp_path / "old.csv", events)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_events_formats_each_batch_with_one_call_per_formatter(tmp_path, formatter_calls,
                                                                     default_params):
    # the ids by one ``%d`` call, and tau_l and tau_r together by one ``%.17g`` call
    events = generate(GeneratorConfig(seed=21, n_pairs=2 * _WRITE_BATCH + 11), default_params)
    write_events(tmp_path / "events.csv", events)
    assert formatter_calls == {"_d_bytes": [_WRITE_BATCH, _WRITE_BATCH, 11],
                               "_g17_bytes": [2 * _WRITE_BATCH, 2 * _WRITE_BATCH, 22]}


@pytest.mark.parametrize("power", range(8))
def test_event_ids_cross_every_power_of_ten(power):
    # a batch that starts just below 10**power: its ids gain a digit inside it
    rng = np.random.default_rng(power)
    n = 2 * len(MODE_ORDER) ** 2
    start = max(10**power - n // 2, 0)
    codes = np.arange(n)
    columns = (rng.exponential(1.0, n), (codes % len(MODE_ORDER)).astype(np.int8),
               rng.exponential(579.0, n), (codes // len(MODE_ORDER) % len(MODE_ORDER)).astype(np.int8))
    assert _event_lines(start, *columns) == _oracle_lines(start, *columns)


@pytest.mark.parametrize("rows", [[]])
def test_read_empty_body_without_warning(tmp_path, rows):
    path = tmp_path / "empty.csv"
    _write_small_event_file(path, 0, rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = read_events(path)
    assert back.n == 0
    assert back.tau_l.dtype == np.float64 and back.mode_l.dtype == np.int8


def _event_bytes(rows, meta=b""):
    """An event file of the given ``rows`` (bytes) with ``meta`` appended to its digest."""
    return (
        b"# kaon-eraser events v1\n# seed=0 n_pairs=%d tau_max=50 params_digest=x%s\n"
        b"id,tau_l,mode_l,tau_r,mode_r\n" % (len(rows), meta)
        + b"".join(row + b"\n" for row in rows)
    )


@pytest.mark.parametrize(
    "where", ["metadata", "second record", "late record", "after a bad record"]
)
def test_read_refuses_bytes_that_are_not_utf8(tmp_path, where):
    # a decoding error is a ValueError, which the CLI reports as a usage error;
    # 60,000 rows put a late one past the first block, and past a bad line
    n = 60_000 if where in ("late record", "after a bad record") else 3
    rows = [b"%d,1.0,TwoPi,2.0,ThreePi" % i for i in range(n)]
    meta = b""
    if where == "metadata":
        meta = b"\xff"
    elif where == "second record":
        rows[1] = b"1,1.0,Two\xffPi,2.0,ThreePi"
    else:
        rows[-1] = b"%d,1.0,Two\xffPi,2.0,ThreePi" % (n - 1)
    if where == "after a bad record":
        rows[1] = b"1,x,TwoPi,2.0,ThreePi"
    path = tmp_path / "bytes.csv"
    path.write_bytes(_event_bytes(rows, meta))
    with pytest.raises(EventFormatError, match="not UTF-8"):
        read_events(path)


# The reader that came before the block parser, kept as the oracle of the
# records: every record through one np.loadtxt call into a structured array,
# and a bad line found by reading the file again.  Its header reading, line
# by line in text mode with the keys in any order on any number of ``#``
# lines and Python's int() and float(), is looser than the reader's and is
# not the reference: the metadata line is the writer's (the tests above).
_ORACLE_RECORD = np.dtype([("id", np.int64), ("tau_l", np.float64), ("mode_l", "S18"),
                           ("tau_r", np.float64), ("mode_r", "S18")])


def _oracle_records(lines):
    def refuse_nul(lines):
        for line in lines:
            if "\0" in line:
                raise ValueError("NUL byte in a record")
            yield line

    lines = iter(lines)
    for line in lines:
        if line != "\n":
            break
    else:
        return np.zeros(0, _ORACLE_RECORD)
    return np.loadtxt(refuse_nul(itertools.chain([line], lines)), dtype=_ORACLE_RECORD,
                      delimiter=",", comments=None, ndmin=1)


def _oracle_parses(lines):
    try:
        _oracle_records(lines)
    except ValueError:
        return False
    return True


def _oracle_bad_line(fh, first_line):
    fh.seek(0)
    body = [(idx, line) for idx, line in enumerate(fh, start=1) if idx >= first_line]
    for start in range(0, len(body), _BATCH):
        block = body[start : start + _BATCH]
        if _oracle_parses(line for _, line in block):
            continue
        for idx, line in block:
            if _oracle_parses([line]):
                continue
            record = line.rstrip("\n")
            n_fields = len(record.split(","))
            if n_fields != 5:
                return EventFormatError(f"line {idx}: expected 5 fields, got {n_fields}")
            return EventFormatError(f"line {idx}: {record!r} does not parse")
    return EventFormatError("a record does not parse")


def _oracle_read_events(path):
    seed, n_pairs, tau_max, digest = 0, None, math.nan, ""
    try:
        with open(path, encoding="utf-8") as fh:
            schema = fh.readline().rstrip("\n")
            if not schema.startswith("# kaon-eraser events v"):
                raise EventFormatError("line 1: missing 'kaon-eraser events' schema header")
            version = schema[len("# kaon-eraser events v"):]
            if version != str(EVENT_SCHEMA_VERSION):
                raise EventFormatError(f"line 1: unsupported schema version {version!r}")
            for idx, line in enumerate(iter(fh.readline, ""), start=2):
                line = line.rstrip("\n")
                if line.startswith("#"):
                    for token in line[1:].split():
                        key, _, value = token.partition("=")
                        try:
                            if key == "seed":
                                seed = int(value)
                            elif key == "n_pairs":
                                n_pairs = int(value)
                            elif key == "tau_max":
                                tau_max = float(value)
                        except ValueError as exc:
                            raise EventFormatError(f"line {idx}: {key}: {exc}") from exc
                        if key == "params_digest":
                            digest = value
                    continue
                if line == _HEADER_COLUMNS:
                    break
                raise EventFormatError(f"line {idx}: expected column header {_HEADER_COLUMNS!r}")
            else:
                raise EventFormatError("missing column header line")
            if n_pairs is None:
                raise EventFormatError("metadata has no n_pairs")
            try:
                records = _oracle_records(fh)
            except UnicodeDecodeError:
                raise
            except ValueError as exc:
                raise _oracle_bad_line(fh, idx + 1) from exc
    except UnicodeDecodeError as exc:
        raise EventFormatError(f"the file is not UTF-8 text: {exc.reason}") from exc

    ids = records["id"]
    if not np.array_equal(ids, np.arange(ids.size)):
        bad = int(np.argmax(ids != np.arange(ids.size)))
        raise EventFormatError(
            f"record id {ids[bad]} at position {bad}: ids must be sequential from 0"
        )
    codes = {mode.value.encode(): code for code, mode in enumerate(MODE_ORDER)}
    mode_l, mode_r = (np.array([codes.get(name, -1) for name in records[side].tolist()], np.int8)
                      for side in ("mode_l", "mode_r"))
    known = (mode_l >= 0) & (mode_r >= 0)
    if not known.all():
        raise EventFormatError(f"record id {int(np.argmin(known))}: unknown decay mode name")
    tau_l = np.ascontiguousarray(records["tau_l"])
    tau_r = np.ascontiguousarray(records["tau_r"])
    valid = np.isfinite(tau_l) & np.isfinite(tau_r) & (tau_l >= 0) & (tau_r >= 0)
    if not valid.all():
        bad = int(np.argmin(valid))
        raise EventFormatError(f"record id {bad}: decay times must be finite and >= 0,"
                               f" got tau_l={float(tau_l[bad])!r}, tau_r={float(tau_r[bad])!r}")
    if records.size != n_pairs:
        raise EventFormatError(
            f"header says n_pairs={n_pairs} but the file holds {records.size} records"
        )
    return EventSet(tau_l, mode_l, tau_r, mode_r, seed, tau_max, digest)


def _assert_reads_as_the_oracle(path):
    """``read_events(path)`` gives the oracle's arrays, bit for bit, dtype and
    layout, or refuses the file with the oracle's message."""
    try:
        expected = _oracle_read_events(path)
    except EventFormatError as exc:
        with pytest.raises(EventFormatError) as got:
            read_events(path)
        assert str(got.value) == str(exc)
        return None
    got = read_events(path)
    for name in ("tau_l", "mode_l", "tau_r", "mode_r"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.flags.c_contiguous and a.tobytes() == b.tobytes(), name
    assert (got.seed, got.params_digest) == (expected.seed, expected.params_digest)
    assert np.float64(got.tau_max).tobytes() == np.float64(expected.tau_max).tobytes()
    return got


def _body_file(records, newline=b"\n", digest=b"x"):
    """An event file of the byte ``records``, one a line, ended by ``newline``;
    ``n_pairs`` counts the records that are not blank."""
    head = [b"# kaon-eraser events v1",
            b"# seed=5 n_pairs=%d tau_max=50 params_digest=%s" % (sum(map(bool, records)), digest),
            b"id,tau_l,mode_l,tau_r,mode_r"]
    return newline.join(head + list(records)) + newline


_PLAIN = [b"0,1.5,TwoPi,2.5,ThreePi", b"1,0.25,Other,3.0000000000000001e-05,SemileptonicPlus",
          b"2,1234.5678901234567,SemileptonicMinus,0,TwoPi"]

_HAND_MADE = {
    "plain": _PLAIN,
    "crlf in one line": [_PLAIN[0], _PLAIN[1] + b"\r", _PLAIN[2]],
    "space before a time": [b"0, 1.5,TwoPi,2.5,ThreePi"],
    "space after a time": [b"0,1.5 ,TwoPi,2.5,ThreePi"],
    "space before an id": [b" 0,1.5,TwoPi,2.5,ThreePi"],
    "tab": [b"0,1.5,TwoPi,2.5\t,ThreePi"],
    "plus and E": [b"0,+3E-5,TwoPi,+2.5,ThreePi"],
    "bare point": [b"0,4.,TwoPi,.5,ThreePi"],
    "leading zeros": [b"000,007.5,TwoPi,0.0001e-02,ThreePi",
                      b"01,00000000000000000000012,Other,0.00012345678901234567,TwoPi"],
    "eighteen digits": [b"0,1.23456789012345678,TwoPi,123456789012345678,ThreePi",
                        b"1,0.5,Other,99999999999999999.5,TwoPi"],
    "more digits": [b"0,0.1234567890123456789012,TwoPi,12345678901234567890123456,ThreePi"],
    "exponents": [b"0,1e+05,TwoPi,1.5e-05,ThreePi", b"1,1e5,Other,1E5,TwoPi",
                  b"2,1e+5,Other,1e-0005,TwoPi", b"3,7e-300,Other,1e005,TwoPi"],
    "writer's exponents": [b"0,1e+05,TwoPi,1.5e-05,ThreePi",
                           b"1,7e-300,Other,1.2345678901234567e+250,TwoPi"],
    "negative zero": [b"0,-0.0,TwoPi,-0,ThreePi"],
    "negative": [b"0,1.5,TwoPi,2.5,ThreePi", b"1,-1.5,TwoPi,2.5,ThreePi"],
    "inf": [b"0,inf,TwoPi,2.5,ThreePi"],
    "nan": [b"0,1.5,TwoPi,nan,ThreePi"],
    "infinity": [b"0,1.5,TwoPi,-Infinity,ThreePi"],
    "overflow": [b"0,2e308,TwoPi,2.5,ThreePi"],
    "blank lines": [b"", _PLAIN[0], b"", _PLAIN[1], _PLAIN[2], b""],
    "whitespace line": [_PLAIN[0], b"   ", _PLAIN[1]],
    "midpoints": [b"0,9007199254740993,TwoPi,4503599627370496.5,ThreePi",
                  b"1,9007199254740995,Other,18014398509481986,TwoPi",
                  b"2,9007199254740994,Other,9.007199254740993e+15,TwoPi",
                  b"3,0.5000000000000001,Other,2.2250738585072011e-308,TwoPi"],
    "extremes": [b"0,4.9406564584124654e-324,TwoPi,1.7976931348623157e+308,ThreePi",
                 b"1,2e-324,Other,1e-400,TwoPi", b"2,1e+308,Other,2.2250738585072014e-308,TwoPi",
                 b"3,9.9999999999999995e-279,Other,1e+278,TwoPi"],
    "wrong names": [b"0,1,twopi,1,ThreePi"],
    "name one byte long": [b"0,1,SemileptonicPlusX,1,ThreePi"],
    "name one byte short": [b"0,1,SemileptonicMinu,1,ThreePi"],
    "name not ASCII": [b"0,1,Tw\xc3\xb6Pi,1,ThreePi"],
    "name in quotes": [b'0,1,"TwoPi",1,ThreePi'],
    "NUL": [b"0,1,TwoPi\0,1,ThreePi"],
    "past the largest double": [b"0,17976931348623159e+292,TwoPi,1,ThreePi"],
    "fields across lines": [b"0,1,TwoPi,1,ThreePi,1", b"2,TwoPi,3,Other"],
    "four fields": [_PLAIN[0], b"1,1,TwoPi,1"],
    "six fields": [_PLAIN[0], b"1,1,TwoPi,1,TwoPi,"],
    "empty time": [b"0,,TwoPi,1,ThreePi"],
    "id with plus": [b"+0,1,TwoPi,1,ThreePi"],
    "id with underscore": [b"0_0,1,TwoPi,1,ThreePi"],
    "ids out of order": [b"1,1,TwoPi,1,ThreePi", b"0,1,TwoPi,1,ThreePi"],
    "nineteen digit id": [b"0000000000000000000,1,TwoPi,1,ThreePi"],
}
_HAND_MADE_FILES = {
    **{case: _body_file(records) for case, records in _HAND_MADE.items()},
    "crlf": _body_file(_PLAIN, b"\r\n"),
    "cr only": _body_file(_PLAIN, b"\r"),
    "last line without newline": _body_file(_PLAIN)[:-1],
}


#: The hand-made bodies that the loadtxt reader read, or refused with another
#: message, and that are outside the record grammar: each is refused by its line.
_OUTSIDE_THE_GRAMMAR = {
    "space before a time": "line 4: '0, 1.5,TwoPi,2.5,ThreePi' does not parse",
    "space after a time": "line 4: '0,1.5 ,TwoPi,2.5,ThreePi' does not parse",
    "space before an id": "line 4: ' 0,1.5,TwoPi,2.5,ThreePi' does not parse",
    "tab": "line 4: '0,1.5,TwoPi,2.5\\t,ThreePi' does not parse",
    "plus and E": "line 4: '0,+3E-5,TwoPi,+2.5,ThreePi' does not parse",
    "bare point": "line 4: '0,4.,TwoPi,.5,ThreePi' does not parse",
    "eighteen digits":
        "line 4: '0,1.23456789012345678,TwoPi,123456789012345678,ThreePi' does not parse",
    "more digits": "line 4: '0,0.1234567890123456789012,TwoPi,12345678901234567890123456,"
                   "ThreePi' does not parse",
    "exponents": "line 5: '1,1e5,Other,1E5,TwoPi' does not parse",
    "inf": "line 4: '0,inf,TwoPi,2.5,ThreePi' does not parse",
    "nan": "line 4: '0,1.5,TwoPi,nan,ThreePi' does not parse",
    "infinity": "line 4: '0,1.5,TwoPi,-Infinity,ThreePi' does not parse",
    "overflow": "line 4: '0,2e308,TwoPi,2.5,ThreePi' does not parse",
    "blank lines": "line 4: expected 5 fields, got 1",
    "name in quotes": "line 4: '0,1,\"TwoPi\",1,ThreePi' does not parse",
    "id with plus": "line 4: '+0,1,TwoPi,1,ThreePi' does not parse",
    "nineteen digit id": "line 4: '0000000000000000000,1,TwoPi,1,ThreePi' does not parse",
}


@pytest.mark.parametrize("case", list(_HAND_MADE_FILES))
def test_read_matches_the_loadtxt_reader_on_hand_made_bodies(tmp_path, case):
    path = tmp_path / "hand.csv"
    path.write_bytes(_HAND_MADE_FILES[case])
    if case not in _OUTSIDE_THE_GRAMMAR:
        _assert_reads_as_the_oracle(path)
        return
    with pytest.raises(EventFormatError) as err:
        read_events(path)
    assert str(err.value) == _OUTSIDE_THE_GRAMMAR[case]


@pytest.mark.parametrize("block", [1, 7, 64, 333])
def test_read_matches_the_loadtxt_reader_across_block_sizes(tmp_path, monkeypatch, block,
                                                           default_params):
    # every line, id, field and line end straddles some block boundary, a
    # CR LF too: copies with CR LF and with CR line ends read as the LF file
    events = generate(GeneratorConfig(seed=4, n_pairs=300), default_params)
    path = tmp_path / "events.csv"
    write_events(path, events)
    data = path.read_bytes()
    monkeypatch.setattr(textio, "_READ_BLOCK", block)
    got = _assert_reads_as_the_oracle(path)
    for name in ("tau_l", "mode_l", "tau_r", "mode_r"):
        assert getattr(got, name).tobytes() == getattr(events, name).tobytes(), name
    for newline in (b"\r\n", b"\r"):
        path.write_bytes(data.replace(b"\n", newline))
        again = read_events(path)
        for name in ("tau_l", "mode_l", "tau_r", "mode_r"):
            assert getattr(again, name).tobytes() == getattr(got, name).tobytes(), name
        assert (again.seed, again.params_digest) == (got.seed, got.params_digest)
        assert np.float64(again.tau_max).tobytes() == np.float64(got.tau_max).tobytes()


_SCHEMA = b"# kaon-eraser events v1\n"
_METADATA_LINE = b"# seed=0 n_pairs=%d tau_max=50 params_digest=x\n"
_COLUMNS_WRONG = "line 3: expected column header 'id,tau_l,mode_l,tau_r,mode_r'"

#: Files that end in or before their header, or whose header is not the
#: writer's, with the message that names the fault.
_BAD_HEADERS = {
    "empty file": (b"", "line 1: missing 'kaon-eraser events' schema header"),
    "schema line only": (_SCHEMA, _NOT_METADATA),
    "no column header": (_SCHEMA + _METADATA_LINE % 0, _COLUMNS_WRONG),
    "wrong column header": (_SCHEMA + _METADATA_LINE % 0 + b"id,tau_l,mode_l,tau_r\n",
                            _COLUMNS_WRONG),
    "schema v2": (b"# kaon-eraser events v2\n" + _METADATA_LINE % 0
                  + b"id,tau_l,mode_l,tau_r,mode_r\n",
                  "line 1: unsupported schema version '2'"),
    # the version is the whole rest of the line, not what follows its last "v"
    **{f"schema v{version}": (f"# kaon-eraser events v{version}\n".encode() + _METADATA_LINE % 0
                              + b"id,tau_l,mode_l,tau_r,mode_r\n",
                              f"line 1: unsupported schema version {version!r}")
       for version in ("0v1", "foo v1", "év1")},
    "column header without its newline": (
        _SCHEMA + _METADATA_LINE % 1 + b"id,tau_l,mode_l,tau_r,mode_r",
        "header says n_pairs=1 but the file holds 0 records"),
}


@pytest.mark.parametrize("block", [1, 7, textio._READ_BLOCK])
@pytest.mark.parametrize("case", list(_BAD_HEADERS))
def test_read_refuses_bad_headers_at_every_block_size(tmp_path, monkeypatch, case, block):
    # the header lines may end in one block, span several, or not all be there
    data, message = _BAD_HEADERS[case]
    monkeypatch.setattr(textio, "_READ_BLOCK", block)
    path = tmp_path / "header.csv"
    path.write_bytes(data)
    with pytest.raises(EventFormatError) as err:
        read_events(path)
    assert str(err.value) == message


#: Lines outside the record grammar, with the message that names them; the
#: line's place in the file is put in for ``{i}``.
_BAD_LINES = {
    "four fields": ("{i},1.5,TwoPi,2.5", "expected 5 fields, got 4"),
    "space": ("{i},1.5,TwoPi, 2.5,ThreePi", "'{i},1.5,TwoPi, 2.5,ThreePi' does not parse"),
    "plus and E": ("{i},+3E-5,TwoPi,2.5,ThreePi", "'{i},+3E-5,TwoPi,2.5,ThreePi' does not parse"),
    "blank": ("", "expected 5 fields, got 1"),
    "eighteen digits": ("{i},1.23456789012345678,TwoPi,2.5,ThreePi",
                        "'{i},1.23456789012345678,TwoPi,2.5,ThreePi' does not parse"),
    "NUL": ("{i},1.5,TwoPi\0,2.5,ThreePi", "'{i},1.5,TwoPi\\x00,2.5,ThreePi' does not parse"),
    # 2**64: the uint64 Horner sum wraps to 0, so only the 10**18 check refuses it
    "twenty digits": ("{i},18446744073709551616,TwoPi,1,TwoPi",
                      "'{i},18446744073709551616,TwoPi,1,TwoPi' does not parse"),
    # tau_l parses; tau_r is one byte past the widest field the parser reads
    "25-byte tau_r": ("{i},1.5,TwoPi,1.%s,ThreePi" % ("0" * 23),
                      "'{i},1.5,TwoPi,1.%s,ThreePi' does not parse" % ("0" * 23)),
}


def _places(data):
    """Per line of ``data``: the block of ``_line_blocks`` that holds it, its
    place in that block and the block's number of lines."""
    places = []
    for k, block in enumerate(textio._line_blocks(io.BytesIO(data))):
        n = block.count(b"\n")
        places += [(k, j, n) for j in range(n)]
    return places


@pytest.mark.parametrize("place", ["first", "middle", "last"])
@pytest.mark.parametrize("kind", list(_BAD_LINES))
def test_read_names_the_first_bad_line(tmp_path, monkeypatch, kind, place):
    # the bad line is the first, a middle or the last of its block of some 150
    # lines, past the first block: so on either side of a block boundary.  The
    # digest is padded until a blank line can start a block.  The bad last
    # line of the file is not the one named.
    monkeypatch.setattr(textio, "_READ_BLOCK", 4096)
    line, message = _BAD_LINES[kind]
    rows = [b"%d,1.25,TwoPi,2.5,ThreePi" % i for i in range(400)] + [b"x"]
    for pad, i in itertools.product(range(32), range(len(rows) - 1)):
        data = _event_bytes(rows[:i] + [line.format(i=i).encode()] + rows[i + 1 :],
                            b"x" * pad)
        k, j, n = _places(data)[i + 3]
        if k >= 1 and j == {"first": 0, "middle": n // 2, "last": n - 1}[place]:
            break
    else:
        raise AssertionError(f"no line is {place} in a block")
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(EventFormatError) as err:
        read_events(path)
    assert str(err.value) == f"line {i + 4}: " + message.format(i=i)


def test_read_an_id_split_by_the_block_boundary(tmp_path, default_params):
    # a file past one block, its digest padded so that the first block ends
    # inside an id: the line is carried whole into the next block
    events = generate(GeneratorConfig(seed=6, n_pairs=20_000), default_params)
    path = tmp_path / "events.csv"
    write_events(path, events)
    digest = events.params_digest.encode()
    for pad in range(100):
        data = path.read_bytes().replace(digest, digest + b"x" * pad)
        start = data.rfind(b"\n", 0, textio._READ_BLOCK) + 1
        if 1 <= textio._READ_BLOCK - start < data.index(b",", start) - start:
            break
    else:
        raise AssertionError("no padding splits an id")
    path.write_bytes(data)
    got = _assert_reads_as_the_oracle(path)
    for name in ("tau_l", "mode_l", "tau_r", "mode_r"):
        assert getattr(got, name).tobytes() == getattr(events, name).tobytes()


#: 50,000 short hand-made records: about 21,000 lines to a default block.
_SHORT_ROWS = [b"%d,0.5,TwoPi,1,Other" % i for i in range(50_000)]


def test_read_blocks_of_many_short_lines(tmp_path):
    # a block of more lines than the writer's is still parsed in one pass
    data = _event_bytes(_SHORT_ROWS)
    assert max(n for _, _, n in _places(data)) > 16_384
    path = tmp_path / "short.csv"
    path.write_bytes(data)
    got = _assert_reads_as_the_oracle(path)
    assert got.n == len(_SHORT_ROWS) and (got.tau_l == 0.5).all() and (got.tau_r == 1).all()


def test_read_names_a_bad_line_deep_in_a_block_of_short_lines(tmp_path):
    # the bad line lies past line 8,192 of the first block, so the search by
    # halves runs over a block longer than that
    i = 10_000
    rows = _SHORT_ROWS[:i] + [b"%d,0.5,TwoPi, 1,Other" % i] + _SHORT_ROWS[i + 1 :]
    data = _event_bytes(rows)
    k, j, _ = _places(data)[i + 3]
    assert k == 0 and j > 8_192
    path = tmp_path / "short.csv"
    path.write_bytes(data)
    with pytest.raises(EventFormatError) as err:
        read_events(path)
    assert str(err.value) == f"line {i + 4}: '{i},0.5,TwoPi, 1,Other' does not parse"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_read_a_long_file_from_a_pipe(tmp_path, default_params):
    # a pipe has no size to allot the columns from: they grow as blocks come
    events = generate(GeneratorConfig(seed=8, n_pairs=40_000), default_params)
    write_events(tmp_path / "events.csv", events)
    fifo = tmp_path / "events.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes,
                              args=((tmp_path / "events.csv").read_bytes(),), daemon=True)
    writer.start()
    got = read_events(fifo)
    writer.join(timeout=30)
    assert not writer.is_alive()
    for name in ("tau_l", "mode_l", "tau_r", "mode_r"):
        assert getattr(got, name).tobytes() == getattr(events, name).tobytes(), name


@pytest.mark.parametrize("n_pairs", [1, 10**15])
def test_read_counts_records_whatever_the_header_claims(tmp_path, n_pairs):
    # more records than the header's n_pairs, or an n_pairs the file is far
    # too small to hold: the count is refused, nothing is allotted for it
    path = tmp_path / "count.csv"
    path.write_bytes(_body_file(_PLAIN).replace(b"n_pairs=3", b"n_pairs=%d" % n_pairs))
    with pytest.raises(EventFormatError, match=f"n_pairs={n_pairs} but the file holds 3"):
        read_events(path)
    _assert_reads_as_the_oracle(path)


def test_read_names_utf8_before_a_header_error(tmp_path):
    # whatever else is wrong, a file that is not UTF-8 is refused as such,
    # even where the bad byte lies blocks after the first defect
    rows = [b"%d,1.0,TwoPi,2.0,ThreePi" % i for i in range(60_000)] + [b"60000,1.0,Tw\xffPi,2,TwoPi"]
    path = tmp_path / "bytes.csv"
    path.write_bytes(_body_file(rows).replace(b"id,tau_l", b"id,tau"))
    with pytest.raises(EventFormatError, match="not UTF-8"):
        read_events(path)


def _fields(*fields):
    """A buffer holding ``fields`` as time fields, one a line, and their starts and widths."""
    text = b"".join(field + b",\n" for field in fields)
    buf = np.frombuffer(textio._PAD + text + textio._PAD, np.uint8)
    ends = np.flatnonzero(buf == ord(","))
    starts = np.concatenate([[len(textio._PAD)], ends[:-1] + 2])
    return buf, starts, ends - starts


def test_block_parser_hands_midpoints_to_float():
    # decimals exactly halfway between two doubles: odd integers above 2**53
    # (and 1e23) and halves of odd 54-bit integers, both signs
    rng = np.random.default_rng(2)
    odd = (rng.integers(2**53, 2**54, 200) | 1).tolist()
    ties = [b"%d" % m for m in odd[:100]] + [b"%d.5" % (m // 2) for m in odd[100:]]
    ties += [b"1e+23", b"-9007199254740993", b"-4503599627370496.5"]
    values, fallback = textio._read_times(*_fields(*ties))
    assert fallback.all()
    assert values.tobytes() == np.array([float(t) for t in ties]).tobytes()
    # their neighbours one unit of the last digit away are not ties
    near = [b"%d" % (m + 1) for m in odd[:100]]
    values, fallback = textio._read_times(*_fields(*near))
    assert not fallback.any()
    assert values.tobytes() == np.array([float(t) for t in near]).tobytes()


def test_block_parser_hands_exponent_fields_to_float():
    # '%.17g' writes an exponent below 1e-4 and from 1e17 up: 2- and 3-digit
    # exponents of both signs, both signs of the value; float() reads each,
    # and the fixed-notation fields beside them go the decimal way
    exponent = [1.5e-5, -9.9999999999999991e-05, 1e-100, 5e-324, -2.2250738585072014e-308,
                1e17, -1.0000000000000002e17, 1e100, -1.7976931348623157e308]
    fixed = [1e-4, -0.00012345678901234567, 99999999999999984.0, -0.5, 3.0]
    fields = [b"%.17g" % x for x in exponent + fixed]
    values, fallback = textio._read_times(*_fields(*fields))
    assert fallback.tolist() == [True] * len(exponent) + [False] * len(fixed)
    assert [b"e" in field for field in fields] == fallback.tolist()
    assert values.tobytes() == np.array([float(field) for field in fields]).tobytes()


def test_block_parser_refuses_a_block_that_ends_inside_a_line():
    # the line after the last newline is cut off, not dropped
    assert textio._fast_records(b"0,1,TwoPi,1,Other\nabc") is None


@pytest.mark.parametrize("field", [b"1.23456789012345678", b"123456789012345678",
                                   b"0.000123456789012345678", b"1.234567890123456789e-05"])
def test_block_parser_refuses_more_than_17_digits(field):
    # the grammar is that of the writer, which writes at most 17
    assert textio._read_times(*_fields(b"1.5", field)) is None


def _tie_times():
    """Floats whose 17-digit rounding is an exact tie (see ``test_formatters``)."""
    rng = np.random.default_rng(11)
    ties = []
    for e in range(1, 40):
        lo, hi = -(-10**17 // 5**e), min(10**18 // 5**e, 2**53 - 1)
        if hi > lo:
            ties += [math.ldexp(m | 1, -e) for m in rng.integers(lo, hi, 4, endpoint=True).tolist()]
    return ties


_DECADES = np.array([10.0**k for k in range(-307, 308)])
_TIME_EDGES = sorted(set(
    [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
     1e-278, 1e278, 9.9999999999999995e-5, 1e-4, 1e16, 1e17]
    + _DECADES.tolist() + np.nextafter(_DECADES, 0.0).tolist()
    + np.nextafter(_DECADES, np.inf).tolist() + _tie_times()
))
_TIMES = st.one_of(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
                   st.sampled_from(_TIME_EDGES),
                   st.integers(1, 2**52).map(lambda m: math.ldexp(m, -1074)))


@settings(max_examples=60, deadline=None)
@given(st.lists(_TIMES, min_size=1, max_size=40))
def test_read_gives_back_the_bits_written(tmp_path_factory, times):
    tau_l = np.array(times)
    tau_r = tau_l[::-1].copy()
    modes = (np.arange(tau_l.size) % len(MODE_ORDER)).astype(np.int8)
    events = EventSet(tau_l, modes, tau_r, modes[::-1].copy(), 7, 50.0, "x")
    path = tmp_path_factory.getbasetemp() / "drawn.csv"
    write_events(path, events)
    got = _assert_reads_as_the_oracle(path)
    for name in ("tau_l", "mode_l", "tau_r", "mode_r"):
        assert getattr(got, name).tobytes() == getattr(events, name).tobytes(), name


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from(_TIME_EDGES)), min_size=1, max_size=40))
def test_block_parser_reads_any_finite_time_back(times):
    # both signs, below the file checks: the text of any finite float is in
    # the block parser's grammar and reads back bit for bit
    x = np.array(times + [-t for t in times])
    modes = np.zeros(x.size, np.int8)
    columns = textio._fast_records(_event_lines(0, x, modes, x[::-1].copy(), modes).encode())
    assert columns is not None
    assert columns[1].tobytes() == x.tobytes() and columns[3].tobytes() == x[::-1].tobytes()
