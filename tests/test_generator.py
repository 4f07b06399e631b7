import hashlib
import math
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
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
from kaon_eraser.decay import CHANNEL_TO_MODE_CODE, _mode_cells, amplitudes
from kaon_eraser.generator import _BATCH, _TASK, _fringe_reach
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


def test_import_leaves_scipy_stats_unloaded():
    code = "import sys, kaon_eraser; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.strip() == "False"


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
        _, _, m_sl, m_ls, m_x = _mode_cells(params)
        return _fringe_reach(m_sl, m_ls, m_x, params.delta_gamma)

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


def _write_small_event_file(path, n_pairs, rows):
    path.write_text(
        f"# kaon-eraser events v1\n# seed=0 n_pairs={n_pairs} tau_max=50 params_digest=x\n"
        "id,tau_l,mode_l,tau_r,mode_r\n" + "".join(f"{row}\n" for row in rows)
    )


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_read_rejects_non_finite_times(tmp_path, bad):
    path = tmp_path / "bad.csv"
    _write_small_event_file(path, 2, ["0,1.0,TwoPi,1.0,TwoPi", f"1,2.0,TwoPi,{bad},ThreePi"])
    with pytest.raises(EventFormatError, match="record id 1: decay times must be finite"):
        read_events(path)


def test_read_rejects_record_count_other_than_header(tmp_path):
    path = tmp_path / "short.csv"
    _write_small_event_file(path, 3, ["0,1.0,TwoPi,1.0,ThreePi", "1,2.0,TwoPi,3.0,ThreePi"])
    with pytest.raises(EventFormatError, match="n_pairs=3 but the file holds 2"):
        read_events(path)
    path.write_text(path.read_text().replace(" n_pairs=3", ""))
    with pytest.raises(EventFormatError, match="no n_pairs"):
        read_events(path)


def test_read_rejects_malformed_metadata_value(tmp_path):
    path = tmp_path / "seed.csv"
    _write_small_event_file(path, 1, ["0,1.0,TwoPi,1.0,ThreePi"])
    path.write_text(path.read_text().replace("seed=0", "seed=abc"))
    with pytest.raises(EventFormatError, match="line 2: seed"):
        read_events(path)


@pytest.mark.parametrize(
    "rows, match",
    [
        # one byte longer than the longest name: a 17-byte field would cut it to a name
        (["0,1.0,SemileptonicMinusX,1.0,TwoPi"], "unknown decay mode"),
        # '#' inside a record is data, not the start of a comment
        (["0,1.0,TwoPi # c,1.0,TwoPi"], "unknown decay mode"),
        (["0,1.0,TwoPi,1.0,TwoPi # c"], "unknown decay mode"),
        (["0,1.0, TwoPi,1.0,TwoPi"], "unknown decay mode"),
        (["0,1.0,TwoPi,1.0,TwoPi "], "unknown decay mode"),
        # a bytes field drops trailing NULs, which must not turn this into TwoPi
        (["0,1.0,TwoPi\0,1.0,TwoPi"], "line 4"),
        (["0,1.0,TwoPi,1.0,ThreePi", "1,2.0,TwoPi,1.0"], "line 5"),
        (["0,1.0,TwoPi,1.0,ThreePi", "1,2.0,TwoPi,1.0,TwoPi,"], "line 5"),
        (["0,1.0,TwoPi,1.0,ThreePi", "1,2.0,TwoPi,x,TwoPi"], "line 5"),
        (["0,1.0,TwoPi,1.0,ThreePi", "1,2.0,TwoPi,1.0,TwoPi", "z,1.0,TwoPi,1.0,TwoPi"],
         "line 6"),
        (["0,1.0,TwoPi,1.0,ThreePi", "", "1,,TwoPi,1.0,TwoPi"], "line 6"),
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
    # the body cannot be read a second time to find the bad line
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


def test_read_skips_blank_lines_in_body(tmp_path):
    path = tmp_path / "blank.csv"
    _write_small_event_file(path, 2, ["", "0,1.0,TwoPi,2.0,ThreePi", "", "1,3.0,Other,4.0,TwoPi", ""])
    back = read_events(path)
    np.testing.assert_array_equal(back.tau_l, [1.0, 3.0])
    np.testing.assert_array_equal(back.tau_r, [2.0, 4.0])
    assert back.mode_l.tolist() == [0, 4]
    assert back.mode_r.tolist() == [1, 0]


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


@pytest.mark.parametrize("rows", [[], ["", ""]])
def test_read_empty_body_without_warning(tmp_path, rows):
    path = tmp_path / "empty.csv"
    _write_small_event_file(path, 0, rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = read_events(path)
    assert back.n == 0
    assert back.tau_l.dtype == np.float64 and back.mode_l.dtype == np.int8


def _event_bytes(rows, meta=b""):
    """An event file of the given ``rows`` (bytes) with ``meta`` appended to the metadata line."""
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
    # a late one is met by NumPy's reader, or by the reread that names a bad
    # line: 60,000 rows put it past the 50,000 lines NumPy reads at a time
    n = 60_000 if where in ("late record", "after a bad record") else 3
    rows = [b"%d,1.0,TwoPi,2.0,ThreePi" % i for i in range(n)]
    meta = b""
    if where == "metadata":
        meta = b" note=\xff"
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
