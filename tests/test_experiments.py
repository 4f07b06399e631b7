import dataclasses
import itertools
import math
import re
import warnings

import numpy as np
import pytest

from kaon_eraser import (
    Basis,
    DecayMode,
    Estimate,
    EventSet,
    ExperimentKind,
    ExperimentSpec,
    GeneratorConfig,
    Outcome,
    PhysicsParams,
    ScanResult,
    TimeWindow,
    full_table,
    generate,
    misidentification_rates,
    run_experiment,
    sort_passive_events,
    survival_weight,
    visibility,
    write_scan_csv,
)
from kaon_eraser.decay import IDENTIFIES, MODE_CODES, amplitudes

FAMILIES = ("like", "unlike", "s_ks", "s_kl")


@pytest.fixture(scope="module")
def events_1m(default_params):
    return generate(GeneratorConfig(seed=42, n_pairs=1_000_000), default_params)


@pytest.fixture(scope="module")
def grid_short():
    return tuple(np.round(np.arange(0.0, 8.001, 0.2), 10))


def _pass_stats(result):
    tested = bad = flagged = 0
    for row in result.rows:
        for fam in FAMILIES:
            est = getattr(row, fam)
            if est.flagged:
                flagged += 1
                continue
            tested += 1
            if abs(est.value - est.twin) > 3.0 * max(est.sigma, 1e-12):
                bad += 1
    return tested, bad, flagged


# ---------------------------------------------------------------------------
# classification and misidentification
# ---------------------------------------------------------------------------


def test_mode_rule(default_params):
    # the passive protocols read a lifetime off 2pi and 3pi, a strangeness
    # off the semileptonic modes, and nothing off any other mode
    expected = {
        DecayMode.TWO_PI: Outcome.KS,
        DecayMode.THREE_PI: Outcome.KL,
        DecayMode.SEMILEPTONIC_PLUS: Outcome.K0,
        DecayMode.SEMILEPTONIC_MINUS: Outcome.K0BAR,
        DecayMode.OTHER: None,
    }
    assert IDENTIFIES == expected


def test_misidentification_rates(default_params):
    p_kl_as_ks, p_ks_as_kl = misidentification_rates(default_params)
    assert p_kl_as_ks == pytest.approx(1.0 - math.exp(-4.8 / 579.0), rel=1e-12)
    assert p_ks_as_kl == pytest.approx(math.exp(-4.8), rel=1e-12)
    assert p_kl_as_ks < 1e-2 and p_ks_as_kl < 1e-2
    wide = PhysicsParams(lifetime_window=200.0)
    assert misidentification_rates(wide)[1] == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError, match="tau_r0"):
        ExperimentSpec(ExperimentKind.ACTIVE_ACTIVE, -1.0, (0.0, 1.0), 0)
    for grid in ((1.0, 0.5), (0.0, 1.0, 1.0)):
        with pytest.raises(ValueError, match="increasing"):
            ExperimentSpec(ExperimentKind.ACTIVE_ACTIVE, 1.0, grid, 0)
    with pytest.raises(ValueError, match="nonempty"):
        ExperimentSpec(ExperimentKind.ACTIVE_ACTIVE, 1.0, (), 0)
    with pytest.raises(ValueError, match="event-based"):
        ExperimentSpec(ExperimentKind.PASSIVE_PASSIVE, 1.0, (0.0, 1.0), 0)
    # NaN passes every ordering check, so non-finite values need their own
    fields = dict(kind=ExperimentKind.ACTIVE_ACTIVE, tau_r0=1.0, tau_l_grid=(0.0, 1.0), n_pairs=0)
    for field, value in [
        ("tau_r0", math.nan),
        ("tau_r0", math.inf),
        ("tau_l_grid", (math.nan,)),
        ("tau_l_grid", (0.0, math.nan)),
        ("tau_l_grid", (0.0, math.inf)),
        ("bin_width_l", math.nan),
        ("bin_width_r", math.inf),
    ]:
        with pytest.raises(ValueError, match="finite"):
            ExperimentSpec(**{**fields, field: value})
    for field, value in itertools.product(("bin_width_l", "bin_width_r"), (0.0, -0.2)):
        with pytest.raises(ValueError, match="bin widths must be > 0"):
            ExperimentSpec(**{**fields, field: value})
    # the generator's rule and message: the row draws seed NumPy with it
    for seed in (-1, 2**64):
        with pytest.raises(ValueError) as err:
            ExperimentSpec(**{**fields, "seed": seed})
        assert str(err.value) == f"seed must be an integer in [0, 2**64), got {seed}"
    assert ExperimentSpec(**{**fields, "seed": 2**64 - 1}).seed == 2**64 - 1
    numpy_spec = ExperimentSpec(**{**fields, "seed": np.uint64(2**64 - 1),
                                   "n_pairs": np.int64(0), "min_count": np.int32(5)})
    assert numpy_spec.seed == 2**64 - 1 and numpy_spec.min_count == 5
    spec = ExperimentSpec("a", 1.0, (0.0, 1.0), 0)
    assert spec.kind is ExperimentKind.ACTIVE_ACTIVE


# ---------------------------------------------------------------------------
# analytic columns
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("seed", True), ("min_count", 2.5), ("min_count", True),
    ("n_pairs", 0.0), ("n_pairs", 1000.0), ("n_pairs", np.float64(1000.0)),
])
def test_spec_refuses_what_is_no_integer(field, value):
    # these were printed into the scan header, and Monte Carlo kinds failed
    # late in NumPy
    fields = dict(kind=ExperimentKind.ACTIVE_ACTIVE, tau_r0=1.0, tau_l_grid=(0.0, 1.0), n_pairs=0)
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        ExperimentSpec(**{**fields, field: value})


@pytest.mark.parametrize("kind", ["a", "b"])
def test_analytic_scan_where_survival_underflows_is_refused(default_params, kind):
    # at tau_l = tau_r0 = 2000 the survival weight is 0 and the twins would
    # be 0/0 = NaN: the windows are refused before the division
    spec = ExperimentSpec(ExperimentKind(kind), 2000.0, (2000.0,), 0)
    with pytest.raises(ValueError, match="underflows to 0: no pair survives"):
        run_experiment(spec, default_params)


def test_analytic_fringe_has_visibility_envelope(default_params):
    # unlike-strangeness column oscillates inside the 1/cosh envelope
    grid = tuple(np.round(np.arange(0.0, 26.801, 0.2), 10))
    spec = ExperimentSpec(ExperimentKind.ACTIVE_ACTIVE, 0.0, grid, 0)
    result = run_experiment(spec, default_params)
    for row in result.rows:
        dt = row.tau_l - spec.tau_r0
        expected = 0.5 * (
            1.0 + visibility(dt, default_params) * math.cos(default_params.delta_m * dt)
        )
        assert row.unlike.value == pytest.approx(expected, abs=1e-12)
        assert row.like.value + row.unlike.value == pytest.approx(1.0, abs=1e-12)
        envelope = 0.5 * (1.0 + visibility(dt, default_params))
        assert row.unlike.value <= envelope + 1e-12


@pytest.mark.parametrize("kind", ["a", "b"])
def test_scan_of_pairs_without_events_is_refused(default_params, kind):
    # events are generated by the caller; only an analytic scan needs none
    spec = ExperimentSpec(ExperimentKind(kind), 2.0, (0.0, 1.0), 1000)
    with pytest.raises(ValueError, match="needs its events"):
        run_experiment(spec, default_params)


@pytest.mark.parametrize("kind, n_pairs", [("a", 0), ("b", 1), ("c", 7), ("d", 2001)])
def test_scan_refuses_events_of_another_sample_size(rich_params, kind, n_pairs):
    # the header states spec.n_pairs, so it must be the size of the sample
    # sorted; n_pairs = 0 would also label a Monte Carlo scan analytic
    events = generate(GeneratorConfig(seed=3, n_pairs=2_000), rich_params)
    spec = ExperimentSpec(ExperimentKind(kind), 1.0, (0.0, 0.5), n_pairs)
    with pytest.raises(ValueError, match="n_pairs=.* but the events hold 2000"):
        run_experiment(spec, rich_params, events=events)


@pytest.fixture(scope="module")
def events_default_2000(default_params):
    return generate(GeneratorConfig(1, 2000), default_params)


def _names_both_digests(events, params):
    return re.escape(f"params_digest={events.params_digest}, not {params.digest()} of the")


@pytest.mark.parametrize("kind", ["a", "b", "c", "d"])
def test_scan_refuses_events_drawn_with_other_params(events_default_2000, kind):
    # the estimates divide the sample's counts by the weights and widths of
    # params, so a sample drawn with other parameters estimates nothing
    shifted = PhysicsParams(delta_m=0.3)
    spec = ExperimentSpec(ExperimentKind(kind), 2.0, (0.0, 0.5, 1.0), events_default_2000.n)
    with pytest.raises(ValueError, match=_names_both_digests(events_default_2000, shifted)):
        run_experiment(spec, shifted, events=events_default_2000)


def test_sort_passive_refuses_events_drawn_with_other_params(events_default_2000):
    shifted = PhysicsParams(delta_m=0.3)
    with pytest.raises(ValueError, match=_names_both_digests(events_default_2000, shifted)):
        sort_passive_events(events_default_2000, (0.5, 1.0), 0.2, 2.0, shifted)


@pytest.mark.parametrize("kind", ["a", "b"])
def test_scan_refuses_empty_events(default_params, kind):
    # n_pairs = 0 marks an analytic scan, whose columns are the twins; an
    # empty sample would write flagged 0 +- 0 columns under that header
    empty = np.zeros(0)
    no_modes = np.zeros(0, dtype=np.int8)
    events = EventSet(empty, no_modes, empty, no_modes, 0, 50.0, default_params.digest())
    spec = ExperimentSpec(ExperimentKind(kind), 1.0, (0.0, 0.5), 0)
    with pytest.raises(ValueError, match="n_pairs >= 1"):
        run_experiment(spec, default_params, events=events)


def _valid_events(n=1000, seed=11):
    rng = np.random.default_rng(seed)
    return EventSet(rng.uniform(0.0, 4.0, n), rng.integers(0, 5, n).astype(np.int8),
                    rng.uniform(0.0, 4.0, n), rng.integers(0, 5, n).astype(np.int8),
                    seed, 50.0, "synthetic")


@pytest.mark.parametrize("kind", ["a", "b", "c", "d"])
def test_scan_refuses_events_with_mode_code_outside_the_mode_table(default_params, kind):
    # code 9 names no decay mode; such records used to drop out of every count
    events = _valid_events()
    nine = np.full(events.n, 9, dtype=np.int8)
    spec = ExperimentSpec(ExperimentKind(kind), 2.0, (0.0, 0.5, 1.0), events.n)
    with pytest.raises(ValueError, match=r"record id 0: mode codes must be in \[0, 5\)"):
        run_experiment(spec, default_params, events=dataclasses.replace(
            events, mode_l=nine, mode_r=nine))
    for field, code in (("mode_l", 5), ("mode_r", -1), ("mode_r", 9)):
        modes = getattr(events, field).copy()
        modes[537] = code
        with pytest.raises(ValueError, match="record id 537: mode codes"):
            run_experiment(spec, default_params,
                           events=dataclasses.replace(events, **{field: modes}))


@pytest.mark.parametrize("kind", ["a", "b", "c", "d"])
def test_scan_refuses_events_with_times_not_finite_and_nonnegative(default_params, kind):
    events = _valid_events()
    spec = ExperimentSpec(ExperimentKind(kind), 2.0, (0.0, 0.5, 1.0), events.n)
    nan = np.full(events.n, math.nan)
    with pytest.raises(ValueError, match="record id 0: decay times must be finite and >= 0"):
        run_experiment(spec, default_params, events=dataclasses.replace(
            events, tau_l=nan, tau_r=nan))
    for field, value in (("tau_l", math.nan), ("tau_r", math.nan), ("tau_l", -1e-300),
                         ("tau_r", math.inf), ("tau_l", -math.inf)):
        times = getattr(events, field).copy()
        times[[12, 800]] = value
        with pytest.raises(ValueError, match="record id 12: decay times"):
            run_experiment(spec, default_params,
                           events=dataclasses.replace(events, **{field: times}))
    # the first bad record is named, whichever check it fails
    times, modes = events.tau_r.copy(), events.mode_l.copy()
    times[40], modes[39] = math.nan, 7
    with pytest.raises(ValueError, match="record id 39: mode codes"):
        run_experiment(spec, default_params,
                       events=dataclasses.replace(events, tau_r=times, mode_l=modes))


def test_scan_refuses_mode_columns_longer_than_the_time_columns(default_params):
    # a kind a scan used to run on such a set and give counts
    events = _valid_events()
    long = np.concatenate([events.mode_l, events.mode_r])
    spec = ExperimentSpec(ExperimentKind.ACTIVE_ACTIVE, 2.0, (0.0, 0.5, 1.0), events.n)
    with pytest.raises(ValueError, match="event columns must be 1-D NumPy arrays of one length"):
        run_experiment(spec, default_params,
                       events=dataclasses.replace(events, mode_l=long, mode_r=long))


def test_event_set_columns_are_read_only_and_replace_checks_again():
    events = _valid_events()
    columns = [events.tau_l, events.mode_l, events.tau_r, events.mode_r]
    assert not any(column.flags.writeable for column in columns)
    with pytest.raises(ValueError, match="read-only"):
        events.tau_l[0] = -1.0
    times = events.tau_r.copy()
    times[3] = -1.0
    with pytest.raises(ValueError, match="record id 3: decay times must be finite and >= 0"):
        dataclasses.replace(events, tau_r=times)
    assert not dataclasses.replace(events, seed=12).tau_r.flags.writeable


def test_sort_passive_events_refuses_bad_records(default_params):
    events = _valid_events()
    modes = events.mode_r.copy()
    modes[3] = 9
    with pytest.raises(ValueError, match="record id 3: mode codes"):
        sort_passive_events(dataclasses.replace(events, mode_r=modes), (0.5, 1.0), 0.2, 2.0,
                            default_params)
    times = events.tau_l.copy()
    times[5] = math.nan
    with pytest.raises(ValueError, match="record id 5: decay times"):
        sort_passive_events(dataclasses.replace(events, tau_l=times), (0.5, 1.0), 0.2, 2.0,
                            default_params)


@pytest.mark.parametrize("kind", ["a", "b", "c", "d"])
def test_scan_takes_records_on_the_edges_of_the_checks(default_params, kind):
    events = _valid_events()
    tau_l, mode_l, mode_r = events.tau_l.copy(), events.mode_l.copy(), events.mode_r.copy()
    tau_l[:3] = 0.0, 5e-324, np.finfo(float).max
    mode_l[:2], mode_r[:2] = (0, 4), (4, 0)
    edges = dataclasses.replace(events, tau_l=tau_l, mode_l=mode_l, mode_r=mode_r,
                                params_digest=default_params.digest())
    spec = ExperimentSpec(ExperimentKind(kind), 2.0, (0.0, 0.5, 1.0), events.n)
    assert len(run_experiment(spec, default_params, events=edges).rows) == 3


def test_width_scaled_row_with_a_scale_below_one(default_params):
    # one meter 2pi decay in the window [1.9, 2.1] of a row whose width scale
    # n_pairs * gamma(2pi) * d is about 2/3: the count is read as 1 / scale,
    # and with min_count 1 it is not flagged
    tau_r = np.full(50, 100.0)
    tau_r[0] = 2.0
    two_pi = np.full(50, MODE_CODES[DecayMode.TWO_PI], dtype=np.int8)
    events = EventSet(np.full(50, 11.0), two_pi, tau_r, two_pi, 0, 50.0, default_params.digest())
    spec = ExperimentSpec("c", 2.0, (10.0,), 50, bin_width_r=0.2, min_count=1)
    row = run_experiment(spec, default_params, events=events).rows[0]
    d = survival_weight(TimeWindow.point(10.0), TimeWindow.centered(2.0, 0.2), default_params)
    scale = 50 * amplitudes(default_params).identified_width(DecayMode.TWO_PI) * d
    assert 0.6 < scale < 0.7
    assert row.s_ks == Estimate(row.s_ks.value, row.s_ks.value, row.s_ks.twin, 1, False)
    assert row.s_ks.value == pytest.approx(1.0 / scale, rel=1e-12)


def test_partially_active_analytic_only(default_params, grid_short):
    spec = ExperimentSpec(ExperimentKind.PARTIALLY_ACTIVE, 2.0, grid_short, 0)
    result = run_experiment(spec, default_params)
    for row in result.rows:
        for fam in FAMILIES:
            est = getattr(row, fam)
            assert est.value == est.twin
            assert est.sigma == 0.0 and est.n == 0 and not est.flagged
        assert row.counts["strangeness"] == 0


def test_complementarity_per_outcome_pair(default_params):
    for tau_l in (0.0, 1.7, 9.4):
        table = full_table(Basis.STRANGENESS, Basis.STRANGENESS, tau_l, 2.0, default_params)
        for ol in (Outcome.K0, Outcome.K0BAR):
            row_sum = sum(table.p[(ol, o)] for o in (Outcome.K0, Outcome.K0BAR))
            assert row_sum == pytest.approx(0.5, abs=1e-9)
        assert table.total() == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Monte Carlo columns vs analytic twins
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", list(ExperimentKind))
def test_estimates_match_twins(kind, default_params, events_1m, grid_short):
    spec = ExperimentSpec(
        kind=kind,
        tau_r0=2.0,
        tau_l_grid=grid_short,
        n_pairs=events_1m.n,
        seed=7,
        bin_width_l=0.2,
        bin_width_r=1.0,
    )
    result = run_experiment(spec, default_params, events=events_1m)
    tested, bad, flagged = _pass_stats(result)
    assert tested >= 30
    assert bad / tested <= 0.05


def test_family_sums_consistent(default_params, events_1m, grid_short):
    # like+unlike estimates a total of 1 (ratio) and the passive absolute
    # families sum to their analytic totals within errors
    spec = ExperimentSpec(
        kind=ExperimentKind.PASSIVE_PASSIVE,
        tau_r0=2.0,
        tau_l_grid=grid_short,
        n_pairs=events_1m.n,
        seed=7,
        bin_width_l=0.2,
        bin_width_r=1.0,
    )
    result = run_experiment(spec, default_params, events=events_1m)
    for row in result.rows:
        if row.s_ks.flagged or row.s_kl.flagged:
            continue
        total = row.s_ks.value + row.s_kl.value
        sigma = math.hypot(row.s_ks.sigma, row.s_kl.sigma)
        assert abs(total - 1.0) <= 4.0 * sigma


def test_partially_active_wave_and_particle_streams(default_params, events_1m, grid_short):
    spec = ExperimentSpec(
        kind=ExperimentKind.PARTIALLY_ACTIVE,
        tau_r0=2.0,
        tau_l_grid=grid_short,
        n_pairs=events_1m.n,
        seed=11,
        bin_width_r=1.0,
    )
    result = run_experiment(spec, default_params, events=events_1m)
    # both streams populated, plus the separate early semileptonic tally
    for row in result.rows:
        assert row.counts["strangeness"] > 0
        assert row.counts["lifetime"] > 0
        assert row.counts["early_strangeness"] >= 0
    assert any(row.counts["early_strangeness"] > 0 for row in result.rows)


def test_fringe_reconstruction_from_passive_sorting(rich_params):
    # at a feasible width ratio the fully passive experiment reconstructs
    # the oscillation fringes from joint semileptonic counts alone
    events = generate(GeneratorConfig(seed=21, n_pairs=400_000), rich_params)
    grid = tuple(np.round(np.arange(0.0, 8.01, 0.4), 10))
    spec = ExperimentSpec(
        kind=ExperimentKind.PASSIVE_PASSIVE,
        tau_r0=2.0,
        tau_l_grid=grid,
        n_pairs=events.n,
        seed=3,
        bin_width_l=0.4,
        bin_width_r=0.8,
    )
    result = run_experiment(spec, rich_params, events=events)
    unlike = [row.unlike for row in result.rows]
    assert all(not est.flagged for est in unlike)
    values = np.array([est.value for est in unlike])
    twins = np.array([est.twin for est in unlike])
    sigmas = np.array([est.sigma for est in unlike])
    assert np.mean(np.abs(values - twins) <= 3.0 * sigmas) >= 0.9
    # the fringe actually swings: the analytic twin range is substantial
    # and the estimates track it
    assert twins.max() - twins.min() > 0.3
    assert values.max() - values.min() > 0.25
    correlation = np.corrcoef(values, twins)[0, 1]
    assert correlation > 0.9


def test_delayed_choice_subsets_fit_same_form(rich_params):
    events = generate(GeneratorConfig(seed=22, n_pairs=400_000), rich_params)
    grid = tuple(np.round(np.arange(0.0, 8.01, 0.4), 10))
    spec = ExperimentSpec(
        kind=ExperimentKind.PASSIVE_PASSIVE,
        tau_r0=4.0,
        tau_l_grid=grid,
        n_pairs=events.n,
        seed=4,
        bin_width_l=0.4,
        bin_width_r=0.8,
    )
    result = run_experiment(spec, rich_params, events=events)
    for subset in (
        [r for r in result.rows if r.tau_l < spec.tau_r0],
        [r for r in result.rows if r.tau_l > spec.tau_r0],
    ):
        assert len(subset) >= 5
        tested = bad = 0
        for row in subset:
            for fam in FAMILIES:
                est = getattr(row, fam)
                if est.flagged:
                    continue
                tested += 1
                if abs(est.value - est.twin) > 3.0 * max(est.sigma, 1e-12):
                    bad += 1
        assert tested >= 10
        assert bad / tested <= 0.05


# ---------------------------------------------------------------------------
# passive sorting machinery
# ---------------------------------------------------------------------------


def test_sort_passive_synthetic_factorized_oracle(rich_params):
    # feed records drawn from a hand-built factorized density (independent
    # exponential times, independent mode draws) and check that the
    # estimator returns exactly synthetic-density / (extinction * widths)
    rng = np.random.default_rng(99)
    n = 400_000
    rate_l, rate_r = 1.0, 0.25
    p_left = {2: 0.5, 3: 0.5}
    p_right = {0: 0.7, 1: 0.3}
    tau_l = rng.exponential(1.0 / rate_l, size=n)
    tau_r = rng.exponential(1.0 / rate_r, size=n)
    mode_l = rng.choice(list(p_left), p=list(p_left.values()), size=n).astype(np.int8)
    mode_r = rng.choice(list(p_right), p=list(p_right.values()), size=n).astype(np.int8)
    events = EventSet(
        tau_l=tau_l, mode_l=mode_l, tau_r=tau_r, mode_r=mode_r,
        seed=99, tau_max=50.0, params_digest=rich_params.digest(),
    )
    grid = (1.0, 2.0)
    tau_r0, bw = 1.5, 0.5
    from kaon_eraser.decay import MODE_ORDER, TransitionAmplitudes

    amps = TransitionAmplitudes.from_params(rich_params)
    tables = sort_passive_events(
        events, grid, bw, tau_r0, rich_params, kind_r=Basis.LIFETIME, min_count=5
    )
    for tau_l0, table in zip(grid, tables):
        w_l = TimeWindow.centered(tau_l0, bw)
        w_r = TimeWindow.centered(tau_r0, bw)
        d = survival_weight(w_l, w_r, rich_params)
        prob_l_bin = math.exp(-rate_l * w_l.lo) - math.exp(-rate_l * w_l.hi)
        prob_r_bin = math.exp(-rate_r * w_r.lo) - math.exp(-rate_r * w_r.hi)
        for (ol, outcome_r), value in table.p.items():
            mode_left = {Outcome.K0: 2, Outcome.K0BAR: 3}[ol]
            mode_right = {Outcome.KS: 0, Outcome.KL: 1}[outcome_r]
            joint = p_left[mode_left] * prob_l_bin * p_right[mode_right] * prob_r_bin
            width_l = amps.identified_width(MODE_ORDER[mode_left])
            width_r = amps.identified_width(MODE_ORDER[mode_right])
            expected = joint / (d * width_l * width_r)
            sigma = table.sigma[(ol, outcome_r)]
            assert abs(value - expected) <= 3.0 * max(sigma, 1e-12)


def test_sort_passive_rejects_overlapping_bins(default_params, events_1m):
    with pytest.raises(ValueError, match="overlap"):
        sort_passive_events(events_1m, [1.0, 1.1], 0.5, 1.0, default_params)


@pytest.mark.parametrize("bin_width, bin_width_r", [
    (0.0, None), (0.5, 0.0), (math.nan, None), (0.5, math.nan),
])
def test_sort_passive_refuses_bin_widths_that_are_not_positive(default_params, events_1m,
                                                               bin_width, bin_width_r):
    # a NaN width used to read "invalid time window [0.0, nan]"
    with pytest.raises(ValueError) as err:
        sort_passive_events(events_1m, [1.0], bin_width, 1.0, default_params,
                            bin_width_r=bin_width_r)
    assert str(err.value) == "bin widths must be > 0"


@pytest.mark.parametrize("bad", [-5.0, math.nan, math.inf])
def test_sort_passive_refuses_grid_points_outside_time(default_params, events_1m, bad):
    # a bin at an infinite time would read 0 +- 0 instead of failing
    with pytest.raises(ValueError, match="invalid time window"):
        sort_passive_events(events_1m, [bad], 0.5, 1.0, default_params)


def test_sort_passive_accepts_one_pass_grid(default_params, events_1m):
    # a generator can be iterated once; every grid point still gets a table
    tables = sort_passive_events(events_1m, (t for t in (1.0, 2.0)), 0.5, 1.0, default_params)
    listed = sort_passive_events(events_1m, [1.0, 2.0], 0.5, 1.0, default_params)
    assert tables == listed and len(tables) == 2


def test_sort_passive_empty_bin_flagged(default_params, events_1m):
    tables = sort_passive_events(
        events_1m, [2_000.0], 0.2, 2_000.0, default_params, kind_r=Basis.STRANGENESS
    )
    table = tables[0]
    assert table.flagged
    assert table.n_events == 0
    assert all(v == 0.0 for v in table.p.values())
    assert all(s == 0.0 for s in table.sigma.values())


def test_sort_passive_empty_far_bin_warns_nothing(default_params, events_1m):
    # the survival weight of the far bins underflows to 0; the tables only
    # divide by it, so no fringe or K_S/K_L share (0/0 there) is formed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sort_passive_events(
            events_1m, [2_000.0], 0.2, 2_000.0, default_params, kind_r=Basis.STRANGENESS
        )


def test_sort_passive_error_scaling(default_params):
    # doubling the sample shrinks standard errors by sqrt(2)
    sigmas = {}
    for n in (500_000, 1_000_000):
        events = generate(GeneratorConfig(seed=31, n_pairs=n), default_params)
        tables = sort_passive_events(
            events,
            np.arange(0.5, 6.0, 0.5),
            0.5,
            0.5,
            default_params,
            kind_r=Basis.LIFETIME,
            bin_width_r=1.0,
            min_count=1,
        )
        pooled = [
            t.sigma[(Outcome.K0, Outcome.KS)]
            for t in tables
            if t.counts[(Outcome.K0, Outcome.KS)] >= 25
        ]
        sigmas[n] = np.mean(pooled)
    ratio = sigmas[500_000] / sigmas[1_000_000]
    assert ratio == pytest.approx(math.sqrt(2.0), rel=0.1)


# ---------------------------------------------------------------------------
# counting: every row's counts against a brute-force mask over all events
# ---------------------------------------------------------------------------

_SLP, _SLM, _2PI, _3PI, _OTHER = 2, 3, 0, 1, 4


def _edge_events(grid, bin_width_l, tau_r0, bin_width_r, params):
    """Uniform random records plus records exactly on every edge a row
    compares against: grid points (strict ``tau_l > t``), object-bin edges
    (closed; shared by two rows when the spacing equals the bin width),
    ``tau_r0``, ``tau_r0 - bin_width_r`` and the meter-window edges; labelled
    with the digest of ``params``, which a scan of them takes."""
    rng = np.random.default_rng(5)
    edges_l = sorted(
        {float(t) for t in grid}
        | {e for t in grid for e in (TimeWindow.centered(t, bin_width_l).lo,
                                     TimeWindow.centered(t, bin_width_l).hi)}
    )
    window_r = TimeWindow.centered(tau_r0, bin_width_r)
    edges_r = [tau_r0, tau_r0 - bin_width_r, window_r.lo, window_r.hi]
    on_both = [(el, er) for el in edges_l for er in edges_r for _ in range(3)]
    on_l = [(el, rng.uniform(window_r.lo, window_r.hi)) for el in edges_l for _ in range(6)]
    on_r = [(rng.uniform(0.0, 2.4), er) for er in edges_r for _ in range(40)]
    n_random = 5000
    tau_l = np.concatenate(
        [rng.uniform(0.0, 2.4, n_random), [p[0] for p in on_both + on_l + on_r]]
    )
    tau_r = np.concatenate(
        [rng.uniform(0.0, 2.4, n_random), [p[1] for p in on_both + on_l + on_r]]
    )
    n = tau_l.size
    return EventSet(
        tau_l=tau_l, mode_l=rng.integers(0, 5, n).astype(np.int8),
        tau_r=tau_r, mode_r=rng.integers(0, 5, n).astype(np.int8),
        seed=5, tau_max=50.0, params_digest=params.digest(),
    )


def _born_reference(tau_l, tau_r, params, cells):
    """Born probabilities of ``cells`` the long way: the pair evolved and
    normalized again for each cell, and one ``project_pair`` per cell."""
    from kaon_eraser.pair import evolve_pair, initial_state, normalize_surviving, project_pair

    probs = []
    for outcome_l, outcome_r in cells:
        state = normalize_surviving(evolve_pair(initial_state(Basis.LIFETIME), tau_l, tau_r, params))
        probs.append(project_pair(state, outcome_l, outcome_r))
    p = np.array(probs)
    return p / p.sum()


def test_born_cell_probs_from_one_state_are_the_projections_bit_for_bit(
    default_params, rich_params
):
    from kaon_eraser.experiments import _MIXED_CELLS, _S_CELLS, _born_cell_probs
    from kaon_eraser.pair import evolve_pair, initial_state, normalize_surviving

    taus = np.concatenate([np.round(np.arange(0.0, 27.0, 0.2), 12), [1e-300, 0.1, 37.5]])
    for params in (default_params, rich_params):
        for tau_l in taus.tolist():
            for tau_r in (0.0, 0.5, 2.0, 5.0):
                state = normalize_surviving(
                    evolve_pair(initial_state(Basis.LIFETIME), tau_l, tau_r, params))
                for cells in (_S_CELLS, _MIXED_CELLS):
                    got = _born_cell_probs(state, cells)
                    expected = _born_reference(tau_l, tau_r, params, cells)
                    assert got.tobytes() == expected.tobytes(), (tau_l, tau_r, cells)


def _mask_reference_row(spec, params, events, row):
    """Estimates (value, sigma, n, flag) and counts of one row, every count
    a mask over all events."""
    from kaon_eraser.decay import MODE_ORDER, TransitionAmplitudes, _pair_coefficients
    from kaon_eraser.experiments import _MIXED_CELLS, _S_CELLS

    ev, t, r0, mc = events, spec.tau_l_grid[row], spec.tau_r0, spec.min_count
    amps = TransitionAmplitudes.from_params(params)
    width = {code: amps.identified_width(MODE_ORDER[code]) for code in (_2PI, _3PI, _SLP, _SLM)}
    alive = ev.tau_l > t

    def n_mode(code, mask):
        return int(np.sum(mask & (ev.mode_r == code)))

    def ratio(count, total):
        count = int(count)
        if total == 0:
            return Estimate(0.0, 0.0, 0.0, 0, True)
        value = count / total
        sigma = np.sqrt(max(value * (1.0 - value), 0.0) / total)
        return Estimate(float(value), float(sigma), 0.0, total, min(count, total - count) < mc)

    def scaled(count, scale):
        if scale <= 0.0:
            return Estimate(0.0, 0.0, 0.0, int(count), True)
        return Estimate(float(count / scale), float(np.sqrt(count) / scale), 0.0, int(count),
                        count < mc)

    kind = spec.kind.value
    if kind in "ab":
        survivors = int(np.sum(alive & (ev.tau_r > r0)))
        rng = np.random.default_rng([spec.seed, row, "ab".index(kind)])
        c_s = rng.multinomial(survivors, _born_reference(t, r0, params, _S_CELLS))
        like, unlike = ratio(c_s[0] + c_s[3], survivors), ratio(c_s[1] + c_s[2], survivors)
    if kind == "a":
        c_m = rng.multinomial(survivors, _born_reference(t, r0, params, _MIXED_CELLS))
        estimates = (like, unlike, ratio(c_m[0] + c_m[2], survivors),
                     ratio(c_m[1] + c_m[3], survivors))
        counts = {"strangeness": survivors, "lifetime": survivors,
                  "discarded": ev.n - survivors}
    elif kind == "b":
        early = alive & (ev.tau_r < r0)
        lo = max(0.0, r0 - spec.bin_width_r)
        in_window = early & (ev.tau_r >= lo)
        d = survival_weight(TimeWindow.point(t), TimeWindow(lo, r0), params)
        estimates = (like, unlike,
                     scaled(n_mode(_2PI, in_window), ev.n * width[_2PI] * d),
                     scaled(n_mode(_3PI, in_window), ev.n * width[_3PI] * d))
        counts = {"strangeness": survivors,
                  "lifetime": n_mode(_2PI, early) + n_mode(_3PI, early),
                  "early_strangeness": n_mode(_SLP, early) + n_mode(_SLM, early),
                  "discarded": n_mode(_OTHER, early)}
    elif kind == "c":
        window_r = TimeWindow.centered(r0, spec.bin_width_r)
        kept = alive & (ev.tau_r >= window_r.lo) & (ev.tau_r <= window_r.hi)
        sl = kept & ((ev.mode_r == _SLP) | (ev.mode_r == _SLM))
        n_sl = int(np.sum(sl))
        c_like = 0
        if n_sl:
            right_k0 = ev.mode_r[sl] == _SLP
            c_sl, c_ls = _pair_coefficients(t, ev.tau_r[sl], params)
            num = np.abs(np.where(right_k0, 1.0, -1.0) * c_sl + c_ls) ** 2
            p_k0 = num / (2.0 * (np.abs(c_sl) ** 2 + np.abs(c_ls) ** 2))
            left_k0 = np.random.default_rng([spec.seed, row, 2]).random(n_sl) < p_k0
            c_like = int(np.sum(left_k0 == right_k0))
        d = survival_weight(TimeWindow.point(t), window_r, params)
        c_2pi, c_3pi = n_mode(_2PI, kept), n_mode(_3PI, kept)
        estimates = (ratio(c_like, n_sl), ratio(n_sl - c_like, n_sl),
                     scaled(c_2pi, ev.n * width[_2PI] * d),
                     scaled(c_3pi, ev.n * width[_3PI] * d))
        counts = {"strangeness": n_sl, "lifetime": c_2pi + c_3pi,
                  "discarded": n_mode(_OTHER, kept)}
    else:
        window_l = TimeWindow.centered(t, spec.bin_width_l)
        window_r = TimeWindow.centered(r0, spec.bin_width_r)
        in_bins = ((ev.tau_l >= window_l.lo) & (ev.tau_l <= window_l.hi)
                   & (ev.tau_r >= window_r.lo) & (ev.tau_r <= window_r.hi))
        d = survival_weight(window_l, window_r, params)

        def family(*cells):
            n = value = sigma2 = 0
            for code_l, code_r in cells:
                count = int(np.sum(in_bins & (ev.mode_l == code_l) & (ev.mode_r == code_r)))
                scale = ev.n * d * width[code_l] * width[code_r]
                n, value, sigma2 = n + count, value + count / scale, sigma2 + (np.sqrt(count) / scale) ** 2
            return Estimate(float(value), float(np.sqrt(sigma2)), 0.0, n, n < mc)

        estimates = (family((_SLP, _SLP), (_SLM, _SLM)), family((_SLP, _SLM), (_SLM, _SLP)),
                     family((_SLP, _2PI), (_SLM, _2PI)), family((_SLP, _3PI), (_SLM, _3PI)))
        left_sl = (ev.mode_l == _SLP) | (ev.mode_l == _SLM)
        n_ss = int(np.sum(in_bins & left_sl & ((ev.mode_r == _SLP) | (ev.mode_r == _SLM))))
        n_sl = int(np.sum(in_bins & left_sl & ((ev.mode_r == _2PI) | (ev.mode_r == _3PI))))
        counts = {"strangeness": n_ss, "lifetime": n_sl,
                  "discarded": int(np.sum(in_bins)) - n_ss - n_sl}
    return [(e.value, e.sigma, e.n, e.flagged) for e in estimates], counts


def _mask_reference_table(events, tau_l, bin_width, tau_r0, bin_width_r, params,
                          kind_l, kind_r, min_count):
    """``(p, sigma, counts, n_events, flagged)`` of one passive table, every
    cell's count a mask over all events."""
    from kaon_eraser.decay import MODE_ORDER, TransitionAmplitudes

    code = {Outcome.K0: _SLP, Outcome.K0BAR: _SLM, Outcome.KS: _2PI, Outcome.KL: _3PI}
    amps = TransitionAmplitudes.from_params(params)
    width = {outcome: amps.identified_width(MODE_ORDER[c]) for outcome, c in code.items()}
    ev = events
    window_l = TimeWindow.centered(tau_l, bin_width)
    window_r = TimeWindow.centered(tau_r0, bin_width_r)
    in_bins = ((ev.tau_l >= window_l.lo) & (ev.tau_l <= window_l.hi)
               & (ev.tau_r >= window_r.lo) & (ev.tau_r <= window_r.hi))
    d = survival_weight(window_l, window_r, params)
    outcomes = {Basis.STRANGENESS: (Outcome.K0, Outcome.K0BAR),
                Basis.LIFETIME: (Outcome.KS, Outcome.KL)}
    p, sigma, counts = {}, {}, {}
    for ol, outcome_r in itertools.product(outcomes[kind_l], outcomes[kind_r]):
        count = int(np.sum(in_bins & (ev.mode_l == code[ol]) & (ev.mode_r == code[outcome_r])))
        scale = ev.n * d * width[ol] * width[outcome_r]
        p[ol, outcome_r], sigma[ol, outcome_r] = count / scale, np.sqrt(count) / scale
        counts[ol, outcome_r] = count
    total = sum(counts.values())
    return p, sigma, counts, total, total < min_count


@pytest.mark.parametrize("kind", list(ExperimentKind))
@pytest.mark.parametrize("bin_width_l", [0.25, 0.5])
def test_counts_equal_per_row_masks(kind, bin_width_l, rich_params):
    # bin_width_l 0.25 equals the grid spacing (neighbouring bins share an
    # edge), 0.5 makes neighbouring object bins overlap; all edges are
    # exact binary fractions, so shared edges coincide exactly
    grid = tuple(0.25 * k for k in range(9))
    events = _edge_events(grid, bin_width_l, 1.0, 0.5, rich_params)
    spec = ExperimentSpec(kind, 1.0, grid, n_pairs=events.n, seed=8,
                          bin_width_l=bin_width_l, bin_width_r=0.5, min_count=3)
    result = run_experiment(spec, rich_params, events=events)
    for row_index, row in enumerate(result.rows):
        estimates, counts = _mask_reference_row(spec, rich_params, events, row_index)
        got = [(e.value, e.sigma, e.n, e.flagged) for e in (getattr(row, f) for f in FAMILIES)]
        assert got == estimates, (kind, row_index)
        assert row.counts == counts, (kind, row_index)
    if kind is ExperimentKind.PASSIVE_PASSIVE:
        # sort_passive_events takes bins that do not overlap: every grid
        # point at width 0.25, every other one at 0.5; neighbouring bins
        # share an edge, and records on the edge shared by points 3 and 4
        # are counted in both
        step = round(bin_width_l / 0.25)
        sort_grid = grid[::step]
        shared = TimeWindow.centered(sort_grid[3], bin_width_l).hi
        assert shared == TimeWindow.centered(sort_grid[4], bin_width_l).lo
        assert np.sum((events.tau_l == shared) & (np.abs(events.tau_r - 1.0) <= 0.25)) > 0
        for kind_l, kind_r in itertools.product((Basis.STRANGENESS, Basis.LIFETIME), repeat=2):
            tables = sort_passive_events(events, sort_grid, bin_width_l, spec.tau_r0,
                                         rich_params, kind_l=kind_l, kind_r=kind_r,
                                         bin_width_r=spec.bin_width_r, min_count=spec.min_count)
            assert len(tables) == len(sort_grid)
            for tau_l, table in zip(sort_grid, tables):
                expected = _mask_reference_table(events, tau_l, bin_width_l, spec.tau_r0,
                                                 spec.bin_width_r, rich_params, kind_l, kind_r,
                                                 spec.min_count)
                got = (table.p, table.sigma, table.counts, table.n_events, table.flagged)
                assert got == expected, (kind_l, kind_r, tau_l)
        # the s_ks count and s_kl value of a row of d are its passive table's cells
        tables = sort_passive_events(events, sort_grid, bin_width_l, spec.tau_r0, rich_params,
                                     kind_r=Basis.LIFETIME, bin_width_r=spec.bin_width_r,
                                     min_count=spec.min_count)
        for row, table in zip(result.rows[::step], tables):
            assert table.counts[(Outcome.K0, Outcome.KS)] + table.counts[
                (Outcome.K0BAR, Outcome.KS)] == row.s_ks.n
            assert table.p[(Outcome.K0, Outcome.KL)] + table.p[
                (Outcome.K0BAR, Outcome.KL)] == row.s_kl.value


# ---------------------------------------------------------------------------
# cross-protocol agreement (statistically rich configuration)
# ---------------------------------------------------------------------------


def test_protocols_agree_pairwise(rich_params):
    grid = tuple(np.round(np.arange(0.0, 6.01, 0.4), 10))
    results = {}
    for offset, kind in enumerate(ExperimentKind):
        events = generate(GeneratorConfig(seed=50 + offset, n_pairs=300_000), rich_params)
        spec = ExperimentSpec(
            kind=kind,
            tau_r0=2.0,
            tau_l_grid=grid,
            n_pairs=events.n,
            seed=60 + offset,
            bin_width_l=0.4,
            bin_width_r=0.8,
        )
        results[kind] = run_experiment(spec, rich_params, events=events)
    kinds = list(ExperimentKind)
    for i, kind_a in enumerate(kinds):
        for kind_b in kinds[i + 1 :]:
            compared = bad = 0
            for row_a, row_b in zip(results[kind_a].rows, results[kind_b].rows):
                for fam in FAMILIES:
                    est_a, est_b = getattr(row_a, fam), getattr(row_b, fam)
                    if est_a.flagged or est_b.flagged:
                        continue
                    compared += 1
                    residual = (est_a.value - est_a.twin) - (est_b.value - est_b.twin)
                    sigma = math.hypot(est_a.sigma, est_b.sigma)
                    if abs(residual) > 3.0 * max(sigma, 1e-12):
                        bad += 1
            assert compared >= 10, f"{kind_a} vs {kind_b}: too few comparable bins"
            assert bad / compared <= 0.05, f"{kind_a} vs {kind_b}"


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_scan_csv_deterministic(tmp_path, default_params, grid_short):
    spec = ExperimentSpec(
        kind=ExperimentKind.PASSIVE_PASSIVE,
        tau_r0=1.0,
        tau_l_grid=grid_short[:6],
        n_pairs=20_000,
        seed=14,
        bin_width_r=1.0,
    )
    payloads = []
    for threads in (1, 2, 8):
        config = GeneratorConfig(seed=14, n_pairs=20_000)
        events = generate(config, default_params, threads=threads)
        result = run_experiment(spec, default_params, events=events)
        path = tmp_path / f"scan_{threads}.csv"
        write_scan_csv(path, result, "test")
        payloads.append(path.read_bytes())
    assert payloads[0] == payloads[1] == payloads[2]


def test_scan_csv_layout(tmp_path, default_params, grid_short):
    spec = ExperimentSpec(ExperimentKind.ACTIVE_ACTIVE, 0.5, grid_short[:4], 0)
    result = run_experiment(spec, default_params)
    path = tmp_path / "scan.csv"
    write_scan_csv(path, result, "test")
    lines = path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert any("params_digest" in ln for ln in comments)
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert header.split(",")[0] == "tau_l"
    data = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(data) == 4


def test_scan_csv_tells_columns_apart_by_their_bits(tmp_path, default_params):
    # like's value and twin columns are equal under == but not bit for bit
    # (0.0 against -0.0), unlike's value is like's value array itself, s_kl's
    # value is its twin, one zero array fills most n and count columns, and a
    # sigma column holds NaN; the file must read as printed one row at a time
    nan = float("nan")
    value, sigma, tenth = np.array([0.0, 0.1]), np.zeros(2), np.array([0.1, 0.1])
    zero, unflagged = np.zeros(2, dtype=np.int64), np.zeros(2, dtype=bool)
    families = {
        "like": (value, sigma, np.array([-0.0, 0.1]), zero, unflagged),
        "unlike": (value, sigma, np.array([0.5, 0.5]), zero, unflagged),
        "s_ks": (np.array([0.5, -0.0]), np.array([nan, nan]), np.array([0.5, 0.0]),
                 np.array([2, 2]), np.ones(2, dtype=bool)),
        "s_kl": (tenth, sigma, tenth, zero, unflagged),
    }
    counts = {"strangeness": zero, "lifetime": np.array([7, 7]), "discarded": np.array([0, 1])}
    spec = ExperimentSpec(ExperimentKind.ACTIVE_ACTIVE, 0.5, (0.0, 0.5), 0)
    path = tmp_path / "scan.csv"
    write_scan_csv(path, ScanResult(spec, default_params, families, counts), "test")
    line = ",".join(["%.17g"] + ["%.17g,%.17g,%.17g,%d,%d"] * 4 + ["%d"] * 3)
    expected = [
        line % (tau_l, *(column[row].item() for fam in FAMILIES for column in families[fam]),
                *(counts[key][row].item() for key in ("strangeness", "lifetime", "discarded")))
        for row, tau_l in enumerate(spec.tau_l_grid)
    ]
    assert expected[0].startswith("0,0,0,-0,0,0,0,0,0.5,0,0,0.5,nan,0.5,2,1,")
    assert path.read_text().splitlines()[-2:] == expected


def test_scan_csv_refuses_a_row_without_a_count_key(tmp_path, default_params):
    spec = ExperimentSpec(ExperimentKind.ACTIVE_ACTIVE, 0.5, (0.0, 0.5), 0)
    result = run_experiment(spec, default_params)
    counts = dict(result.counts)
    del counts["discarded"]
    with pytest.raises(KeyError, match="discarded"):
        write_scan_csv(tmp_path / "scan.csv", dataclasses.replace(result, counts=counts), "test")
    assert list(tmp_path.iterdir()) == []


def _cut_to_two_points(result, short):
    """``result``'s families and counts with one column cut to two grid
    points: the like value, the like flag or the lifetime count."""
    families, counts = dict(result.families), dict(result.counts)
    if short == "count":
        counts["lifetime"] = counts["lifetime"][:2]
    else:
        column = Estimate._fields.index("value" if short == "value" else "flagged")
        like = list(families["like"])
        like[column] = like[column][:2]
        families["like"] = tuple(like)
    return families, counts


@pytest.mark.parametrize("short", ["value", "flag", "count"])
def test_scan_csv_refuses_a_column_shorter_than_the_grid(tmp_path, default_params, short):
    # zip() over the columns wrote as many lines as the shortest one held,
    # under a header that states three grid points
    spec = ExperimentSpec(ExperimentKind.ACTIVE_ACTIVE, 0.5, (0.0, 0.5, 1.0), 0)
    result = run_experiment(spec, default_params)
    families, counts = _cut_to_two_points(result, short)
    with pytest.raises(ValueError, match=r"shape \(2,\); the grid has 3 points"):
        broken = dataclasses.replace(result, families=families, counts=counts)
        write_scan_csv(tmp_path / "scan.csv", broken, "test")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("short", ["value", "count"])
def test_scan_result_refuses_a_column_shorter_than_the_grid(default_params, short):
    # the rows were zipped from the columns: a result on three grid points
    # had two rows
    spec = ExperimentSpec(ExperimentKind.PARTIALLY_ACTIVE, 0.5, (0.0, 0.5, 1.0), 0)
    families, counts = _cut_to_two_points(run_experiment(spec, default_params), short)
    name = "count_lifetime" if short == "count" else "like"
    with pytest.raises(ValueError, match=rf"scan column {name} has shape \(2,\); the grid has 3"):
        ScanResult(spec, default_params, families, counts)


@pytest.mark.parametrize("n_arrays", [4, 6])
def test_scan_result_refuses_a_family_without_five_arrays(default_params, n_arrays):
    # four like arrays were written under the five like names: 24 header
    # fields over rows of 23
    spec = ExperimentSpec(ExperimentKind.ACTIVE_ACTIVE, 0.5, (0.0, 0.5), 0)
    result = run_experiment(spec, default_params)
    like = result.families["like"]
    families = {**result.families, "like": (like + like)[:n_arrays]}
    with pytest.raises(ValueError, match=r"zip\(\) argument 2 is (shorter|longer)"):
        ScanResult(spec, default_params, families, result.counts)


@pytest.fixture(scope="module")
def scans_by_kind(default_params, grid_short):
    """One small Monte Carlo scan of every kind, on one event set."""
    events = generate(GeneratorConfig(seed=16, n_pairs=20_000), default_params)
    return {
        kind: run_experiment(
            ExperimentSpec(kind, 2.0, grid_short, 20_000, seed=16, bin_width_r=1.0),
            default_params, events=events,
        )
        for kind in ExperimentKind
    }


def test_scan_csv_builds_no_rows(tmp_path, default_params, scans_by_kind):
    analytic = run_experiment(ExperimentSpec(ExperimentKind.PARTIALLY_ACTIVE, 2.0, (0.0, 1.0), 0),
                              default_params)
    # replace() gives fresh results: other tests may have read the fixture's rows
    for result in (analytic, *map(dataclasses.replace, scans_by_kind.values())):
        write_scan_csv(tmp_path / "scan.csv", result, "test")
        assert "rows" not in vars(result)


@pytest.mark.parametrize("kind", list(ExperimentKind))
def test_scan_rows_match_the_written_csv(tmp_path, scans_by_kind, kind):
    result = scans_by_kind[kind]
    path = tmp_path / "scan.csv"
    write_scan_csv(path, result, "test")
    header, *lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    assert len(lines) == len(result.rows)
    for row, line in zip(result.rows, lines):
        fields = iter(line.split(","))
        assert float.hex(float(next(fields))) == float.hex(row.tau_l)
        for fam in FAMILIES:
            est = getattr(row, fam)
            for value in (est.value, est.sigma, est.twin):
                assert float.hex(float(next(fields))) == float.hex(value)
            assert (int(next(fields)), int(next(fields))) == (est.n, est.flagged)
        assert [int(text) for text in fields] == list(row.counts.values())
    assert header.split(",")[-len(row.counts):] == [f"count_{key}" for key in row.counts]


def _analytic_and_monte_carlo(params, scans_by_kind):
    analytic = [run_experiment(ExperimentSpec(kind, 2.0, (0.0, 1.0), 0), params) for kind in "ab"]
    return [*scans_by_kind.values(), *analytic]


def test_scan_columns_have_the_dtypes_they_print_by(default_params, scans_by_kind):
    # write_scan_csv prints a float array as %.17g and an integer or bool one as %d
    for result in _analytic_and_monte_carlo(default_params, scans_by_kind):
        for value, sigma, twin, n, flagged in result.families.values():
            assert value.dtype == sigma.dtype == twin.dtype == np.float64
            assert n.dtype.kind == "i" and flagged.dtype == bool
        assert all(count.dtype.kind == "i" for count in result.counts.values())


def test_scan_csv_makes_one_call_per_formatter(tmp_path, formatter_calls, default_params,
                                               scans_by_kind):
    for result in _analytic_and_monte_carlo(default_params, scans_by_kind):
        formatter_calls.clear()
        write_scan_csv(tmp_path / "scan.csv", result, "test")
        assert sorted(formatter_calls) == ["_d_bytes", "_g17_bytes"]
        assert all(len(sizes) == 1 for sizes in formatter_calls.values())
    # the last, an analytic scan of kind b, prints each array once: the grid,
    # one shared sigma and the four twins, which are also the values; one zero
    # array for every n and count, and one flag array
    rows = len(result.spec.tau_l_grid)
    assert formatter_calls == {"_g17_bytes": [6 * rows], "_d_bytes": [2 * rows]}


def test_scan_result_rows_are_cached_and_its_columns_read_only(default_params, scans_by_kind):
    analytic = run_experiment(ExperimentSpec(ExperimentKind.ACTIVE_ACTIVE, 2.0, (0.0, 1.0), 0),
                              default_params)
    assert analytic.families["like"][0] is analytic.families["like"][2]  # value is the twin
    for result in (analytic, *scans_by_kind.values()):
        assert result.rows is result.rows
        columns = [*(c for family in result.families.values() for c in family),
                   *result.counts.values()]
        assert len(columns) == 5 * len(FAMILIES) + len(result.rows[0].counts)
        assert not any(column.flags.writeable for column in columns)
        with pytest.raises(ValueError, match="read-only"):
            result.families["s_kl"][0][0] = 0.5
