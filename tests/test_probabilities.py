import copy
import itertools
import math
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaon_eraser import (
    Basis,
    DecayMode,
    Outcome,
    PhysicsParams,
    TimeWindow,
    evolve_pair,
    full_table,
    initial_state,
    joint_decay_rate,
    joint_strangeness,
    joint_strangeness_lifetime,
    normalize_surviving,
    passive_probability,
    project_pair,
    survival_weight,
    visibility,
    window_table,
)
from kaon_eraser.decay import normalization_factor
from kaon_eraser.probabilities import (
    JointProbabilityTable,
    Source,
    _check_analytic,
    _expit,
    _window_terms,
)
from tests.conftest import random_params

times = st.floats(min_value=0.0, max_value=30.0, allow_nan=False)


def test_expit_is_scipy_expit_bit_for_bit():
    # the point closed forms use ``_expit`` so that they need not load scipy
    from scipy.special import expit

    rng = np.random.default_rng(404086)
    edges = [0.0, -0.0, 5e-324, -5e-324, -709.78, -709.79, -745.2, -1e300, 1e300,
             math.inf, -math.inf, math.nan]
    x = np.concatenate([rng.normal(0.0, 5.0, 400_000), rng.uniform(-800.0, 800.0, 400_000),
                        rng.normal(0.0, 1e-3, 200_000), edges])
    got = [_expit(v) for v in x.tolist()]
    assert all(type(g) is float for g in got)
    # float.hex tells the zeros apart, and reads "nan" for nan
    wrong = [(v, g, w) for v, g, w in zip(x.tolist(), map(float.hex, got),
                                          map(float.hex, expit(x).tolist())) if g != w]
    assert wrong == []


def test_visibility_at_zero(default_params):
    assert visibility(0.0, default_params) == 1.0


def test_visibility_even(default_params):
    for dt in (0.3, 1.9, 14.0):
        assert visibility(dt, default_params) == visibility(-dt, default_params)


def test_visibility_half():
    # cosh(ln(2+sqrt(3))) = 2 exactly, so V = 1/2 there
    p = PhysicsParams(gamma_l=0.5)
    dt = 2.0 * math.log(2.0 + math.sqrt(3.0)) / abs(p.delta_gamma)
    assert visibility(dt, p) == pytest.approx(0.5, abs=1e-12)


def test_visibility_large_argument_no_overflow(default_params):
    assert visibility(1e6, default_params) >= 0.0


def test_epr_anticorrelation_at_equal_times(default_params):
    for tau in (0.0, 1.0, 5.5):
        assert joint_strangeness(tau, tau, Outcome.K0, Outcome.K0, default_params) == 0.0
        assert joint_strangeness(tau, tau, Outcome.K0, Outcome.K0BAR, default_params) == 0.5


def test_joint_strangeness_sums_to_one(default_params):
    for tau_l, tau_r in ((0.0, 3.0), (2.5, 0.1), (8.0, 8.0)):
        total = sum(
            joint_strangeness(tau_l, tau_r, ol, outcome_r, default_params)
            for ol in (Outcome.K0, Outcome.K0BAR)
            for outcome_r in (Outcome.K0, Outcome.K0BAR)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


def test_strangeness_lifetime_at_equal_times(default_params):
    for ol in (Outcome.K0, Outcome.K0BAR):
        for outcome_r in (Outcome.KS, Outcome.KL):
            assert joint_strangeness_lifetime(
                2.0, 2.0, ol, outcome_r, default_params
            ) == pytest.approx(0.25, abs=1e-15)


def test_strangeness_lifetime_limit(default_params):
    # dt -> +inf with dG < 0: the right kaon (measured much earlier) is
    # almost surely the short-lived one
    p_ks = joint_strangeness_lifetime(4000.0, 0.0, Outcome.K0, Outcome.KS, default_params)
    p_kl = joint_strangeness_lifetime(4000.0, 0.0, Outcome.K0, Outcome.KL, default_params)
    assert p_ks == pytest.approx(0.5, abs=1e-3)
    assert p_kl == pytest.approx(0.0, abs=1e-3)


def test_strangeness_outcome_does_not_matter(default_params):
    for tau_l, tau_r in ((0.3, 6.0), (5.0, 1.0)):
        assert joint_strangeness_lifetime(
            tau_l, tau_r, Outcome.K0, Outcome.KS, default_params
        ) == joint_strangeness_lifetime(
            tau_l, tau_r, Outcome.K0BAR, Outcome.KS, default_params
        )


def test_negative_times_rejected(default_params):
    with pytest.raises(ValueError):
        joint_strangeness(-1.0, 0.0, Outcome.K0, Outcome.K0, default_params)
    with pytest.raises(ValueError):
        joint_strangeness_lifetime(0.0, -1.0, Outcome.K0, Outcome.KS, default_params)
    # and outcomes of the wrong observable
    with pytest.raises(ValueError, match="takes strangeness outcomes"):
        joint_strangeness(1.0, 0.0, Outcome.K0, Outcome.KS, default_params)
    with pytest.raises(ValueError, match=r"takes \(strangeness, lifetime\) outcomes"):
        joint_strangeness_lifetime(1.0, 0.0, Outcome.KS, Outcome.K0, default_params)


#: Every point closed form and the pair evolution, called with one time ``t``.
POINT_FORMS = {
    "joint_strangeness": lambda t, p: joint_strangeness(t, 0.5, Outcome.K0, Outcome.K0, p),
    "joint_strangeness_lifetime": lambda t, p: joint_strangeness_lifetime(
        0.5, t, Outcome.K0, Outcome.KS, p
    ),
    "full_table": lambda t, p: full_table(Basis.STRANGENESS, Basis.LIFETIME, t, 1.0, p),
    "passive_probability": lambda t, p: passive_probability(
        DecayMode.SEMILEPTONIC_PLUS, 1.0, DecayMode.TWO_PI, t, p
    ),
    "normalization_factor": lambda t, p: normalization_factor(t, 0.5, p),
    "joint_decay_rate": lambda t, p: joint_decay_rate(
        DecayMode.TWO_PI, t, DecayMode.THREE_PI, 0.5, p
    ),
    "evolve_pair": lambda t, p: evolve_pair(initial_state(Basis.LIFETIME), 0.5, t, p),
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(POINT_FORMS))
def test_point_forms_refuse_non_finite_times(default_params, name, value):
    # NaN passes a check written ``tau < 0``; one shared check asks for
    # finite times >= 0
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        POINT_FORMS[name](value, default_params)


def test_full_table_epr_point(default_params):
    table = full_table(Basis.STRANGENESS, Basis.STRANGENESS, 1.0, 1.0, default_params)
    assert table.p[(Outcome.K0, Outcome.K0)] == 0.0
    assert table.p[(Outcome.K0BAR, Outcome.K0BAR)] == 0.0
    assert table.p[(Outcome.K0, Outcome.K0BAR)] == 0.5
    assert table.p[(Outcome.K0BAR, Outcome.K0)] == 0.5


def test_full_table_lifetime_lifetime_no_diagonal(default_params):
    for tau_l, tau_r in ((0.0, 2.0), (4.4, 0.4)):
        table = full_table(Basis.LIFETIME, Basis.LIFETIME, tau_l, tau_r, default_params)
        assert table.p[(Outcome.KS, Outcome.KS)] == 0.0
        assert table.p[(Outcome.KL, Outcome.KL)] == 0.0
        # direct readout of the squared survival-normalized amplitudes
        state = normalize_surviving(
            evolve_pair(initial_state(Basis.LIFETIME), tau_l, tau_r, default_params)
        )
        assert table.p[(Outcome.KS, Outcome.KL)] == pytest.approx(
            project_pair(state, Outcome.KS, Outcome.KL), abs=1e-12
        )
        assert table.p[(Outcome.KL, Outcome.KS)] == pytest.approx(
            project_pair(state, Outcome.KL, Outcome.KS), abs=1e-12
        )


def test_full_table_mirrored_kinds(default_params):
    tau_l, tau_r = 3.0, 1.2
    mirror = full_table(Basis.LIFETIME, Basis.STRANGENESS, tau_l, tau_r, default_params)
    direct = full_table(Basis.STRANGENESS, Basis.LIFETIME, tau_r, tau_l, default_params)
    for (ol, outcome_r), value in mirror.p.items():
        assert value == pytest.approx(direct.p[(outcome_r, ol)], abs=1e-15)


@given(times, times)
@settings(max_examples=80)
def test_tables_sum_to_one(tau_l, tau_r):
    params = PhysicsParams()
    for kind_l in Basis:
        for kind_r in Basis:
            table = full_table(kind_l, kind_r, tau_l, tau_r, params)
            assert table.total() == pytest.approx(1.0, abs=1e-9)


def test_tables_sum_to_one_random_params():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = random_params(rng)
        tau_l, tau_r = rng.uniform(0.0, 10.0, size=2)
        for kind_l in Basis:
            for kind_r in Basis:
                assert full_table(kind_l, kind_r, tau_l, tau_r, p).total() == pytest.approx(
                    1.0, abs=1e-9
                )


def test_strangeness_marginals_are_half():
    rng = np.random.default_rng(6)
    for _ in range(50):
        p = random_params(rng)
        tau_l, tau_r = rng.uniform(0.0, 10.0, size=2)
        table = full_table(Basis.STRANGENESS, Basis.STRANGENESS, tau_l, tau_r, p)
        for ol in (Outcome.K0, Outcome.K0BAR):
            marginal = sum(table.p[(ol, o)] for o in (Outcome.K0, Outcome.K0BAR))
            assert marginal == pytest.approx(0.5, abs=1e-9)


def test_oscillation_maxima_spacing():
    # successive maxima of the unlike-strangeness probability in tau_l are
    # separated by one oscillation period; near-equal widths keep the
    # visibility envelope flat so the peaks sit exactly on the cosine's
    p = PhysicsParams(
        gamma_s=1.0, gamma_l=1.0 - 1e-9, delta_m=0.47,
        br_s_2pi=0.0, br_l_3pi=0.0,
        br_semileptonic_s=1.0 - 1e-9, br_semileptonic_l=1.0,
    )
    tau_r = 0.5
    taus = np.arange(0.0, 45.0, 0.001)
    dt = taus - tau_r
    values = 0.25 * (
        1.0 + np.cos(p.delta_m * dt) / np.cosh(0.5 * p.delta_gamma * dt)
    )
    closed = np.array(
        [joint_strangeness(t, tau_r, Outcome.K0, Outcome.K0BAR, p) for t in taus[::500]]
    )
    np.testing.assert_allclose(closed, values[::500], atol=1e-12)
    peaks = np.nonzero((values[1:-1] > values[:-2]) & (values[1:-1] >= values[2:]))[0] + 1
    spacings = np.diff(taus[peaks])
    period = 2.0 * math.pi / p.delta_m
    grid_step = taus[1] - taus[0]
    np.testing.assert_allclose(spacings, period, atol=2 * grid_step)


def test_projection_oracle_matches_closed_forms():
    # the module's primary correctness check: Born projection of the
    # survival-normalized pair state reproduces every closed form
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = random_params(rng)
        tau_l, tau_r = rng.uniform(0.0, 6.0, size=2)
        state = normalize_surviving(
            evolve_pair(initial_state(Basis.LIFETIME), tau_l, tau_r, p)
        )
        for kind_l in Basis:
            for kind_r in Basis:
                table = full_table(kind_l, kind_r, tau_l, tau_r, p)
                for (ol, outcome_r), value in table.p.items():
                    assert value == pytest.approx(
                        project_pair(state, ol, outcome_r), abs=1e-12
                    )


def test_survival_weight_point_is_extinction_factor(default_params):
    for tau_l, tau_r in ((0.0, 0.0), (1.5, 3.0), (9.0, 0.2)):
        assert survival_weight(
            TimeWindow.point(tau_l), TimeWindow.point(tau_r), default_params
        ) == pytest.approx(normalization_factor(tau_l, tau_r, default_params), abs=1e-15)


def test_window_table_reduces_to_full_table(default_params):
    tau_l, tau_r = 2.7, 1.1
    for kind_l in Basis:
        for kind_r in Basis:
            wt = window_table(
                kind_l, kind_r, TimeWindow.point(tau_l), TimeWindow.point(tau_r), default_params
            )
            ft = full_table(kind_l, kind_r, tau_l, tau_r, default_params)
            for key in ft.p:
                assert wt.p[key] == pytest.approx(ft.p[key], abs=1e-12)


def test_window_table_matches_numeric_quadrature(rich_params):
    # independent check of the closed-form window averages: dense midpoint
    # quadrature of extinction-weighted closed forms over both windows
    p = rich_params
    w_l = TimeWindow(1.0, 1.8)
    w_r = TimeWindow(0.4, 2.0)
    grid_l = np.linspace(w_l.lo, w_l.hi, 2001)
    grid_r = np.linspace(w_r.lo, w_r.hi, 2001)
    tl_mid = 0.5 * (grid_l[:-1] + grid_l[1:])
    tr_mid = 0.5 * (grid_r[:-1] + grid_r[1:])
    tl_mesh, tr_mesh = np.meshgrid(tl_mid, tr_mid, indexing="ij")
    n_mesh = 0.5 * (
        np.exp(-p.gamma_s * tl_mesh - p.gamma_l * tr_mesh)
        + np.exp(-p.gamma_l * tl_mesh - p.gamma_s * tr_mesh)
    )
    dt = tl_mesh - tr_mesh
    x = p.delta_gamma * dt
    den = float(n_mesh.sum())

    def cell_values(kind_l, kind_r, key):
        if kind_l is Basis.STRANGENESS and kind_r is Basis.STRANGENESS:
            fringe = np.cos(p.delta_m * dt) / np.cosh(0.5 * p.delta_gamma * dt)
            sign = -1.0 if key[0] is key[1] else 1.0
            return 0.25 * (1.0 + sign * fringe)
        if kind_l is Basis.STRANGENESS:
            return 0.5 / (1.0 + np.exp(x if key[1] is Outcome.KS else -x))
        if kind_r is Basis.STRANGENESS:
            return 0.5 / (1.0 + np.exp(-x if key[0] is Outcome.KS else x))
        if key[0] is key[1]:
            return np.zeros_like(dt)
        return 1.0 / (1.0 + np.exp(-x if key[0] is Outcome.KS else x))

    for kind_l in Basis:
        for kind_r in Basis:
            wt = window_table(kind_l, kind_r, w_l, w_r, p)
            for key in wt.p:
                num = float((n_mesh * cell_values(kind_l, kind_r, key)).sum())
                assert wt.p[key] == pytest.approx(num / den, abs=5e-7)


# ---------------------------------------------------------------------------
# the array core of the window averages, bit for bit
# ---------------------------------------------------------------------------


def _scalar_factor(c, window):
    """exp(-c*tau) over one window in NumPy scalar arithmetic."""
    if window.lo == window.hi:
        return np.exp(-c * window.lo)
    if abs(c) * (window.hi - window.lo) < 1e-12:
        return complex(window.hi - window.lo)
    return (np.exp(-c * window.lo) - np.exp(-c * window.hi)) / c


def _scalar_terms(window_l, window_r, p):
    """(d, like, unlike, w_ks, w_kl) of one window pair in scalar arithmetic,
    the strangeness fringe from one complex scalar product."""
    f_s_l, f_l_l, f_s_r, f_l_r = (
        _scalar_factor(gamma, window).real
        for gamma, window in (
            (p.gamma_s, window_l),
            (p.gamma_l, window_l),
            (p.gamma_s, window_r),
            (p.gamma_l, window_r),
        )
    )
    d = 0.5 * (f_s_l * f_l_r + f_l_l * f_s_r)
    gbar = 0.5 * (p.gamma_s + p.gamma_l)
    z = _scalar_factor(gbar - 1j * p.delta_m, window_l) * _scalar_factor(
        gbar + 1j * p.delta_m, window_r
    )
    fringe = z.real / d
    return (
        d,
        0.25 * (1.0 - fringe),
        0.25 * (1.0 + fringe),
        0.5 * f_l_l * f_s_r / d,
        0.5 * f_s_l * f_l_r / d,
    )


def _wrapper_terms(window_l, window_r, p):
    """The same five numbers read from survival_weight and window_table."""
    ss = window_table(Basis.STRANGENESS, Basis.STRANGENESS, window_l, window_r, p).p
    ll = window_table(Basis.LIFETIME, Basis.LIFETIME, window_l, window_r, p).p
    return (
        survival_weight(window_l, window_r, p),
        ss[(Outcome.K0, Outcome.K0)],
        ss[(Outcome.K0, Outcome.K0BAR)],
        ll[(Outcome.KL, Outcome.KS)],
        ll[(Outcome.KS, Outcome.KL)],
    )


def _window_shapes(tau_r0, width):
    """Object windows and meter window of the four protocols' twins, plus
    zero-width and sub-1e-12-width object windows."""
    grid = [round(0.1 * k, 12) for k in range(81)]
    points = [TimeWindow.point(t) for t in grid]
    bins = [TimeWindow.centered(t, width) for t in grid]
    edge = [TimeWindow(1.0, 1.0), TimeWindow(2.0, 2.0 + 4e-13), TimeWindow(0.0, 1e-13)]
    meter = TimeWindow.centered(tau_r0, width)
    return {
        "a": (points + edge, TimeWindow.point(tau_r0)),
        "b": (points + edge, TimeWindow(max(0.0, tau_r0 - width), tau_r0)),
        "c": (points + edge, meter),
        "d": (bins + edge, meter),
    }


@pytest.mark.parametrize("tau_r0", [0.0, 0.5, 2.0, 5.0])
@pytest.mark.parametrize("width", [0.2, 1.0])
@pytest.mark.parametrize("params_name", ["default_params", "rich_params"])
def test_window_core_is_bitwise_scalar(request, tau_r0, width, params_name):
    # each row of the array core is bit for bit the scalar arithmetic, on
    # every window shape of the protocols' twins; tau_r0 = 0 clips the
    # meter windows at 0 and makes b's early window a point
    p = request.getfixturevalue(params_name)
    for shape, (windows_l, window_r) in _window_shapes(tau_r0, width).items():
        lo = np.array([w.lo for w in windows_l])
        hi = np.array([w.hi for w in windows_l])
        core = np.array(_window_terms(lo, hi, window_r.lo, window_r.hi, p)).T
        scalar = np.array([_scalar_terms(w, window_r, p) for w in windows_l], dtype=float)
        wrapped = np.array([_wrapper_terms(w, window_r, p) for w in windows_l], dtype=float)
        assert core.tobytes() == scalar.tobytes(), shape
        assert core.tobytes() == wrapped.tobytes(), shape


def test_core_window_and_table_checks(default_params):
    with pytest.raises(ValueError, match="invalid time window"):
        _window_terms(np.array([0.0, 2.0]), np.array([1.0, 1.5]), 1.0, 1.0, default_params)
    with pytest.raises(ValueError, match="invalid time window"):
        _window_terms(np.array([-0.5]), np.array([0.5]), 1.0, 1.0, default_params)
    quarter = np.full(3, 0.25)
    _check_analytic((quarter, quarter, quarter, quarter))
    shift = np.array([0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        _check_analytic((quarter, quarter, quarter + shift, quarter - shift))
    with pytest.raises(ValueError, match="sums to"):
        _check_analytic((quarter, quarter, quarter, quarter + np.array([0, 1e-6, 0])))
    # a single table gives the same verdicts on floats
    _check_analytic((0.25, 0.25, 0.25, 0.25))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        _check_analytic((0.25, 0.25, 1.25, -0.75))
    with pytest.raises(ValueError, match=r"sums to 1\.000001, not 1"):
        _check_analytic((0.25, 0.25, 0.25, 0.250001))
    # NaN compares false, so it fails the range check on floats and arrays
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        _check_analytic((math.nan, 0.25, 0.25, 0.25))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        _check_analytic((quarter, quarter, quarter, quarter + np.array([0.0, math.nan, 0.0])))


@pytest.mark.parametrize(
    "make",
    [
        lambda: TimeWindow(math.nan, math.nan),
        lambda: TimeWindow.centered(math.nan, 0.2),
        lambda: TimeWindow.point(math.nan),
        lambda: TimeWindow(0.0, math.inf),
        lambda: TimeWindow(math.inf, math.inf),
        lambda: TimeWindow.centered(1.0, math.inf),
        lambda: TimeWindow(-1.0, 1.0),
        lambda: TimeWindow(2.0, 1.0),
    ],
)
def test_time_window_refuses_non_finite_and_unordered_bounds(make):
    with pytest.raises(ValueError, match="invalid time window"):
        make()


def test_table_checks_reject_nan(default_params):
    # both times far out: the survival weight underflows to 0, where the
    # fringe cells would be 0/0 = NaN; the windows are refused first
    w = TimeWindow.centered(2000.0, 0.2)
    with pytest.raises(ValueError, match="underflows to 0: no pair survives"):
        window_table(Basis.STRANGENESS, Basis.STRANGENESS, w, w, default_params)
    # a NaN bound fails the window check as well
    with pytest.raises(ValueError, match="invalid time window"):
        survival_weight(TimeWindow(0.0, math.nan), w, default_params)


def test_window_table_names_the_underflow(default_params):
    # where the survival weight underflows to 0 the fringe and the K_S/K_L
    # shares would be 0/0: the windows are refused before any division
    w = TimeWindow.centered(2000.0, 0.2)
    message = f"object window [{w.lo}, {w.hi}] and meter window [{w.lo}, {w.hi}] underflows to 0"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(message) + ": no pair survives"):
            window_table(Basis.STRANGENESS, Basis.LIFETIME, w, w, default_params)
        assert survival_weight(w, w, default_params) == 0.0
        # of many object windows, the first whose weight underflows is named
        with pytest.raises(ValueError, match=re.escape("object window [1000.0, 1000.0] and")):
            _window_terms(np.array([0.0, 1000.0, 2000.0]), np.array([0.0, 1000.0, 2000.0]),
                          2000.0, 2000.0, default_params)


def test_survival_weight_computes_no_fringe(default_params):
    # far out the survival weight underflows to 0; the fringe and the
    # K_S/K_L shares would be 0/0 there, but survival_weight needs neither
    far = TimeWindow.centered(2_000.0, 0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert survival_weight(far, far, default_params) == 0.0


def _directly(p, source=Source.ANALYTIC, **fields):
    return JointProbabilityTable(Basis.STRANGENESS, Basis.STRANGENESS, 1.0, 2.0, p,
                                 dict.fromkeys(p, 0.0), source, **fields)


def test_analytic_table_with_a_nan_cell_is_refused():
    # NaN compares false in the range check
    p = {(Outcome.K0, Outcome.K0): math.nan, (Outcome.K0, Outcome.K0BAR): 0.5,
         (Outcome.K0BAR, Outcome.K0): 0.25, (Outcome.K0BAR, Outcome.K0BAR): 0.25}
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        _directly(p)


def test_joint_probability_table_is_an_immutable_named_tuple(default_params):
    table = full_table(Basis.STRANGENESS, Basis.LIFETIME, 1.0, 2.0, default_params)
    assert isinstance(table, tuple) and table._fields == (
        "obs_l_kind", "obs_r_kind", "tau_l", "tau_r", "p", "sigma", "source",
        "n_events", "flagged", "counts")
    assert (table.n_events, table.flagged, table.counts) == (0, False, None)
    assert table.source is Source.ANALYTIC and type(table.total()) is float
    assert table.total() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(AttributeError):
        table.p = {}
    assert not hasattr(table, "__dict__")
    assert table._replace(tau_l=3.0) == (Basis.STRANGENESS, Basis.LIFETIME, 3.0, *table[3:])


@pytest.mark.parametrize("bad", [1.5, -0.25, -1e-11, math.nan])
def test_directly_built_analytic_table_refuses_a_cell_out_of_range_or_nan(bad):
    p = dict.fromkeys(itertools.product((Outcome.K0, Outcome.K0BAR), repeat=2), 0.25)
    _directly(p)
    p[Outcome.K0, Outcome.K0BAR] = bad
    p[Outcome.K0BAR, Outcome.K0] = 0.5 - bad if math.isfinite(bad) else 0.25
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        _directly(p)
    good = _directly(dict.fromkeys(p, 0.25))
    # built from fields, however: _make, _replace, copy, pickle
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        JointProbabilityTable._make((*good[:4], p, *good[5:]))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        good._replace(p=p)
    for other in (copy.copy(good), pickle.loads(pickle.dumps(good))):
        assert other == good and type(other) is JointProbabilityTable


@pytest.mark.parametrize("total", [1.0 + 2e-9, 1.0 - 2e-9, 0.5])
def test_directly_built_analytic_table_refuses_a_bad_sum(total):
    p = dict.fromkeys(itertools.product((Outcome.K0, Outcome.K0BAR), repeat=2), 0.25 * total)
    with pytest.raises(ValueError, match="sums to"):
        _directly(p)
    p[Outcome.K0, Outcome.K0] += 1.0 - total  # back to a sum of 1 within the tolerance
    _directly(p)


def test_monte_carlo_table_is_not_checked():
    p = dict.fromkeys(itertools.product((Outcome.K0, Outcome.K0BAR), repeat=2), math.nan)
    p[Outcome.K0, Outcome.K0] = 7.0
    table = _directly(p, Source.MONTE_CARLO, n_events=3, flagged=True, counts=dict.fromkeys(p, 1))
    assert table.source is Source.MONTE_CARLO and table.total() != table.total()
    assert (table.n_events, table.flagged) == (3, True)
    assert table._replace(flagged=False).flagged is False
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        table._replace(source=Source.ANALYTIC)
