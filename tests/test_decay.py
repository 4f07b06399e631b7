import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaon_eraser import (
    Basis,
    ConfigurationError,
    DecayMode,
    Outcome,
    PhysicsParams,
    TransitionAmplitudes,
    UnsupportedModeError,
    full_table,
    integrated_mode_pair_probabilities,
    joint_decay_rate,
    normalization_factor,
    passive_probability,
)
from kaon_eraser.decay import (
    CH_3PI,
    CH_SL_MINUS,
    CH_SL_PLUS,
    N_CHANNELS,
    _mode_cells,
    amplitudes,
)
from tests.conftest import random_params


def test_cp_limit_forbidden_amplitudes(default_params):
    amps = TransitionAmplitudes.from_params(default_params)
    assert amps.a[0, 1] == 0.0  # no 2pi from K_L
    assert amps.a[CH_3PI, 0] == 0.0  # no 3pi from K_S


def test_partial_widths_match_branching(default_params):
    amps = TransitionAmplitudes.from_params(default_params)
    p = default_params
    assert amps.w_s[0] == pytest.approx(p.br_s_2pi * p.gamma_s, rel=1e-12)
    assert amps.w_l[CH_3PI] == pytest.approx(p.br_l_3pi * p.gamma_l, rel=1e-12)
    assert amps.w_s[CH_SL_PLUS] == pytest.approx(0.5 * p.br_semileptonic_s * p.gamma_s, rel=1e-9)
    assert amps.w_l[CH_SL_PLUS] == pytest.approx(0.5 * p.br_semileptonic_l * p.gamma_l, rel=1e-9)
    assert amps.w_s.sum() == pytest.approx(p.gamma_s, rel=1e-12)
    assert amps.w_l.sum() == pytest.approx(p.gamma_l, rel=1e-12)


def test_strangeness_tagging_is_exclusive(default_params):
    # K0 feeds only the positive-lepton mode, K0bar only the negative one
    amps = TransitionAmplitudes.from_params(default_params)
    sqrt_half = math.sqrt(0.5)
    for channel, fed, starved in (
        (CH_SL_PLUS, Outcome.K0, Outcome.K0BAR),
        (CH_SL_MINUS, Outcome.K0BAR, Outcome.K0),
    ):
        a_s, a_l = amps.a[channel]
        amp_k0 = sqrt_half * (a_s + a_l)
        amp_k0bar = sqrt_half * (a_s - a_l)
        by_outcome = {Outcome.K0: amp_k0, Outcome.K0BAR: amp_k0bar}
        assert by_outcome[starved] == pytest.approx(0.0, abs=1e-15)
        assert abs(by_outcome[fed]) ** 2 == pytest.approx(
            amps.identified_width(DecayMode.SEMILEPTONIC_PLUS), rel=1e-12
        )


def test_untied_semileptonic_widths_rejected():
    p = PhysicsParams(br_semileptonic_s=0.1, br_s_2pi=0.8)
    with pytest.raises(ConfigurationError, match="semileptonic"):
        TransitionAmplitudes.from_params(p)


def test_untied_widths_rejected_on_every_passive_call():
    # the amplitude cache keeps no failures: every call raises again
    p = PhysicsParams(br_semileptonic_s=0.1, br_s_2pi=0.8)
    for _ in range(2):
        with pytest.raises(ConfigurationError, match="semileptonic"):
            passive_probability(DecayMode.TWO_PI, 1.0, DecayMode.THREE_PI, 1.0, p)


def test_amplitudes_built_once_per_params(default_params, rich_params):
    amps = amplitudes(default_params)
    assert amplitudes(PhysicsParams()) is amps
    assert amplitudes(rich_params) is not amps
    assert amps.a.tobytes() == TransitionAmplitudes.from_params(default_params).a.tobytes()


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _reference_width(mode, params, a):
    """The identified width as written on NumPy scalars of ``a``."""
    if mode is DecayMode.TWO_PI:
        return params.br_s_2pi * params.gamma_s
    if mode is DecayMode.THREE_PI:
        return params.br_l_3pi * params.gamma_l
    return 2.0 * a[CH_SL_PLUS, 0] ** 2


def _reference_rate(ch_l, tau_l, ch_r, tau_r, params, a):
    """The joint rate as written on NumPy scalars of ``a`` and NumPy's exp."""
    lambda_s = complex(0.0, -0.5 * params.gamma_s)
    lambda_l = complex(params.delta_m, -0.5 * params.gamma_l)
    c_sl = -math.sqrt(0.5) * np.exp(-1j * (lambda_s * tau_l + lambda_l * tau_r))
    c_ls = math.sqrt(0.5) * np.exp(-1j * (lambda_l * tau_l + lambda_s * tau_r))
    amp = complex(c_sl) * a[ch_l, 0] * a[ch_r, 1] + complex(c_ls) * a[ch_l, 1] * a[ch_r, 0]
    return abs(amp) ** 2


_IDENTIFYING = [m for m in DecayMode if m is not DecayMode.OTHER]
_CHANNEL = {DecayMode.TWO_PI: 0, DecayMode.THREE_PI: 1,
            DecayMode.SEMILEPTONIC_PLUS: CH_SL_PLUS, DecayMode.SEMILEPTONIC_MINUS: CH_SL_MINUS}


def test_float_tables_are_the_amplitudes_bit_for_bit(default_params, rich_params):
    rng = np.random.default_rng(29)
    for p in (default_params, rich_params, *(random_params(rng) for _ in range(20))):
        amps = TransitionAmplitudes.from_params(p)
        assert all(type(x) is float for row in amps.rows for x in row)
        assert np.array(amps.rows).tobytes() == amps.a.tobytes()
        assert list(amps.widths) == _IDENTIFYING
        for mode in _IDENTIFYING:
            width = amps.identified_width(mode)
            assert type(width) is float and width is amps.widths[mode]
            assert _bits(width) == _bits(_reference_width(mode, p, amps.a))
        with pytest.raises(UnsupportedModeError):
            amps.identified_width(DecayMode.OTHER)


@given(st.floats(0.0, 200.0), st.floats(0.0, 200.0), st.sampled_from(_IDENTIFYING),
       st.sampled_from(_IDENTIFYING), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_passive_probability_bit_identical_to_numpy_scalar_reference(
    default_params, rich_params, tau_l, tau_r, mode_l, mode_r, seed
):
    for p in (default_params, rich_params, random_params(np.random.default_rng(seed))):
        a = amplitudes(p).a
        rate = _reference_rate(_CHANNEL[mode_l], tau_l, _CHANNEL[mode_r], tau_r, p, a)
        width_l, width_r = _reference_width(mode_l, p, a), _reference_width(mode_r, p, a)
        passive = rate / (normalization_factor(tau_l, tau_r, p) * width_l * width_r)
        assert _bits(joint_decay_rate(mode_l, tau_l, mode_r, tau_r, p)) == _bits(rate)
        assert _bits(passive_probability(mode_l, tau_l, mode_r, tau_r, p)) == _bits(passive)


def test_normalization_factor_basics(default_params):
    assert normalization_factor(0.0, 0.0, default_params) == 1.0
    for a, b in ((1.0, 3.0), (0.2, 7.7)):
        assert normalization_factor(a, b, default_params) == normalization_factor(
            b, a, default_params
        )
    with pytest.raises(ValueError):
        normalization_factor(-1.0, 0.0, default_params)


def test_joint_rate_rejects_other(default_params):
    with pytest.raises(UnsupportedModeError):
        joint_decay_rate(DecayMode.OTHER, 1.0, DecayMode.TWO_PI, 1.0, default_params)


def test_like_strangeness_rate_vanishes_at_equal_times(default_params):
    for tau in (0.0, 1.3, 6.6):
        assert joint_decay_rate(
            DecayMode.SEMILEPTONIC_PLUS, tau, DecayMode.SEMILEPTONIC_PLUS, tau, default_params
        ) == pytest.approx(0.0, abs=1e-20)


def test_two_pi_three_pi_rate_closed_form(default_params):
    # orthogonal final states: a single product term survives
    p = default_params
    for tau_l, tau_r in ((0.5, 2.0), (3.3, 0.1)):
        rate = joint_decay_rate(DecayMode.TWO_PI, tau_l, DecayMode.THREE_PI, tau_r, p)
        expected = (
            (p.br_s_2pi * p.gamma_s)
            * (p.br_l_3pi * p.gamma_l)
            * math.exp(-p.gamma_s * tau_l - p.gamma_l * tau_r)
            / 2.0
        )
        assert rate == pytest.approx(expected, rel=1e-12)


def test_rates_nonnegative_random(default_params):
    rng = np.random.default_rng(3)
    modes = [m for m in DecayMode if m is not DecayMode.OTHER]
    for _ in range(1000):
        mode_l, mode_r = rng.choice(modes, size=2)
        tau_l, tau_r = rng.uniform(0.0, 20.0, size=2)
        assert joint_decay_rate(mode_l, tau_l, mode_r, tau_r, default_params) >= 0.0


def _active_probability(mode_l, tau_l, mode_r, tau_r, params):
    """Closed-form twin of the passive probability for any mode pair."""
    kind = {
        DecayMode.TWO_PI: Basis.LIFETIME,
        DecayMode.THREE_PI: Basis.LIFETIME,
        DecayMode.SEMILEPTONIC_PLUS: Basis.STRANGENESS,
        DecayMode.SEMILEPTONIC_MINUS: Basis.STRANGENESS,
    }
    outcome = {
        DecayMode.TWO_PI: Outcome.KS,
        DecayMode.THREE_PI: Outcome.KL,
        DecayMode.SEMILEPTONIC_PLUS: Outcome.K0,
        DecayMode.SEMILEPTONIC_MINUS: Outcome.K0BAR,
    }
    table = full_table(kind[mode_l], kind[mode_r], tau_l, tau_r, params)
    return table.p[(outcome[mode_l], outcome[mode_r])]


def test_passive_matches_active_spot_values(default_params):
    tau = 1.7
    assert passive_probability(
        DecayMode.SEMILEPTONIC_PLUS, tau, DecayMode.SEMILEPTONIC_MINUS, tau, default_params
    ) == pytest.approx(0.5, abs=1e-12)
    tau_l, tau_r = 2.8, 0.9
    assert passive_probability(
        DecayMode.SEMILEPTONIC_PLUS, tau_l, DecayMode.TWO_PI, tau_r, default_params
    ) == pytest.approx(
        1.0 / (2.0 * (1.0 + math.exp(default_params.delta_gamma * (tau_l - tau_r)))),
        abs=1e-12,
    )


def test_passive_equals_active_everywhere():
    # the central equivalence: for every identifying mode pair the passive
    # ratio reproduces the active closed form
    rng = np.random.default_rng(17)
    modes = [m for m in DecayMode if m is not DecayMode.OTHER]
    for _ in range(200):
        p = random_params(rng)
        mode_l, mode_r = rng.choice(modes, size=2)
        tau_l, tau_r = rng.uniform(0.0, 8.0, size=2)
        passive = passive_probability(mode_l, tau_l, mode_r, tau_r, p)
        active = _active_probability(mode_l, tau_l, mode_r, tau_r, p)
        assert passive == pytest.approx(active, abs=1e-10)


def test_passive_probability_independent_of_branching(default_params, rich_params):
    # widths cancel in the ratio: two very different branching configurations
    # with the same (gamma_s, gamma_l, delta_m) give identical probabilities
    base = PhysicsParams(
        gamma_s=rich_params.gamma_s,
        gamma_l=rich_params.gamma_l,
        delta_m=rich_params.delta_m,
        br_s_2pi=0.5,
        br_l_3pi=0.1,
        br_semileptonic_s=0.05,
        br_semileptonic_l=0.2,
    )
    modes = [m for m in DecayMode if m is not DecayMode.OTHER]
    for mode_l in modes:
        for mode_r in modes:
            a = passive_probability(mode_l, 1.9, mode_r, 0.6, rich_params)
            b = passive_probability(mode_l, 1.9, mode_r, 0.6, base)
            assert a == pytest.approx(b, abs=1e-12)


def test_zero_partial_width_is_configuration_error():
    p = PhysicsParams(br_s_2pi=0.0, br_semileptonic_s=0.0, br_semileptonic_l=0.0)
    with pytest.raises(ConfigurationError):
        passive_probability(DecayMode.TWO_PI, 1.0, DecayMode.THREE_PI, 1.0, p)


def _gauss_time_mesh(params, nodes_per_segment=24):
    """Composite Gauss-Legendre nodes covering all decay time scales."""
    horizon = 45.0 / params.gamma_l
    edges = [0.0]
    while edges[-1] < horizon:
        edges.append(max(edges[-1] * 2.0, 0.5))
    x, w = np.polynomial.legendre.leggauss(nodes_per_segment)
    nodes, weights = [], []
    for a, b in zip(edges, edges[1:]):
        nodes.append(0.5 * (b - a) * x + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _rate_mesh(amps, tl, tr):
    """joint rate for one channel pair on a (t_l, t_r) mesh via amplitudes."""
    params = amps.params
    sqrt_half = math.sqrt(0.5)
    c_sl = -sqrt_half * np.exp(
        -1j * (params.lambda_s * tl[:, None] + params.lambda_l * tr[None, :])
    )
    c_ls = sqrt_half * np.exp(
        -1j * (params.lambda_l * tl[:, None] + params.lambda_s * tr[None, :])
    )
    return c_sl, c_ls


def test_total_decay_probability_is_one_by_quadrature(rich_params):
    # every pair decays: sum the rate over all channel pairs and integrate
    # over both decay times with a scale-aware composite Gauss rule
    for params in (rich_params, PhysicsParams()):
        amps = TransitionAmplitudes.from_params(params)
        t, w = _gauss_time_mesh(params)
        c_sl, c_ls = _rate_mesh(amps, t, t)
        total = 0.0
        for ch_l in range(N_CHANNELS):
            for ch_r in range(N_CHANNELS):
                a = amps.a
                rate = np.abs(
                    c_sl * a[ch_l, 0] * a[ch_r, 1] + c_ls * a[ch_l, 1] * a[ch_r, 0]
                ) ** 2
                total += float(w @ rate @ w)
        assert total == pytest.approx(1.0, abs=1e-6)


def test_integrated_mode_pair_table(default_params):
    table = integrated_mode_pair_probabilities(default_params)
    assert table.sum() == pytest.approx(1.0, abs=1e-12)
    assert table[0, 0] == 0.0  # (2pi, 2pi) is forbidden by antisymmetry
    assert table[1, 1] == 0.0  # (3pi, 3pi) likewise
    assert np.all(table >= 0.0)


def test_integrated_table_lives_on_the_sampler_cells(default_params, rich_params):
    # the cells the chi-square treats as forbidden are those the sampler
    # never draws: the table's nonzero cells are the live cells' codes
    rng = np.random.default_rng(13)
    for params in [default_params, rich_params] + [random_params(rng) for _ in range(5)]:
        code_l, code_r = _mode_cells(params)[:2]
        table = integrated_mode_pair_probabilities(params)
        assert set(zip(*np.nonzero(table))) == set(zip(code_l, code_r))


def test_integrated_table_matches_quadrature(rich_params):
    # spot-check cells of the closed-form table against numeric integration
    params = rich_params
    amps = TransitionAmplitudes.from_params(params)
    table = integrated_mode_pair_probabilities(params)
    t, w = _gauss_time_mesh(params)
    c_sl, c_ls = _rate_mesh(amps, t, t)
    for ch_l, ch_r in ((2, 3), (2, 2), (0, 1), (0, 2)):
        a = amps.a
        rate = np.abs(
            c_sl * a[ch_l, 0] * a[ch_r, 1] + c_ls * a[ch_l, 1] * a[ch_r, 0]
        ) ** 2
        value = float(w @ rate @ w)
        assert table[ch_l, ch_r] == pytest.approx(value, abs=1e-8)
