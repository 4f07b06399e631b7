import math

import numpy as np
import pytest

from kaon_eraser import (
    Basis,
    DegenerateStateError,
    Outcome,
    PairAmplitude,
    PhysicsParams,
    evolve_pair,
    initial_state,
    normalization_factor,
    normalize_surviving,
    project_pair,
    to_pair_basis,
)
from kaon_eraser.kaon import HADAMARD
from tests.conftest import random_params

SQRT_HALF = math.sqrt(0.5)


def test_initial_state_strangeness_form():
    state = initial_state(Basis.STRANGENESS)
    expected = np.array([[0.0, SQRT_HALF], [-SQRT_HALF, 0.0]])
    np.testing.assert_allclose(state.amps, expected, atol=1e-15)


def test_initial_state_lifetime_form():
    state = initial_state(Basis.LIFETIME)
    # |K_L>_l |K_S>_r carries +1/sqrt2, |K_S>_l |K_L>_r carries -1/sqrt2
    assert state.amps[1, 0] == pytest.approx(SQRT_HALF, abs=1e-15)
    assert state.amps[0, 1] == pytest.approx(-SQRT_HALF, abs=1e-15)
    assert state.amps[0, 0] == 0.0 and state.amps[1, 1] == 0.0


def test_both_initial_forms_are_the_same_state():
    converted = to_pair_basis(
        initial_state(Basis.LIFETIME), Basis.STRANGENESS, Basis.STRANGENESS
    )
    np.testing.assert_allclose(
        converted.amps, initial_state(Basis.STRANGENESS).amps, atol=1e-14
    )


def test_to_pair_basis_turns_only_what_differs(default_params):
    state = evolve_pair(initial_state(Basis.LIFETIME), 1.0, 2.0, default_params)
    # in its own bases the state is returned as it is, not copied
    assert to_pair_basis(state, state.basis_l, state.basis_r) is state
    turned = to_pair_basis(state, Basis.STRANGENESS, Basis.LIFETIME)
    assert turned is not state
    assert (turned.basis_l, turned.basis_r) == (Basis.STRANGENESS, Basis.LIFETIME)
    assert turned.amps.tobytes() == (HADAMARD @ state.amps).tobytes()
    both = to_pair_basis(state, Basis.STRANGENESS, Basis.STRANGENESS)
    assert both.amps.tobytes() == (HADAMARD @ state.amps @ HADAMARD.T).tobytes()


def test_initial_state_antisymmetric():
    amps = initial_state(Basis.STRANGENESS).amps
    np.testing.assert_allclose(amps, -amps.T, atol=1e-15)


def test_evolve_zero_is_identity(default_params):
    state = initial_state(Basis.LIFETIME)
    evolved = evolve_pair(state, 0.0, 0.0, default_params)
    np.testing.assert_allclose(evolved.amps, state.amps, atol=1e-15)


def test_evolved_coefficient_matches_phase_law(default_params):
    tau_l, tau_r = 2.3, 0.7
    evolved = evolve_pair(initial_state(Basis.LIFETIME), tau_l, tau_r, default_params)
    expected = SQRT_HALF * np.exp(
        -1j * (default_params.lambda_l * tau_l + default_params.lambda_s * tau_r)
    )
    assert evolved.amps[1, 0] == pytest.approx(expected, abs=1e-15)


def test_negative_times_rejected(default_params):
    with pytest.raises(ValueError):
        evolve_pair(initial_state(Basis.LIFETIME), -1.0, 0.0, default_params)


def test_evolving_normalized_state_rejected(default_params):
    state = normalize_surviving(
        evolve_pair(initial_state(Basis.LIFETIME), 1.0, 1.0, default_params)
    )
    with pytest.raises(ValueError, match="normalized"):
        evolve_pair(state, 1.0, 1.0, default_params)


def test_pair_amplitude_refuses_a_malformed_state():
    with pytest.raises(ValueError) as err:
        PairAmplitude(Basis.STRANGENESS, Basis.STRANGENESS, np.zeros((2, 3)))
    assert str(err.value) == "amps must be 2x2, got shape (2, 3)"
    with pytest.raises(ValueError) as err:
        PairAmplitude(Basis.STRANGENESS, Basis.STRANGENESS, np.eye(2), normalized=True)
    assert str(err.value) == "normalized state has norm^2 = 2.0"


def test_degenerate_evolution_is_pure_phase():
    p = PhysicsParams(
        gamma_s=2e-15, gamma_l=1e-15, delta_m=0.0,
        br_s_2pi=0.5, br_l_3pi=0.5,
        br_semileptonic_s=0.2, br_semileptonic_l=0.2,
    )
    state = initial_state(Basis.LIFETIME)
    evolved = evolve_pair(state, 3.0, 11.0, p)
    ratio = evolved.amps[1, 0] / state.amps[1, 0]
    np.testing.assert_allclose(evolved.amps, ratio * np.asarray(state.amps), atol=1e-12)
    assert abs(abs(ratio) - 1.0) < 1e-12


def test_normalize_surviving(default_params):
    evolved = evolve_pair(initial_state(Basis.LIFETIME), 1.7, 0.4, default_params)
    normalized = normalize_surviving(evolved)
    assert normalized.norm2 == pytest.approx(1.0, abs=1e-12)
    dt = 1.7 - 0.4
    dg = default_params.delta_gamma
    ratio = normalized.amps[0, 1] / normalized.amps[1, 0]
    expected = -np.exp(1j * default_params.delta_m * dt) * np.exp(0.5 * dg * dt)
    assert ratio == pytest.approx(expected, abs=1e-12)
    assert abs(normalized.amps[1, 0]) == pytest.approx(
        1.0 / math.sqrt(1.0 + math.exp(dg * dt)), abs=1e-12
    )


def test_normalize_idempotent(default_params):
    evolved = evolve_pair(initial_state(Basis.LIFETIME), 0.9, 2.2, default_params)
    once = normalize_surviving(evolved)
    twice = normalize_surviving(once)
    np.testing.assert_allclose(once.amps, twice.amps, atol=1e-12)


def test_normalize_zero_state_raises():
    state = initial_state(Basis.LIFETIME)
    zero = type(state)(
        basis_l=state.basis_l, basis_r=state.basis_r, amps=np.zeros((2, 2))
    )
    with pytest.raises(DegenerateStateError):
        normalize_surviving(zero)


def test_strangeness_expansion_matches_closed_coefficients():
    # the survival-normalized strangeness amplitudes must equal
    # (1 -+ E)/(2 sqrt(1+e^{dG dt})) with E = e^{i dm dt} e^{dG dt / 2},
    # up to a single global phase
    rng = np.random.default_rng(2024)
    for _ in range(100):
        p = random_params(rng)
        tau_l, tau_r = rng.uniform(0.0, 6.0, size=2)
        dt = tau_l - tau_r
        state = normalize_surviving(
            evolve_pair(initial_state(Basis.LIFETIME), tau_l, tau_r, p)
        )
        in_s = to_pair_basis(state, Basis.STRANGENESS, Basis.STRANGENESS)
        phase = state.amps[1, 0] / abs(state.amps[1, 0])
        e_factor = np.exp(1j * p.delta_m * dt) * np.exp(0.5 * p.delta_gamma * dt)
        denom = 2.0 * math.sqrt(1.0 + math.exp(p.delta_gamma * dt))
        np.testing.assert_allclose(in_s.amps[0, 0] / phase, (1 - e_factor) / denom, atol=1e-12)
        np.testing.assert_allclose(in_s.amps[0, 1] / phase, (1 + e_factor) / denom, atol=1e-12)
        np.testing.assert_allclose(in_s.amps[1, 0] / phase, -(1 + e_factor) / denom, atol=1e-12)
        np.testing.assert_allclose(in_s.amps[1, 1] / phase, -(1 - e_factor) / denom, atol=1e-12)


def test_equal_time_state_stays_antisymmetric(default_params):
    for tau in (0.5, 2.0, 7.5):
        state = normalize_surviving(
            evolve_pair(initial_state(Basis.LIFETIME), tau, tau, default_params)
        )
        in_s = to_pair_basis(state, Basis.STRANGENESS, Basis.STRANGENESS)
        assert abs(in_s.amps[0, 0]) < 1e-12
        assert abs(in_s.amps[1, 1]) < 1e-12
        np.testing.assert_allclose(in_s.amps, -in_s.amps.T, atol=1e-12)


def test_unnormalized_norm_equals_extinction_factor():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = random_params(rng)
        tau_l, tau_r = rng.uniform(0.0, 8.0, size=2)
        evolved = evolve_pair(initial_state(Basis.STRANGENESS), tau_l, tau_r, p)
        assert evolved.norm2 == pytest.approx(
            normalization_factor(tau_l, tau_r, p), abs=1e-12
        )


def test_exchange_symmetry(default_params):
    tau_l, tau_r = 2.9, 0.8
    state = evolve_pair(initial_state(Basis.LIFETIME), tau_l, tau_r, default_params)
    swapped = evolve_pair(initial_state(Basis.LIFETIME), tau_r, tau_l, default_params)
    np.testing.assert_allclose(swapped.amps.T, -np.asarray(state.amps), atol=1e-14)
    for ol in (Outcome.K0, Outcome.K0BAR):
        for outcome_r in (Outcome.K0, Outcome.K0BAR):
            assert project_pair(state, ol, outcome_r) == pytest.approx(
                project_pair(swapped, outcome_r, ol), abs=1e-14
            )
