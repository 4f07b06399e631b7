"""The strangeness <-> lifetime change of basis, on which the signs of the
pair state in :mod:`kaon_eraser.pair` rest."""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from kaon_eraser import Basis, Outcome
from kaon_eraser.kaon import HADAMARD

SQRT_HALF = math.sqrt(0.5)

components = st.complex_numbers(max_magnitude=SQRT_HALF, allow_nan=False, allow_infinity=False)
vectors = st.builds(lambda c1, c2: np.array([c1, c2]), components, components)


def _ket(outcome):
    """The unit vector of ``outcome`` in its own basis."""
    return np.eye(2)[outcome.index]


def test_k0_is_equal_superposition_of_lifetime_states():
    np.testing.assert_allclose(HADAMARD @ _ket(Outcome.K0), [SQRT_HALF, SQRT_HALF], atol=1e-15)


def test_ks_in_strangeness_basis():
    # the transform matrix is its own inverse, so this pins the convention
    expected = np.linalg.inv(HADAMARD) @ _ket(Outcome.KS)
    np.testing.assert_allclose(HADAMARD @ _ket(Outcome.KS), expected, atol=1e-15)
    np.testing.assert_allclose(expected, [SQRT_HALF, SQRT_HALF], atol=1e-15)


def test_k0bar_in_lifetime_basis_has_relative_minus_sign():
    lifetime = HADAMARD @ _ket(Outcome.K0BAR)
    np.testing.assert_allclose(lifetime, [SQRT_HALF, -SQRT_HALF], atol=1e-15)


@given(vectors)
def test_round_trip_is_identity(vector):
    np.testing.assert_allclose(HADAMARD @ (HADAMARD @ vector), vector, rtol=0, atol=1e-12)


@given(vectors)
def test_basis_change_preserves_norm(vector):
    assert math.isclose(np.linalg.norm(HADAMARD @ vector), np.linalg.norm(vector), abs_tol=1e-12)


def test_projections_orthonormal():
    # each basis is orthonormal, and every strangeness outcome splits evenly
    # between the two lifetime outcomes
    assert [o.basis for o in Outcome] == [Basis.STRANGENESS] * 2 + [Basis.LIFETIME] * 2
    assert [o.index for o in Outcome] == [0, 1, 0, 1]
    np.testing.assert_allclose(HADAMARD.T @ HADAMARD, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(np.abs(HADAMARD) ** 2, 0.5, atol=1e-15)
