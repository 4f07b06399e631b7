"""The entangled two-kaon state and its two-time evolution.

A phi-meson decay (or S-wave p-pbar annihilation) produces the
antisymmetric, maximally entangled pair

    |phi(0)> = [ |K0>_l |K0bar>_r - |K0bar>_l |K0>_r ] / sqrt(2)
             = [ |K_L>_l |K_S>_r - |K_S>_l |K_L>_r ] / sqrt(2),

where l/r label the two flight directions.  Each side then propagates
freely for its own proper time.  Evolution is kept un-normalized (the
squared norm is the fraction of pairs with both members surviving, the
beam-extinction factor); conditioning on survival is a separate explicit
step because the passive decay-rate machinery needs the raw amplitudes
while active-measurement probabilities need the survival-normalized state.

Pair states are immutable values and every operation is a pure function.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .kaon import HADAMARD, Basis, Outcome
from .params import PhysicsParams, check_times


class DegenerateStateError(ValueError):
    """Normalization requested for a state with (numerically) zero norm."""


@dataclasses.dataclass(frozen=True)
class PairAmplitude:
    """2x2 complex amplitude tensor for the left (x) right kaon pair.

    ``amps[i, j]`` is the amplitude for left outcome i and right outcome j
    in the respective bases (component order: (K0, K0bar) or (K_S, K_L)).
    """

    basis_l: Basis
    basis_r: Basis
    amps: np.ndarray
    normalized: bool = False

    def __post_init__(self) -> None:
        amps = np.array(self.amps, dtype=complex)
        if amps.shape != (2, 2):
            raise ValueError(f"amps must be 2x2, got shape {amps.shape}")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)
        if self.normalized:
            norm2 = float(np.sum(np.abs(amps) ** 2))
            if abs(norm2 - 1.0) > 1e-9:
                raise ValueError(f"normalized state has norm^2 = {norm2!r}")

    @property
    def norm2(self) -> float:
        """Sum of squared moduli; the pair-survival weight if un-normalized."""
        return float(np.sum(np.abs(self.amps) ** 2))


def initial_state(basis: Basis = Basis.STRANGENESS) -> PairAmplitude:
    """The antisymmetric pair at tau_l = tau_r = 0, in the requested basis."""
    h = np.sqrt(0.5)
    if basis is Basis.STRANGENESS:
        amps = [[0.0, h], [-h, 0.0]]
    else:
        # amplitude +1/sqrt(2) for |K_L>_l |K_S>_r, -1/sqrt(2) for |K_S>_l |K_L>_r
        amps = [[0.0, -h], [h, 0.0]]
    return PairAmplitude(basis, basis, np.array(amps))


def to_pair_basis(state: PairAmplitude, basis_l: Basis, basis_r: Basis) -> PairAmplitude:
    """Express the pair state with each side in the requested basis; a state in both is returned."""
    if basis_l is state.basis_l and basis_r is state.basis_r:
        return state
    amps = state.amps
    if basis_l is not state.basis_l:
        amps = HADAMARD @ amps
    if basis_r is not state.basis_r:
        amps = amps @ HADAMARD.T
    return dataclasses.replace(state, basis_l=basis_l, basis_r=basis_r, amps=amps)


def evolve_pair(
    state: PairAmplitude, tau_l: float, tau_r: float, params: PhysicsParams
) -> PairAmplitude:
    """Propagate the left slot by ``tau_l`` and the right slot by ``tau_r``.

    Requires an un-normalized state (evolution after conditioning on
    survival would mix the two normalization conventions).
    """
    check_times(tau_l, tau_r)
    if state.normalized:
        raise ValueError("cannot evolve a survival-normalized state")
    lifetime = to_pair_basis(state, Basis.LIFETIME, Basis.LIFETIME)
    phase_l = np.exp(-1j * np.array([params.lambda_s, params.lambda_l]) * tau_l)
    phase_r = np.exp(-1j * np.array([params.lambda_s, params.lambda_l]) * tau_r)
    amps = lifetime.amps * np.outer(phase_l, phase_r)
    evolved = dataclasses.replace(lifetime, amps=amps)
    return to_pair_basis(evolved, state.basis_l, state.basis_r)


def normalize_surviving(state: PairAmplitude) -> PairAmplitude:
    """Rescale to unit norm: condition on both kaons surviving."""
    norm2 = state.norm2
    if norm2 <= 0.0 or not np.isfinite(norm2):
        raise DegenerateStateError(f"cannot normalize state with norm^2 = {norm2!r}")
    return dataclasses.replace(state, amps=state.amps / np.sqrt(norm2), normalized=True)


def project_pair(state: PairAmplitude, outcome_l: Outcome, outcome_r: Outcome) -> float:
    """Joint Born probability |<outcome_l, outcome_r | state>|^2, the package's one Born rule."""
    in_basis = to_pair_basis(state, outcome_l.basis, outcome_r.basis)
    return abs(in_basis.amps[outcome_l.index, outcome_r.index]) ** 2
