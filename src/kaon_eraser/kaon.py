"""Single-kaon states: measurement bases, basis changes, free propagation.

A neutral kaon has exactly two measurement bases.  The strangeness basis
{K0, K0bar} is selected by strong interactions; the lifetime basis
{K_S, K_L} consists of the short- and long-lived weak eigenstates that
propagate with definite (complex) eigenvalues in free space.

Sign convention for the basis change (CP conservation limit):

    K_S = (K0 + K0bar) / sqrt(2)        K0    = (K_S + K_L) / sqrt(2)
    K_L = (K0 - K0bar) / sqrt(2)        K0bar = (K_S - K_L) / sqrt(2)

i.e. both directions are the 2x2 Hadamard matrix.  This is the unique real
convention under which the antisymmetric two-kaon state takes its standard
form in both bases simultaneously, sign for sign (see
:mod:`kaon_eraser.pair`, where this is asserted).

States are immutable values and every operation is a pure function.
"""

from __future__ import annotations

import dataclasses
import math
from enum import Enum

import numpy as np

from .params import PhysicsParams, check_times

_SQRT_HALF = math.sqrt(0.5)

#: Strangeness <-> lifetime change of basis (self-inverse).
HADAMARD = np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]])


class Basis(Enum):
    """The two neutral-kaon measurement bases / observable kinds."""

    STRANGENESS = "strangeness"
    LIFETIME = "lifetime"


class Outcome(Enum):
    """Single-kaon measurement outcomes across both bases."""

    K0 = "K0"
    K0BAR = "K0bar"
    KS = "KS"
    KL = "KL"

    @property
    def basis(self) -> Basis:
        if self in (Outcome.K0, Outcome.K0BAR):
            return Basis.STRANGENESS
        return Basis.LIFETIME

    @property
    def index(self) -> int:
        """Component index within the outcome's own basis (0 or 1)."""
        return 0 if self in (Outcome.K0, Outcome.KS) else 1


@dataclasses.dataclass(frozen=True)
class KaonAmplitude:
    """Two complex amplitudes in a tagged basis.

    In the strangeness basis (c1, c2) = (<K0|psi>, <K0bar|psi>); in the
    lifetime basis (c1, c2) = (<K_S|psi>, <K_L|psi>).  The squared norm is
    at most 1; free propagation only removes norm (decays).
    """

    basis: Basis
    c1: complex
    c2: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "c1", complex(self.c1))
        object.__setattr__(self, "c2", complex(self.c2))
        n2 = self.norm2
        if not math.isfinite(n2) or n2 > 1.0 + 1e-9:
            raise ValueError(f"state norm^2 = {n2!r} outside [0, 1]")

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.c1, self.c2], dtype=complex)

    @property
    def norm2(self) -> float:
        return abs(self.c1) ** 2 + abs(self.c2) ** 2


def ket(outcome: Outcome) -> KaonAmplitude:
    """Unit basis vector |K0>, |K0bar>, |K_S> or |K_L> in its own basis."""
    c = (1.0, 0.0) if outcome.index == 0 else (0.0, 1.0)
    return KaonAmplitude(outcome.basis, *c)


def to_basis(state: KaonAmplitude, target: Basis) -> KaonAmplitude:
    """Express the same physical state in ``target`` basis."""
    if state.basis is target:
        return state
    c1, c2 = HADAMARD @ state.vector
    return KaonAmplitude(target, c1, c2)


def evolve(state: KaonAmplitude, tau: float, params: PhysicsParams) -> KaonAmplitude:
    """Free-space propagation by proper time ``tau`` >= 0.

    In the lifetime basis each component picks up exp(-i*lambda*tau) with
    lambda = m - i*gamma/2, so the norm is non-increasing.  States given in
    the strangeness basis are converted, evolved and converted back.
    """
    check_times(tau)
    lifetime = to_basis(state, Basis.LIFETIME)
    evolved = KaonAmplitude(
        Basis.LIFETIME,
        lifetime.c1 * np.exp(-1j * params.lambda_s * tau),
        lifetime.c2 * np.exp(-1j * params.lambda_l * tau),
    )
    return to_basis(evolved, state.basis)


def project(state: KaonAmplitude, outcome: Outcome) -> float:
    """Born probability |<outcome|psi>|^2.

    Not conditioned on survival; divide by ``state.norm2`` for the
    probability among surviving kaons.
    """
    in_basis = to_basis(state, outcome.basis)
    amp = in_basis.c1 if outcome.index == 0 else in_basis.c2
    return abs(amp) ** 2
