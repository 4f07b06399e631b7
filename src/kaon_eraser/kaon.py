"""Single-kaon measurement bases, outcomes and the change of basis.

A neutral kaon has exactly two measurement bases.  The strangeness basis
{K0, K0bar} is selected by strong interactions; the lifetime basis
{K_S, K_L} consists of the short- and long-lived weak eigenstates that
propagate with definite (complex) eigenvalues in free space.  The states
themselves are pair states, in :mod:`kaon_eraser.pair`.

Sign convention for the basis change (CP conservation limit):

    K_S = (K0 + K0bar) / sqrt(2)        K0    = (K_S + K_L) / sqrt(2)
    K_L = (K0 - K0bar) / sqrt(2)        K0bar = (K_S - K_L) / sqrt(2)

i.e. both directions are the 2x2 Hadamard matrix.  This is the unique real
convention under which the antisymmetric two-kaon state takes its standard
form in both bases simultaneously, sign for sign (see
:mod:`kaon_eraser.pair`, where this is asserted).
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

_SQRT_HALF = math.sqrt(0.5)

#: Strangeness <-> lifetime change of basis (self-inverse).
HADAMARD = np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]])


class Basis(Enum):
    """The two neutral-kaon measurement bases / observable kinds."""

    # members are singletons that compare by identity, so identity hashing
    # agrees with equality and is a C slot, not Enum's Python-level hash
    __hash__ = object.__hash__

    STRANGENESS = "strangeness"
    LIFETIME = "lifetime"


class Outcome(Enum):
    """Single-kaon measurement outcomes across both bases."""

    __hash__ = object.__hash__  # as in Basis

    K0 = "K0"
    K0BAR = "K0bar"
    KS = "KS"
    KL = "KL"

    def __init__(self, value: str) -> None:
        # plain attributes, not properties: the Born rule reads them per cell
        self.basis = Basis.STRANGENESS if value in ("K0", "K0bar") else Basis.LIFETIME
        #: Component index within the outcome's own basis (0 or 1).
        self.index = 0 if value in ("K0", "KS") else 1
