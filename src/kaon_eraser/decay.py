"""Decay modes, transition amplitudes, joint decay rates, passive probabilities.

Passive measurements identify a kaon through its spontaneous decay:

  * semileptonic modes tag strangeness through the Delta-S = Delta-Q rule
    (pi- l+ nu comes only from K0, pi+ l- nubar only from K0bar);
  * nonleptonic modes tag the weak eigenstate in the CP conservation limit
    (2pi only from K_S, 3pi only from K_L).

The joint decay rate for the entangled pair is the two-time pair amplitude
contracted with one transition amplitude per side and squared:

    rate(f_l, t_l; f_r, t_r) = | sum_ij amps_ij(t_l, t_r) a(f_l, i) a(f_r, j) |^2

with amps the un-normalized evolved pair tensor in the lifetime basis and
a(f, i) = <f|T|K_i>.  Dividing by the beam-extinction factor and the two
partial widths of the identified states turns the rate into the same joint
detection probabilities measured by active (projective) procedures; that
equivalence is the correctness oracle for this module.

Transition amplitudes are taken real, with signs fixed by the basis
convention of :mod:`kaon_eraser.kaon`; only squared moduli and the fixed
K_S/K_L interference pattern are observable.  The residual "other" channel
is modeled as two orthogonal final states (one fed by each eigenstate) so
that summing over all modes and integrating over both times gives exactly
1: every pair eventually decays.

``IDENTIFIES`` and ``MODE_CODES`` are the package's one decay-mode table:
event files carry its codes and names, and the protocols of
:mod:`kaon_eraser.experiments` read passive records through it.
:func:`_mode_cells` is its one mode-cell table: the live (channel_l,
channel_r) cells with their public codes and weights, which the sampler
draws among and the integrated mode-pair table sums.  The
lifetime-basis pair coefficients (:func:`_pair_coefficients`) serve both
the joint decay rate and protocol c's draw conditioned on a meter record.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from enum import Enum
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from .kaon import Outcome
from .params import PhysicsParams, check_times


class ConfigurationError(ValueError):
    """Parameters cannot be realized by the decay model."""


class UnsupportedModeError(ValueError):
    """Operation invoked with a decay mode it cannot handle."""


class DecayMode(Enum):
    """Observable decay classes; values are the serialization names."""

    __hash__ = object.__hash__  # as in kaon.Basis

    TWO_PI = "TwoPi"
    THREE_PI = "ThreePi"
    SEMILEPTONIC_PLUS = "SemileptonicPlus"    # pi- l+ nu, tags K0
    SEMILEPTONIC_MINUS = "SemileptonicMinus"  # pi+ l- nubar, tags K0bar
    OTHER = "Other"


#: Which single-kaon state a decay mode identifies (None: unclassifiable).
IDENTIFIES: dict[DecayMode, Optional[Outcome]] = {
    DecayMode.TWO_PI: Outcome.KS,
    DecayMode.THREE_PI: Outcome.KL,
    DecayMode.SEMILEPTONIC_PLUS: Outcome.K0,
    DecayMode.SEMILEPTONIC_MINUS: Outcome.K0BAR,
    DecayMode.OTHER: None,
}

# Internal channel indices.  OTHER is split into two orthogonal final
# states so the completeness relation sum_f a(f,i) a(f,j) = delta_ij gamma_i
# holds exactly; both serialize as DecayMode.OTHER.
CH_2PI, CH_3PI, CH_SL_PLUS, CH_SL_MINUS, CH_OTHER_S, CH_OTHER_L = range(6)
N_CHANNELS = 6

_MODE_TO_CHANNEL = {
    DecayMode.TWO_PI: CH_2PI,
    DecayMode.THREE_PI: CH_3PI,
    DecayMode.SEMILEPTONIC_PLUS: CH_SL_PLUS,
    DecayMode.SEMILEPTONIC_MINUS: CH_SL_MINUS,
}

#: channel index -> public mode code (= DecayMode position, OTHER folds both)
CHANNEL_TO_MODE_CODE = np.array([0, 1, 2, 3, 4, 4], dtype=np.int8)
#: Public mode codes: a mode's position in ``DecayMode``.
MODE_ORDER = tuple(DecayMode)
MODE_CODES = {mode: code for code, mode in enumerate(MODE_ORDER)}

#: Relative tolerance for the semileptonic decay-width tie (see below).
SEMILEPTONIC_TIE_TOL = 1e-9


@dataclasses.dataclass(frozen=True)
class TransitionAmplitudes:
    """Real transition amplitudes a(channel, eigenstate), derived from params.

    Rows follow the internal channel order, columns are (K_S, K_L).  The
    Delta-S = Delta-Q rule forces the semileptonic amplitudes of K_S and
    K_L to share a single magnitude g/sqrt(2), hence the semileptonic
    partial widths of the two eigenstates must coincide:

        br_semileptonic_s * gamma_s == br_semileptonic_l * gamma_l.

    Parameter sets violating this tie cannot be represented and are
    rejected.

    ``rows`` holds the same amplitudes as Python floats and ``widths`` the
    partial width of the state each identifying mode identifies: the
    per-call closed forms read these, not NumPy scalars of ``a``.
    """

    params: PhysicsParams
    a: np.ndarray  # (N_CHANNELS, 2)
    rows: tuple[tuple[float, float], ...] = dataclasses.field(
        init=False, repr=False, compare=False)
    widths: Mapping[DecayMode, float] = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a = np.array(self.a, dtype=float)
        a.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "rows", tuple(map(tuple, a.tolist())))
        p = self.params
        # |<f|T|K0>|^2 = 2 * (g/sqrt(2))^2
        w_sl = float(2.0 * a[CH_SL_PLUS, 0] ** 2)
        object.__setattr__(self, "widths", MappingProxyType({
            DecayMode.TWO_PI: p.br_s_2pi * p.gamma_s,
            DecayMode.THREE_PI: p.br_l_3pi * p.gamma_l,
            DecayMode.SEMILEPTONIC_PLUS: w_sl,
            DecayMode.SEMILEPTONIC_MINUS: w_sl,
        }))

    @classmethod
    def from_params(cls, params: PhysicsParams) -> "TransitionAmplitudes":
        w_sl_s = params.br_semileptonic_s * params.gamma_s
        w_sl_l = params.br_semileptonic_l * params.gamma_l
        scale = max(w_sl_s, w_sl_l, 1e-300)
        if abs(w_sl_s - w_sl_l) > SEMILEPTONIC_TIE_TOL * scale:
            raise ConfigurationError(
                "semileptonic partial widths of K_S and K_L must coincide"
                " (Delta-S = Delta-Q ties them to a single amplitude):"
                f" br_semileptonic_s*gamma_s = {w_sl_s!r} vs"
                f" br_semileptonic_l*gamma_l = {w_sl_l!r}"
            )
        g = math.sqrt(w_sl_s)
        h = g / math.sqrt(2.0)
        a = np.zeros((N_CHANNELS, 2))
        a[CH_2PI] = (math.sqrt(params.br_s_2pi * params.gamma_s), 0.0)
        a[CH_3PI] = (0.0, math.sqrt(params.br_l_3pi * params.gamma_l))
        a[CH_SL_PLUS] = (h, h)     # <f|T|K0> = g, <f|T|K0bar> = 0
        a[CH_SL_MINUS] = (h, -h)   # <f|T|K0bar> = g, <f|T|K0> = 0
        a[CH_OTHER_S] = (math.sqrt(params.br_s_other * params.gamma_s), 0.0)
        a[CH_OTHER_L] = (0.0, math.sqrt(params.br_l_other * params.gamma_l))
        return cls(params=params, a=a)

    @property
    def w_s(self) -> np.ndarray:
        """Partial widths gamma(K_S -> channel)."""
        return self.a[:, 0] ** 2

    @property
    def w_l(self) -> np.ndarray:
        """Partial widths gamma(K_L -> channel)."""
        return self.a[:, 1] ** 2

    @property
    def interference(self) -> np.ndarray:
        """a(f, K_S) * a(f, K_L); nonzero only for semileptonic channels."""
        return self.a[:, 0] * self.a[:, 1]

    def identified_width(self, mode: DecayMode) -> float:
        """Partial width gamma(K_f -> f) of the state the mode identifies."""
        try:
            return self.widths[mode]
        except KeyError:
            raise UnsupportedModeError(f"mode {mode} does not identify a kaon state") from None


@functools.lru_cache(maxsize=16)
def amplitudes(params: PhysicsParams) -> TransitionAmplitudes:
    """:meth:`TransitionAmplitudes.from_params`, built once per parameter set.

    A set that breaks the semileptonic tie raises on every call: the cache
    keeps results only, never exceptions.
    """
    return TransitionAmplitudes.from_params(params)


def normalization_factor(tau_l: float, tau_r: float, params: PhysicsParams) -> float:
    """Beam-extinction factor: fraction of pairs with both members surviving.

    N(tau_l, tau_r) = exp(-(gamma_l+gamma_s)(tau_l+tau_r)/2)
                      * cosh((gamma_l-gamma_s)(tau_l-tau_r)/2)
    """
    check_times(tau_l, tau_r)
    return 0.5 * (
        math.exp(-params.gamma_s * tau_l - params.gamma_l * tau_r)
        + math.exp(-params.gamma_l * tau_l - params.gamma_s * tau_r)
    )


def _pair_coefficients(tau_l: float, tau_r, params: PhysicsParams):
    """Un-normalized lifetime-basis coefficients c_SL, c_LS of the evolved
    pair, for ``tau_r`` a float or an array of meter times."""
    sqrt_half = math.sqrt(0.5)
    c_sl = -sqrt_half * np.exp(-1j * (params.lambda_s * tau_l + params.lambda_l * tau_r))
    c_ls = sqrt_half * np.exp(-1j * (params.lambda_l * tau_l + params.lambda_s * tau_r))
    return c_sl, c_ls


def joint_rate_channels(
    ch_l: int,
    tau_l: float,
    ch_r: int,
    tau_r: float,
    amps: TransitionAmplitudes,
) -> float:
    """Joint decay rate density for internal channels (includes other-splits)."""
    check_times(tau_l, tau_r)
    c_sl, c_ls = _pair_coefficients(tau_l, tau_r, amps.params)
    (s_l, l_l), (s_r, l_r) = amps.rows[ch_l], amps.rows[ch_r]
    amp = complex(c_sl) * s_l * l_r + complex(c_ls) * l_l * s_r
    return abs(amp) ** 2


def joint_decay_rate(
    mode_l: DecayMode,
    tau_l: float,
    mode_r: DecayMode,
    tau_r: float,
    params: PhysicsParams,
) -> float:
    """Rate density (per unit t_l and t_r, per pair) of joint decays.

    Both modes must be identifying modes; the unclassifiable OTHER class
    is not supported here (its two orthogonal sub-channels would have to
    be summed incoherently).
    """
    if mode_l is DecayMode.OTHER or mode_r is DecayMode.OTHER:
        raise UnsupportedModeError("joint_decay_rate requires identifying decay modes")
    amps = amplitudes(params)
    return joint_rate_channels(
        _MODE_TO_CHANNEL[mode_l], tau_l, _MODE_TO_CHANNEL[mode_r], tau_r, amps
    )


def passive_probability(
    mode_l: DecayMode,
    tau_l: float,
    mode_r: DecayMode,
    tau_r: float,
    params: PhysicsParams,
) -> float:
    """Joint detection probability from purely passive records.

    rate / (N(tau_l, tau_r) * gamma(K_{f_l} -> f_l) * gamma(K_{f_r} -> f_r));
    equals the corresponding active-measurement probability.  Raises
    ``ValueError`` where that denominator underflows to 0.
    """
    amps = amplitudes(params)
    width_l = amps.identified_width(mode_l)
    width_r = amps.identified_width(mode_r)
    if width_l <= 0.0 or width_r <= 0.0:
        raise ConfigurationError(
            f"identified partial width vanishes for ({mode_l.value}, {mode_r.value});"
            " the corresponding branching fraction is zero"
        )
    rate = joint_rate_channels(
        _MODE_TO_CHANNEL[mode_l], tau_l, _MODE_TO_CHANNEL[mode_r], tau_r, amps
    )
    surviving = normalization_factor(tau_l, tau_r, params) * width_l * width_r
    if surviving == 0.0:
        raise ValueError(
            f"at tau_l = {tau_l!r}, tau_r = {tau_r!r} the extinction factor"
            " N(tau_l, tau_r) underflows to 0: no pair survives to both times"
        )
    return rate / surviving


@functools.lru_cache(maxsize=16)
def _mode_cells(params: PhysicsParams) -> tuple[np.ndarray, ...]:
    """(code_l, code_r, m_sl, m_ls, m_x) of the live (channel_l, channel_r)
    cells in flat channel order: their public mode codes and their weights
    over gamma_s * gamma_l of the S-left/L-right pacing, of the
    L-left/S-right pacing and of the fringe.  The other cells are
    structurally forbidden.  Built once per parameter set and read-only, as
    :func:`amplitudes` is."""
    amps = amplitudes(params)
    gs_gl = params.gamma_s * params.gamma_l
    m_sl = np.outer(amps.w_s, amps.w_l).ravel() / gs_gl
    m_ls = np.outer(amps.w_l, amps.w_s).ravel() / gs_gl
    m_x = np.outer(amps.interference, amps.interference).ravel() / gs_gl
    live = np.flatnonzero((m_sl != 0.0) | (m_ls != 0.0) | (m_x != 0.0))
    ch_l, ch_r = np.divmod(live, N_CHANNELS)
    cells = (CHANNEL_TO_MODE_CODE[ch_l], CHANNEL_TO_MODE_CODE[ch_r],
             m_sl[live], m_ls[live], m_x[live])
    for a in cells:
        a.setflags(write=False)
    return cells


def integrated_mode_pair_probabilities(params: PhysicsParams) -> np.ndarray:
    """Total probability of each public (mode_l, mode_r) pair, 5x5.

    Integrates the joint decay rate over both decay times; rows/columns
    follow ``MODE_ORDER``.  The whole table sums to 1; its zeros are the
    cells that :func:`_mode_cells` leaves out, which the sampler never draws.
    """
    code_l, code_r, m_sl, m_ls, m_x = _mode_cells(params)
    gs, gl = params.gamma_s, params.gamma_l
    gbar = 0.5 * (gs + gl)
    table = np.zeros((len(MODE_ORDER), len(MODE_ORDER)))
    # the two orthogonal "other" sub-channels add into the public OTHER slot
    np.add.at(table, (code_l, code_r),
              0.5 * (m_sl + m_ls) - m_x * (gs * gl) / (gbar**2 + params.delta_m**2))
    return table
