"""Closed-form joint detection probabilities for measurements on the pair.

All probabilities here are conditional on both pair members surviving up
to their measurement times (survival-normalized state).  With
dG = gamma_l - gamma_s < 0 and dt = tau_l - tau_r:

  strangeness (x) strangeness, like pairs:    (1 - V(dt) cos(dm*dt)) / 4
                               unlike pairs:  (1 + V(dt) cos(dm*dt)) / 4
  visibility:                  V(dt) = 1 / cosh(dG*dt/2)
  strangeness (x) lifetime:    P[*, K_S] = 1 / (2 (1 + e^{dG*dt}))
                               P[*, K_L] = 1 / (2 (1 + e^{-dG*dt}))
  lifetime (x) lifetime:       P[K_S, K_L] = e^{dG*dt} / (1 + e^{dG*dt})
                               P[K_L, K_S] = 1 / (1 + e^{dG*dt}), diagonal 0.

The lifetime (x) lifetime table never oscillates and is a direct readout
of the squared moduli of the survival-normalized amplitudes; it is
included for completeness.

This module also provides survival-weighted averages of the same
quantities over finite time windows (exact closed-form integrals), which
are the unbiased targets of the binned event-counting estimators in
:mod:`kaon_eraser.experiments`.  One core, :func:`_window_terms`,
evaluates them for one window or, on arrays, for a whole scan at once;
:func:`survival_weight` and :func:`window_table` are its one-window forms.
The point closed forms read :func:`_point_terms`, the same four terms at
one time pair, written as the formulas above.  One layout, :func:`_cells`,
makes the four cells of every table, point or window, out of those terms.

The sech of the visibility, :func:`_sech`, is also the fringe envelope of
the Monte Carlo kernel in :mod:`kaon_eraser.generator`.  Analytic tables
are checked for range and sum; a NaN cell fails both checks.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from enum import Enum
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .kaon import Basis, Outcome
from .params import PhysicsParams, check_times

_S_OUTCOMES = (Outcome.K0, Outcome.K0BAR)
_L_OUTCOMES = (Outcome.KS, Outcome.KL)
_OUTCOMES = {Basis.STRANGENESS: _S_OUTCOMES, Basis.LIFETIME: _L_OUTCOMES}

#: Analytic tables must sum to 1 within this tolerance.
TABLE_SUM_TOL = 1e-9
#: Each cell of an analytic table must lie in [_P_MIN, _P_MAX].
_P_MIN, _P_MAX = -1e-12, 1.0 + 1e-12


class Source(Enum):
    ANALYTIC = "analytic"
    MONTE_CARLO = "monte_carlo"


class _TableFields(NamedTuple):
    """The fields of :class:`JointProbabilityTable`, whose ``__new__`` gives
    their defaults and checks an ANALYTIC table."""

    obs_l_kind: Basis
    obs_r_kind: Basis
    tau_l: float
    tau_r: float
    p: Mapping[tuple[Outcome, Outcome], float]
    sigma: Mapping[tuple[Outcome, Outcome], float]
    source: Source
    n_events: int
    flagged: bool
    counts: Optional[Mapping[tuple[Outcome, Outcome], int]]


class JointProbabilityTable(_TableFields):
    """Probabilities for the four outcomes of a chosen observable pair, an
    immutable named tuple.  An ANALYTIC table is checked for range and sum
    however it is built: called, by ``_make`` or by ``_replace``."""

    __slots__ = ()

    # the fields as parameters: half the time of super().__new__(cls, *args)
    def __new__(cls, obs_l_kind, obs_r_kind, tau_l, tau_r, p, sigma, source,
                n_events=0, flagged=False, counts=None) -> "JointProbabilityTable":
        if source is Source.ANALYTIC:
            _check_analytic(tuple(p.values()))
        return tuple.__new__(cls, (obs_l_kind, obs_r_kind, tau_l, tau_r, p, sigma, source,
                                   n_events, flagged, counts))

    @classmethod
    def _make(cls, iterable) -> "JointProbabilityTable":
        return cls(*iterable)

    def total(self) -> float:
        return float(sum(self.p.values()))


def _sech(x):
    """1/cosh(x) of a float or an array, written to avoid cosh overflow at
    large |x|."""
    e = np.exp(-abs(x))
    return 2.0 * e / (1.0 + e * e)


def visibility(delta_tau: float, params: PhysicsParams) -> float:
    """Fringe contrast of the strangeness oscillations, 1/cosh(dG*dt/2)."""
    return float(_sech(0.5 * params.delta_gamma * delta_tau))


def _expit(x: float) -> float:
    """``1 / (1 + e^-x)``, the operations of ``scipy.special.expit`` on a
    double, so the same bits, without importing scipy.  Below
    ``x = -709.78`` C's ``exp`` overflows to inf and gives 0, where
    ``math.exp`` raises."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def _point_terms(tau_l: float, tau_r: float, params: PhysicsParams) -> tuple:
    """The terms ``(like, unlike, w_ks, w_kl)`` of :func:`_cells` at the
    time pair (tau_l, tau_r): what :func:`_window_terms` gives for point
    windows, written as the formulas of the module docstring."""
    check_times(tau_l, tau_r)
    dt = tau_l - tau_r
    fringe = visibility(dt, params) * math.cos(params.delta_m * dt)
    x = params.delta_gamma * dt
    return 0.25 * (1.0 - fringe), 0.25 * (1.0 + fringe), _expit(-x), _expit(x)


#: The keys of the (kind_l, kind_r) table, in the order the CLI prints them.
_KEYS = {(kind_l, kind_r): tuple(itertools.product(_OUTCOMES[kind_l], _OUTCOMES[kind_r]))
         for kind_l in Basis for kind_r in Basis}
# the lifetime (x) lifetime table lists its two zero cells first
_KEYS[Basis.LIFETIME, Basis.LIFETIME] = (
    (Outcome.KS, Outcome.KS), (Outcome.KL, Outcome.KL),
    (Outcome.KS, Outcome.KL), (Outcome.KL, Outcome.KS))


def _cells(kind_l: Basis, kind_r: Basis, terms) -> dict[tuple[Outcome, Outcome], float]:
    """The four cells of the (kind_l, kind_r) table, laid out from the terms
    ``(like, unlike, w_ks, w_kl)`` of one time pair (floats) or of many
    (arrays), keyed as in ``_KEYS``.

    ``w_ks`` is the share of surviving pairs whose right kaon is K_S and
    left kaon K_L, ``w_kl`` the share with a right K_L and a left K_S.  A
    strangeness outcome opposite a lifetime outcome splits its share evenly.
    """
    like, unlike, w_ks, w_kl = terms
    if kind_l is kind_r:
        values = (like, unlike, unlike, like) if kind_l is Basis.STRANGENESS else (0.0, 0.0, w_kl, w_ks)
    elif kind_r is Basis.LIFETIME:
        ks, kl = 0.5 * w_ks, 0.5 * w_kl
        values = (ks, kl, ks, kl)
    else:
        ks, kl = 0.5 * w_kl, 0.5 * w_ks
        values = (ks, ks, kl, kl)
    # a dict display: a third of the time of dict(zip(keys, values))
    (k0, k1, k2, k3), (v0, v1, v2, v3) = _KEYS[kind_l, kind_r], values
    return {k0: v0, k1: v1, k2: v2, k3: v3}


def _analytic_table(kind_l: Basis, kind_r: Basis, tau_l, tau_r, terms) -> JointProbabilityTable:
    """The analytic table, checked on construction, of the cells of ``terms``."""
    p = _cells(kind_l, kind_r, terms)
    sigma = dict.fromkeys(p, 0.0)
    return JointProbabilityTable(kind_l, kind_r, tau_l, tau_r, p, sigma, Source.ANALYTIC)


def joint_strangeness(
    tau_l: float,
    tau_r: float,
    outcome_l: Outcome,
    outcome_r: Outcome,
    params: PhysicsParams,
) -> float:
    """Probability of a joint strangeness outcome, both sides measured."""
    terms = _point_terms(tau_l, tau_r, params)
    if outcome_l.basis is not Basis.STRANGENESS or outcome_r.basis is not Basis.STRANGENESS:
        raise ValueError("joint_strangeness takes strangeness outcomes")
    return _cells(Basis.STRANGENESS, Basis.STRANGENESS, terms)[(outcome_l, outcome_r)]


def joint_strangeness_lifetime(
    tau_l: float,
    tau_r: float,
    outcome_l: Outcome,
    outcome_r: Outcome,
    params: PhysicsParams,
) -> float:
    """Strangeness on the left, lifetime on the right; never oscillates.

    Independent of the strangeness outcome: the lifetime record on one
    side does not bias the strangeness result on the other.
    """
    terms = _point_terms(tau_l, tau_r, params)
    if outcome_l.basis is not Basis.STRANGENESS or outcome_r.basis is not Basis.LIFETIME:
        raise ValueError("joint_strangeness_lifetime takes (strangeness, lifetime) outcomes")
    return _cells(Basis.STRANGENESS, Basis.LIFETIME, terms)[(outcome_l, outcome_r)]


def full_table(
    kind_l: Basis,
    kind_r: Basis,
    tau_l: float,
    tau_r: float,
    params: PhysicsParams,
) -> JointProbabilityTable:
    """All four outcome probabilities for the chosen observable pair."""
    return _analytic_table(kind_l, kind_r, tau_l, tau_r, _point_terms(tau_l, tau_r, params))


# --------------------------------------------------------------------------
# Survival-weighted window averages (exact integrals of the closed forms)
# --------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TimeWindow:
    """A measurement-time point (lo == hi) or bin [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        _check_windows(self.lo, self.hi)

    @classmethod
    def point(cls, tau: float) -> "TimeWindow":
        return cls(tau, tau)

    @classmethod
    def centered(cls, tau: float, width: float) -> "TimeWindow":
        """Bin of ``width`` centered on ``tau``, clipped at 0."""
        return cls(max(0.0, tau - 0.5 * width), tau + 0.5 * width)

    @property
    def center(self) -> float:
        return 0.5 * (self.lo + self.hi)


def _check_windows(lo, hi) -> None:
    """Refuse time windows ``[lo, hi]`` (floats, or arrays of one window per
    element) unless ``0 <= lo <= hi < inf``: the rule fails a NaN bound."""
    valid = (lo >= 0) & (hi >= lo) & (hi < math.inf)
    if not _all(valid):
        i = int(np.argmin(valid))
        raise ValueError(f"invalid time window [{np.ravel(lo)[i]}, {np.ravel(hi)[i]}]")


def _all(flags) -> bool:
    """Whether one flag, or every flag of an array of them, is set."""
    return bool(flags.all()) if isinstance(flags, np.ndarray) else bool(flags)


def _check_analytic(cells: Sequence) -> None:
    """The range and sum checks of analytic tables.  ``cells`` are a
    table's values in key order, each a float, or each an array holding one
    table per element.  Each check asks for the good case, so a NaN, which
    compares false, fails it."""
    in_range = True
    for values in cells:
        in_range = in_range & (_P_MIN <= values) & (values <= _P_MAX)
    if not _all(in_range):
        raise ValueError("analytic probabilities must lie in [0, 1]")
    total = sum(cells)
    ok = abs(total - 1.0) <= TABLE_SUM_TOL
    if not _all(ok):
        bad = np.ravel(total)[np.argmin(ok)]
        raise ValueError(f"analytic table sums to {float(bad)!r}, not 1")


def _exp_factors(c: complex, lo, hi):
    """exp(-c*tau) at the point windows (lo == hi), its integral over the others."""
    width = hi - lo
    at_lo = np.exp(-c * lo)
    integral = (at_lo - np.exp(-c * hi)) / c
    # below 1e-12 the two exponentials cancel; the integral is the width
    return np.where(hi == lo, at_lo, np.where(abs(c) * width < 1e-12, width, integral))


class _Survival(NamedTuple):
    """The survival weight ``d`` and the single-exponential factors it is
    made of: ``f_s_l`` is the K_S factor of the object window, ``f_l_r``
    the K_L factor of the meter window, and so on."""

    d: np.ndarray
    f_s_l: np.ndarray
    f_l_l: np.ndarray
    f_s_r: np.ndarray
    f_l_r: np.ndarray


def _survival(lo_l, hi_l, lo_r: float, hi_r: float, params: PhysicsParams) -> _Survival:
    """:func:`survival_weight` of the object windows ``[lo_l, hi_l]`` (floats, or arrays
    of one window per element) against the meter window ``[lo_r, hi_r]``."""
    _check_windows(lo_l, hi_l)
    f_s_l = _exp_factors(params.gamma_s, lo_l, hi_l)
    f_l_l = _exp_factors(params.gamma_l, lo_l, hi_l)
    f_s_r = _exp_factors(params.gamma_s, lo_r, hi_r)
    f_l_r = _exp_factors(params.gamma_l, lo_r, hi_r)
    d = 0.5 * (f_s_l * f_l_r + f_l_l * f_s_r)
    return _Survival(d, f_s_l, f_l_l, f_s_r, f_l_r)


class _WindowTerms(NamedTuple):
    """Closed forms of object windows against one meter window.

    ``d`` is :func:`survival_weight`; the other four fields are the terms
    that :func:`_cells` lays out: ``like`` and ``unlike`` are the
    strangeness (x) strangeness cells of a like pair such as (K0, K0) and
    of an unlike pair; ``w_ks`` and ``w_kl`` are the shares of surviving
    pairs whose meter is K_S and K_L.
    """

    d: np.ndarray
    like: np.ndarray
    unlike: np.ndarray
    w_ks: np.ndarray
    w_kl: np.ndarray


def _window_terms(lo_l, hi_l, lo_r: float, hi_r: float, params: PhysicsParams) -> _WindowTerms:
    """The one closed-form core of the window averages, for the object
    windows ``[lo_l, hi_l]`` (floats, or arrays of one window per element)
    against the meter window ``[lo_r, hi_r]``.

    Windows whose survival weight underflows to 0, where the terms would
    be 0/0, are refused; the terms are not checked: the caller checks the
    tables it builds of them with :func:`_check_analytic`.  Element i of
    an array call is bit for bit the float call on window i: each goes
    through the same IEEE operations in the same order.  No complex array
    product is formed, because NumPy's SIMD loop for it may fuse a
    multiply and an add (FMA), which rounds once where the scalar product
    rounds twice and so moves the last bit of some rows.  The real part of
    ``z_l * z_r`` is written out in real operations instead.
    """
    d, f_s_l, f_l_l, f_s_r, f_l_r = _survival(lo_l, hi_l, lo_r, hi_r, params)
    if not _all(d > 0.0):
        i = int(np.argmin(d > 0.0))
        raise ValueError(f"the survival weight of object window [{np.ravel(lo_l)[i]},"
                         f" {np.ravel(hi_l)[i]}] and meter window [{lo_r}, {hi_r}]"
                         " underflows to 0: no pair survives to both windows")
    gbar = 0.5 * (params.gamma_s + params.gamma_l)
    z_l = _exp_factors(gbar - 1j * params.delta_m, lo_l, hi_l)
    z_r = _exp_factors(gbar + 1j * params.delta_m, lo_r, hi_r)
    fringe = (z_l.real * z_r.real - z_l.imag * z_r.imag) / d
    like = 0.25 * (1.0 - fringe)
    unlike = 0.25 * (1.0 + fringe)
    # the non-oscillating families factorize into single-exponential weights
    w_ks = 0.5 * f_l_l * f_s_r / d  # right identified K_S (left is K_L-paced)
    w_kl = 0.5 * f_s_l * f_l_r / d
    return _WindowTerms(d, like, unlike, w_ks, w_kl)


def survival_weight(
    window_l: TimeWindow, window_r: TimeWindow, params: PhysicsParams
) -> float:
    """Pair-survival probability density integrated over the windows.

    For point windows this is the beam-extinction factor
    N(tau_l, tau_r) = exp(-(gamma_s+gamma_l)(tau_l+tau_r)/2)
                      * cosh((gamma_l-gamma_s)(tau_l-tau_r)/2).
    """
    return _survival(window_l.lo, window_l.hi, window_r.lo, window_r.hi, params).d


def window_table(
    kind_l: Basis,
    kind_r: Basis,
    window_l: TimeWindow,
    window_r: TimeWindow,
    params: PhysicsParams,
) -> JointProbabilityTable:
    """Survival-weighted average of :func:`full_table` over time windows.

    This is the exact expectation of an event-counting estimator whose
    decay (or measurement) times are binned into the given windows; for
    point windows it reduces to :func:`full_table`.
    """
    terms = _window_terms(window_l.lo, window_l.hi, window_r.lo, window_r.hi, params)
    return _analytic_table(kind_l, kind_r, window_l.center, window_r.center, terms[1:])
