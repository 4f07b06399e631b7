"""The four quantum-eraser measurement protocols for entangled kaon pairs.

The left-moving kaon is the object: it is scanned in proper time tau_l,
looking for strangeness oscillation fringes.  The right-moving kaon is the
meter, handled at a fixed time tau_r0.  Four protocols differ in who (or
what) decides which observable the meter reveals:

  a  active-active:      strangeness detectors in both beams, or lifetime
                         observed on the right by free propagation; pairs
                         conditioned on survival to (tau_l, tau_r0).
  b  partially active:   detector fixed at tau_r0 on the right, but right
                         decays before tau_r0 are recorded: nonleptonic
                         early decays yield lifetime information (by
                         mode), semileptonic early decays measure
                         strangeness instead and are tallied separately.
  c  passive meter:      the right kaon is classified purely by its decay
                         mode near tau_r0 (semileptonic: strangeness;
                         nonleptonic: lifetime); the left side is still an
                         active measurement on survivors.
  d  passive-passive:    nothing is projected; joint decay records are
                         counted and sorted, and probabilities estimated
                         by dividing out the beam-extinction weight and
                         identified partial widths over the time bins.

All estimators are unbiased for the survival-weighted window averages of
the same closed-form probabilities (their "analytic twins"), so the four
protocols can be compared bin by bin; their agreement, irrespective of the
time ordering of the two measurements, is the point of the exercise.

Estimates come with standard errors (binomial for count ratios, Poisson
for width-scaled counts) and a low-statistics flag instead of silent
dropping.  Active projections are simulated by Born-rule draws from the
evolved pair state (amplitude path), never from the closed forms used as
twins.  Passive records are read through the decay-mode table of
:mod:`kaon_eraser.decay` (``IDENTIFIES``, ``MODE_CODES``).
"""

from __future__ import annotations

import dataclasses
import itertools
from enum import Enum
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .decay import (
    IDENTIFIES,
    MODE_CODES,
    DecayMode,
    TransitionAmplitudes,
    _pair_coefficients,
    amplitudes,
)
from .generator import EventSet, GeneratorConfig, _atomic_write, generate
from .kaon import Basis, Outcome
from .pair import evolve_pair, initial_state, normalize_surviving, project_pair
from .params import PhysicsParams
from .probabilities import (
    JointProbabilityTable,
    Source,
    TimeWindow,
    _L_OUTCOMES,
    _S_OUTCOMES,
    _bounds,
    _check_analytic,
    _survival,
    _window_terms,
)

_OUTCOMES = {Basis.STRANGENESS: _S_OUTCOMES, Basis.LIFETIME: _L_OUTCOMES}
_S_CELLS = tuple(itertools.product(_S_OUTCOMES, _S_OUTCOMES))
_MIXED_CELLS = tuple(itertools.product(_S_OUTCOMES, _L_OUTCOMES))

#: The decay mode that identifies each outcome: ``decay.IDENTIFIES`` read
#: backwards.
_MODE_OF = {outcome: mode for mode, outcome in IDENTIFIES.items() if outcome is not None}


class ExperimentKind(Enum):
    ACTIVE_ACTIVE = "a"
    PARTIALLY_ACTIVE = "b"
    PASSIVE_METER = "c"
    PASSIVE_PASSIVE = "d"


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """Configuration of one eraser scan.

    ``tau_l_grid`` is the ordered list of object measurement times;
    ``tau_r0`` the fixed meter time; ``n_pairs`` the Monte Carlo sample
    size (0 means analytic columns only, allowed for kinds a and b);
    ``bin_width_l``/``bin_width_r`` the event-sorting bin widths on the
    object/meter time axis; rows backed by fewer than ``min_count`` events
    are flagged as low-statistics.
    """

    kind: ExperimentKind
    tau_r0: float
    tau_l_grid: tuple[float, ...]
    n_pairs: int
    seed: int = 0
    bin_width_l: float = 0.2
    bin_width_r: float = 0.2
    min_count: int = 5

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau_l_grid", tuple(float(t) for t in self.tau_l_grid))
        object.__setattr__(self, "kind", ExperimentKind(self.kind))
        values = (self.tau_r0, *self.tau_l_grid, self.bin_width_l, self.bin_width_r)
        if not np.isfinite(values).all():
            raise ValueError("tau_r0, tau_l_grid and bin widths must be finite")
        if self.tau_r0 < 0:
            raise ValueError(f"tau_r0 must be >= 0, got {self.tau_r0}")
        grid = self.tau_l_grid
        if not grid:
            raise ValueError("tau_l_grid must be nonempty")
        if grid[0] < 0 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("tau_l_grid must be strictly increasing and nonnegative")
        if self.n_pairs < 0:
            raise ValueError("n_pairs must be >= 0")
        if self.n_pairs == 0 and self.kind in (
            ExperimentKind.PASSIVE_METER,
            ExperimentKind.PASSIVE_PASSIVE,
        ):
            raise ValueError(f"kind {self.kind.value!r} is event-based; n_pairs must be >= 1")
        if self.bin_width_l <= 0 or self.bin_width_r <= 0:
            raise ValueError("bin widths must be > 0")
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")


@dataclasses.dataclass(frozen=True)
class Estimate:
    """One probability estimate with its exact analytic twin."""

    value: float
    sigma: float
    twin: float
    n: int
    flagged: bool


@dataclasses.dataclass(frozen=True)
class ScanRow:
    """One grid point of a scan.

    ``counts`` are the per-row classification tallies (events sorted as
    strangeness-measured, lifetime-measured, discarded; the partially
    active protocol additionally tallies early semileptonic decays, which
    measure strangeness at an uncontrolled time and feed no column).  The
    probability columns carry their own backing counts in ``Estimate.n``.
    """

    tau_l: float
    like: Estimate
    unlike: Estimate
    s_ks: Estimate
    s_kl: Estimate
    counts: dict[str, int]


@dataclasses.dataclass(frozen=True)
class ScanResult:
    spec: ExperimentSpec
    params: PhysicsParams
    rows: tuple[ScanRow, ...]


# --------------------------------------------------------------------------
# Classification helpers
# --------------------------------------------------------------------------


def misidentification_rates(params: PhysicsParams) -> tuple[float, float]:
    """(P(K_L tagged K_S), P(K_S tagged K_L)) for the decay-time window rule.

    A kaon observed at ``t`` is called K_S if it decays within
    ``lifetime_window`` afterwards, K_L otherwise.  A true K_L decays that
    early with probability 1 - exp(-gamma_l * window); a true K_S outlives
    the window with probability exp(-gamma_s * window).
    """
    w = params.lifetime_window
    p_kl_as_ks = -np.expm1(-params.gamma_l * w)
    p_ks_as_kl = np.exp(-params.gamma_s * w)
    return float(p_kl_as_ks), float(p_ks_as_kl)


def classify_event_lifetime(
    tau: float,
    mode: DecayMode,
    measurement_time: float,
    params: PhysicsParams,
    method: str = "window",
) -> Optional[Outcome]:
    """Lifetime identification of one decay record, at time ``tau`` in ``mode``.

    ``method="window"``: active-style rule anchored at ``measurement_time``;
    decay at or before measurement_time + lifetime_window means K_S (closed
    upper boundary), later means K_L.  Decays before the measurement time
    are unclassifiable (the kaon never reached the measurement point).

    ``method="mode"``: passive rule; the lifetime outcome the mode
    identifies (``decay.IDENTIFIES``: 2pi tags K_S, 3pi tags K_L), any other
    mode is unclassifiable for lifetime.
    """
    if method == "mode":
        outcome = IDENTIFIES[mode]
        return outcome if outcome is not None and outcome.basis is Basis.LIFETIME else None
    if method != "window":
        raise ValueError(f"method must be 'window' or 'mode', got {method!r}")
    if tau < measurement_time:
        return None
    if tau <= measurement_time + params.lifetime_window:
        return Outcome.KS
    return Outcome.KL


# --------------------------------------------------------------------------
# Born-rule draws from the evolved pair state (amplitude path)
# --------------------------------------------------------------------------


def _born_cell_probs(
    tau_l: float, tau_r: float, params: PhysicsParams, cells
) -> np.ndarray:
    state = normalize_surviving(
        evolve_pair(initial_state(Basis.LIFETIME), tau_l, tau_r, params)
    )
    p = np.array([project_pair(state, ol, outcome_r) for ol, outcome_r in cells])
    return p / p.sum()


# --------------------------------------------------------------------------
# Estimate constructors
# --------------------------------------------------------------------------


def _ratio_estimate(count: int, total: int, twin: float, min_count: int) -> Estimate:
    if total == 0:
        return Estimate(0.0, 0.0, twin, 0, True)
    value = count / total
    sigma = np.sqrt(max(value * (1.0 - value), 0.0) / total)
    # the binomial error is only trustworthy when both cells are populated
    flagged = min(count, total - count) < min_count
    return Estimate(float(value), float(sigma), twin, total, flagged)


def _scaled_estimate(count: int, scale: float, twin: float, min_count: int) -> Estimate:
    if scale <= 0.0:
        return Estimate(0.0, 0.0, twin, int(count), True)
    value = count / scale
    sigma = np.sqrt(count) / scale
    return Estimate(float(value), float(sigma), twin, int(count), count < min_count)


def _analytic_estimate(twin: float) -> Estimate:
    return Estimate(twin, 0.0, twin, 0, False)


# --------------------------------------------------------------------------
# Analytic twins: every row's closed forms from one array call per scan
# --------------------------------------------------------------------------


def _meter_window(spec: ExperimentSpec) -> TimeWindow:
    """Meter time of a and b (a point), meter bin of c and d."""
    if spec.kind in (ExperimentKind.ACTIVE_ACTIVE, ExperimentKind.PARTIALLY_ACTIVE):
        return TimeWindow.point(spec.tau_r0)
    return TimeWindow.centered(spec.tau_r0, spec.bin_width_r)


def _early_window(spec: ExperimentSpec) -> TimeWindow:
    """One-sided meter window [tau_r0 - bin_width_r, tau_r0) of protocol b."""
    return TimeWindow(max(0.0, spec.tau_r0 - spec.bin_width_r), spec.tau_r0)


@dataclasses.dataclass(frozen=True)
class _ScanTwins:
    """Per row: the twins of the four columns and ``d``, the survival weight
    that the width-scaled estimates of b, c and d divide by.

    The like twin is the sum of the (K0, K0) and (K0bar, K0bar) cells of
    the window table, and so on for the other families, added in that
    order.  The strangeness (x) lifetime twins and ``d`` of b use the
    early meter window, all other twins the meter window of the kind.
    """

    like: list[float]
    unlike: list[float]
    s_ks: list[float]
    s_kl: list[float]
    d: list[float]


def _scan_twins(spec: ExperimentSpec, params: PhysicsParams) -> _ScanTwins:
    if spec.kind is ExperimentKind.PASSIVE_PASSIVE:
        lo, hi = _bounds(
            [TimeWindow.centered(tau_l, spec.bin_width_l) for tau_l in spec.tau_l_grid]
        )
    else:
        lo = hi = np.array(spec.tau_l_grid)
    meter = _meter_window(spec)
    fringe = mixed = _window_terms(lo, hi, meter.lo, meter.hi, params)
    if spec.kind is ExperimentKind.PARTIALLY_ACTIVE:
        early = _early_window(spec)
        mixed = _window_terms(lo, hi, early.lo, early.hi, params)
    cell_ks, cell_kl = 0.5 * mixed.w_ks, 0.5 * mixed.w_kl
    # the checks of the (S,S) and (S,L) window tables the twins come from
    _check_analytic((fringe.like, fringe.unlike, fringe.unlike, fringe.like))
    _check_analytic((cell_ks, cell_kl, cell_ks, cell_kl))
    return _ScanTwins(
        like=(fringe.like + fringe.like).tolist(),
        unlike=(fringe.unlike + fringe.unlike).tolist(),
        s_ks=(cell_ks + cell_ks).tolist(),
        s_kl=(cell_kl + cell_kl).tolist(),
        d=mixed.d.tolist(),
    )


def _analytic_rows(spec: ExperimentSpec, twins: _ScanTwins) -> tuple[ScanRow, ...]:
    """Rows of a scan without events (kinds a and b): every column is its twin."""
    count_keys = _COUNT_KEYS[spec.kind]
    return tuple(
        ScanRow(
            tau_l,
            _analytic_estimate(like),
            _analytic_estimate(unlike),
            _analytic_estimate(s_ks),
            _analytic_estimate(s_kl),
            counts=dict.fromkeys(count_keys, 0),
        )
        for tau_l, like, unlike, s_ks, s_kl in zip(
            spec.tau_l_grid, twins.like, twins.unlike, twins.s_ks, twins.s_kl
        )
    )


# --------------------------------------------------------------------------
# Count index: the integer counts of every row from one cut per scan
# --------------------------------------------------------------------------


def _n_above(sorted_tau: np.ndarray, t: float) -> int:
    """How many entries are > ``t``; equals ``np.sum(tau > t)``."""
    return int(sorted_tau.size - np.searchsorted(sorted_tau, t, "right"))


def _n_within(sorted_tau: np.ndarray, lo: float, hi: float) -> int:
    """How many entries lie in the closed bin [lo, hi]; equals
    ``np.sum((tau >= lo) & (tau <= hi))``."""
    return int(np.searchsorted(sorted_tau, hi, "right") - np.searchsorted(sorted_tau, lo, "left"))


def _sorted_by_mode(tau_l: np.ndarray, codes: np.ndarray) -> dict[DecayMode, np.ndarray]:
    """Sorted ``tau_l`` of the events of each decay mode, given their mode codes."""
    return {mode: np.sort(tau_l[codes == code]) for mode, code in MODE_CODES.items()}


def _in_window(tau: np.ndarray, window: TimeWindow) -> np.ndarray:
    return (tau >= window.lo) & (tau <= window.hi)


def _window_cells(
    events: EventSet, window_r: TimeWindow
) -> dict[tuple[DecayMode, DecayMode], np.ndarray]:
    """Sorted ``tau_l`` of the pairs whose meter decays inside ``window_r``,
    one array per (mode_l, mode_r) cell."""
    kept = _in_window(events.tau_r, window_r)
    n_modes = len(MODE_CODES)
    cells = events.mode_l[kept].astype(np.intp) * n_modes + events.mode_r[kept]
    tau_l = events.tau_l[kept]
    return {
        (mode_l, mode_r): np.sort(tau_l[cells == code_l * n_modes + code_r])
        for mode_l, code_l in MODE_CODES.items()
        for mode_r, code_r in MODE_CODES.items()
    }


@dataclasses.dataclass(frozen=True)
class _CountIndex:
    """Sorted decay times from which one scan reads every row's counts.

    Each part comes from one cut on the meter side, is built only for the
    kinds that read it, and turns a row's mask over all events into
    :func:`_n_above` (``tau_l > t``) or :func:`_n_within` (a closed object
    bin), which give the same integers:

    ``survivors`` (a, b)
        sorted ``tau_l`` of the pairs with ``tau_r > tau_r0``;
    ``early``, ``early_window`` (b)
        per meter decay mode, sorted ``tau_l`` of the pairs with
        ``tau_r < tau_r0``, and of those inside :func:`_early_window`;
    ``window_sl`` (c)
        ``(tau_l, tau_r, mode_r)`` of the semileptonic meter decays inside
        the meter window, in event order: a row's Born draws pair up with
        its records in that order;
    ``window_modes`` (c)
        per meter decay mode, sorted ``tau_l`` of the meter-window pairs;
    ``cells`` (d)
        :func:`_window_cells` of the meter window.
    """

    n: int
    survivors: Optional[np.ndarray] = None
    early: Optional[dict[DecayMode, np.ndarray]] = None
    early_window: Optional[dict[DecayMode, np.ndarray]] = None
    window_sl: tuple[np.ndarray, ...] = ()
    window_modes: Optional[dict[DecayMode, np.ndarray]] = None
    cells: Optional[dict[tuple[DecayMode, DecayMode], np.ndarray]] = None


def _count_index(spec: ExperimentSpec, events: EventSet) -> _CountIndex:
    kind = spec.kind
    tau_l, tau_r, mode_r = events.tau_l, events.tau_r, events.mode_r
    if kind is ExperimentKind.ACTIVE_ACTIVE:
        return _CountIndex(events.n, survivors=np.sort(tau_l[tau_r > spec.tau_r0]))
    if kind is ExperimentKind.PARTIALLY_ACTIVE:
        early = tau_r < spec.tau_r0
        early_l, early_r, early_modes = tau_l[early], tau_r[early], mode_r[early]
        in_window = early_r >= _early_window(spec).lo
        return _CountIndex(
            events.n,
            survivors=np.sort(tau_l[tau_r > spec.tau_r0]),
            early=_sorted_by_mode(early_l, early_modes),
            early_window=_sorted_by_mode(early_l[in_window], early_modes[in_window]),
        )
    window_r = _meter_window(spec)
    if kind is ExperimentKind.PASSIVE_METER:
        kept = _in_window(tau_r, window_r)
        kept_l, kept_r, kept_modes = tau_l[kept], tau_r[kept], mode_r[kept]
        # semileptonic meter decays: the modes that identify a strangeness outcome
        sl = np.isin(kept_modes, [MODE_CODES[_MODE_OF[outcome]] for outcome in _S_OUTCOMES])
        return _CountIndex(
            events.n,
            window_sl=(kept_l[sl], kept_r[sl], kept_modes[sl]),
            window_modes=_sorted_by_mode(kept_l, kept_modes),
        )
    return _CountIndex(events.n, cells=_window_cells(events, window_r))


# --------------------------------------------------------------------------
# Per-kind row builders
# --------------------------------------------------------------------------


def _row_active_active(
    spec: ExperimentSpec,
    params: PhysicsParams,
    amps: TransitionAmplitudes,
    index: _CountIndex,
    twins: _ScanTwins,
    row: int,
) -> ScanRow:
    """Both sides projected at (tau_l, tau_r0) on pairs surviving to both.

    Survival is decided by rejection on the generated decay times; the
    joint outcome is then a Born draw from the survival-normalized pair
    state, once in the strangeness-strangeness setup and once with the
    meter matter removed (strangeness-lifetime setup).
    """
    tau_l = spec.tau_l_grid[row]
    survivors = _n_above(index.survivors, tau_l)
    rng = np.random.default_rng([spec.seed, row, 0])
    c_s = rng.multinomial(survivors, _born_cell_probs(tau_l, spec.tau_r0, params, _S_CELLS))
    c_m = rng.multinomial(survivors, _born_cell_probs(tau_l, spec.tau_r0, params, _MIXED_CELLS))
    mc = spec.min_count
    return ScanRow(
        tau_l,
        like=_ratio_estimate(int(c_s[0] + c_s[3]), survivors, twins.like[row], mc),
        unlike=_ratio_estimate(int(c_s[1] + c_s[2]), survivors, twins.unlike[row], mc),
        s_ks=_ratio_estimate(int(c_m[0] + c_m[2]), survivors, twins.s_ks[row], mc),
        s_kl=_ratio_estimate(int(c_m[1] + c_m[3]), survivors, twins.s_kl[row], mc),
        counts={
            "strangeness": survivors,
            "lifetime": survivors,
            "discarded": index.n - survivors,
        },
    )


def _row_partially_active(
    spec: ExperimentSpec,
    params: PhysicsParams,
    amps: TransitionAmplitudes,
    index: _CountIndex,
    twins: _ScanTwins,
    row: int,
) -> ScanRow:
    """Meter matter fixed at tau_r0; the meter chooses by decaying or not.

    Pairs whose meter survives to tau_r0 get the active strangeness
    projection there (fringe columns).  Meter decays before tau_r0 carry
    lifetime information: nonleptonic ones are classified by mode and, for
    the ones inside the one-sided window [tau_r0 - bin_width_r, tau_r0),
    converted into width-scaled estimates; early semileptonic decays
    measure strangeness instead and are tallied separately; other modes
    are discarded.  The lifetime/early tallies cover all early decays.
    """
    tau_l = spec.tau_l_grid[row]
    survivors = _n_above(index.survivors, tau_l)
    rng = np.random.default_rng([spec.seed, row, 1])
    c_s = rng.multinomial(survivors, _born_cell_probs(tau_l, spec.tau_r0, params, _S_CELLS))

    n_early = {mode: _n_above(taus, tau_l) for mode, taus in index.early.items()}
    c_2pi = _n_above(index.early_window[DecayMode.TWO_PI], tau_l)
    c_3pi = _n_above(index.early_window[DecayMode.THREE_PI], tau_l)
    d = twins.d[row]
    n_total = index.n
    mc = spec.min_count
    return ScanRow(
        tau_l,
        like=_ratio_estimate(int(c_s[0] + c_s[3]), survivors, twins.like[row], mc),
        unlike=_ratio_estimate(int(c_s[1] + c_s[2]), survivors, twins.unlike[row], mc),
        s_ks=_scaled_estimate(
            c_2pi, n_total * amps.identified_width(DecayMode.TWO_PI) * d, twins.s_ks[row], mc
        ),
        s_kl=_scaled_estimate(
            c_3pi, n_total * amps.identified_width(DecayMode.THREE_PI) * d, twins.s_kl[row], mc
        ),
        counts={
            "strangeness": survivors,
            "lifetime": n_early[DecayMode.TWO_PI] + n_early[DecayMode.THREE_PI],
            "early_strangeness": (
                n_early[DecayMode.SEMILEPTONIC_PLUS] + n_early[DecayMode.SEMILEPTONIC_MINUS]
            ),
            "discarded": n_early[DecayMode.OTHER],
        },
    )


def _row_passive_meter(
    spec: ExperimentSpec,
    params: PhysicsParams,
    amps: TransitionAmplitudes,
    index: _CountIndex,
    twins: _ScanTwins,
    row: int,
) -> ScanRow:
    """Meter read purely from its decay record near tau_r0; object active.

    Meter decays inside the window centered on tau_r0 are classified by
    mode (semileptonic: strangeness, nonleptonic: lifetime).  For each
    semileptonic record the object outcome is drawn from the pair
    amplitude conditioned on that record, so the strangeness fringes come
    out as plain count ratios; the lifetime columns are width-scaled
    counts as in the fully passive protocol.
    """
    tau_l = spec.tau_l_grid[row]

    # semileptonic meter decays: strangeness tag; draw the left active
    # outcome from the conditional pair amplitude given the meter record
    sl_tau_l, sl_tau_r, sl_modes = index.window_sl
    alive = sl_tau_l > tau_l
    t_sl = sl_tau_r[alive]
    n_sl = int(t_sl.size)
    c_like = 0
    if n_sl:
        right_k0 = sl_modes[alive] == MODE_CODES[_MODE_OF[Outcome.K0]]
        sign = np.where(right_k0, 1.0, -1.0)
        c_sl, c_ls = _pair_coefficients(tau_l, t_sl, params)
        num = np.abs(sign * c_sl + c_ls) ** 2
        den = 2.0 * (np.abs(c_sl) ** 2 + np.abs(c_ls) ** 2)
        p_k0 = num / den
        rng = np.random.default_rng([spec.seed, row, 2])
        left_k0 = rng.random(n_sl) < p_k0
        c_like = int(np.sum(left_k0 == right_k0))

    c_2pi = _n_above(index.window_modes[DecayMode.TWO_PI], tau_l)
    c_3pi = _n_above(index.window_modes[DecayMode.THREE_PI], tau_l)
    d = twins.d[row]
    mc = spec.min_count
    return ScanRow(
        tau_l,
        like=_ratio_estimate(c_like, n_sl, twins.like[row], mc),
        unlike=_ratio_estimate(n_sl - c_like, n_sl, twins.unlike[row], mc),
        s_ks=_scaled_estimate(
            c_2pi, index.n * amps.identified_width(DecayMode.TWO_PI) * d, twins.s_ks[row], mc
        ),
        s_kl=_scaled_estimate(
            c_3pi, index.n * amps.identified_width(DecayMode.THREE_PI) * d, twins.s_kl[row], mc
        ),
        counts={
            "strangeness": n_sl,
            "lifetime": c_2pi + c_3pi,
            "discarded": _n_above(index.window_modes[DecayMode.OTHER], tau_l),
        },
    )


def _row_passive_passive(
    spec: ExperimentSpec,
    params: PhysicsParams,
    amps: TransitionAmplitudes,
    index: _CountIndex,
    twins: _ScanTwins,
    row: int,
) -> ScanRow:
    """Nothing projected: counting and sorting of joint decay records.

    Both decay times are binned (object bin around tau_l, meter bin around
    tau_r0) and the four identifying mode cells per observable family are
    turned into probabilities by :func:`_passive_table`, the estimator of
    :func:`sort_passive_events`.  Object bins of neighbouring rows may
    overlap.
    """
    tau_l = spec.tau_l_grid[row]
    window_l = TimeWindow.centered(tau_l, spec.bin_width_l)
    table_s, table_m = (
        _passive_table(
            index.cells, index.n, tau_l, window_l, twins.d[row], amps,
            Basis.STRANGENESS, kind_r, spec.tau_r0, spec.min_count,
        )
        for kind_r in (Basis.STRANGENESS, Basis.LIFETIME)
    )

    def combine(table, cells, twin):
        value = sum(table.p[c] for c in cells)
        sigma = np.sqrt(sum(table.sigma[c] ** 2 for c in cells))
        n = sum(table.counts[c] for c in cells)
        return Estimate(float(value), float(sigma), twin, n, n < spec.min_count)

    # semileptonic object with semileptonic / nonleptonic meter: exactly
    # the cells of the two tables
    n_in_bins = sum(_n_within(taus, window_l.lo, window_l.hi) for taus in index.cells.values())
    return ScanRow(
        tau_l,
        like=combine(
            table_s,
            [(Outcome.K0, Outcome.K0), (Outcome.K0BAR, Outcome.K0BAR)],
            twins.like[row],
        ),
        unlike=combine(
            table_s,
            [(Outcome.K0, Outcome.K0BAR), (Outcome.K0BAR, Outcome.K0)],
            twins.unlike[row],
        ),
        s_ks=combine(
            table_m, [(Outcome.K0, Outcome.KS), (Outcome.K0BAR, Outcome.KS)], twins.s_ks[row]
        ),
        s_kl=combine(
            table_m, [(Outcome.K0, Outcome.KL), (Outcome.K0BAR, Outcome.KL)], twins.s_kl[row]
        ),
        counts={
            "strangeness": table_s.n_events,
            "lifetime": table_m.n_events,
            "discarded": n_in_bins - table_s.n_events - table_m.n_events,
        },
    )


# --------------------------------------------------------------------------
# Passive sorting (the fully passive estimator)
# --------------------------------------------------------------------------


def _passive_table(
    cells: dict[tuple[DecayMode, DecayMode], np.ndarray],
    n_pairs: int,
    tau_l: float,
    window_l: TimeWindow,
    d: float,
    amps: TransitionAmplitudes,
    kind_l: Basis,
    kind_r: Basis,
    tau_r0: float,
    min_count: int,
) -> JointProbabilityTable:
    """One table of :func:`sort_passive_events` from :func:`_window_cells`
    of its meter window, the object bin ``window_l`` and ``d``, the
    survival weight of the two bins."""
    p: dict[tuple[Outcome, Outcome], float] = {}
    sigma: dict[tuple[Outcome, Outcome], float] = {}
    counts: dict[tuple[Outcome, Outcome], int] = {}
    total = 0
    for ol in _OUTCOMES[kind_l]:
        for outcome_r in _OUTCOMES[kind_r]:
            mode_l, mode_r = _MODE_OF[ol], _MODE_OF[outcome_r]
            count = _n_within(cells[(mode_l, mode_r)], window_l.lo, window_l.hi)
            total += count
            counts[(ol, outcome_r)] = count
            scale = n_pairs * d * amps.identified_width(mode_l) * amps.identified_width(mode_r)
            if scale > 0.0:
                p[(ol, outcome_r)] = count / scale
                sigma[(ol, outcome_r)] = np.sqrt(count) / scale
            else:
                p[(ol, outcome_r)] = 0.0
                sigma[(ol, outcome_r)] = 0.0
    return JointProbabilityTable(
        obs_l_kind=kind_l,
        obs_r_kind=kind_r,
        tau_l=float(tau_l),
        tau_r=tau_r0,
        p=p,
        sigma=sigma,
        source=Source.MONTE_CARLO,
        n_events=total,
        flagged=total < min_count,
        counts=counts,
    )


def sort_passive_events(
    events: EventSet,
    grid,
    bin_width: float,
    tau_r0: float,
    params: PhysicsParams,
    kind_l: Basis = Basis.STRANGENESS,
    kind_r: Basis = Basis.STRANGENESS,
    bin_width_r: Optional[float] = None,
    min_count: int = 5,
) -> list[JointProbabilityTable]:
    """Binned probability estimation from purely passive decay records.

    For every grid point, events whose left decay falls in the bin around
    it and whose right decay falls in the bin around ``tau_r0`` are sorted
    into the four identifying-mode cells of the requested observable pair.
    Bins are closed at both ends, ``[lo, hi]``: a decay exactly on a bin
    edge counts in that bin, and so in both rows when two bins share the
    edge.  Each count is divided by

        n_pairs * #integral of the extinction factor over the bins#
                * gamma(K_l -> f_l) * gamma(K_r -> f_r),

    which makes it an unbiased estimate of the survival-weighted bin
    average of the joint probability.  Standard errors are Poisson; tables
    backed by fewer than ``min_count`` events in total are flagged (an
    empty bin reports zero probabilities with zero error, flagged).
    """
    if bin_width <= 0 or (bin_width_r is not None and bin_width_r <= 0):
        raise ValueError("bin widths must be > 0")
    grid_arr = np.asarray(list(grid), dtype=float)
    if grid_arr.size > 1 and np.any(np.diff(grid_arr) < bin_width - 1e-12):
        raise ValueError("grid spacing must be at least bin_width (bins must not overlap)")
    width_r = bin_width if bin_width_r is None else bin_width_r
    amps = amplitudes(params)
    window_r = TimeWindow.centered(tau_r0, width_r)
    cells = _window_cells(events, window_r)
    windows_l = [TimeWindow.centered(float(tau_l), bin_width) for tau_l in grid_arr]
    d = _survival(*_bounds(windows_l), window_r.lo, window_r.hi, params).d.tolist()
    return [
        _passive_table(
            cells, events.n, tau_l, window_l, d_row, amps, kind_l, kind_r, tau_r0, min_count
        )
        for tau_l, window_l, d_row in zip(grid_arr, windows_l, d)
    ]


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

_ROW_BUILDERS = {
    ExperimentKind.ACTIVE_ACTIVE: _row_active_active,
    ExperimentKind.PARTIALLY_ACTIVE: _row_partially_active,
    ExperimentKind.PASSIVE_METER: _row_passive_meter,
    ExperimentKind.PASSIVE_PASSIVE: _row_passive_passive,
}


def run_experiment(
    spec: ExperimentSpec,
    params: PhysicsParams,
    events: Optional[EventSet] = None,
    threads: int = 1,
) -> ScanResult:
    """Run one eraser protocol over the object-time grid.

    ``events`` may be a pre-generated event set (reused as-is); otherwise
    ``spec.n_pairs`` events are generated with ``spec.seed`` by
    ``threads`` workers.  The result is independent of ``threads``.
    Without events (``n_pairs == 0``) the columns are analytic.
    """
    if events is None and spec.n_pairs > 0:
        events = generate(
            GeneratorConfig(seed=spec.seed, n_pairs=spec.n_pairs), params, threads=threads
        )
    if events is None and spec.kind in (
        ExperimentKind.PASSIVE_METER,
        ExperimentKind.PASSIVE_PASSIVE,
    ):
        raise ValueError(f"kind {spec.kind.value!r} requires events")
    twins = _scan_twins(spec, params)
    if events is None:
        return ScanResult(spec=spec, params=params, rows=_analytic_rows(spec, twins))
    amps = amplitudes(params)
    index = _count_index(spec, events)
    builder = _ROW_BUILDERS[spec.kind]
    rows = tuple(
        builder(spec, params, amps, index, twins, i) for i in range(len(spec.tau_l_grid))
    )
    return ScanResult(spec=spec, params=params, rows=rows)


# --------------------------------------------------------------------------
# Scan serialization (CSV with a documented comment header)
# --------------------------------------------------------------------------

_FAMILIES = ("like", "unlike", "s_ks", "s_kl")
_COUNT_KEYS = {
    ExperimentKind.ACTIVE_ACTIVE: ("strangeness", "lifetime", "discarded"),
    ExperimentKind.PARTIALLY_ACTIVE: (
        "strangeness",
        "lifetime",
        "early_strangeness",
        "discarded",
    ),
    ExperimentKind.PASSIVE_METER: ("strangeness", "lifetime", "discarded"),
    ExperimentKind.PASSIVE_PASSIVE: ("strangeness", "lifetime", "discarded"),
}


def write_scan_csv(path: Union[str, Path], result: ScanResult, tool_version: str) -> None:
    spec = result.spec
    count_keys = _COUNT_KEYS[spec.kind]
    columns = ["tau_l"]
    for fam in _FAMILIES:
        columns += [fam, f"{fam}_sigma", f"{fam}_twin", f"{fam}_n", f"{fam}_flag"]
    columns += [f"count_{key}" for key in count_keys]
    # one line per row; %.17g and %d print what f"{x:.17g}" and str(n) print
    line = ",".join(
        ["%.17g"] + ["%.17g,%.17g,%.17g,%d,%d"] * len(_FAMILIES) + ["%d"] * len(count_keys)
    ) + "\n"
    lines = []
    for row in result.rows:
        fields = [row.tau_l]
        for fam in _FAMILIES:
            est = getattr(row, fam)
            fields += (est.value, est.sigma, est.twin, est.n, est.flagged)
        fields += [row.counts.get(key, 0) for key in count_keys]
        lines.append(line % tuple(fields))
    grid = spec.tau_l_grid
    with _atomic_write(path) as fh:
        fh.write("# kaon-eraser scan v1\n")
        fh.write(
            f"# tool_version={tool_version} kind={spec.kind.value}"
            f" tau_r0={spec.tau_r0:.17g} grid={grid[0]:.17g}:{grid[-1]:.17g}:{len(grid)}"
            f" n_pairs={spec.n_pairs} seed={spec.seed}"
            f" bin_width_l={spec.bin_width_l:.17g} bin_width_r={spec.bin_width_r:.17g}"
            f" min_count={spec.min_count}\n"
        )
        fh.write(f"# params_digest={result.params.digest()}\n")
        fh.write(
            "# estimates are survival-conditioned probabilities; *_twin is the exact\n"
            "# analytic expectation of the estimator; *_flag=1 marks low statistics\n"
        )
        fh.write(",".join(columns) + "\n")
        fh.write("".join(lines))
