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
import functools
from enum import Enum
from pathlib import Path
from typing import NamedTuple, Optional, Union

import numpy as np

from .decay import (
    IDENTIFIES,
    MODE_CODES,
    DecayMode,
    _pair_coefficients,
    amplitudes,
)
from .kaon import Basis, Outcome
from .pair import evolve_pair, initial_state, normalize_surviving, project_pair, to_pair_basis
from .params import PhysicsParams, check_integer
from .probabilities import (
    JointProbabilityTable,
    Source,
    TimeWindow,
    _KEYS,
    _S_OUTCOMES,
    _cells,
    _check_analytic,
    _survival,
    _window_terms,
)
from .textio import EventSet, _atomic_write, _csv_text

_S_CELLS = _KEYS[Basis.STRANGENESS, Basis.STRANGENESS]
_MIXED_CELLS = _KEYS[Basis.STRANGENESS, Basis.LIFETIME]

#: The two cells of the (strangeness, strangeness) or (strangeness,
#: lifetime) table that each family of a scan sums, in the order added.
_FAMILY_CELLS = {
    "like": ((Outcome.K0, Outcome.K0), (Outcome.K0BAR, Outcome.K0BAR)),
    "unlike": ((Outcome.K0, Outcome.K0BAR), (Outcome.K0BAR, Outcome.K0)),
    "s_ks": ((Outcome.K0, Outcome.KS), (Outcome.K0BAR, Outcome.KS)),
    "s_kl": ((Outcome.K0, Outcome.KL), (Outcome.K0BAR, Outcome.KL)),
}
_FAMILIES = tuple(_FAMILY_CELLS)

#: The decay mode that identifies each outcome: ``decay.IDENTIFIES`` read
#: backwards.
_MODE_OF = {outcome: mode for mode, outcome in IDENTIFIES.items() if outcome is not None}
_N_MODES = len(MODE_CODES)
#: The mode codes that a meter decay reads as a lifetime (2pi, 3pi) or a
#: strangeness (semileptonic) outcome: rows of a tally by meter mode.
_LIFETIME_CODES = [MODE_CODES[DecayMode.TWO_PI], MODE_CODES[DecayMode.THREE_PI]]
_STRANGENESS_CODES = [MODE_CODES[_MODE_OF[outcome]] for outcome in _S_OUTCOMES]


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
        check_integer("n_pairs", self.n_pairs, 0)
        check_integer("seed", self.seed)  # the row draws seed NumPy with it
        if self.n_pairs == 0 and self.kind in (
            ExperimentKind.PASSIVE_METER,
            ExperimentKind.PASSIVE_PASSIVE,
        ):
            raise ValueError(f"kind {self.kind.value!r} is event-based; n_pairs must be >= 1")
        if self.bin_width_l <= 0 or self.bin_width_r <= 0:
            raise ValueError("bin widths must be > 0")
        check_integer("min_count", self.min_count, 1)


class Estimate(NamedTuple):
    """One probability estimate with its exact analytic twin; the fields
    are the family's scan CSV columns, in order."""

    value: float
    sigma: float
    twin: float
    n: int
    flagged: bool


class ScanRow(NamedTuple):
    """One grid point of a scan, one line of the scan CSV.

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


@dataclasses.dataclass(frozen=True, eq=False)
class ScanResult:
    """One scan by column: per family its ``(value, sigma, twin, n,
    flagged)`` arrays in :class:`Estimate` field order, per count key of
    the kind its array, each one value per grid point.  One array may fill
    several columns, such as an analytic value and its twin.  The arrays
    are checked and made read-only when a result is built, so the rows
    built from them and a later write cannot disagree."""

    spec: ExperimentSpec
    params: PhysicsParams
    families: dict[str, tuple[np.ndarray, ...]]
    counts: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        points = len(self.spec.tau_l_grid)
        for name, column in self.csv_columns:
            if np.shape(column) != (points,):
                raise ValueError(
                    f"scan column {name} has shape {np.shape(column)}; the grid has {points} points"
                )
            column.setflags(write=False)

    @functools.cached_property
    def csv_columns(self) -> list[tuple[str, np.ndarray]]:
        """The name and array of each scan CSV column after ``tau_l``, in
        order; a family without its five arrays raises ValueError."""
        suffixes = ("", "_sigma", "_twin", "_n", "_flag")
        named = [(fam + suffix, column) for fam in _FAMILIES
                 for suffix, column in zip(suffixes, self.families[fam], strict=True)]
        return named + [(f"count_{key}", self.counts[key]) for key in _COUNT_KEYS[self.spec.kind]]

    @functools.cached_property
    def rows(self) -> tuple[ScanRow, ...]:
        """The scan's rows, built on first use.  Each array is listed once,
        so its columns share its floats."""
        arrays = {id(column): column for _, column in self.csv_columns}
        listed = {key: column.tolist() for key, column in arrays.items()}
        families = [map(Estimate._make, zip(*(listed[id(c)] for c in self.families[fam])))
                    for fam in _FAMILIES]
        keys = _COUNT_KEYS[self.spec.kind]
        count_rows = zip(*(listed[id(self.counts[key])] for key in keys))
        row_counts = (dict(zip(keys, row)) for row in count_rows)
        return tuple(map(ScanRow._make, zip(self.spec.tau_l_grid, *families, row_counts)))


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


def _centered_bins(grid: np.ndarray, width: float) -> tuple[np.ndarray, np.ndarray]:
    """``lo`` and ``hi`` of the bins of ``width`` centered on the grid points,
    clipped at 0: :meth:`TimeWindow.centered` of every point."""
    return np.maximum(0.0, grid - 0.5 * width), grid + 0.5 * width


def _object_bins(spec: ExperimentSpec) -> tuple[np.ndarray, np.ndarray]:
    """``lo`` and ``hi`` of every row's object window: a bin for d, a point otherwise."""
    grid = np.array(spec.tau_l_grid)
    if spec.kind is ExperimentKind.PASSIVE_PASSIVE:
        return _centered_bins(grid, spec.bin_width_l)
    return grid, grid


def _scan_twins(spec: ExperimentSpec, params: PhysicsParams) -> tuple[dict, np.ndarray]:
    """Per family, every row's twin; and ``d``, the survival weight that
    the width-scaled estimates of b, c and d divide by.

    Each twin is the sum of its family's two cells of the window tables.
    The strangeness (x) lifetime twins and ``d`` of b use the early meter
    window, all other twins the meter window of the kind.
    """
    lo, hi = _object_bins(spec)
    meter = _meter_window(spec)
    fringe = mixed = _window_terms(lo, hi, meter.lo, meter.hi, params)
    if spec.kind is ExperimentKind.PARTIALLY_ACTIVE:
        early = _early_window(spec)
        mixed = _window_terms(lo, hi, early.lo, early.hi, params)
    cells = {}
    for kind_r, terms in ((Basis.STRANGENESS, fringe), (Basis.LIFETIME, mixed)):
        table = _cells(Basis.STRANGENESS, kind_r, terms[1:])
        _check_analytic(tuple(table.values()))
        cells.update(table)
    twins = {fam: cells[a] + cells[b] for fam, (a, b) in _FAMILY_CELLS.items()}
    return twins, mixed.d


# --------------------------------------------------------------------------
# Counting and estimates: every count of every protocol is one tally, per
# key code of the events, of the object times in a closed bin per row; every
# row of a family is one array expression over those counts
# --------------------------------------------------------------------------


def _tally(tau_l: np.ndarray, keys: Optional[np.ndarray], n_keys: int, lo, hi) -> np.ndarray:
    """Per key ``k < n_keys``, how many ``tau_l`` of that key lie in each
    closed object bin ``[lo, hi]``: an ``(n_keys, rows)`` int64 array equal
    to ``np.sum((keys == k) & (tau_l >= lo) & (tau_l <= hi))`` per row.
    With ``keys=None`` every time has key 0."""
    counts = np.empty((n_keys, np.size(lo)), dtype=np.int64)
    for k in range(n_keys):
        ordered = np.sort(tau_l if keys is None else tau_l[keys == k])
        counts[k] = np.searchsorted(ordered, hi, "right") - np.searchsorted(ordered, lo, "left")
    return counts


def _alive_bins(spec: ExperimentSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per grid point t, the bin ``[nextafter(t, inf), inf]``, whose tally is
    the count of ``tau_l > t``: the object alive at t."""
    grid = np.array(spec.tau_l_grid)
    return np.nextafter(grid, np.inf), np.full(grid.size, np.inf)


def _in_window(tau: np.ndarray, window: TimeWindow) -> np.ndarray:
    return (tau >= window.lo) & (tau <= window.hi)


def _cell_tally(events: EventSet, window_r: TimeWindow, lo, hi) -> np.ndarray:
    """:func:`_tally` of the pairs whose meter decays inside ``window_r``,
    keyed by the cell code ``mode_l * 5 + mode_r``."""
    kept = _in_window(events.tau_r, window_r)
    cells = events.mode_l[kept].astype(np.intp) * _N_MODES + events.mode_r[kept]
    return _tally(events.tau_l[kept], cells, _N_MODES ** 2, lo, hi)


#: One family over the grid: ``(value, sigma, n, flagged)`` arrays.
_Column = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _ratio(count: np.ndarray, total: np.ndarray, min_count: int) -> _Column:
    """Binomial count ratios; a row with ``total == 0`` reads 0 +- 0, flagged."""
    safe = np.maximum(total, 1)
    value = count / safe
    sigma = np.sqrt(np.maximum(value * (1.0 - value), 0.0) / safe)
    # the binomial error is only trustworthy when both cells are populated
    return value, sigma, total, np.minimum(count, total - count) < min_count


def _divided(count: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``count / scale`` and its Poisson error; 0 +- 0 where ``scale <= 0``."""
    live = scale > 0.0
    safe = np.where(live, scale, 1.0)
    return np.where(live, count / safe, 0.0), np.where(live, np.sqrt(count) / safe, 0.0)


def _born_cell_probs(state, cells) -> np.ndarray:
    """Born probabilities of ``cells``, the four outcome pairs of one basis
    pair, in the survival-normalized pair ``state``, scaled to sum to 1:
    :func:`pair.project_pair` of each, on the state turned once to their bases."""
    outcome_l, outcome_r = cells[0]
    turned = to_pair_basis(state, outcome_l.basis, outcome_r.basis)
    p = np.array([project_pair(turned, ol, orr) for ol, orr in cells])
    return p / p.sum()


def _born_columns(spec, params, events: EventSet, stream: int,
                  *cell_sets) -> tuple[np.ndarray, dict[str, _Column]]:
    """Per row, the survivors (object alive at ``tau_l``, meter alive at
    ``tau_r0``), and the count ratio of every family whose two cells are in
    ``cell_sets``, from Born draws of the survivors.  Row i draws from its
    own generator, seeded ``[seed, i, stream]``, one multinomial per cell
    set in the given order, all from the pair state evolved and normalized
    once for the row."""
    survivors = _tally(events.tau_l[events.tau_r > spec.tau_r0], None, 1, *_alive_bins(spec))[0]
    counts = [np.empty((survivors.size, len(cells)), dtype=np.int64) for cells in cell_sets]
    start = initial_state(Basis.LIFETIME)
    for row, (tau_l, n) in enumerate(zip(spec.tau_l_grid, survivors.tolist())):
        rng = np.random.default_rng([spec.seed, row, stream])
        state = normalize_surviving(evolve_pair(start, tau_l, spec.tau_r0, params))
        for out, cells in zip(counts, cell_sets):
            out[row] = rng.multinomial(n, _born_cell_probs(state, cells))
    born = {cell: column
            for out, cells in zip(counts, cell_sets) for cell, column in zip(cells, out.T)}
    return survivors, {fam: _ratio(born[a] + born[b], survivors, spec.min_count)
                       for fam, (a, b) in _FAMILY_CELLS.items() if a in born}


def _lifetime_columns(n_window, n_pairs: int, params, d, min_count: int) -> dict[str, _Column]:
    """s_ks and s_kl of b and c: the meter's 2pi and 3pi decays inside its
    window (``n_window``, a tally by mode code) as width-scaled Poisson
    counts; a row whose scale is not positive is flagged."""
    amps = amplitudes(params)
    columns = {}
    for fam, mode in (("s_ks", DecayMode.TWO_PI), ("s_kl", DecayMode.THREE_PI)):
        count, scale = n_window[MODE_CODES[mode]], n_pairs * amps.identified_width(mode) * d
        columns[fam] = (*_divided(count, scale), count, (scale <= 0.0) | (count < min_count))
    return columns


# --------------------------------------------------------------------------
# Per-kind columns: each family's (value, sigma, n, flagged) over the grid
# --------------------------------------------------------------------------


def _columns_active_active(spec, params, events: EventSet, d: np.ndarray) -> tuple[dict, dict]:
    """Both sides projected at (tau_l, tau_r0) on pairs surviving to both.

    Survival is decided by rejection on the generated decay times; the
    joint outcome is then a Born draw from the survival-normalized pair
    state, once in the strangeness-strangeness setup and once with the
    meter matter removed (strangeness-lifetime setup).
    """
    survivors, columns = _born_columns(spec, params, events, 0, _S_CELLS, _MIXED_CELLS)
    counts = {"strangeness": survivors, "lifetime": survivors, "discarded": events.n - survivors}
    return columns, counts


def _columns_partially_active(spec, params, events: EventSet, d: np.ndarray) -> tuple[dict, dict]:
    """Meter matter fixed at tau_r0; the meter chooses by decaying or not.

    Pairs whose meter survives to tau_r0 get the active strangeness
    projection there (fringe columns).  Meter decays before tau_r0 carry
    lifetime information: nonleptonic ones are classified by mode and, for
    the ones inside the one-sided window [tau_r0 - bin_width_r, tau_r0),
    converted into width-scaled estimates; early semileptonic decays
    measure strangeness instead and are tallied separately; other modes
    are discarded.  The lifetime/early tallies cover all early decays.
    """
    survivors, born = _born_columns(spec, params, events, 1, _S_CELLS)
    alive = _alive_bins(spec)
    early = events.tau_r < spec.tau_r0
    in_window = early & (events.tau_r >= _early_window(spec).lo)
    n_early = _tally(events.tau_l[early], events.mode_r[early], _N_MODES, *alive)
    n_window = _tally(events.tau_l[in_window], events.mode_r[in_window], _N_MODES, *alive)
    columns = {
        **born,
        **_lifetime_columns(n_window, events.n, params, d, spec.min_count),
    }
    counts = {
        "strangeness": survivors,
        "lifetime": n_early[_LIFETIME_CODES].sum(axis=0),
        "early_strangeness": n_early[_STRANGENESS_CODES].sum(axis=0),
        "discarded": n_early[MODE_CODES[DecayMode.OTHER]],
    }
    return columns, counts


def _columns_passive_meter(spec, params, events: EventSet, d: np.ndarray) -> tuple[dict, dict]:
    """Meter read purely from its decay record near tau_r0; object active.

    Meter decays inside the window centered on tau_r0 are classified by
    mode (semileptonic: strangeness, nonleptonic: lifetime).  For each
    semileptonic record the object outcome is drawn from the pair
    amplitude conditioned on that record, so the strangeness fringes come
    out as plain count ratios; the lifetime columns are width-scaled
    counts as in the fully passive protocol.
    """
    kept = _in_window(events.tau_r, _meter_window(spec))
    kept_l, kept_r, kept_modes = events.tau_l[kept], events.tau_r[kept], events.mode_r[kept]
    n_window = _tally(kept_l, kept_modes, _N_MODES, *_alive_bins(spec))
    n_sl = n_window[_STRANGENESS_CODES].sum(axis=0)
    sl = np.isin(kept_modes, _STRANGENESS_CODES)
    sl_tau_l, sl_tau_r = kept_l[sl], kept_r[sl]
    sl_k0 = kept_modes[sl] == MODE_CODES[_MODE_OF[Outcome.K0]]
    c_like = np.zeros(n_sl.size, dtype=np.int64)
    for row, (tau_l, n) in enumerate(zip(spec.tau_l_grid, n_sl.tolist())):
        # draw the left active outcome of every record alive at tau_l from
        # the conditional pair amplitude given the meter record; the draws
        # pair up with the records in event order
        if n:
            alive = sl_tau_l > tau_l
            t_sl, right_k0 = sl_tau_r[alive], sl_k0[alive]
            c_sl, c_ls = _pair_coefficients(tau_l, t_sl, params)
            num = np.abs(np.where(right_k0, 1.0, -1.0) * c_sl + c_ls) ** 2
            p_k0 = num / (2.0 * (np.abs(c_sl) ** 2 + np.abs(c_ls) ** 2))
            left_k0 = np.random.default_rng([spec.seed, row, 2]).random(n) < p_k0
            c_like[row] = np.sum(left_k0 == right_k0)
    columns = {
        "like": _ratio(c_like, n_sl, spec.min_count),
        "unlike": _ratio(n_sl - c_like, n_sl, spec.min_count),
        **_lifetime_columns(n_window, events.n, params, d, spec.min_count),
    }
    counts = {
        "strangeness": n_sl,
        "lifetime": n_window[_LIFETIME_CODES].sum(axis=0),
        "discarded": n_window[MODE_CODES[DecayMode.OTHER]],
    }
    return columns, counts


def _columns_passive_passive(spec, params, events: EventSet, d: np.ndarray) -> tuple[dict, dict]:
    """Nothing projected: counting and sorting of joint decay records.

    Both decay times are binned (object bin around tau_l, meter bin around
    tau_r0), and one :func:`_passive_cells` pass, the estimator of
    :func:`sort_passive_events`, turns the eight identifying mode cells of a
    semileptonic object and a semileptonic or nonleptonic meter into
    probabilities; each family sums two of them.  Object bins of
    neighbouring rows may overlap.
    """
    cells = _cell_tally(events, _meter_window(spec), *_object_bins(spec))
    p, s, n = _passive_cells(cells, events.n * d, params, _S_CELLS + _MIXED_CELLS)
    columns = {}
    for fam, (a, b) in _FAMILY_CELLS.items():
        # scalar ** is libm pow, an array's ** 2 is x * x: they can differ
        # in the last bit, and the scan bytes are pinned to the scalar form
        sigma = np.sqrt([x ** 2 + y ** 2 for x, y in zip(s[a].tolist(), s[b].tolist())])
        count = n[a] + n[b]
        columns[fam] = (p[a] + p[b], sigma, count, count < spec.min_count)
    n_s, n_m = (sum(n[key] for key in keys) for keys in (_S_CELLS, _MIXED_CELLS))
    counts = {"strangeness": n_s, "lifetime": n_m, "discarded": cells.sum(axis=0) - n_s - n_m}
    return columns, counts


_COLUMN_BUILDERS = {
    ExperimentKind.ACTIVE_ACTIVE: _columns_active_active,
    ExperimentKind.PARTIALLY_ACTIVE: _columns_partially_active,
    ExperimentKind.PASSIVE_METER: _columns_passive_meter,
    ExperimentKind.PASSIVE_PASSIVE: _columns_passive_passive,
}


# --------------------------------------------------------------------------
# Passive sorting (the fully passive estimator)
# --------------------------------------------------------------------------


def _passive_cells(cells: np.ndarray, n_d: np.ndarray, params, keys) -> tuple[dict, dict, dict]:
    """Per outcome pair of ``keys``: probability, Poisson error and count in
    every object bin, as three dicts keyed by outcome pair, from the rows of
    :func:`_cell_tally` over the meter window.  ``n_d`` is ``n_pairs * d``,
    with ``d`` the survival weight of each pair of bins."""
    amps = amplitudes(params)
    p, sigma, counts = {}, {}, {}
    for key in keys:
        mode_l, mode_r = (_MODE_OF[outcome] for outcome in key)
        counts[key] = cells[MODE_CODES[mode_l] * _N_MODES + MODE_CODES[mode_r]]
        scale = n_d * amps.identified_width(mode_l) * amps.identified_width(mode_r)
        p[key], sigma[key] = _divided(counts[key], scale)
    return p, sigma, counts


def _check_provenance(events: EventSet, params: PhysicsParams) -> None:
    """Refuse a sample not drawn with ``params``, whose weights and widths it is divided by."""
    theirs, ours = events.params_digest or "(none)", params.digest()
    if theirs != ours:
        raise ValueError(f"the events were generated with params_digest={theirs},"
                         f" not {ours} of the given params")


def sort_passive_events(
    events: EventSet,
    grid,
    bin_width: float,
    tau_r0: float,
    params: PhysicsParams,
    kind_l: Basis = Basis.STRANGENESS,
    kind_r: Basis = Basis.STRANGENESS,
    bin_width_r: Optional[float] = None,
    min_count: int = ExperimentSpec.min_count,
) -> list[JointProbabilityTable]:
    """Binned probability estimation from passive records drawn with ``params``.

    For every grid point, events whose left decay falls in the bin around
    it and whose right decay falls in the bin around ``tau_r0`` are sorted
    into the four identifying-mode cells of the requested observable pair,
    in the order of :func:`full_table`.  Bins are closed at both ends,
    ``[lo, hi]``: a decay exactly on a bin edge counts in that bin, and so
    in both rows when two bins share the edge.  Each count is divided by

        n_pairs * #integral of the extinction factor over the bins#
                * gamma(K_l -> f_l) * gamma(K_r -> f_r),

    which makes it an unbiased estimate of the survival-weighted bin
    average of the joint probability.  Standard errors are Poisson; tables
    backed by fewer than ``min_count`` events in total are flagged (an
    empty bin reports zero probabilities with zero error, flagged).  The
    records are valid, as every :class:`textio.EventSet` is.
    """
    _check_provenance(events, params)
    if not bin_width > 0 or (bin_width_r is not None and not bin_width_r > 0):
        raise ValueError("bin widths must be > 0")
    grid_arr = np.asarray(list(grid), dtype=float)
    if grid_arr.size > 1 and np.any(np.diff(grid_arr) < bin_width - 1e-12):
        raise ValueError("grid spacing must be at least bin_width (bins must not overlap)")
    window_r = TimeWindow.centered(tau_r0, bin_width if bin_width_r is None else bin_width_r)
    lo, hi = _centered_bins(grid_arr, bin_width)
    n_d = events.n * _survival(lo, hi, window_r.lo, window_r.hi, params).d
    estimates = _passive_cells(_cell_tally(events, window_r, lo, hi), n_d, params,
                               _KEYS[kind_l, kind_r])
    columns = [{key: v.tolist() for key, v in table.items()} for table in estimates]
    tables = []
    for row, tau_l in enumerate(grid_arr.tolist()):
        p, sigma, counts = ({key: v[row] for key, v in column.items()} for column in columns)
        total = sum(counts.values())
        tables.append(JointProbabilityTable(
            obs_l_kind=kind_l, obs_r_kind=kind_r, tau_l=tau_l, tau_r=tau_r0, p=p, sigma=sigma,
            source=Source.MONTE_CARLO, n_events=total, flagged=total < min_count, counts=counts,
        ))
    return tables


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def run_experiment(
    spec: ExperimentSpec, params: PhysicsParams, events: Optional[EventSet] = None
) -> ScanResult:
    """Run one eraser protocol over the object-time grid.

    ``events`` is the pre-generated event set the protocol sorts, reused
    as is; it must hold ``spec.n_pairs >= 1`` pairs, the size the scan
    header states, drawn with ``params``.  Its records are valid, as every
    :class:`textio.EventSet` is.  Without events the scan is analytic:
    ``spec.n_pairs`` must be 0 (kinds a and b), and every column is its twin.
    """
    if events is None and spec.n_pairs > 0:
        raise ValueError(f"a scan of n_pairs={spec.n_pairs} needs its events; generate them first")
    if events is not None:
        if spec.n_pairs == 0 or events.n != spec.n_pairs:
            raise ValueError(
                "a scan of events needs n_pairs >= 1, the size of its sample;"
                f" the spec states n_pairs={spec.n_pairs} but the events hold {events.n}"
            )
        _check_provenance(events, params)
    twins, d = _scan_twins(spec, params)
    if events is None:
        zero = np.zeros(len(spec.tau_l_grid), dtype=np.int64)
        sigma, unflagged = np.zeros(zero.size), np.zeros(zero.size, dtype=bool)
        columns = {fam: (twins[fam], sigma, zero, unflagged) for fam in _FAMILIES}
        counts = dict.fromkeys(_COUNT_KEYS[spec.kind], zero)
    else:
        columns, counts = _COLUMN_BUILDERS[spec.kind](spec, params, events, d)
    families = {fam: (value, sigma, twins[fam], n, flagged)
                for fam, (value, sigma, n, flagged) in columns.items()}
    return ScanResult(spec=spec, params=params, families=families, counts=counts)


# --------------------------------------------------------------------------
# Scan serialization (CSV with a documented comment header)
# --------------------------------------------------------------------------

_COUNT_KEYS = {
    ExperimentKind.ACTIVE_ACTIVE: ("strangeness", "lifetime", "discarded"),
    ExperimentKind.PARTIALLY_ACTIVE: ("strangeness", "lifetime", "early_strangeness", "discarded"),
    ExperimentKind.PASSIVE_METER: ("strangeness", "lifetime", "discarded"),
    ExperimentKind.PASSIVE_PASSIVE: ("strangeness", "lifetime", "discarded"),
}


def write_scan_csv(path: Union[str, Path], result: ScanResult, tool_version: str) -> None:
    spec = result.spec
    grid = spec.tau_l_grid
    names, columns = zip(("tau_l", np.array(grid)), *result.csv_columns)
    lines = _csv_text(columns)
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
        fh.write(",".join(names) + "\n")
        fh.write(lines)
