"""Seedable Monte Carlo generator of joint decay events for kaon pairs.

Sampling scheme (exact, no grids or rejection loops)
----------------------------------------------------
Summed over decay modes, the joint density of the two decay times contains
no interference term: the semileptonic contributions cancel pairwise, so

    p(t_l, t_r) = (1/2) [ Exp(gamma_s)(t_l) Exp(gamma_l)(t_r)
                        + Exp(gamma_l)(t_l) Exp(gamma_s)(t_r) ].

A pair is therefore drawn by (1) picking one of the two pacing branches
with probability 1/2, (2) drawing each decay time from a truncated
exponential by inverse CDF, and (3) drawing the joint decay-mode cell from
the exact conditional distribution at (t_l, t_r),

    p(f_l, f_r | t_l, t_r) = [ r wS(f_l) wL(f_r) + (1-r) wL(f_l) wS(f_r)
                               - V cos(dm*dt) s(f_l) s(f_r) ] / (gamma_s*gamma_l),

with r = expit((gamma_l-gamma_s)*dt), V the oscillation visibility and
s(f) the per-mode interference weight (nonzero only for semileptonic
modes).  The cells and their weights come from :func:`decay._mode_cells`,
so the sampler draws only cells of nonzero integrated probability.  Every
event consumes exactly four uniform variates.

Determinism
-----------
Events are produced in fixed batches; batch k draws from an independent
counter-based substream ``Philox(key=seed).jumped(k)``.  A worker task
takes ``_TASK`` consecutive batches and makes one kernel call on them.
The output is bit-identical for any number of worker threads and across
runs.

Truncation
----------
Each exponential component is truncated at the horizon where its survival
equals exp(-gamma_s * tau_max), i.e. at tau_max * gamma_s / gamma for a
component of width gamma.  The config validates
exp(-gamma_s * tau_max) < 1e-12, so the discarded mass is negligible.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from concurrent.futures import ThreadPoolExecutor
from typing import Iterator

import numpy as np

from .decay import MODE_ORDER, _mode_cells, integrated_mode_pair_probabilities
from .params import PhysicsParams, check_integer
from .probabilities import _sech
# the benchmark traces ``generator.read_events`` and ``generator.write_events``
# by name (bench/run.py) and calls ``generator.read_events`` (bench/workloads.py)
from .textio import EventSet, read_events, write_events

_BATCH = 1 << 13
#: Consecutive batches that one worker task draws and passes to one kernel
#: call: fewer, longer calls let two threads overlap (README, "The sampling
#: kernel").
_TASK = 4

#: Residual survival probability allowed beyond the truncation horizon.
TRUNCATION_BOUND = 1e-12


@dataclasses.dataclass(frozen=True)
class GeneratorConfig:
    seed: int
    n_pairs: int
    tau_max: float = 50.0

    def __post_init__(self) -> None:
        check_integer("n_pairs", self.n_pairs, 1)
        check_integer("seed", self.seed)
        if not math.isfinite(self.tau_max):
            # JSON, and so the manifest, cannot hold it
            raise ValueError(f"tau_max must be finite, got {self.tau_max}")

    def validate_horizon(self, params: PhysicsParams) -> None:
        loss = math.exp(-params.gamma_s * self.tau_max)
        if not loss < TRUNCATION_BOUND:
            raise ValueError(
                f"tau_max = {self.tau_max} leaves truncated probability mass"
                f" {loss:.3e} >= {TRUNCATION_BOUND}; increase tau_max"
            )
        # the longest horizon, of K_L, in the sampling kernel's order of operations
        if not math.isfinite(self.tau_max * params.gamma_s / params.gamma_l):
            raise ValueError(
                f"tau_max = {self.tau_max} makes the horizon tau_max * gamma_s / gamma_l overflow"
            )


def _truncated_exp(u: np.ndarray, gamma: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Inverse CDF of the exponential of width ``gamma`` truncated where its
    CDF reaches ``mass``, computed in place."""
    tau = np.negative(u)
    tau *= mass
    np.log1p(tau, out=tau)
    np.negative(tau, out=tau)
    tau /= gamma
    return tau


#: Past these pacing exponents ``x = delta_gamma * dt``, scipy's ``expit(x)
#: = 1 / (1 + exp(-x))`` is exactly 1.0 (``exp(-x)`` is below 2**-54 and
#: rounds away against 1) or exactly 0.0 (``exp(-x)`` overflows to inf).
_X_HIGH, _X_LOW = 40.0, -746.0


@functools.lru_cache(maxsize=16)
def _saturated_cells(params: PhysicsParams) -> tuple[float, np.ndarray, np.ndarray]:
    """(T, totals_sl, totals_ls).  The fringe reach is ``T = max (2 /
    |delta_gamma|) ln(64 |m_x| / h)`` over the cells with ``m_x != 0``,
    ``h`` half an ulp of ``0.99 * min(m_sl, m_ls)``: from ``|dt| = T`` on no
    fringe term moves a bit of its row.  It is infinite where ``h`` is 0, a
    subnormal row.  The totals are the running sums of ``m_sl`` and of
    ``m_ls`` over the live cells, in cell order.  Beyond ``T``, a column
    whose ``r`` is exactly 1 has the cell rows ``m_sl`` and so these running
    totals, and one whose ``r`` is exactly 0 those of ``m_ls`` (see
    :func:`sampling_kernel`).  Built once per parameter set and read-only,
    as :func:`decay._mode_cells` is."""
    _, _, m_sl, m_ls, m_x = _mode_cells(params)
    reach = 0.0
    for sl, ls, x in zip(m_sl.tolist(), m_ls.tolist(), m_x.tolist()):
        if x != 0.0:
            half_ulp = 0.5 * math.ulp(0.99 * min(sl, ls))
            reach = max(reach, (2.0 / abs(params.delta_gamma) * math.log(64.0 * abs(x) / half_ulp)
                                if half_ulp else math.inf))
    totals = np.cumsum(m_sl), np.cumsum(m_ls)
    for running in totals:
        running.setflags(write=False)
    return reach, *totals


def _draw_cells(x: np.ndarray, u3: np.ndarray, near: np.ndarray, dt_near: np.ndarray,
                params: PhysicsParams) -> np.ndarray:
    """The live-cell index of each column, drawn from its cell rows with the
    target ``u3 * total``.  ``x`` is the pacing exponent, which ``r``
    overwrites, ``near`` the indices of the columns within the fringe reach
    and ``dt_near`` their time differences, which the fringe overwrites."""
    from scipy.special import expit

    _, _, m_sl, m_ls, m_x = _mode_cells(params)
    w_sl, w_ls, w_x = m_sl.tolist(), m_ls.tolist(), m_x.tolist()
    fringe = _sech(0.5 * params.delta_gamma * dt_near) * np.cos(params.delta_m * dt_near)
    r = expit(x, out=x)
    one_minus_r = 1.0 - r

    # every product goes to ``term``: no row allocates a temporary
    term = np.empty_like(r)
    kept = {}
    for j in range(len(w_sl)):
        if w_x[j] != 0.0 or (w_sl[j] != 0.0 and w_ls[j] != 0.0):
            row = kept[j] = np.multiply(w_sl[j], r)
            np.add(row, np.multiply(w_ls[j], one_minus_r, out=term), out=row)
        if w_x[j] != 0.0:
            row = kept[j][near]
            np.subtract(row, np.multiply(w_x[j], fringe, out=dt_near), out=row)
            np.maximum(row, 0.0, out=row)  # what np.clip(row, 0.0, None) calls
            kept[j][near] = row

    def cell_rows() -> Iterator[np.ndarray]:
        for j in range(len(w_sl)):
            if j in kept:
                yield kept[j]
            elif w_ls[j] == 0.0:
                yield np.multiply(w_sl[j], r, out=term)
            else:
                yield np.multiply(w_ls[j], one_minus_r, out=term)

    # The totals start at +0: +0 + p is p for every row, as rows are >= +0.
    target = np.zeros_like(r)
    for row in cell_rows():
        np.add(target, row, out=target)
    np.multiply(u3, target, out=target)
    # among the live cells only: a target of exactly 0 picks the first one
    pick = np.zeros(r.size, np.uint8)
    below = np.empty(r.size, bool)
    running = np.zeros_like(r)
    for _, row in zip(range(len(w_sl) - 1), cell_rows()):
        pick += np.less(np.add(running, row, out=running), target, out=below)
    return pick


def sampling_kernel(
    u: np.ndarray, params: PhysicsParams, tau_max: float = GeneratorConfig.tau_max
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Map uniform variates to exact joint decay draws.

    ``u`` has shape (4, n): pacing branch, left time, right time, mode
    cell.  Returns (tau_l, mode_l, tau_r, mode_r) with public mode codes.
    One call is one exact draw per column from the truncated joint decay
    density; no rejection, no grids.  Each column's draw depends on that
    column alone, so one call on concatenated batches gives the bytes of
    one call per batch.

    The mode cell is drawn one cell row at a time.  Each cell gets the
    IEEE operations of ``r*m_sl + (1-r)*m_ls - fringe*m_x``, a clip at 0
    and a running sum over the live cells, in that order, so the draws are
    bit for bit those of the broadcast (n, cells) form with
    ``np.cumsum(axis=1)``; a matmul, einsum or reordered sum would round
    differently.  The running sum is taken twice, for the total and then
    for the count of totals below ``u3 * total``; only the rows of two
    products are kept between the passes.  Work that cannot change a bit
    is skipped (README, "The sampling kernel"):

    * a product with a weight of exactly 0 is ``+0``, and ``x + 0.0`` is
      ``x`` for ``x >= +0``; where ``m_x == 0`` the fringe is ±0 and the
      clip of non-negative products returns them;
    * the inert fringe: an SL×SL row is above ``0.99 * min(m_sl, m_ls)``
      and the fringe term is at most ``2 |m_x| exp(-|delta_gamma| |dt| /
      2)``, so from ``|dt| = T`` on, the reach that :func:`_saturated_cells`
      computes, it is below a thirty-second of ``h``, half an ulp of that
      bound, and rounds away: the fringe runs only where ``|dt| < T``.  ``exp`` and ``cos`` give
      an element the same bits on a subset as on the whole array;
    * saturated pacing: from ``|dt| = T`` on, a column with ``x =
      delta_gamma * dt > 40`` has ``r`` exactly 1 and ``1 - r`` +0, so its
      rows are exactly ``m_sl``; one with ``x < -746`` has ``r`` exactly 0,
      so its rows are exactly ``m_ls``.  Such a column builds no row: its
      cell is the count of the fixed running totals of
      :func:`_saturated_cells` below ``u3 * total``.  The other columns
      are gathered and drawn row by row;
    * horizons and truncation masses are computed on the two widths;
    * the last total is never below ``u3 * total`` (``u3 < 1``), so the
      count over all but the last cell is the count clipped to the cells.

    ``expit`` stays scipy's: NumPy's own ``exp`` rounds differently on
    AVX-512 hosts.  scipy is imported by :func:`_draw_cells`, not with the
    package, so the closed forms never load it.
    """
    gs = params.gamma_s
    # the left kaon's width and mass, at 1 where it is the S-paced one
    gammas = np.array([params.gamma_l, gs])
    masses = -np.expm1(-gammas * (tau_max * gs / gammas))
    s_paced_left = (u[0] < 0.5).astype(np.intp)
    tau_l = _truncated_exp(u[1], gammas.take(s_paced_left), masses.take(s_paced_left))
    tau_r = _truncated_exp(u[2], gammas[::-1].take(s_paced_left), masses[::-1].take(s_paced_left))

    code_l, code_r = _mode_cells(params)[:2]
    reach, totals_sl, totals_ls = _saturated_cells(params)
    dt = tau_l - tau_r
    near = np.abs(dt) < reach
    dt_near = dt.take(np.flatnonzero(near))
    x = np.multiply(params.delta_gamma, dt, out=dt)
    far = ~near
    high = (x > _X_HIGH) & far
    low = (x < _X_LOW) & far
    # every near column is in the rest, in order, so dt_near is theirs
    rest = np.flatnonzero(~(high | low))
    pick = np.empty(x.size, np.uint8)
    pick[rest] = _draw_cells(x.take(rest), u[3].take(rest), np.flatnonzero(near.take(rest)),
                             dt_near, params)
    for cols, totals in ((np.flatnonzero(high), totals_sl), (np.flatnonzero(low), totals_ls)):
        target = np.multiply(u[3].take(cols), totals[-1])
        pick[cols] = np.add.reduce(np.less.outer(totals[:-1], target), axis=0, dtype=np.uint8)
    return tau_l, code_l.take(pick), tau_r, code_r.take(pick)


def generate(
    config: GeneratorConfig, params: PhysicsParams, threads: int = 1
) -> EventSet:
    """Produce exactly ``config.n_pairs`` joint decay events.

    The event stream is a pure function of (seed, n_pairs, tau_max, params)
    regardless of ``threads``.  Batch k of ``_BATCH`` pairs draws its
    uniforms from its own substream; a task concatenates ``_TASK``
    consecutive batches, calls the kernel once and writes its slice of the
    four output columns, which are allocated once.
    """
    check_integer("threads", threads, 1)
    config.validate_horizon(params)
    # the kernel's first import of scipy, made on the calling thread: made
    # in a pool worker, it left the events_file bench's peak RSS about
    # 0.5 MB higher (median of 6 runs)
    import scipy.special
    n = config.n_pairs
    tau_l, tau_r = np.empty(n), np.empty(n)
    mode_l, mode_r = np.empty(n, np.int8), np.empty(n, np.int8)
    span = _TASK * _BATCH

    def run(start: int) -> None:
        stop = min(start + span, n)
        u = np.empty((4, stop - start))
        for lo in range(0, stop - start, _BATCH):
            hi = min(lo + _BATCH, stop - start)
            batch = (start + lo) // _BATCH
            rng = np.random.Generator(np.random.Philox(key=config.seed).jumped(batch))
            u[:, lo:hi] = rng.random((4, hi - lo))
        (tau_l[start:stop], mode_l[start:stop], tau_r[start:stop],
         mode_r[start:stop]) = sampling_kernel(u, params, config.tau_max)

    # wherever an interrupt lands, ``map``'s submit loop included, the tasks
    # not yet started are cancelled, and only those already running finish
    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        list(pool.map(run, range(0, n, span)))
    finally:
        pool.shutdown(cancel_futures=True)

    return EventSet(
        tau_l=tau_l,
        mode_l=mode_l,
        tau_r=tau_r,
        mode_r=mode_r,
        seed=config.seed,
        tau_max=config.tau_max,
        params_digest=params.digest(),
    )


# --------------------------------------------------------------------------
# Goodness of fit
# --------------------------------------------------------------------------


#: Expected count below which :func:`mode_pair_chi2` pools a cell.
MIN_EXPECTED = 5.0


def mode_pair_chi2(events: EventSet, params: PhysicsParams) -> tuple[float, int, float]:
    """Chi-square of observed (mode_l, mode_r) counts vs the exact rates.

    Cells with expected counts below ``MIN_EXPECTED`` are pooled.  Returns
    (statistic, dof, p_value); any event in a structurally forbidden cell
    (expected exactly 0) yields p_value 0, and fewer than two cells (dof 0)
    p_value NaN.  Any ``params`` are taken: the statistic is no table labelled
    with them, and testing against shifted ones is how its power is measured.
    """
    from scipy.special import chdtrc

    n_modes = len(MODE_ORDER)
    counts = np.bincount(
        events.mode_l.astype(np.intp) * n_modes + events.mode_r, minlength=n_modes * n_modes
    ).reshape(n_modes, n_modes)
    expected = events.n * integrated_mode_pair_probabilities(params)
    if np.any(counts[expected == 0.0] > 0):
        return float("inf"), 0, 0.0
    keep = expected >= MIN_EXPECTED
    obs_cells = list(counts[keep])
    exp_cells = list(expected[keep])
    pooled = (~keep) & (expected > 0.0)
    if pooled.any():
        obs_cells.append(counts[pooled].sum())
        exp_cells.append(expected[pooled].sum())
    obs = np.asarray(obs_cells)
    exp = np.asarray(exp_cells)
    stat = float(((obs - exp) ** 2 / exp).sum())
    dof = max(len(obs) - 1, 0)  # no events: no cell
    # the chi-square tail; chdtrc reads 0 where it is undefined, at dof < 1
    p_value = float(chdtrc(dof, stat)) if dof >= 1 else math.nan
    return stat, dof, p_value
