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

import contextlib
import dataclasses
import functools
import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Optional, TextIO, Union

import numpy as np
from scipy.special import chdtrc, expit

from .decay import MODE_ORDER, _mode_cells, integrated_mode_pair_probabilities
from .params import PhysicsParams, check_integer
from .probabilities import _sech

EVENT_SCHEMA_VERSION = 1
_BATCH = 1 << 13
#: Consecutive batches that one worker task draws and passes to one kernel
#: call: fewer, longer calls let two threads overlap (README, "The sampling
#: kernel").
_TASK = 4

#: Residual survival probability allowed beyond the truncation horizon.
TRUNCATION_BOUND = 1e-12


class EventFormatError(ValueError):
    """An event file does not follow the documented schema."""


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


@dataclasses.dataclass(frozen=True)
class EventSet:
    """Column-oriented batch of pair events (public decay-mode codes)."""

    tau_l: np.ndarray
    mode_l: np.ndarray
    tau_r: np.ndarray
    mode_r: np.ndarray
    seed: int
    tau_max: float
    params_digest: str

    @property
    def n(self) -> int:
        return self.tau_l.shape[0]


def _truncated_exp(u: np.ndarray, gamma: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Inverse CDF of the exponential of width ``gamma`` truncated where its
    CDF reaches ``mass``, computed in place."""
    tau = np.negative(u)
    tau *= mass
    np.log1p(tau, out=tau)
    np.negative(tau, out=tau)
    tau /= gamma
    return tau


def _fringe_reach(m_sl: Iterable[float], m_ls: Iterable[float], m_x: Iterable[float],
                  delta_gamma: float) -> float:
    """``T = max (2 / |delta_gamma|) ln(64 |m_x| / h)`` over the cells with
    ``m_x != 0``, ``h`` half an ulp of ``0.99 * min(m_sl, m_ls)``: from
    ``|dt| = T`` on no fringe term moves a bit of its row (see
    :func:`sampling_kernel`).  Infinite where ``h`` is 0, a subnormal row."""
    reach = 0.0
    for sl, ls, x in zip(m_sl, m_ls, m_x):
        if x == 0.0:
            continue
        half_ulp = 0.5 * math.ulp(0.99 * min(sl, ls))
        if half_ulp == 0.0:
            return math.inf
        reach = max(reach, 2.0 / abs(delta_gamma) * math.log(64.0 * abs(x) / half_ulp))
    return reach


def sampling_kernel(
    u: np.ndarray, params: PhysicsParams, tau_max: float = 50.0
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
      2)``, so from ``|dt| = T`` of :func:`_fringe_reach` on it is below
      a thirty-second of ``h``, half an ulp of that bound, and rounds away:
      the fringe runs only where ``|dt| < T``.  ``exp`` and ``cos`` give
      an element the same bits on a subset as on the whole array;
    * horizons and truncation masses are computed on the two widths;
    * the last total is never below ``u3 * total`` (``u3 < 1``), so the
      count over all but the last cell is the count clipped to the cells.
    """
    gs = params.gamma_s
    # the left kaon's width and mass, at 1 where it is the S-paced one
    gammas = np.array([params.gamma_l, gs])
    masses = -np.expm1(-gammas * (tau_max * gs / gammas))
    s_paced_left = (u[0] < 0.5).astype(np.intp)
    tau_l = _truncated_exp(u[1], gammas.take(s_paced_left), masses.take(s_paced_left))
    tau_r = _truncated_exp(u[2], gammas[::-1].take(s_paced_left), masses[::-1].take(s_paced_left))

    code_l, code_r, m_sl, m_ls, m_x = _mode_cells(params)
    w_sl, w_ls, w_x = m_sl.tolist(), m_ls.tolist(), m_x.tolist()
    dt = tau_l - tau_r
    near = np.flatnonzero(np.abs(dt) < _fringe_reach(w_sl, w_ls, w_x, params.delta_gamma))
    dt_near = dt[near]
    fringe = _sech(0.5 * params.delta_gamma * dt_near) * np.cos(params.delta_m * dt_near)
    r = expit(np.multiply(params.delta_gamma, dt, out=dt), out=dt)
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
    np.multiply(u[3], target, out=target)
    # among the live cells only: a target of exactly 0 picks the first one
    pick = np.zeros(r.size, np.uint8)
    below = np.empty(r.size, bool)
    running = np.zeros_like(r)
    for _, row in zip(range(len(w_sl) - 1), cell_rows()):
        pick += np.less(np.add(running, row, out=running), target, out=below)
    return tau_l, code_l[pick], tau_r, code_r[pick]


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

    # when a result raises, an interrupt included, ``map`` cancels the tasks
    # not yet started
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(run, range(0, n, span)))

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
# Serialization: one record per line, times with 17 significant digits
# --------------------------------------------------------------------------

_HEADER_COLUMNS = "id,tau_l,mode_l,tau_r,mode_r"
#: The mode names as NUL-padded byte rows, indexed by mode code.
_MODE_BYTES = np.array([m.value.encode() for m in MODE_ORDER])
_MODE_BYTES = _MODE_BYTES.view(np.uint8).reshape(len(MODE_ORDER), -1)


@contextlib.contextmanager
def _atomic_write(path: Union[str, Path]) -> Iterator[TextIO]:
    """A text file that takes the place of ``path`` once it is complete.

    It is written under a temporary name in the same directory and moved
    onto ``path`` with ``os.replace``.  If the writing raises, the
    temporary file is removed and ``path`` is left as it was: absent, or
    the earlier complete file.  No reader ever sees a partial file.  A
    path that exists and is not a regular file, such as ``/dev/stdout``,
    cannot be replaced and is written in place.
    """
    path = Path(path)
    if path.exists() and not path.is_file():
        with open(path, "w") as fh:
            yield fh
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


# --------------------------------------------------------------------------
# Text from byte matrices: ``'%.17g' % x`` and ``'%d' % n`` of whole arrays
# --------------------------------------------------------------------------
#
# A formatter returns one row of ASCII bytes per element, padded with NUL
# bytes anywhere in the row; :func:`_csv_text` picks the formatter of each
# column by its dtype, joins the rows and drops every NUL at once.  The
# formatters and the event reader read their tables from
# :func:`_text_tables`, built on first use.

#: In ``_TextTables.quads``, after the 4-digit groups: a leading digit ``d``
#: as ``b"\0\0\0%d" % d`` at ``_LEAD + d``, and four NULs at ``_NUL4``.
_LEAD, _NUL4 = 10_000, 10_010
#: Fixed notation for -4 <= k < 17, k the decimal exponent after rounding;
#: layout class ``k + 4`` there, and ``_G17_SCI`` in exponent notation.
_G17_FIXED = (-4, 17)
_G17_SCI = _G17_FIXED[1] - _G17_FIXED[0]
#: |x| outside [1e-278, 1e278) takes the fallback: there the power table's
#: low parts and the splits below stay normal and finite.
_G17_RANGE = (1e-278, 1e278)
_G17_K = range(-279, 280)
#: The exponents of the power table: the writer's decades ``10**k`` and
#: scales ``10**(16 - k)`` for k in ``_G17_K``, and the reader's ``10**q``.
_POW_E = range(_G17_K.start, 17 - _G17_K.start)
#: A formatted row: the sign at byte 0, "0." and zeros at 1-5, the digits
#: ahead of the point from 6 on, the point, digit ``i`` after it at
#: ``7 + i``, "e" at 24, the exponent's sign and three digits at 25-28.
_G17_WIDTH = 32


class _TextTables(NamedTuple):
    """The tables of the formatters and of the event reader."""

    #: ``b"%04d" % q`` for q < 10000 as one uint32 each, then ``_LEAD`` and ``_NUL4``.
    quads: np.ndarray
    #: How many of the four digits of q are trailing zeros.
    quad_zeros: np.ndarray
    #: Per ``%.17g`` layout, see :func:`_g17_layouts`.
    g17_head: np.ndarray
    g17_tail: np.ndarray
    g17_marks: np.ndarray
    #: The exponent's sign and digits, per k in ``_G17_K``.
    g17_exponents: np.ndarray
    #: Per e in ``_POW_E``, see :func:`_powers_of_ten`.
    pow_hi: np.ndarray
    pow_hi_h: np.ndarray
    pow_hi_l: np.ndarray
    pow_lo: np.ndarray
    decades: np.ndarray
    #: 10**0 to 10**19; ``powers[1:]``, ``searchsorted`` of a magnitude
    #: counts its digits after the first.  Row ``i`` of ``last_bytes``: 0xFF
    #: over the last ``i`` of 20.
    powers: np.ndarray
    last_bytes: np.ndarray
    #: Per count ``f`` of digits after a point, ``10**(f + 1)`` (1 for none).
    point_scales: np.ndarray
    #: The reader's time-field automaton, see :func:`_time_steps`.
    time_steps: np.ndarray
    #: The reader's mode names, see :func:`_name_tables`.
    name_codes: np.ndarray
    name_masks: np.ndarray
    name_words: np.ndarray


@functools.cache
def _text_tables() -> _TextTables:
    """Every table of the formatters and of the reader, built once, when
    text is first written or read: ``import kaon_eraser`` and the paths that
    write no text do not pay for them.  Every caller shares the arrays, so
    they are read-only."""
    quads = np.zeros((_NUL4 + 1, 4), np.uint8)
    places = np.array([1000, 100, 10, 1], np.uint16)
    quads[:_LEAD] = np.arange(10_000, dtype=np.uint16)[:, None] // places % 10 + ord("0")
    quads[_LEAD:_NUL4, 3] = np.arange(10) + ord("0")
    quad_zeros = sum(np.arange(10_000) % 10**j == 0 for j in range(1, 5)).astype(np.int8)
    exponents = np.array([b"%+04d" % k if abs(k) >= 100 else b"%+03d\0" % k for k in _G17_K])
    powers = np.array([10**j for j in range(20)], np.uint64)
    tables = _TextTables(
        quads.view(np.uint32).ravel(), quad_zeros, *_g17_layouts(),
        exponents.view(np.uint8).reshape(len(_G17_K), 4), *_powers_of_ten(),
        powers, np.tri(21, 20, -1, dtype=np.uint8)[:, ::-1] * 0xFF,
        np.concatenate([powers[:1], powers[2:]]),
        _time_steps(), *_name_tables(),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def _g17_layouts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per layout ``17 * c + s - 1`` (``c`` the layout class, ``s`` the
    significant digits), row masks of the digits ahead of the point and of
    those after it, which keep no trailing zero, and the fixed bytes: "0."
    and its zeros, the point and the "e"."""
    head, tail, marks = (np.zeros(((_G17_SCI + 1) * 17, _G17_WIDTH), np.uint8) for _ in range(3))
    for c in range(_G17_SCI + 1):
        # digits ahead of the point, <= 0 for a fixed x < 1
        whole = c + _G17_FIXED[0] + 1 if c < _G17_SCI else 1
        ahead = max(whole, 0)
        for s in range(1, 18):
            i = 17 * c + s - 1
            head[i, 7 : 7 + ahead] = 0xFF
            tail[i, 7 + ahead : 7 + max(s, whole)] = 0xFF
            if ahead and s > whole:
                marks[i, 6 + ahead] = ord(".")
            if whole <= 0:
                marks[i, 1 : 3 - whole] = np.frombuffer(b"0." + b"0" * -whole, np.uint8)
            if c == _G17_SCI:
                marks[i, 24] = ord("e")
    return tuple(table.view("<u8") for table in (head, tail, marks))


def _powers_of_ten() -> tuple[np.ndarray, ...]:
    """Per e in ``_POW_E``: ``10**e`` as the double-double ``hi + lo``,
    ``hi`` Veltkamp-split into ``hi_h + hi_l``, and the least double that is
    ``>= 10**e``.  Exact: ``hi`` and ``lo`` are quotients of Python
    integers, which ``/`` rounds correctly, ``lo`` that of ``10**e - hi``."""
    hi, lo = [], []
    for e in _POW_E:
        top, bottom = 10 ** max(e, 0), 10 ** max(-e, 0)
        hi.append(top / bottom)
        m, d = hi[-1].as_integer_ratio()
        lo.append((top * d - m * bottom) / (bottom * d))
    hi, lo = np.array(hi), np.array(lo)
    hi_h, hi_l = _split(hi)
    # ``lo > 0`` where the nearest double lies below the power
    least = np.where(lo > 0.0, np.nextafter(hi, np.inf), hi)
    return hi, hi_h, hi_l, lo, least


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of ``a`` into two 26-bit halves, ``a = high + low``."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _times_power(a: np.ndarray, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**e``, e the power table's exponent at ``row``, as the
    double-double ``p + r``: ``p = a * hi`` rounded, and ``r`` its error by
    Dekker's two-product (exact, through the splits of ``a`` and ``hi``)
    plus ``a * lo``."""
    t = _text_tables()
    hi_h, hi_l, lo = t.pow_hi_h.take(row), t.pow_hi_l.take(row), t.pow_lo.take(row)
    p = a * t.pow_hi.take(row)
    a_h, a_l = _split(a)
    r = ((a_h * hi_h - p) + a_h * hi_l + a_l * hi_h) + a_l * hi_l + a * lo
    return p, r


def _g17_decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``|x| = D * 10**(k - 16)``, ``D`` the 17-digit integer it rounds to:
    ``D``, ``k`` and where ``'%.17g' % x`` itself must be taken.

    ``k`` is ``floor(log10 |x|)`` corrected against the exact decade table
    on either side, and ``|x| * 10**(16 - k)`` is taken exactly as the
    double-double ``p + r`` by :func:`_times_power`: ``p`` is an integer (it
    is above 2**53) and ``|r|`` is below 32.  ``D`` rounds ``r`` to
    nearest; a ``D`` of 10**17 is 10**16 in the next decade.  ``r`` is off
    by less than 1e-14, so where its fraction is within 2**-30 of 1/2, a
    possible tie, the element takes the fallback, as do zero, non-finite
    and subnormal values and those outside ``_G17_RANGE``: their ``D`` and
    ``k`` are those of 1.
    """
    decades = _text_tables().decades
    a = np.abs(x)
    fallback = ~((a >= _G17_RANGE[0]) & (a < _G17_RANGE[1]))
    a[fallback] = 1.0
    # the table row of 10**k, and the row of 10**(16 - k) is its mirror
    row = np.floor(np.log10(a)).astype(np.intp) - _POW_E.start
    row -= a < decades.take(row)
    row += a >= decades.take(row + 1)

    p, r = _times_power(a, (16 - 2 * _POW_E.start) - row)
    whole = np.floor(r)
    r -= whole
    fallback |= np.abs(r - 0.5) < 2.0**-30
    digits17 = p.astype(np.int64) + whole.astype(np.int64) + (r > 0.5)
    carry = digits17 == 10**17
    digits17[carry] = 10**16
    return digits17, row + carry + _POW_E.start, fallback


#: Elements per pass of :func:`_g17_bytes`: its temporaries, at most 32
#: bytes an element, stay below glibc's ``mmap`` threshold (see
#: ``_TEXT_BLOCK``).  Whole-array passes over a 2681-row scan's 16,086
#: floats left ``analytic_grid``'s peak RSS 1-2 MB higher.
_G17_PASS = 2048


def _g17_bytes(values: np.ndarray) -> np.ndarray:
    """``'%.17g' % x`` of every element, as NUL-padded rows of ASCII bytes,
    ``_G17_PASS`` elements at a time."""
    x = np.asarray(values, dtype=np.float64).ravel()
    out = np.empty((x.size, _G17_WIDTH), np.uint8)
    for start in range(0, x.size, _G17_PASS):
        out[start : start + _G17_PASS] = _g17_rows(x[start : start + _G17_PASS])
    return out


def _g17_rows(x: np.ndarray) -> np.ndarray:
    """The rows of :func:`_g17_bytes`.  The digits of :func:`_g17_decimal`
    take ``%g``'s layout: fixed notation for ``_G17_FIXED``, else
    ``d.ddde±XX``; trailing zeros of the fraction, and a bare point,
    dropped.  Zero is laid out as 1 with its digit replaced; the other
    fallback elements are formatted one by one."""
    t = _text_tables()
    digits17, k, fallback = _g17_decimal(x)

    # D as a leading digit and four quads of ASCII digits at bytes 7-23
    upper = digits17 // 10**8
    lower = digits17 - upper * 10**8
    lead = upper // 10**8
    upper -= lead * 10**8
    quads = [upper // 10**4, upper % 10**4, lower // 10**4, lower % 10**4]
    digits = np.zeros((x.size, _G17_WIDTH // 4), np.uint32)
    digits[:, 1] = t.quads.take(lead + _LEAD)
    for column, quad in enumerate(quads, start=2):
        digits[:, column] = t.quads.take(quad)
    trailing = t.quad_zeros.take(quads[0])
    for quad in quads[1:]:
        trailing = np.where(quad == 0, trailing + 4, t.quad_zeros.take(quad))

    # %g's layout: the digits ahead of the point move one byte to the left
    fixed = (k >= _G17_FIXED[0]) & (k < _G17_FIXED[1])
    layout = np.where(fixed, k - _G17_FIXED[0], _G17_SCI) * 17 + (16 - trailing)
    digits = digits.view("<u8")
    head = (digits & t.g17_head.take(layout, axis=0)).ravel()
    digits &= t.g17_tail.take(layout, axis=0)
    digits |= t.g17_marks.take(layout, axis=0)
    words = digits.ravel()  # a row's first byte is NUL in ``head``
    words |= head >> 8
    words[:-1] |= head[1:] << 56
    out = digits.view(np.uint8)
    out[:, 0] = np.signbit(x) * ord("-")
    sci = np.flatnonzero(~fixed)
    out[sci, 25:29] = t.g17_exponents.take(k[sci] - _G17_K.start, axis=0)
    zero = x == 0.0
    out[zero, 6] = ord("0")
    if fallback.any():
        rows = np.flatnonzero(fallback & ~zero)
        out[rows] = np.array(
            ["%.17g" % v for v in x[rows].tolist()], dtype=f"S{_G17_WIDTH}"
        ).view(np.uint8).reshape(-1, _G17_WIDTH)
    return out


def _d_bytes(values: np.ndarray) -> np.ndarray:
    """``'%d' % n`` of every element, as NUL-padded rows of ASCII bytes."""
    t = _text_tables()
    n = np.asarray(values, dtype=np.int64).ravel()
    magnitude = np.abs(n).view(np.uint64)  # -2**63 is 2**63
    digits = np.searchsorted(t.powers[1:], magnitude, side="right") + 1
    width = -(-int(digits.max(initial=1)) // 4)  # in quads
    quads = np.empty((n.size, width), np.uint32)
    for q in range(width - 1, 0, -1):
        rest = magnitude // 10_000
        quads[:, q] = t.quads.take(magnitude - rest * 10_000)
        magnitude = rest
    quads[:, 0] = t.quads.take(magnitude)
    text = quads.view(np.uint8)
    text &= t.last_bytes[:, 20 - 4 * width :].take(digits, axis=0)
    if not (n < 0).any():
        return text
    return np.hstack([(np.signbit(n) * ord("-")).astype(np.uint8)[:, None], text])


#: Bytes of one block of :func:`_csv_text`, below glibc's default ``mmap``
#: threshold of 128 KiB.  glibc raises that threshold to the size of each
#: ``mmap``-served block it frees; with 256 KiB blocks, the event reader that
#: ran next in the same process grew its peak RSS by 10 MB.
_TEXT_BLOCK = 1 << 16


def _csv_text(columns: list[np.ndarray]) -> str:
    """One line per element of the equal-length ``columns``, their fields
    joined by commas.  A column prints by its dtype: a float array as
    ``'%.17g' % x``, an integer or bool array as ``'%d' % n``, and a 2-D
    uint8 matrix, NUL-padded bytes per row, as is.  Each distinct array is
    formatted once, by one call per formatter on the concatenation of every
    array it formats; every NUL byte is then dropped by one ``lines[lines
    != 0]`` per block of rows."""
    by_format = {}
    for column in columns:
        if column.ndim == 1:
            fmt = _g17_bytes if column.dtype.kind == "f" else _d_bytes
            by_format.setdefault(fmt, {})[id(column)] = column
    rows = {}
    for fmt, arrays in by_format.items():
        text = fmt(np.concatenate(list(arrays.values())))
        rows.update(zip(arrays, np.split(text, len(arrays))))
    fields = [rows.get(id(column), column) for column in columns]

    widths = [field.shape[1] + 1 for field in fields]
    n = fields[0].shape[0]
    step = max(_TEXT_BLOCK // sum(widths), 1)
    lines = np.empty((min(step, n), sum(widths)), np.uint8)
    text = []
    for start in range(0, n, step):
        block = lines[: min(step, n - start)]
        stop = 0
        for field, width in zip(fields, widths):
            block[:, stop : stop + width - 1] = field[start : start + step]
            stop += width
            block[:, stop - 1] = ord(",")
        block[:, -1] = ord("\n")
        text.append(block[block != 0].tobytes())
    return b"".join(text).decode("ascii")


def _event_lines(start: int, tau_l, mode_l, tau_r, mode_r) -> str:
    """The lines of the records from id ``start`` on, one per element of the columns."""
    ids = np.arange(start, start + len(tau_l))
    return _csv_text([ids, tau_l, _MODE_BYTES.take(mode_l, axis=0),
                      tau_r, _MODE_BYTES.take(mode_r, axis=0)])


def write_events(path: Union[str, Path], events: EventSet) -> None:
    """One line per event, formatted and written ``_BATCH`` rows at a time."""
    with _atomic_write(path) as fh:
        fh.write(f"# kaon-eraser events v{EVENT_SCHEMA_VERSION}\n")
        fh.write(
            f"# seed={events.seed} n_pairs={events.n} tau_max={events.tau_max:.17g}"
            f" params_digest={events.params_digest}\n"
        )
        fh.write(_HEADER_COLUMNS + "\n")
        for start in range(0, events.n, _BATCH):
            chunk = slice(start, start + _BATCH)
            fh.write(_event_lines(start, events.tau_l[chunk], events.mode_l[chunk],
                                  events.tau_r[chunk], events.mode_r[chunk]))


# --------------------------------------------------------------------------
# Reading: blocks of whole lines, parsed as byte matrices
# --------------------------------------------------------------------------
#
# A record is what :func:`_fast_records` reads: the writer's grammar.  Its
# fields are gathered into byte matrices and read by sweeps over their
# columns.  A block it refuses is halved until the line at fault is found
# (:func:`_bad_line`).

#: Bytes per read; a block ends at its last newline, and the rest of the
#: read starts the next one.  256 KiB and 4 MiB blocks were slower.
_READ_BLOCK = 1 << 20
#: Lines per pass of :func:`_fast_records` over the time and name fields:
#: its byte matrices then stay near glibc's ``mmap`` threshold (see
#: ``_TEXT_BLOCK``); whole-block passes raised the reader's peak RSS.
_READ_PASS = 1 << 13
#: Put on both sides of a block, so that every window over it stays inside;
#: above ``","`` in ASCII, so the separator scan passes over it.
_PAD = b"_" * 32
#: Bytes of the shortest record line the writer writes, ``0,0,Other,0,Other``.
_SHORTEST_RECORD = 18
#: The separators of one record, in order.
_SEPARATORS = np.frombuffer(b",,,,\n", np.uint8)
#: States of the automaton of :func:`_time_steps`.  It accepts in the first
#: four: the mantissa digits lead to ``_INT`` or ``_FRAC``, and a field with
#: a 2- or 3-digit exponent ends in ``_EXP2`` or ``_EXP3``.
(_INT, _FRAC, _EXP2, _EXP3, _START, _SIGN, _POINT, _E, _E_SIGN, _EXP1, _BAD) = range(11)
#: The longest time field the writer writes, as ``-1.2345678901234567e-308``.
_TIME_FIELD = 24


def _time_steps() -> np.ndarray:
    """The automaton that reads a time field, ``-?D+(.D+)?(e[+-]DD D?)?``
    (the grammar of ``'%.17g'`` on finite values), after the NUL bytes
    that align it on the right: at ``state << 8 | byte``, the next state
    shifted left by 8."""
    steps = np.full((16, 256), _BAD, np.uint16)
    digits = b"0123456789"
    for state, chars, target in [
        (_START, b"\0", _START), (_START, b"-", _SIGN), (_START, digits, _INT),
        (_SIGN, digits, _INT), (_INT, digits, _INT), (_INT, b".", _POINT),
        (_POINT, digits, _FRAC), (_FRAC, digits, _FRAC), (_INT, b"e", _E), (_FRAC, b"e", _E),
        (_E, b"+-", _E_SIGN), (_E_SIGN, digits, _EXP1), (_EXP1, digits, _EXP2),
        (_EXP2, digits, _EXP3),
    ]:
        steps[state, list(chars)] = target
    return (steps << 8).ravel()


def _name_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mode code per ``min(length, 18) * 256 + first byte`` of a name
    field (-1 where no name has them), and per code, as three little-endian
    words, a mask over the name's bytes and the name.  Row -1 masks all and
    matches nothing."""
    codes = np.full((19, 256), -1, np.int8)
    names = np.zeros((len(MODE_ORDER) + 1, 24), np.uint8)
    names[:-1, : _MODE_BYTES.shape[1]] = _MODE_BYTES
    for code, mode in enumerate(MODE_ORDER):
        codes[len(mode.value), ord(mode.value[0])] = code
    masks = (names != 0) * np.uint8(0xFF)
    names[-1] = 0xFF
    return codes.ravel(), masks.view("<u8"), names.view("<u8")


def _line_blocks(fh: BinaryIO) -> Iterator[bytes]:
    """The bytes of ``fh`` in blocks of whole lines, about ``_READ_BLOCK``
    each, every line ended by LF.  Lines end where text mode ends them: a
    CR LF or a CR is turned into one LF, and a last line without its end
    gets one.  A block that is not UTF-8 text raises as it is cut: no line
    end is inside a character, so the blocks are UTF-8 if the file is."""
    carry = b""
    while (chunk := fh.read(_READ_BLOCK)) or carry:
        chunk = carry + (chunk or b"\n")
        # a CR at the end of a read may be the first half of a CR LF
        held = chunk.endswith(b"\r")
        if b"\r" in chunk:  # a search for CR LF alone costs more than this test
            chunk = chunk[: len(chunk) - held].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        end = chunk.rfind(b"\n") + 1
        if end:
            block = chunk[:end]
            if not block.isascii():
                try:
                    block.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise EventFormatError(f"the file is not UTF-8 text: {exc.reason}") from exc
            yield block
        carry = chunk[end:] + b"\r" * held


def _windows(buf: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes of ``buf`` from each of ``starts``, one row each.
    One gather of ``width``-byte items: three times faster than indexing a
    ``sliding_window_view`` of ``buf``."""
    items = np.ndarray((buf.size - width + 1,), f"V{width}", buf, strides=(1,))
    return items[starts].view(np.uint8).reshape(starts.size, width)


def _right_aligned(buf: np.ndarray, ends: np.ndarray, widths: np.ndarray,
                   width: int) -> np.ndarray:
    """The bytes of the fields of ``widths`` that end at ``ends``, aligned
    on the right in ``width`` columns, NUL ahead of each field: row ``c`` of
    the result is column ``c``."""
    columns = _windows(buf, ends - width, width).T.copy()
    columns *= np.arange(width)[:, None] >= width - widths
    return columns


def _horner(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column of ``values`` (one row per digit place, the last the
    units), the uint64 ``sum(values[c] * 10**(last - c))`` by Horner's rule,
    and where the sum reached 10**18, past which it may have wrapped."""
    total = np.zeros(values.shape[1], np.uint64)
    big = np.zeros(values.shape[1], bool)
    for c, place in enumerate(values):
        total *= 10
        total += place
        if c >= 18:  # fewer places cannot reach 10**18
            big |= total >= 10**18
    return total, big


def _read_ids(buf: np.ndarray, ends: np.ndarray, widths: np.ndarray) -> Optional[np.ndarray]:
    """The ids that end at ``ends``; None unless every id is 1 to 18 ASCII digits."""
    width = int(widths.max())
    if widths.min() < 1 or width > 18:
        return None
    columns = _right_aligned(buf, ends, widths, width)
    values = columns - ord("0")
    if ((values > 9) & (columns != 0)).any():
        return None
    values *= columns != 0
    return _horner(values)[0].astype(np.int64)


def _mantissas(columns: np.ndarray, after_point: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integer ``D`` of the digits in mantissa ``columns`` (aligned on
    the right, as :func:`_right_aligned` gives them) with ``after_point``
    digits after the point, and where ``D`` has more than 17 digits.

    Horner's rule runs over every column, the point and the sign read as a
    0 digit: that gives ``D_int * 10**(f + 1) + D_frac`` for ``f`` digits
    after the point, so the point is then taken out by one ``divmod``.
    """
    values = columns - ord("0")
    values *= values <= 9
    total, too_long = _horner(values)
    f = np.minimum(after_point, 18)  # with f > 17, D_int is 0 or D too long
    t = _text_tables()
    whole, fraction = np.divmod(total, t.point_scales.take(f))
    digits = whole * t.powers.take(f) + fraction
    too_long |= digits >= 10**17
    return digits.astype(np.int64), too_long


def _read_times(buf: np.ndarray, starts: np.ndarray,
                widths: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The time fields at ``starts``, and which of them ``float()`` read;
    None unless every field is in the grammar of :func:`_time_steps` with
    at most 17 significant digits.

    The automaton runs over the columns of the fields' bytes, aligned on
    the right, and counts the digits after the point.  The mantissas' digits
    ``D`` are read by :func:`_mantissas`: of all fields at once, and again,
    aligned on the ``e``, for the few that have an exponent, whose value is
    read off their last bytes.  :func:`_from_decimal` then makes ``D *
    10**q`` a double.
    """
    width = int(widths.max())
    if width > _TIME_FIELD:
        return None
    steps = _text_tables().time_steps
    ends = starts + widths
    columns = _right_aligned(buf, ends, widths, width)
    state = np.full(starts.size, _START << 8, np.uint16)
    after_point = np.zeros(starts.size, np.uint8)
    for column in columns:
        steps.take(state | column, out=state, mode="clip")
        after_point += state == _FRAC << 8
    state >>= 8
    if (state > _EXP3).any():
        return None
    digits, too_long = _mantissas(columns, after_point)

    exp10 = -after_point.astype(np.int64)
    tagged = np.flatnonzero(state >= _EXP2)
    if tagged.size:
        # the exponent's last three bytes, the first of them its sign if it has two digits
        three = state[tagged] == _EXP3
        last = buf[ends[tagged, None] - np.arange(3, 0, -1)].astype(np.int64) - ord("0")
        value = 10 * last[:, 1] + last[:, 2] + 100 * three * last[:, 0]
        exp10[tagged] += np.where(buf[ends[tagged] - 3 - three] == ord("-"), -value, value)
        e = ends[tagged] - 4 - three
        mantissa = e - starts[tagged]
        digits[tagged], too_long[tagged] = _mantissas(
            _right_aligned(buf, e, mantissa, int(mantissa.max())), after_point[tagged]
        )
    if too_long.any():
        return None
    x, fallback = _from_decimal(digits, exp10)
    np.negative(x, out=x, where=buf.take(starts) == ord("-"))
    for i in np.flatnonzero(fallback).tolist():
        x[i] = float(buf[starts[i] : ends[i]].tobytes())
    return x, fallback


def _from_decimal(digits: np.ndarray, exp10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``digits * 10**exp10`` rounded to the nearest double, for ``0 <= digits
    < 10**17``, and where ``float()`` of the field must be taken instead.

    ``digits`` is the double ``a`` plus the integer rest ``a_lo``;
    :func:`_times_power` gives ``a * 10**exp10`` as ``p + r``, and ``r``
    takes ``a_lo * hi`` too.  ``p + r`` is then off by less than 2**-100 of
    the value, far below an ulp, so ``x``, ``p + r`` rounded, is the nearest
    double unless a midpoint between two doubles lies within 2**-29 of the
    rest ``x - (p + r)``: where ``x`` plus the rest scaled by ``1 ± 2**-29``
    rounds two ways, the element takes the fallback.  So do exponents
    outside [-278, 260], where a value could leave [1e-278, 1e278) and a
    term the normal range.
    """
    inside = (exp10 >= -278) & (exp10 <= 260)
    row = np.where(inside, exp10 - _POW_E.start, 0)
    a = digits.astype(np.float64)
    p, r = _times_power(a, row)
    r += (digits - a.astype(np.int64)).astype(np.float64) * _text_tables().pow_hi.take(row)
    x = p + r
    rest = (p - x) + r  # p and x are within a factor 2: ``p - x`` is exact
    near = (x + rest * (1 + 2.0**-29)) != (x + rest * (1 - 2.0**-29))
    return x, ~inside | near


def _read_names(buf: np.ndarray, starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """The mode codes of the name fields at ``starts``, -1 where a field is
    no name.  A field's length and first byte give the one name it can be,
    and its bytes are then compared with that name's."""
    t = _text_tables()
    codes = t.name_codes.take(np.minimum(widths, 18) * 256 + buf.take(starts))
    words = _windows(buf, starts, 24).view("<u8")
    differ = (words & t.name_masks.take(codes, axis=0)) ^ t.name_words.take(codes, axis=0)
    return np.where((differ[:, 0] | differ[:, 1] | differ[:, 2]) == 0, codes, -1)


def _fast_records(block: bytes) -> Optional[tuple[np.ndarray, ...]]:
    """The id, tau_l, mode_l, tau_r and mode_r columns of a block of whole
    lines as the writer writes them, or None where a line holds anything
    else.  A block is refused exactly when one of its lines would be on its
    own, which :func:`_bad_line` relies on.

    One scan finds every byte at or below ``","``: they must be the four
    commas and the newline of each line, so a NUL, a space, a blank line
    or a wrong field count is refused.  They give each field's start
    and width.  The ids are read for the whole block at once, the time and
    name fields ``_READ_PASS`` lines at a time.  A name that is no mode's
    gets code -1.
    """
    if not block.endswith(b"\n"):
        return None
    buf = np.frombuffer(_PAD + block + _PAD, np.uint8)
    ends = np.flatnonzero(buf <= ord(","))
    kinds = buf.take(ends)
    exponent_signs = kinds == ord("+")
    if exponent_signs.any():
        ends, kinds = ends[~exponent_signs], kinds[~exponent_signs]
    if kinds.size % 5 or not (kinds.reshape(-1, 5) == _SEPARATORS).all():
        return None
    ends = ends.reshape(-1, 5)
    n = ends.shape[0]
    starts = np.empty_like(ends)
    starts[0, 0] = len(_PAD)
    starts[1:, 0] = ends[:-1, 4] + 1
    starts[:, 1:] = ends[:, :4] + 1
    widths = ends - starts
    ids = _read_ids(buf, ends[:, 0], widths[:, 0])
    if ids is None:
        return None
    columns = [ids, np.empty(n), np.empty(n, np.int8), np.empty(n), np.empty(n, np.int8)]
    for lo in range(0, n, _READ_PASS):
        rows = slice(lo, lo + _READ_PASS)
        for time in (1, 3):
            read = _read_times(buf, starts[rows, time], widths[rows, time])
            if read is None:
                return None
            columns[time][rows] = read[0]
            columns[time + 1][rows] = _read_names(buf, starts[rows, time + 1],
                                                  widths[rows, time + 1])
    return tuple(columns)


def _bad_line(block: bytes, line: int) -> EventFormatError:
    """The error naming the first line of ``block``, line ``line`` of the
    file, that :func:`_fast_records` refuses, once it has refused the block.

    The lines are halved until one is left: the first half if it is
    refused, the second if not.  That line gets one of two messages, the
    one for a wrong field count or the one for a line that does not parse.
    """
    bounds = [0, *(np.flatnonzero(np.frombuffer(block, np.uint8) == ord("\n")) + 1).tolist()]
    lo, hi = 0, len(bounds) - 1  # lines lo to hi - 1 hold the first bad line
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _fast_records(block[bounds[lo] : bounds[mid]]) is None:
            hi = mid
        else:
            lo = mid
    record = block[bounds[lo] : bounds[hi] - 1].decode()
    n_fields = record.count(",") + 1
    if n_fields != len(_SEPARATORS):
        return EventFormatError(
            f"line {line + lo}: expected {len(_SEPARATORS)} fields, got {n_fields}"
        )
    return EventFormatError(f"line {line + lo}: {record!r} does not parse")


def _read_records(blocks: Iterable[bytes], line: int,
                  capacity: int) -> tuple[Optional[tuple[int, int]], list[np.ndarray]]:
    """The records in ``blocks``, whose first line is line ``line`` of the
    file: the position and id of the first record whose id is not its
    position (None if there is none), then the tau_l, mode_l, tau_r and
    mode_r columns.

    Each block goes through :func:`_fast_records`; :func:`_bad_line` names
    the first bad line of a block that it refuses.  The ids are checked
    block by block and not kept.  The columns are allocated once for
    ``capacity`` records and doubled if more come, so the blocks' own arrays
    do not outlive them.
    """
    columns = [np.empty(capacity), np.empty(capacity, np.int8),
               np.empty(capacity), np.empty(capacity, np.int8)]
    position, wrong_id = 0, None
    for block in blocks:
        if not block:
            continue
        parsed = _fast_records(block)
        if parsed is None:
            raise _bad_line(block, line)
        ids, stop = parsed[0], position + parsed[0].size
        line += ids.size
        if wrong_id is None:
            wrong = np.flatnonzero(ids != np.arange(position, stop))
            if wrong.size:
                wrong_id = (position + int(wrong[0]), int(ids[wrong[0]]))
        if stop > columns[0].size:
            size = max(2 * columns[0].size, stop)
            columns = [np.concatenate([c[:position], np.empty(size - position, c.dtype)])
                       for c in columns]
        for column, part in zip(columns, parsed[1:]):
            column[position:stop] = part
        position = stop
    return wrong_id, [column[:position] for column in columns]


def _metadata_number(kind: type, value: str) -> Union[int, float]:
    """``kind(value)``, but not for two spellings that only Python reads:
    ``1_0`` as 10, and non-ASCII digits as digits.  The metadata keep this
    rule, looser than the record grammar: ``tau_max=+5E1`` reads as 50."""
    if "_" in value or not value.isascii():
        raise ValueError(f"invalid literal for {kind.__name__}(): {value!r}")
    return kind(value)


def _read_header(blocks: Iterator[bytes]) -> tuple[int, Optional[int], float, str, bytes, int]:
    """The seed, n_pairs, tau_max and params_digest of the schema, metadata
    and column header lines at the start of ``blocks``; then the rest of the
    block that holds the column header, and the number of its first line.
    """
    block, end = b"", 0

    def lines() -> Iterator[str]:
        nonlocal block, end
        for block in blocks:
            start = 0
            while start < len(block):
                end = block.index(b"\n", start) + 1
                yield block[start : end - 1].decode()
                start = end

    seed, n_pairs, tau_max, digest = 0, None, math.nan, ""
    source = lines()
    schema = next(source, "")
    if not schema.startswith("# kaon-eraser events v"):
        raise EventFormatError("line 1: missing 'kaon-eraser events' schema header")
    version = schema.rsplit("v", 1)[-1]
    if version != str(EVENT_SCHEMA_VERSION):
        raise EventFormatError(f"line 1: unsupported schema version {version!r}")
    for idx, line in enumerate(source, start=2):
        if line.startswith("#"):
            for token in line[1:].split():
                key, _, value = token.partition("=")
                try:
                    if key == "seed":
                        seed = _metadata_number(int, value)
                    elif key == "n_pairs":
                        n_pairs = _metadata_number(int, value)
                    elif key == "tau_max":
                        tau_max = _metadata_number(float, value)
                except ValueError as exc:
                    raise EventFormatError(f"line {idx}: {key}: {exc}") from exc
                if key == "params_digest":
                    digest = value
            continue
        if line == _HEADER_COLUMNS:
            break
        raise EventFormatError(f"line {idx}: expected column header {_HEADER_COLUMNS!r}")
    else:
        raise EventFormatError("missing column header line")
    if n_pairs is None:
        raise EventFormatError("metadata has no n_pairs")
    return seed, n_pairs, tau_max, digest, block[end:], idx + 1


def read_events(path: Union[str, Path]) -> EventSet:
    """Parse an event file, then check the parsed arrays.

    The file is read in blocks of whole lines (:func:`_line_blocks`).  The
    header and metadata lines are read one by one, and the records block by
    block (:func:`_read_records`).  A record that does not parse is named
    by its line; the checks on the arrays (ids sequential from 0, decay
    times finite and >= 0, known mode names, as many records as the
    header's ``n_pairs``) name the record id.  A file that is not UTF-8
    text is refused as such, whatever else is wrong with it: after any
    other error the rest of the file is still read and checked.
    """
    with open(path, "rb") as fh:
        blocks = _line_blocks(fh)
        try:
            seed, n_pairs, tau_max, digest, rest, line = _read_header(blocks)
            # room for n_pairs records, unless the file is too small to hold them
            capacity = min(n_pairs, os.fstat(fh.fileno()).st_size // _SHORTEST_RECORD)
            wrong_id, (tau_l, mode_l, tau_r, mode_r) = _read_records(
                itertools.chain([rest], blocks), line, max(capacity, 0)
            )
        except EventFormatError:
            for _ in blocks:  # a file that is not UTF-8 is refused as such
                pass
            raise

    if wrong_id is not None:
        raise EventFormatError(
            "record id {1} at position {0}: ids must be sequential from 0".format(*wrong_id)
        )
    valid = np.isfinite(tau_l) & np.isfinite(tau_r) & (tau_l >= 0) & (tau_r >= 0)
    if not valid.all():
        bad = int(np.argmin(valid))
        raise EventFormatError(f"record id {bad}: decay times must be finite and >= 0")
    known = (mode_l >= 0) & (mode_r >= 0)
    if not known.all():
        bad = int(np.argmin(known))
        raise EventFormatError(f"record id {bad}: unknown decay mode name")
    if tau_l.size != n_pairs:
        raise EventFormatError(
            f"header says n_pairs={n_pairs} but the file holds {tau_l.size} records"
        )
    return EventSet(
        tau_l=tau_l,
        mode_l=mode_l,
        tau_r=tau_r,
        mode_r=mode_r,
        seed=seed,
        tau_max=tau_max,
        params_digest=digest,
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
    p_value NaN.
    """
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
