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
import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, TextIO, Union

import numpy as np
from scipy.special import chdtrc, expit

from .decay import MODE_CODES, MODE_ORDER, _mode_cells, integrated_mode_pair_probabilities
from .params import PhysicsParams
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
        if self.n_pairs < 1:
            raise ValueError(f"n_pairs must be >= 1, got {self.n_pairs}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
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

    starts = range(0, n, span)
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, starts))
    else:
        for start in starts:
            run(start)

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

#: One record as the reader parses it.  A mode field holds one byte more
#: than the longest name, so a longer name is cut to one that is no name.
_MODE_FIELD = f"S{max(len(mode.value) for mode in MODE_ORDER) + 1}"
_RECORD = np.dtype(
    [("id", np.int64), ("tau_l", np.float64), ("mode_l", _MODE_FIELD),
     ("tau_r", np.float64), ("mode_r", _MODE_FIELD)]
)
_HEADER_COLUMNS = ",".join(_RECORD.names)
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
# bytes anywhere in the row; :func:`_csv_text` joins the rows of several
# such matrices and drops every NUL at once.

#: ``b"%04d" % q`` for q < 10000 as one uint32 each; then a leading digit
#: ``d`` as ``b"\0\0\0%d" % d`` at ``_LEAD + d``, and four NULs at ``_NUL4``.
#: ``_QUAD_ZEROS``: how many of the four digits of q are trailing zeros.
_LEAD, _NUL4 = 10_000, 10_010
_QUADS = np.zeros((_NUL4 + 1, 4), np.uint8)
_PLACES = np.array([1000, 100, 10, 1], np.uint16)
_QUADS[:_LEAD] = np.arange(10_000, dtype=np.uint16)[:, None] // _PLACES % 10 + ord("0")
_QUADS[_LEAD:_NUL4, 3] = np.arange(10) + ord("0")
_QUAD_ZEROS = sum(np.arange(10_000) % 10**j == 0 for j in range(1, 5)).astype(np.int8)
_QUADS = _QUADS.view(np.uint32).ravel()
#: Fixed notation for -4 <= k < 17, k the decimal exponent after rounding;
#: layout class ``k + 4`` there, and ``_G17_SCI`` in exponent notation.
_G17_FIXED = (-4, 17)
_G17_SCI = _G17_FIXED[1] - _G17_FIXED[0]
#: |x| outside [1e-278, 1e278) takes the fallback: there the power table's
#: low parts and the splits below stay normal and finite.
_G17_RANGE = (1e-278, 1e278)
_G17_K = range(-279, 280)
#: A formatted row: the sign at byte 0, "0." and zeros at 1-5, the digits
#: ahead of the point from 6 on, the point, digit ``i`` after it at
#: ``7 + i``, "e" at 24, the exponent's sign and three digits at 25-28.
_G17_WIDTH = 32


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


_G17_HEAD, _G17_TAIL, _G17_MARKS = _g17_layouts()
#: The exponent's sign and digits, per k in ``_G17_K``.
_G17_EXPONENTS = np.array([b"%+04d" % k if abs(k) >= 100 else b"%+03d\0" % k for k in _G17_K])
_G17_EXPONENTS = _G17_EXPONENTS.view(np.uint8).reshape(len(_G17_K), 4)


def _powers_of_ten() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per k in ``_G17_K``: ``10**(16 - k)`` as the double-double ``hi + lo``,
    ``hi`` Veltkamp-split into ``hi_h + hi_l``, and the least double that is
    ``>= 10**k``.  Exact: ``lo`` is ``10**e - hi`` through ``Fraction``."""
    exponents = range(_G17_K.start, 17 - _G17_K.start)
    hi, lo = [], []
    for e in exponents:
        power = Fraction(10) ** e
        hi.append(float(power))
        lo.append(float(power - Fraction(hi[-1])))
    hi, lo = np.array(hi), np.array(lo)
    k = np.arange(_G17_K.start, _G17_K.stop)
    scale, decade = 16 - k - _G17_K.start, k - _G17_K.start
    hi_h, hi_l = _split(hi[scale])
    # ``lo > 0`` where the nearest double lies below the power
    least = np.where(lo[decade] > 0.0, np.nextafter(hi[decade], np.inf), hi[decade])
    return hi_h, hi_l, lo[scale], least


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of ``a`` into two 26-bit halves, ``a = high + low``."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


_POW_HI_H, _POW_HI_L, _POW_LO, _DECADES = _powers_of_ten()


def _g17_decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``|x| = D * 10**(k - 16)``, ``D`` the 17-digit integer it rounds to:
    ``D``, ``k`` and where ``'%.17g' % x`` itself must be taken.

    ``k`` is ``floor(log10 |x|)`` corrected against the exact decade table
    on either side, and ``|x| * 10**(16 - k)`` is taken exactly as the
    double-double ``p + r`` by Dekker's two-product: ``p`` is an integer (it
    is above 2**53) and ``|r|`` is below 32.  ``D`` rounds ``r`` to
    nearest; a ``D`` of 10**17 is 10**16 in the next decade.  ``r`` is off
    by less than 1e-14, so where its fraction is within 2**-30 of 1/2, a
    possible tie, the element takes the fallback, as do zero, non-finite
    and subnormal values and those outside ``_G17_RANGE``: their ``D`` and
    ``k`` are those of 1.
    """
    a = np.abs(x)
    fallback = ~((a >= _G17_RANGE[0]) & (a < _G17_RANGE[1]))
    a[fallback] = 1.0
    row = np.floor(np.log10(a)).astype(np.intp) - _G17_K.start
    row -= a < _DECADES.take(row)
    row += a >= _DECADES.take(row + 1)

    hi_h, hi_l, lo = _POW_HI_H.take(row), _POW_HI_L.take(row), _POW_LO.take(row)
    p = a * (hi_h + hi_l)
    a_h, a_l = _split(a)
    r = ((a_h * hi_h - p) + a_h * hi_l + a_l * hi_h) + a_l * hi_l + a * lo
    whole = np.floor(r)
    r -= whole
    fallback |= np.abs(r - 0.5) < 2.0**-30
    digits17 = p.astype(np.int64) + whole.astype(np.int64) + (r > 0.5)
    carry = digits17 == 10**17
    digits17[carry] = 10**16
    return digits17, row + carry + _G17_K.start, fallback


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
    digits17, k, fallback = _g17_decimal(x)

    # D as a leading digit and four quads of ASCII digits at bytes 7-23
    upper = digits17 // 10**8
    lower = digits17 - upper * 10**8
    lead = upper // 10**8
    upper -= lead * 10**8
    quads = [upper // 10**4, upper % 10**4, lower // 10**4, lower % 10**4]
    digits = np.zeros((x.size, _G17_WIDTH // 4), np.uint32)
    digits[:, 1] = _QUADS.take(lead + _LEAD)
    for column, quad in enumerate(quads, start=2):
        digits[:, column] = _QUADS.take(quad)
    trailing = _QUAD_ZEROS.take(quads[0])
    for quad in quads[1:]:
        trailing = np.where(quad == 0, trailing + 4, _QUAD_ZEROS.take(quad))

    # %g's layout: the digits ahead of the point move one byte to the left
    fixed = (k >= _G17_FIXED[0]) & (k < _G17_FIXED[1])
    layout = np.where(fixed, k - _G17_FIXED[0], _G17_SCI) * 17 + (16 - trailing)
    digits = digits.view("<u8")
    head = (digits & _G17_HEAD.take(layout, axis=0)).ravel()
    digits &= _G17_TAIL.take(layout, axis=0)
    digits |= _G17_MARKS.take(layout, axis=0)
    words = digits.ravel()  # a row's first byte is NUL in ``head``
    words |= head >> 8
    words[:-1] |= head[1:] << 56
    out = digits.view(np.uint8)
    out[:, 0] = np.signbit(x) * ord("-")
    sci = np.flatnonzero(~fixed)
    out[sci, 25:29] = _G17_EXPONENTS.take(k[sci] - _G17_K.start, axis=0)
    zero = x == 0.0
    out[zero, 6] = ord("0")
    if fallback.any():
        rows = np.flatnonzero(fallback & ~zero)
        out[rows] = np.array(
            ["%.17g" % v for v in x[rows].tolist()], dtype=f"S{_G17_WIDTH}"
        ).view(np.uint8).reshape(-1, _G17_WIDTH)
    return out


#: 10**1 to 10**19: ``searchsorted`` of a magnitude counts its digits after
#: the first.  Row ``i`` of ``_LAST_BYTES``: 0xFF over the last ``i`` of 20.
_TENS = np.array([10**j for j in range(1, 20)], np.uint64)
_LAST_BYTES = np.tri(21, 20, -1, dtype=np.uint8)[:, ::-1] * 0xFF


def _d_bytes(values: np.ndarray) -> np.ndarray:
    """``'%d' % n`` of every element, as NUL-padded rows of ASCII bytes."""
    n = np.asarray(values, dtype=np.int64).ravel()
    magnitude = np.abs(n).view(np.uint64)  # -2**63 is 2**63
    digits = np.searchsorted(_TENS, magnitude, side="right") + 1
    width = -(-int(digits.max(initial=1)) // 4)  # in quads
    quads = np.empty((n.size, width), np.uint32)
    for q in range(width - 1, 0, -1):
        rest = magnitude // 10_000
        quads[:, q] = _QUADS.take(magnitude - rest * 10_000)
        magnitude = rest
    quads[:, 0] = _QUADS.take(magnitude)
    text = quads.view(np.uint8)
    text &= _LAST_BYTES[:, 20 - 4 * width :].take(digits, axis=0)
    if not (n < 0).any():
        return text
    return np.hstack([(np.signbit(n) * ord("-")).astype(np.uint8)[:, None], text])


#: Bytes of one block of :func:`_csv_text`, below glibc's default ``mmap``
#: threshold of 128 KiB.  glibc raises that threshold to the size of each
#: ``mmap``-served block it frees; with 256 KiB blocks, the event reader that
#: ran next in the same process grew its peak RSS by 10 MB.
_TEXT_BLOCK = 1 << 16


def _csv_text(fields: list[np.ndarray]) -> str:
    """One line per row of the byte matrices ``fields`` (all of one height),
    their rows joined by commas, every NUL byte dropped: one
    ``lines[lines != 0]`` per block of rows."""
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
    ids = _d_bytes(np.arange(start, start + len(tau_l)))
    return _csv_text([ids, _g17_bytes(tau_l), _MODE_BYTES.take(mode_l, axis=0),
                      _g17_bytes(tau_r), _MODE_BYTES.take(mode_r, axis=0)])


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


def _parse_records(lines: Iterable[str]) -> np.ndarray:
    """Records from CSV lines, through NumPy's C tokenizer.

    Empty lines are skipped and ``#`` is data.  Raises ``ValueError`` on a
    wrong field count, a field that does not parse, or a NUL byte: a bytes
    field drops trailing NULs, so ``TwoPi\\0`` would read as ``TwoPi``.
    """

    def refuse_nul(lines: Iterable[str]) -> Iterator[str]:
        for line in lines:
            if "\0" in line:
                raise ValueError("NUL byte in a record")
            yield line

    lines = iter(lines)
    for line in lines:
        if line != "\n":
            break
    else:
        # an empty body: loadtxt would warn that its input holds no data
        return np.zeros(0, _RECORD)
    return np.loadtxt(
        refuse_nul(itertools.chain([line], lines)),
        dtype=_RECORD, delimiter=",", comments=None, ndmin=1,
    )


def _parses(lines: Iterable[str]) -> bool:
    try:
        _parse_records(lines)
    except ValueError:
        return False
    return True


def _bad_line_error(fh: TextIO, first_line: int) -> EventFormatError:
    """The error naming the first body line that :func:`_parse_records` refuses.

    Called only once the whole body has failed to parse.  The file is read
    again from the start: blocks of lines go through the same parser, then
    the lines of the first block that fails one by one, so the line named is
    one the parser itself refuses.  A pipe cannot be read again.
    """
    if fh.seekable():
        fh.seek(0)
        body = [(idx, line) for idx, line in enumerate(fh, start=1) if idx >= first_line]
    else:
        body = []
    for start in range(0, len(body), _BATCH):
        block = body[start : start + _BATCH]
        if _parses(line for _, line in block):
            continue
        for idx, line in block:
            if _parses([line]):
                continue
            record = line.rstrip("\n")
            n_fields = len(record.split(","))
            if n_fields != len(_RECORD):
                return EventFormatError(
                    f"line {idx}: expected {len(_RECORD)} fields, got {n_fields}"
                )
            return EventFormatError(f"line {idx}: {record!r} does not parse")
    return EventFormatError("a record does not parse; the input cannot be reread to name its line")


def read_events(path: Union[str, Path]) -> EventSet:
    """Parse an event file, then check the parsed arrays.

    The header and metadata lines are read one by one and the records in one
    ``np.loadtxt`` call.  A record that does not parse is named by its line;
    the checks on the arrays (ids sequential from 0, decay times finite and
    >= 0, known mode names, as many records as the header's ``n_pairs``)
    name the record id.  A file that is not UTF-8 text is refused too.
    """
    seed, n_pairs, tau_max, digest = 0, None, float("nan"), ""
    try:
        with open(path, encoding="utf-8") as fh:
            schema = fh.readline().rstrip("\n")
            if not schema.startswith("# kaon-eraser events v"):
                raise EventFormatError("line 1: missing 'kaon-eraser events' schema header")
            version = schema.rsplit("v", 1)[-1]
            if version != str(EVENT_SCHEMA_VERSION):
                raise EventFormatError(f"line 1: unsupported schema version {version!r}")
            for idx, line in enumerate(iter(fh.readline, ""), start=2):
                line = line.rstrip("\n")
                if line.startswith("#"):
                    for token in line[1:].split():
                        key, _, value = token.partition("=")
                        try:
                            if key == "seed":
                                seed = int(value)
                            elif key == "n_pairs":
                                n_pairs = int(value)
                            elif key == "tau_max":
                                tau_max = float(value)
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
            try:
                records = _parse_records(fh)
            except UnicodeDecodeError:
                raise
            except ValueError as exc:
                raise _bad_line_error(fh, idx + 1) from exc
    except UnicodeDecodeError as exc:
        # the decoder reads ahead of the parser, so no line can be named
        raise EventFormatError(f"the file is not UTF-8 text: {exc.reason}") from exc

    ids = records["id"]
    if not np.array_equal(ids, np.arange(ids.size)):
        bad = int(np.argmax(ids != np.arange(ids.size)))
        raise EventFormatError(
            f"record id {ids[bad]} at position {bad}: ids must be sequential from 0"
        )
    tau_l = np.ascontiguousarray(records["tau_l"])
    tau_r = np.ascontiguousarray(records["tau_r"])
    valid = np.isfinite(tau_l) & np.isfinite(tau_r) & (tau_l >= 0) & (tau_r >= 0)
    if not valid.all():
        bad = int(np.argmin(valid))
        raise EventFormatError(f"record id {bad}: decay times must be finite and >= 0")
    mode_l = _mode_codes(records["mode_l"])
    mode_r = _mode_codes(records["mode_r"])
    known = (mode_l >= 0) & (mode_r >= 0)
    if not known.all():
        bad = int(np.argmin(known))
        raise EventFormatError(f"record id {bad}: unknown decay mode name")
    if records.size != n_pairs:
        raise EventFormatError(
            f"header says n_pairs={n_pairs} but the file holds {records.size} records"
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


def _mode_codes(names: np.ndarray) -> np.ndarray:
    """int8 codes of the mode names; -1 where a name is not a mode."""
    codes = np.full(names.shape, -1, dtype=np.int8)
    for mode, code in MODE_CODES.items():
        codes[names == mode.value.encode()] = code
    return codes


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
