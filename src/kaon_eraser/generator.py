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
# %.17g prints what f"{x:.17g}" prints
_EVENT_LINE = "%d,%.17g,%s,%.17g,%s\n"


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


def write_events(path: Union[str, Path], events: EventSet) -> None:
    """One line per event, formatted and written ``_BATCH`` rows at a time."""
    mode_names = np.array([m.value for m in MODE_ORDER], dtype=object)
    with _atomic_write(path) as fh:
        fh.write(f"# kaon-eraser events v{EVENT_SCHEMA_VERSION}\n")
        fh.write(
            f"# seed={events.seed} n_pairs={events.n} tau_max={events.tau_max:.17g}"
            f" params_digest={events.params_digest}\n"
        )
        fh.write(_HEADER_COLUMNS + "\n")
        for start in range(0, events.n, _BATCH):
            chunk = slice(start, start + _BATCH)
            rows = zip(
                range(start, start + _BATCH),
                events.tau_l[chunk].tolist(),
                mode_names[events.mode_l[chunk]].tolist(),
                events.tau_r[chunk].tolist(),
                mode_names[events.mode_r[chunk]].tolist(),
            )
            fh.write("".join([_EVENT_LINE % row for row in rows]))


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
