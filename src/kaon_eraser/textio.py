"""Event and scan text: the event-file format, its writer and reader, and
the text of scan CSVs.

Floats print as ``'%.17g' % x`` and counts as ``'%d' % n``, from byte
matrices, so a float reads back bit for bit.  An event file is read in
blocks of whole lines, parsed as byte matrices.  The module imports only
:mod:`decay` from the package: the sampler and the protocols import it,
never the other way round.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import math
import os
import re
import threading
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Optional, TextIO, Union

import numpy as np

from .decay import MODE_ORDER

EVENT_SCHEMA_VERSION = 1
#: The schema line up to its version, which is the rest of the line.
_SCHEMA = "# kaon-eraser events v"


class EventFormatError(ValueError):
    """An event file does not follow the documented schema."""


@dataclasses.dataclass(frozen=True)
class EventSet:
    """Column-oriented batch of pair events (public decay-mode codes).

    The record rules live here, checked when a set is built, by a call or
    by ``dataclasses.replace``: the four columns are 1-D NumPy arrays of
    one length, the mode codes of an integer dtype; every decay time is
    finite and >= 0; every mode code is in ``[0, len(MODE_ORDER))``.  A
    record that breaks one raises ValueError naming its id: it would be a
    wrong measurement, and a tally would drop it from every count.  Whole-
    array ``min`` and ``max``, through which a NaN propagates, decide; the
    record is searched for only if one fails.  The columns are then made
    read-only: the set freezes the arrays it is given, not other views of
    their memory, so a column that is a view of a writable array changes
    with it.  ``generate`` and ``read_events`` hand over arrays that
    nothing else holds.
    """

    tau_l: np.ndarray
    mode_l: np.ndarray
    tau_r: np.ndarray
    mode_r: np.ndarray
    seed: int
    tau_max: float
    params_digest: str

    def __post_init__(self) -> None:
        columns = (self.tau_l, self.mode_l, self.tau_r, self.mode_r)
        times, modes = columns[::2], columns[1::2]
        if (not all(isinstance(c, np.ndarray) and c.ndim == 1 for c in columns)
                or len({c.size for c in columns}) > 1
                or not all(code.dtype.kind in "iu" for code in modes)):
            got = ", ".join(f"{name} {getattr(c, 'dtype', type(c).__name__)} {np.shape(c)}"
                            for name, c in zip(("tau_l", "mode_l", "tau_r", "mode_r"), columns))
            raise ValueError("event columns must be 1-D NumPy arrays of one length, the mode"
                             f" codes integers; got {got}")
        n_modes = len(MODE_ORDER)
        if self.n and not (all(0.0 <= tau.min() and tau.max() < np.inf for tau in times)
                           and all(0 <= code.min() and code.max() < n_modes for code in modes)):
            bad_time = ~np.logical_and.reduce([(tau >= 0.0) & (tau < np.inf) for tau in times])
            bad_mode = ~np.logical_and.reduce([(code >= 0) & (code < n_modes) for code in modes])
            i = int(np.argmax(bad_time | bad_mode))
            if bad_mode[i]:
                got = f"mode_l={self.mode_l[i]}, mode_r={self.mode_r[i]}"
                raise ValueError(f"record id {i}: mode codes must be in [0, {n_modes}), got {got}")
            got = f"tau_l={float(self.tau_l[i])!r}, tau_r={float(self.tau_r[i])!r}"
            raise ValueError(f"record id {i}: decay times must be finite and >= 0, got {got}")
        for column in columns:
            column.setflags(write=False)

    @property
    def n(self) -> int:
        return self.tau_l.shape[0]


def _frozen(table: np.ndarray) -> np.ndarray:
    """``table``, made read-only: the module's tables are shared by every caller."""
    table.flags.writeable = False
    return table


# --------------------------------------------------------------------------
# Serialization: one record per line, times with 17 significant digits
# --------------------------------------------------------------------------

_HEADER_COLUMNS = "id,tau_l,mode_l,tau_r,mode_r"
#: The mode names as NUL-padded byte rows, indexed by mode code.
_MODE_BYTES = np.array([m.value.encode() for m in MODE_ORDER])
_MODE_BYTES = _frozen(_MODE_BYTES.view(np.uint8).reshape(len(MODE_ORDER), -1))


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
# formatters and the event reader read their tables from read-only module
# constants, built at import.

#: In ``_QUADS``, after the 4-digit groups: a leading digit ``d`` as
#: ``b"\0\0\0%d" % d`` at ``_LEAD + d``, and four NULs at ``_NUL4``.
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


def _quad_tables() -> tuple[np.ndarray, np.ndarray]:
    """``b"%04d" % q`` for q < 10000 as one uint32 each, then the leading
    digits at ``_LEAD`` and the NULs at ``_NUL4``; and per q < 10000, how
    many of its four digits are trailing zeros."""
    quads = np.zeros((_NUL4 + 1, 4), np.uint8)
    places = np.array([1000, 100, 10, 1], np.uint16)
    quads[:_LEAD] = np.arange(10_000, dtype=np.uint16)[:, None] // places % 10 + ord("0")
    quads[_LEAD:_NUL4, 3] = np.arange(10) + ord("0")
    quad_zeros = sum(np.arange(10_000) % 10**j == 0 for j in range(1, 5)).astype(np.int8)
    return quads.view(np.uint32).ravel(), quad_zeros


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


_QUADS, _QUAD_ZEROS = map(_frozen, _quad_tables())
#: Per ``%.17g`` layout, see :func:`_g17_layouts`.
_G17_HEAD, _G17_TAIL, _G17_MARKS = map(_frozen, _g17_layouts())
#: The exponent's sign and digits, per k in ``_G17_K``.
_G17_EXPONENTS = np.array([b"%+04d" % k if abs(k) >= 100 else b"%+03d\0" % k for k in _G17_K])
_G17_EXPONENTS = _frozen(_G17_EXPONENTS.view(np.uint8).reshape(len(_G17_K), 4))
#: Per e in ``_POW_E``, see :func:`_powers_of_ten`.
_POW_HI, _POW_HI_H, _POW_HI_L, _POW_LO, _DECADES = map(_frozen, _powers_of_ten())
#: 10**0 to 10**19; in ``_POWERS[1:]``, ``searchsorted`` of a magnitude
#: counts its digits after the first.
_POWERS = _frozen(np.array([10**j for j in range(20)], np.uint64))
#: Row ``i``: 0xFF over the last ``i`` of 20 bytes.
_LAST_BYTES = _frozen(np.tri(21, 20, -1, dtype=np.uint8)[:, ::-1] * 0xFF)
#: Per count ``f`` of digits after a point, ``10**(f + 1)`` (1 for none).
_POINT_SCALES = _frozen(np.concatenate([_POWERS[:1], _POWERS[2:]]))


def _times_power(a: np.ndarray, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**e``, e the power table's exponent at ``row``, as the
    double-double ``p + r``: ``p = a * hi`` rounded, and ``r`` its error by
    Dekker's two-product (exact, through the splits of ``a`` and ``hi``)
    plus ``a * lo``."""
    hi_h, hi_l, lo = _POW_HI_H.take(row), _POW_HI_L.take(row), _POW_LO.take(row)
    p = a * _POW_HI.take(row)
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
    a = np.abs(x)
    fallback = ~((a >= _G17_RANGE[0]) & (a < _G17_RANGE[1]))
    a[fallback] = 1.0
    # the table row of 10**k, and the row of 10**(16 - k) is its mirror
    row = np.floor(np.log10(a)).astype(np.intp) - _POW_E.start
    row -= a < _DECADES.take(row)
    row += a >= _DECADES.take(row + 1)

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


def _d_bytes(values: np.ndarray) -> np.ndarray:
    """``'%d' % n`` of every element, as NUL-padded rows of ASCII bytes."""
    n = np.asarray(values, dtype=np.int64).ravel()
    magnitude = np.abs(n).view(np.uint64)  # -2**63 is 2**63
    digits = np.searchsorted(_POWERS[1:], magnitude, side="right") + 1
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


def _csv_text(columns: list[np.ndarray]) -> str:
    """One line per element of the equal-length ``columns``, their fields
    joined by commas.  A column prints by its dtype: a float array as
    ``'%.17g' % x``, an integer or bool array as ``'%d' % n``, and a 2-D
    uint8 matrix, NUL-padded bytes per row, as is.  Each distinct array is
    formatted once, by one call per formatter on the concatenation of every
    array it formats; every NUL byte is then dropped by one
    ``bytes.translate`` per block of rows."""
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
        text.append(block.tobytes().translate(None, b"\0"))
    return b"".join(text).decode("ascii")


#: Records per call of :func:`_event_lines` in :func:`write_events`.
_WRITE_BATCH = 1 << 13


def _event_lines(start: int, tau_l, mode_l, tau_r, mode_r) -> str:
    """The lines of the records from id ``start`` on, one per element of the columns."""
    ids = np.arange(start, start + len(tau_l))
    return _csv_text([ids, tau_l, _MODE_BYTES.take(mode_l, axis=0),
                      tau_r, _MODE_BYTES.take(mode_r, axis=0)])


#: The metadata line as :func:`_metadata_line` writes it, and its four values found by key.
_METADATA_FORM = "# seed=<%d> n_pairs=<%d> tau_max=<%.17g> params_digest=<digest>"
_METADATA_FIELDS = re.compile(r"# seed=(\S*) n_pairs=(\S*) tau_max=(\S*) params_digest=(.*)")


def _metadata_line(seed: int, n_pairs: int, tau_max: float, digest: str) -> str:
    """The metadata line of an event file, without its newline; the reader
    takes it only as written here.  Raises ValueError on a seed that is no
    integer in [0, 2**64), a ``tau_max`` that is not finite, or a digest that
    is not printable ASCII without spaces."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    if not math.isfinite(tau_max):
        raise ValueError(f"tau_max must be finite, got {tau_max}")
    if not re.fullmatch("[!-~]*", digest):
        raise ValueError(f"params_digest must be printable ASCII without spaces, got {digest!r}")
    return f"# seed={seed} n_pairs={n_pairs} tau_max={tau_max:.17g} params_digest={digest}"


def write_events(path: Union[str, Path], events: EventSet) -> None:
    """One line per event, formatted and written ``_WRITE_BATCH`` rows at a
    time.  Metadata that :func:`_metadata_line` refuses raise ValueError
    before ``path`` is touched."""
    metadata = _metadata_line(events.seed, events.n, events.tau_max, events.params_digest)
    with _atomic_write(path) as fh:
        fh.write(f"{_SCHEMA}{EVENT_SCHEMA_VERSION}\n{metadata}\n{_HEADER_COLUMNS}\n")
        for start in range(0, events.n, _WRITE_BATCH):
            chunk = slice(start, start + _WRITE_BATCH)
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
#: read starts the next one.  Parsed in one pass, the seed-1 file of 2.5e5 pairs
#: read at a peak RSS of 46.8, 49.1 and 54.0 MB in 256 KiB, 512 KiB and 1 MiB blocks.
_READ_BLOCK = 1 << 19
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


_TIME_STEPS = _frozen(_time_steps())
_NAME_CODES, _NAME_MASKS, _NAME_WORDS = map(_frozen, _name_tables())


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
    whole, fraction = np.divmod(total, _POINT_SCALES.take(f))
    digits = whole * _POWERS.take(f) + fraction
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
    aligned on the ``e``, for the few that have an exponent.
    :func:`_from_decimal` then makes ``D * 10**-after_point`` a double; a
    field with an exponent, which the writer writes only for ``|x|`` below
    1e-4 or from 1e17 up, is read by ``float()``.
    """
    width = int(widths.max())
    if width > _TIME_FIELD:
        return None
    ends = starts + widths
    columns = _right_aligned(buf, ends, widths, width)
    state = np.full(starts.size, _START << 8, np.uint16)
    after_point = np.zeros(starts.size, np.uint8)
    for column in columns:
        _TIME_STEPS.take(state | column, out=state, mode="clip")
        after_point += state == _FRAC << 8
    state >>= 8
    if (state > _EXP3).any():
        return None
    digits, too_long = _mantissas(columns, after_point)
    tagged = np.flatnonzero(state >= _EXP2)
    if tagged.size:
        e = ends[tagged] - 4 - (state[tagged] == _EXP3)  # where "e+DD" or "e+DDD" starts
        mantissa = e - starts[tagged]
        digits[tagged], too_long[tagged] = _mantissas(
            _right_aligned(buf, e, mantissa, int(mantissa.max())), after_point[tagged]
        )
    if too_long.any():
        return None
    x, fallback = _from_decimal(digits, -after_point.astype(np.int64))
    fallback[tagged] = True
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
    rounds two ways, the element takes the fallback.  ``exp10`` is in
    [-24, 0], where no term leaves the normal range.
    """
    row = exp10 - _POW_E.start
    a = digits.astype(np.float64)
    p, r = _times_power(a, row)
    r += (digits - a.astype(np.int64)).astype(np.float64) * _POW_HI.take(row)
    x = p + r
    rest = (p - x) + r  # p and x are within a factor 2: ``p - x`` is exact
    near = (x + rest * (1 + 2.0**-29)) != (x + rest * (1 - 2.0**-29))
    return x, near


def _read_names(buf: np.ndarray, starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """The mode codes of the name fields at ``starts``, -1 where a field is
    no name.  A field's length and first byte give the one name it can be,
    and its bytes are then compared with that name's."""
    codes = _NAME_CODES.take(np.minimum(widths, 18) * 256 + buf.take(starts))
    words = _windows(buf, starts, 24).view("<u8")
    differ = (words & _NAME_MASKS.take(codes, axis=0)) ^ _NAME_WORDS.take(codes, axis=0)
    return np.where((differ[:, 0] | differ[:, 1] | differ[:, 2]) == 0, codes, -1)


def _fast_records(block: bytes) -> Optional[tuple[np.ndarray, ...]]:
    """The id, tau_l, mode_l, tau_r and mode_r columns of a block of whole
    lines as the writer writes them, or None where a line holds anything
    else.  A block is refused exactly when one of its lines would be on its
    own, which :func:`_bad_line` relies on.

    One scan finds every byte at or below ``","``: they must be the four
    commas and the newline of each line, so a NUL, a space, a blank line
    or a wrong field count is refused.  They give each field's start
    and width.  Each field is read for the whole block at once.  A name
    that is no mode's gets code -1.
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
    starts = np.empty_like(ends)
    starts[0, 0] = len(_PAD)
    starts[1:, 0] = ends[:-1, 4] + 1
    starts[:, 1:] = ends[:, :4] + 1
    widths = ends - starts
    ids = _read_ids(buf, ends[:, 0], widths[:, 0])
    if ids is None:
        return None
    columns = [ids]
    for time in (1, 3):
        read = _read_times(buf, starts[:, time], widths[:, time])
        if read is None:
            return None
        columns += [read[0], _read_names(buf, starts[:, time + 1], widths[:, time + 1])]
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


def _read_records(blocks: Iterable[bytes],
                  capacity: int) -> tuple[Optional[tuple[int, int]], list[np.ndarray]]:
    """The records in ``blocks``, whose first line is line 4 of the file,
    after the three header lines: the position and id of the first record
    whose id is not its position (None if there is none), then the tau_l,
    mode_l, tau_r and mode_r columns.

    Each block goes through :func:`_fast_records`; :func:`_bad_line` names
    the first bad line of a block that it refuses.  The ids are checked
    block by block and not kept.  The columns are allocated once for
    ``capacity`` records and doubled if more come, so the blocks' own arrays
    do not outlive them.
    """
    columns = [np.empty(capacity), np.empty(capacity, np.int8),
               np.empty(capacity), np.empty(capacity, np.int8)]
    position, wrong_id, line = 0, None, 4
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


def _read_header(blocks: Iterator[bytes]) -> tuple[int, int, float, str, bytes]:
    """The seed, n_pairs, tau_max and params_digest of the schema, metadata
    and column header lines at the start of ``blocks``, then the rest of the
    block that holds the column header.  The metadata line is refused unless
    :func:`_metadata_line` of its values gives it back byte for byte: it is
    read in the writer's grammar."""
    head = b""
    for block in blocks:
        head += block
        if head.count(b"\n") >= 3:
            break
    *lines, rest = (*head.split(b"\n", 3), b"", b"", b"")[:4]  # a missing line is empty
    schema, metadata, columns = (line.decode() for line in lines)
    if not schema.startswith(_SCHEMA):
        raise EventFormatError("line 1: missing 'kaon-eraser events' schema header")
    version = schema[len(_SCHEMA):]
    if version != str(EVENT_SCHEMA_VERSION):
        raise EventFormatError(f"line 1: unsupported schema version {version!r}")
    match = _METADATA_FIELDS.fullmatch(metadata)
    try:
        values = match and (int(match[1]), int(match[2]), float(match[3]), match[4])
    except ValueError:
        values = None
    try:
        written = values and _metadata_line(*values)
    except ValueError as exc:
        raise EventFormatError(f"line 2: {exc}") from None
    if written != metadata:
        raise EventFormatError(f"line 2: expected {_METADATA_FORM!r}")
    if columns != _HEADER_COLUMNS:
        raise EventFormatError(f"line 3: expected column header {_HEADER_COLUMNS!r}")
    return *values, rest


def read_events(path: Union[str, Path]) -> EventSet:
    """Parse an event file, then check the parsed arrays.

    The file is read in blocks of whole lines (:func:`_line_blocks`).  The
    three header lines are read first (:func:`_read_header`), then the
    records block by block from line 4 (:func:`_read_records`).  A record
    that does not parse is named by its line.  The checks on the arrays
    name the record id: ids sequential from 0, known mode names, then the
    record rules of :class:`EventSet`, whose ValueError is raised as
    EventFormatError; last, as many records as the header's ``n_pairs``.
    A file that is not UTF-8 text is refused as such, whatever else is
    wrong with it: after any other error the rest of the file is still read
    and checked.
    """
    with open(path, "rb") as fh:
        blocks = _line_blocks(fh)
        try:
            seed, n_pairs, tau_max, digest, rest = _read_header(blocks)
            # room for n_pairs records, unless the file is too small to hold them
            capacity = min(n_pairs, os.fstat(fh.fileno()).st_size // _SHORTEST_RECORD)
            wrong_id, (tau_l, mode_l, tau_r, mode_r) = _read_records(
                itertools.chain([rest], blocks), max(capacity, 0)
            )
        except EventFormatError:
            for _ in blocks:  # a file that is not UTF-8 is refused as such
                pass
            raise

    if wrong_id is not None:
        raise EventFormatError(
            "record id {1} at position {0}: ids must be sequential from 0".format(*wrong_id)
        )
    # -1 is the parser's code for a field that is no mode name
    known = (mode_l >= 0) & (mode_r >= 0)
    if not known.all():
        bad = int(np.argmin(known))
        raise EventFormatError(f"record id {bad}: unknown decay mode name")
    try:
        events = EventSet(tau_l, mode_l, tau_r, mode_r, seed, tau_max, digest)
    except ValueError as exc:
        raise EventFormatError(str(exc)) from None
    if events.n != n_pairs:
        raise EventFormatError(
            f"header says n_pairs={n_pairs} but the file holds {events.n} records"
        )
    return events
