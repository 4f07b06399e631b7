#!/usr/bin/env python3
"""Check the event text both ways: the vectorized ``%.17g`` of the writers
against Python's, and the event reader's parse of that text against ``float()``.

Draws ``--values`` float64 values in equal shares from six families
(uniform on [0, 1), exponential at scale 1 and at scale 579, log-uniform
over 1e-282 to 1e282 with both signs, exact ties at the 17th digit, and the
specials: zeros, infinities, NaN, subnormals and the ends of the range).
Writing: formats them with ``textio._csv_text``, the writers' own path,
which prints a float array through ``_g17_bytes``, and with ``'%.17g' % x``,
and prints per family the values tried, the mismatches and the share that
took the per-element fallback (zero is laid out directly and is not
counted).  Reading: parses each finite value's written text with the
reader's ``textio._read_times`` and compares the bits with ``float()`` of
the same text, printing the mismatches (a value the reader refuses counts as
one) and the share that the reader took through ``float()`` itself.  The
reader hands every field in exponent notation to ``float()``, so for the
exponent-heavy families (log-uniform, specials) that share is near 1, by
design.  Infinities and NaN are outside the record grammar, which refuses
them, so they are not read here.  Exits 1 on any mismatch.

    PYTHONPATH=src python3 scripts/check_g17.py --values 100000000 --seed 1
"""

import argparse
import math
import sys
import time

import numpy as np

from kaon_eraser.textio import _PAD, _csv_text, _g17_decimal, _read_times
from run_eraser_scan import int_in

CHUNK = 1 << 17


def _odd_range(e: int) -> tuple[int, int]:
    """``m`` odd with ``m * 5**e`` of 18 digits and ``m < 2**53`` is
    ``2 * j + 1`` for ``j`` in this closed range."""
    lo, hi = -(-10**17 // 5**e), min((10**18 - 1) // 5**e, 2**53 - 1)
    return lo // 2, (hi - 1) // 2


def _ties(rng: np.random.Generator, n: int) -> np.ndarray:
    """``m * 2**-e``, m odd: its digits are those of ``m * 5**e``, whose
    last is a 5; with 18 of them, rounding to 17 is an exact tie."""
    exponents = [e for e in range(1, 40) if _odd_range(e)[0] <= _odd_range(e)[1]]
    e = rng.choice(exponents, n)
    out = np.empty(n)
    for exponent in exponents:
        rows = np.flatnonzero(e == exponent)
        m = 2 * rng.integers(*_odd_range(exponent), rows.size, endpoint=True) + 1
        out[rows] = np.ldexp(m.astype(np.float64), -exponent)
    return out * rng.choice([-1.0, 1.0], n)


def _specials(rng: np.random.Generator, n: int) -> np.ndarray:
    edges = np.array([0.0, math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
                      1.7976931348623157e308, 1e-278, 1e278, 1e-4, 1e17])
    inner = edges[3:-1]
    picks = np.concatenate([edges, np.nextafter(inner, 0.0), np.nextafter(inner, 1e308)])
    out = np.where(rng.random(n) < 0.5, rng.choice(picks, n),
                   np.ldexp(rng.integers(1, 2**52, n).astype(np.float64), -1074))
    return out * rng.choice([-1.0, 1.0], n)


FAMILIES = {
    "uniform": lambda rng, n: rng.random(n),
    "exponential(1)": lambda rng, n: rng.exponential(1.0, n),
    "exponential(579)": lambda rng, n: rng.exponential(579.0, n),
    "log-uniform 1e+-282": lambda rng, n: (10.0 ** rng.uniform(-282, 282, n)
                                           * rng.choice([-1.0, 1.0], n)),
    "ties": _ties,
    "specials": _specials,
}


def read_back(text: str) -> tuple[np.ndarray, np.ndarray]:
    """The reader's values of the lines of ``text``, and where it took
    ``float()``; every value is refused (NaN, no fallback) if it refuses one."""
    lines = text.replace("\n", ",\n").encode()  # a time field ends at a comma
    buf = np.frombuffer(_PAD + lines + _PAD, np.uint8)
    ends = np.flatnonzero(buf == ord(","))
    starts = np.concatenate([[len(_PAD)], ends[:-1] + 2])
    parsed = _read_times(buf, starts, ends - starts)
    if parsed is None:
        return np.full(ends.size, np.nan), np.zeros(ends.size, bool)
    return parsed


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--values", type=int_in(1), default=1_000_000)
    ap.add_argument("--seed", type=int_in(0, 2**64 - 1), default=1)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    share = -(-args.values // len(FAMILIES))
    t0 = time.perf_counter()
    total_bad = 0
    print(f"{'family':<22}{'values':>12}{'mismatches':>12}{'fallback':>12}{'share':>12}"
          f"{'read':>12}{'mismatches':>12}{'fallback':>12}{'share':>12}")
    for name, draw in FAMILIES.items():
        tried = bad = fallback = read = read_bad = read_fallback = 0
        while tried < share:
            x = draw(rng, min(CHUNK, share - tried))
            ours = _csv_text([x])
            theirs = "".join(["%.17g\n" % v for v in x.tolist()])
            if ours != theirs:
                bad += sum(a != b for a, b in zip(ours.splitlines(), theirs.splitlines()))
            fallback += int(np.count_nonzero(_g17_decimal(x)[2] & (x != 0.0)))
            tried += x.size

            text = _csv_text([x[np.isfinite(x)]])
            if text:
                values, slow = read_back(text)
                exact = np.array([float(line) for line in text.splitlines()])
                read_bad += int(np.count_nonzero(values.view(np.uint64) != exact.view(np.uint64)))
                read_fallback += int(np.count_nonzero(slow))
                read += values.size
        total_bad += bad + read_bad
        print(f"{name:<22}{tried:>12}{bad:>12}{fallback:>12}{fallback / tried:>12.3e}"
              f"{read:>12}{read_bad:>12}{read_fallback:>12}{read_fallback / max(read, 1):>12.3e}")
    seconds = time.perf_counter() - t0
    print(f"{total_bad} mismatches in {len(FAMILIES) * share} values, {seconds:.1f} s")
    return 1 if total_bad else 0


if __name__ == "__main__":
    sys.exit(main())
