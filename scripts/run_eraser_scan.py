#!/usr/bin/env python3
"""Run all four eraser protocols on a matched grid and compare them.

Writes one scan CSV per protocol plus a short agreement report to stdout:
for every pair of protocols, the fraction of mutually unflagged bins whose
twin-referenced residuals agree within three combined standard errors.

Example:
    python scripts/run_eraser_scan.py --out-dir out --pairs 1000000 \
        --tau-r0 2.0 --grid 0:8:0.2 --seed 42 --bin-width-r 1.0
"""

import argparse
import itertools
import math
from pathlib import Path

import numpy as np

from kaon_eraser import (
    ExperimentKind,
    ExperimentSpec,
    GeneratorConfig,
    __version__,
    generate,
    load_params,
    run_experiment,
    write_scan_csv,
)
from kaon_eraser.cli import _grid_fields

FAMILIES = ("like", "unlike", "s_ks", "s_kl")
#: Protocol k draws its events with seed ``--seed + k`` and its rows with
#: seed ``--seed + SPEC_SEED_OFFSET + k``.
SPEC_SEED_OFFSET = 100
#: Largest ``--seed`` whose derived seeds all fit in 64 bits.
MAX_SEED = 2**64 - 1 - SPEC_SEED_OFFSET - (len(ExperimentKind) - 1)


def parse_grid(text: str) -> tuple[float, ...]:
    """``--grid`` with the CLI's checks, as points rounded to 12 decimals."""
    try:
        start, stop, step = _grid_fields(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return tuple(np.round(np.arange(start, stop + 0.5 * step, step), 12))


def int_in(lo: int, hi: float = math.inf):
    """An argparse type: an integer in ``[lo, hi]``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if not lo <= value <= hi:
            bound = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=Path, default=Path("out"))
    ap.add_argument("--pairs", type=int_in(1), default=1_000_000)
    ap.add_argument("--tau-r0", type=float, default=2.0)
    ap.add_argument("--grid", type=parse_grid, default="0:8:0.2")
    ap.add_argument("--seed", type=int_in(0, MAX_SEED), default=42)
    ap.add_argument("--bin-width", type=float, default=ExperimentSpec.bin_width_l)
    ap.add_argument("--bin-width-r", type=float, default=1.0)
    ap.add_argument("--params", type=Path, default=None)
    ap.add_argument("--threads", type=int_in(1), default=1)
    args = ap.parse_args()
    try:  # the spec's checks refuse a bad --tau-r0 or bin width before any work
        specs = [
            ExperimentSpec(
                kind=kind,
                tau_r0=args.tau_r0,
                tau_l_grid=args.grid,
                n_pairs=args.pairs,
                seed=args.seed + SPEC_SEED_OFFSET + offset,
                bin_width_l=args.bin_width,
                bin_width_r=args.bin_width_r,
            )
            for offset, kind in enumerate(ExperimentKind)
        ]
    except ValueError as exc:
        ap.error(str(exc))

    params = load_params(args.params)
    args.out_dir.mkdir(parents=True, exist_ok=True)

    results = {}
    for offset, spec in enumerate(specs):
        events = generate(
            GeneratorConfig(seed=args.seed + offset, n_pairs=args.pairs),
            params,
            threads=args.threads,
        )
        results[spec.kind] = run_experiment(spec, params, events=events)
        out = args.out_dir / f"scan_{spec.kind.value}.csv"
        write_scan_csv(out, results[spec.kind], __version__)
        print(f"wrote {out}")

    print("\npairwise agreement (twin-referenced residuals within 3 sigma):")
    for kind_a, kind_b in itertools.combinations(ExperimentKind, 2):
        compared = agreed = 0
        for row_a, row_b in zip(results[kind_a].rows, results[kind_b].rows):
            for fam in FAMILIES:
                est_a, est_b = getattr(row_a, fam), getattr(row_b, fam)
                if est_a.flagged or est_b.flagged:
                    continue
                compared += 1
                residual = (est_a.value - est_a.twin) - (est_b.value - est_b.twin)
                if abs(residual) <= 3.0 * max(math.hypot(est_a.sigma, est_b.sigma), 1e-12):
                    agreed += 1
        label = f"  ({kind_a.value}) vs ({kind_b.value}):"
        if compared:
            print(f"{label} {agreed}/{compared} bins agree ({agreed / compared:.1%})")
        else:
            print(f"{label} no mutually unflagged bins")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
