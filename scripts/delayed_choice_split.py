#!/usr/bin/env python3
"""Delayed-choice check: sort fully passive events by measurement order.

Runs the passive-passive protocol once, splits the scan rows into object-
measured-first (tau_l < tau_r0) and meter-measured-first (tau_l > tau_r0),
and reports how well each subset fits the same closed forms.  Time
ordering should not matter; only the sorting of joint events does.
"""

import argparse
from pathlib import Path

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
from run_eraser_scan import FAMILIES, int_in, parse_grid


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("out/delayed_choice.csv"))
    ap.add_argument("--pairs", type=int_in(1), default=1_000_000)
    ap.add_argument("--tau-r0", type=float, default=2.0)
    ap.add_argument("--grid", type=parse_grid, default="0:8:0.2")
    ap.add_argument("--seed", type=int_in(0, 2**64 - 1), default=708)
    ap.add_argument("--bin-width-r", type=float, default=2.0)
    ap.add_argument("--params", type=Path, default=None)
    args = ap.parse_args()
    try:  # the spec's checks refuse a bad --tau-r0 or --bin-width-r before any work
        spec = ExperimentSpec(
            kind=ExperimentKind.PASSIVE_PASSIVE,
            tau_r0=args.tau_r0,
            tau_l_grid=args.grid,
            n_pairs=args.pairs,
            seed=args.seed,
            bin_width_r=args.bin_width_r,
        )
    except ValueError as exc:
        ap.error(str(exc))

    params = load_params(args.params)
    events = generate(GeneratorConfig(seed=args.seed, n_pairs=args.pairs), params)
    result = run_experiment(spec, params, events=events)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    write_scan_csv(args.out, result, __version__)
    print(f"wrote {args.out}")

    for label, rows in (
        ("object measured first (tau_l < tau_r0)",
         [r for r in result.rows if r.tau_l < args.tau_r0]),
        ("meter measured first  (tau_l > tau_r0)",
         [r for r in result.rows if r.tau_l > args.tau_r0]),
    ):
        tested = passed = 0
        for row in rows:
            for fam in FAMILIES:
                est = getattr(row, fam)
                if est.flagged:
                    continue
                tested += 1
                if abs(est.value - est.twin) <= 3.0 * max(est.sigma, 1e-12):
                    passed += 1
        print(f"  {label}: {passed}/{tested} unflagged bins fit the closed forms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
