#!/usr/bin/env python3
"""Benchmark of the kaon-eraser simulator.

Run from the root of a source checkout:

    python3 bench/run.py --workload eraser_scan --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` of the same checkout; without it the
benchmark exits with code 2 and prints no result.  One process runs one
workload as a closed loop (one client, the next iteration starts when the
previous one has finished) for ``--seconds`` seconds, checking the outputs
of every iteration.  ``--trace 0`` reports the end-to-end metrics, their
times scaled to a nominal host speed (see ``hostspeed``), ``--trace 1``
the per-layer metrics of a traced run.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; metric names and units are the
ones listed in ``BENCHMARK.json``.  Details, including the spans and
provenance, go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORK_DIR = BENCH_DIR / "work"

#: fresh processes timed for setup_s (the median is reported).  They are
#: spread evenly over the timed loop: the host's speed drifts over tens of
#: seconds, and probes made back to back would all see the same speed.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_library():
    if not (SRC / "kaon_eraser" / "__init__.py").is_file():
        raise FileNotFoundError(f"no kaon_eraser sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


# --------------------------------------------------------------------------
# Set-up time: fresh interpreters that import the library and build inputs
# --------------------------------------------------------------------------


def setup_only(workloads, args) -> None:
    from kaon_eraser import params

    workloads.WORKLOADS[args.workload](args.seed, WORK_DIR / "probe")
    params.load_params()


def probe_setup(args, clock) -> tuple[float, float]:
    """Start and end of a fresh interpreter that imports the library and
    builds the inputs; the host clock is sampled before and after it."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    clock.sample()
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    t1 = time.perf_counter()
    clock.sample()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return t0, t1


# --------------------------------------------------------------------------
# Tracing: which library functions are wrapped, and the per-layer metrics
# --------------------------------------------------------------------------


def _add_file_bytes(key):
    def after(tracer, result, path, *args, **kwargs):
        # bytes moved are computed from the file size, not measured at the disk
        tracer.extra[key] += os.path.getsize(path)

    return after


def _count_unflagged(tracer, result, spec, *args, **kwargs):
    from workloads import FAMILIES

    kind = spec.kind.value
    estimates = [getattr(row, fam) for row in result.rows for fam in FAMILIES]
    tracer.extra[f"unflagged.{kind}"] += sum(not est.flagged for est in estimates)
    tracer.extra[f"estimates.{kind}"] += len(estimates)


def build_tracer():
    from kaon_eraser import cli, decay, experiments, generator, pair, params, probabilities
    from tracer import Tracer

    t = Tracer()
    t.add_function(generator.generate, "generator.generate")
    t.add_function(generator.sampling_kernel, "generator.sampling_kernel")
    t.add_function(generator.write_events, "generator.write_events",
                   after=_add_file_bytes("write_events.bytes"))
    t.add_function(generator.read_events, "generator.read_events",
                   after=_add_file_bytes("read_events.bytes"))
    t.add_function(generator.mode_pair_chi2, "generator.mode_pair_chi2")
    t.add_function(experiments.run_experiment,
                   lambda spec, *a, **k: f"experiments.run_experiment.{spec.kind.value}",
                   after=_count_unflagged)
    t.add_function(experiments.sort_passive_events, "experiments.sort_passive_events")
    t.add_function(experiments.write_scan_csv, "experiments.write_scan_csv")
    t.add_function(probabilities.window_table, "probabilities.window_table")
    t.add_function(probabilities.survival_weight, "probabilities.survival_weight")
    t.add_function(probabilities.full_table, "probabilities.full_table")
    t.add_classmethod(decay.TransitionAmplitudes, "from_params",
                      "decay.TransitionAmplitudes.from_params")
    t.add_function(decay.passive_probability, "decay.passive_probability")
    t.add_function(decay.integrated_mode_pair_probabilities,
                   "decay.integrated_mode_pair_probabilities")
    t.add_function(pair.evolve_pair, "pair.evolve_pair")
    t.add_function(params.load_params, "params.load_params")
    t.add_function(cli.main, lambda argv=None, *a, **k: f"cli.main.{argv[0] if argv else ''}")
    return t


def layer_metrics(summary: dict, extra: dict) -> dict[str, float]:
    """Per-layer numbers of one traced iteration (0 for a layer that did not run)."""

    def total(name):
        return summary.get(name, {}).get("s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def us_per_call(name):
        return 1e6 * total(name) / calls(name) if calls(name) else 0.0

    m = {
        "generator.generate.s": total("generator.generate"),
        "generator.sampling_kernel.s": total("generator.sampling_kernel"),
        "generator.sampling_kernel.calls": calls("generator.sampling_kernel"),
        "generator.write_events.s": total("generator.write_events"),
        "generator.write_events.mb": extra.get("write_events.bytes", 0.0) / 1e6,
        "generator.read_events.s": total("generator.read_events"),
        "generator.read_events.mb": extra.get("read_events.bytes", 0.0) / 1e6,
        "generator.mode_pair_chi2.s": total("generator.mode_pair_chi2"),
        "experiments.sort_passive_events.s": total("experiments.sort_passive_events"),
        "experiments.sort_passive_events.calls": calls("experiments.sort_passive_events"),
        "experiments.write_scan_csv.s": total("experiments.write_scan_csv"),
        "probabilities.window_table.s": total("probabilities.window_table"),
        "probabilities.window_table.calls": calls("probabilities.window_table"),
        "probabilities.survival_weight.calls": calls("probabilities.survival_weight"),
        "probabilities.full_table.us_per_call": us_per_call("probabilities.full_table"),
        "decay.TransitionAmplitudes.from_params.calls":
            calls("decay.TransitionAmplitudes.from_params"),
        "decay.passive_probability.us_per_call": us_per_call("decay.passive_probability"),
        "decay.integrated_mode_pair_probabilities.s":
            total("decay.integrated_mode_pair_probabilities"),
        "pair.evolve_pair.calls": calls("pair.evolve_pair"),
        "pair.evolve_pair.s": total("pair.evolve_pair"),
        "params.load_params.s": total("params.load_params"),
        "cli.main.generate.s": total("cli.main.generate"),
        "cli.main.experiment.s": total("cli.main.experiment"),
        "cli.self_s": sum(
            summary.get(name, {}).get("self_s", 0.0)
            for name in ("cli.main.generate", "cli.main.experiment")
        ),
    }
    for kind in "abcd":
        m[f"experiments.run_experiment.{kind}.s"] = total(f"experiments.run_experiment.{kind}")
        estimates = extra.get(f"estimates.{kind}", 0)
        m[f"experiments.unflagged_fraction.{kind}"] = (
            extra.get(f"unflagged.{kind}", 0) / estimates if estimates else 0.0
        )
    # per-call generate time (threads=2), the denominator of the speed-up
    m["_generate_per_call_s"] = (
        total("generator.generate") / calls("generator.generate")
        if calls("generator.generate") else 0.0
    )
    return m


# --------------------------------------------------------------------------
# The closed loop
# --------------------------------------------------------------------------


def run_iteration(workload, workloads):
    t0 = time.perf_counter()
    try:
        return workload.run_once()
    except Exception as exc:  # a failing program is reported, not fatal
        traceback.print_exc(file=sys.stderr)
        return workloads.Iteration(time.perf_counter() - t0, 0, 0, [f"raised {exc!r}"])


def run_checks(workload):
    try:
        return workload.run_checks()
    except Exception as exc:  # a failing program is reported, not fatal
        traceback.print_exc(file=sys.stderr)
        return [f"raised {exc!r}"]


def measure(workload, workloads, seconds: float, tracer=None, between=None):
    """Iterate while the next iteration is expected to end within ``seconds``;
    with a tracer, alternate traced and untraced iterations (traced first).
    At least one iteration of each kind runs.  ``between(elapsed)`` is
    called before each iteration, and the workload's host clock is sampled
    before each iteration and after the last; neither counts in ``elapsed``.

    Returns the iterations in order as (traced, Iteration) pairs, their
    (start, end) times, and for each traced one its span range and the
    tracer's extra counts."""
    runs, spans, layers = [], [], []
    paused = 0.0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start - paused
        t0 = time.perf_counter()
        if between is not None:
            between(elapsed)
        workload.clock.sample()
        paused += time.perf_counter() - t0
        n_traced = len(layers)
        n_plain = len(runs) - n_traced
        enough = n_plain and (tracer is None or n_traced)
        if enough and elapsed + statistics.median([t1 - t0 for t0, t1 in spans]) > seconds:
            break
        t0 = time.perf_counter()
        if tracer is None or n_traced > n_plain:
            runs.append((False, run_iteration(workload, workloads)))
        else:
            first = len(tracer)
            tracer.extra.clear()
            tracer.install()
            try:
                it = run_iteration(workload, workloads)
            finally:
                tracer.uninstall()
            runs.append((True, it))
            layers.append((first, len(tracer), dict(tracer.extra)))
        spans.append((t0, time.perf_counter()))
    return runs, spans, layers


def provenance(args) -> dict:
    import numpy
    import scipy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads = import_library()
    except (FileNotFoundError, ImportError) as exc:
        print(f"bench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_only:
        setup_only(workloads, args)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    probes: list[tuple[float, float]] = []   # (start, end) of each set-up probe

    def probe_when_due(elapsed: float) -> None:
        # probe k is due once k / (SETUP_PROBES - 1) of the run has passed
        while (len(probes) < SETUP_PROBES
               and len(probes) * args.seconds <= elapsed * (SETUP_PROBES - 1)):
            probes.append(probe_setup(args, workload.clock))

    cls = workloads.WORKLOADS[args.workload]
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "warmup").mkdir(parents=True)
    tracer = build_tracer() if args.trace else None
    try:
        run_iteration(cls.small(args.seed, workdir / "warmup"), workloads)
        workload = cls(args.seed, workdir)
        runs, spans, layers = measure(workload, workloads, args.seconds, tracer,
                               between=None if args.trace else probe_when_due)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while not args.trace and len(probes) < SETUP_PROBES:
            probes.append(probe_setup(args, workload.clock))
        run_failures = run_checks(workload)
        serial_s = 0.0
        config = workload.generator_config()
        if tracer is not None and config is not None:
            from kaon_eraser import generator, params

            t0 = time.perf_counter()
            generator.generate(config, params.load_params(), threads=1)
            serial_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    iterations = [it for _, it in runs]
    attempted = len(iterations) + (run_failures is not None)
    failed = sum(1 for it in iterations if it.failures) + bool(run_failures)
    for it in iterations:
        for failure in it.failures:
            print(f"bench: check failed: {failure}", file=sys.stderr)
    for failure in run_failures or ():
        print(f"bench: check failed: {failure}", file=sys.stderr)

    # every time reported is scaled to the nominal host speed
    clock = workload.clock
    scaled = [(traced, it, it.seconds * clock.scale(*span)) for (traced, it), span in zip(runs, spans)]
    plain = [(it, seconds) for traced, it, seconds in scaled if not traced]
    wall_s = statistics.median([seconds for _, seconds in plain])
    values: dict[str, float] = {}
    summaries = []
    if args.trace:
        from tracer import summarize

        summaries = [summarize(tracer, first, last) for first, last, _ in layers]
        per_iter = [layer_metrics(summary, extra) for summary, (_, _, extra) in zip(summaries, layers)]
        for name in per_iter[0]:
            values[name] = statistics.median([m[name] for m in per_iter])
        per_call = values.pop("_generate_per_call_s")
        values["generator.generate.speedup"] = serial_s / per_call if per_call else 0.0
        traced_s = [seconds for traced, _, seconds in scaled if traced]
        values["trace_overhead"] = statistics.median(traced_s) / wall_s
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"{args.workload}.spans.npz")
    else:
        values = {
            "setup_s": statistics.median([(t1 - t0) * clock.scale(t0, t1) for t0, t1 in probes]),
            "wall_s": wall_s,
            "rows_per_s": statistics.median([it.rows / seconds for it, seconds in plain]),
            "peak_rss_mb": peak_rss_mb,
            "ok_fraction": 1.0 - failed / attempted,
        }
    missing = sorted(set(units) - set(values))
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    origin = spans[0][0]
    record = {
        "provenance": provenance(args),
        # times as timed, in seconds from the start of the first iteration;
        # the metrics scale each by the host samples around it
        "host_samples": [(t - origin, seconds) for t, seconds in clock.samples],
        "setup_probes": [(t0 - origin, t1 - origin) for t0, t1 in probes],
        "iterations": [
            {"traced": traced, "start": t0 - origin, "end": t1 - origin, "seconds": it.seconds,
             "scale": clock.scale(t0, t1), "rows": it.rows, "pairs": it.pairs,
             "failures": it.failures}
            for (traced, it), (t0, t1) in zip(runs, spans)
        ],
        "run_check_failures": run_failures,
        "scan_sha256": workload.reference_hashes,
        "serial_generate_s": serial_s,
        # per traced iteration and span name: calls, inclusive s, self_s
        "span_summaries": summaries,
        "bytes_moved": "computed from file sizes",
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}.trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"provenance": record["provenance"], "scan_sha256": record["scan_sha256"]}))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
