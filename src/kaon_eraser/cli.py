"""Command-line interface: analytic tables, event generation, eraser scans.

Exit codes: 0 success, 2 usage or validation error, 3 I/O error,
4 data-format error.  All state flows through flags and files; with a
fixed seed every output data file is byte-for-byte reproducible for any
``--threads`` value.  File-producing commands write a
``<out>.manifest.json`` with the run metadata next to each output
(``table`` prints to stdout and produces no files, hence no manifest).
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import math
import sys
from pathlib import Path
from typing import Iterator, Optional

from . import __version__
from .generator import GeneratorConfig, generate
from .textio import EventFormatError, EventSet, _atomic_write, read_events, write_events
from .experiments import (
    ExperimentKind,
    ExperimentSpec,
    run_experiment,
    write_scan_csv,
)
from .kaon import Basis
from .params import ParamsError, load_params
from .probabilities import full_table

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_FORMAT = 4

_BASIS_NAMES = {"strangeness": Basis.STRANGENESS, "lifetime": Basis.LIFETIME}

#: Most steps a --grid may span: a larger grid is refused before its list is built.
_MAX_GRID_POINTS = 1_000_000


def _grid_fields(text: str) -> tuple[float, float, float]:
    """(start, stop, step) of a 'start:stop:step' grid, or ``ValueError``."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be start:stop:step")
    start, stop, step = (float(p) for p in parts)
    if not all(math.isfinite(v) for v in (start, stop, step)):
        # a non-finite stop or step would count towards it without end
        raise ValueError("grid start, stop and step must be finite")
    if step <= 0 or stop < start or start < 0:
        raise ValueError("grid requires 0 <= start <= stop and step > 0")
    if (stop - start) / step > _MAX_GRID_POINTS:
        raise ValueError(f"grid {text!r} spans more than {_MAX_GRID_POINTS} steps")
    return start, stop, step


def _parse_grid(text: str) -> tuple[float, ...]:
    """'start:stop:step' inclusive of stop (up to half a step of slack)."""
    start, stop, step = _grid_fields(text)
    values = []
    k = 0
    while True:
        value = start + k * step
        if value > stop + 0.5 * step:
            break
        values.append(min(value, stop))
        k += 1
    return tuple(values)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kaon-eraser",
        description="Entangled neutral-kaon pair simulator and eraser experiments.",
    )
    parser.add_argument("--version", action="version", version=f"kaon-eraser {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="print an analytic joint-probability table")
    p_table.add_argument("--left", choices=sorted(_BASIS_NAMES), required=True)
    p_table.add_argument("--right", choices=sorted(_BASIS_NAMES), required=True)
    p_table.add_argument("--tau-l", type=float, required=True)
    p_table.add_argument("--tau-r", type=float, required=True)
    p_table.add_argument("--params", type=Path, default=None)

    p_gen = sub.add_parser("generate", help="write a joint decay-event file")
    p_gen.add_argument("--pairs", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--tau-max", type=float, default=GeneratorConfig.tau_max)
    p_gen.add_argument("--threads", type=int, default=1)
    p_gen.add_argument("--params", type=Path, default=None)
    p_gen.add_argument("--out", type=Path, required=True)

    p_exp = sub.add_parser("experiment", help="run one eraser protocol scan")
    p_exp.add_argument("kind", choices=[k.value for k in ExperimentKind])
    p_exp.add_argument("--tau-r0", type=float, required=True)
    p_exp.add_argument("--grid", type=str, required=True, help="tau_l scan as start:stop:step")
    p_exp.add_argument("--pairs", type=int, default=0,
                       help="events to generate; 0 = analytic only (kinds a, b)")
    p_exp.add_argument("--seed", type=int, default=ExperimentSpec.seed)
    p_exp.add_argument("--bin-width", type=float, default=ExperimentSpec.bin_width_l)
    p_exp.add_argument("--bin-width-r", type=float, default=None)
    p_exp.add_argument("--min-count", type=int, default=ExperimentSpec.min_count)
    p_exp.add_argument("--threads", type=int, default=1)
    p_exp.add_argument("--events-in", type=Path, default=None,
                       help="reuse a pre-generated event file (--pairs is then ignored);"
                       " it must come from the same --params")
    p_exp.add_argument("--params", type=Path, default=None)
    p_exp.add_argument("--out", type=Path, required=True)
    return parser


@contextlib.contextmanager
def _manifest_around(
    out_path: Path,
    params,
    spec_echo: dict,
    seed: int,
    started: str,
    events: Optional[EventSet] = None,
    **extra,
) -> Iterator[None]:
    """``<out_path>.manifest.json``, written and flushed under a temporary
    name before the body writes the data file and moved into place right
    after it, so a failed write of either file leaves both as they were.
    ``events``, read from an event file, adds its header; ``extra``, its keys."""
    manifest = {
        "tool_version": __version__,
        "params_digest": params.digest(),
        "params": params.to_dict(),
        "spec": spec_echo,
        "seed": seed,
        "started_at": started,
        "finished_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": [str(out_path)],
        **extra,
    }
    if events is not None:
        manifest["events"] = {
            "seed": events.seed,
            "n_pairs": events.n,
            "tau_max": events.tau_max,
            "params_digest": events.params_digest,
        }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    with _atomic_write(Path(str(out_path) + ".manifest.json")) as fh:
        fh.write(text)
        fh.flush()
        yield


def _cmd_table(args, parser) -> int:
    for flag, value in (("--tau-l", args.tau_l), ("--tau-r", args.tau_r)):
        if not (math.isfinite(value) and value >= 0):
            parser.error(f"{flag} must be finite and >= 0, got {value}")
    params = load_params(args.params)
    table = full_table(
        _BASIS_NAMES[args.left], _BASIS_NAMES[args.right], args.tau_l, args.tau_r, params
    )
    payload = {
        "obs_l": args.left,
        "obs_r": args.right,
        "tau_l": args.tau_l,
        "tau_r": args.tau_r,
        "source": table.source.value,
        "p": {f"{ol.value},{orr.value}": p for (ol, orr), p in table.p.items()},
        "sigma": {f"{ol.value},{orr.value}": s for (ol, orr), s in table.sigma.items()},
        "params_digest": params.digest(),
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_generate(args, parser) -> int:
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    params = load_params(args.params)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    config = GeneratorConfig(seed=args.seed, n_pairs=args.pairs, tau_max=args.tau_max)
    events = generate(config, params, threads=args.threads)
    import numpy
    import scipy  # generate has imported both; the event bytes depend on them
    with _manifest_around(
        args.out,
        params,
        {"command": "generate", "n_pairs": args.pairs, "tau_max": args.tau_max},
        args.seed,
        started,
        libraries={"numpy": numpy.__version__, "scipy": scipy.__version__},
    ):
        write_events(args.out, events)
    return EXIT_OK


def _cmd_experiment(args, parser) -> int:
    if args.tau_r0 < 0:
        parser.error("--tau-r0 must be >= 0")
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    grid = _parse_grid(args.grid)
    params = load_params(args.params)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    events = read_events(args.events_in) if args.events_in is not None else None
    n_pairs = events.n if events is not None else args.pairs
    spec = ExperimentSpec(
        kind=ExperimentKind(args.kind),
        tau_r0=args.tau_r0,
        tau_l_grid=grid,
        n_pairs=n_pairs,
        seed=args.seed,
        bin_width_l=args.bin_width,
        bin_width_r=args.bin_width if args.bin_width_r is None else args.bin_width_r,
        min_count=args.min_count,
    )
    sample = events
    if events is None and spec.n_pairs > 0:
        sample = generate(GeneratorConfig(spec.seed, spec.n_pairs), params, threads=args.threads)
    result = run_experiment(spec, params, events=sample)
    with _manifest_around(
        args.out,
        params,
        {
            "command": "experiment",
            "kind": spec.kind.value,
            "tau_r0": spec.tau_r0,
            "grid": args.grid,
            "n_pairs": spec.n_pairs,
            "bin_width_l": spec.bin_width_l,
            "bin_width_r": spec.bin_width_r,
            "min_count": spec.min_count,
            "events_in": None if args.events_in is None else str(args.events_in),
        },
        args.seed,
        started,
        events=events,
    ):
        write_scan_csv(args.out, result, __version__)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "table": _cmd_table,
        "generate": _cmd_generate,
        "experiment": _cmd_experiment,
    }[args.command]
    try:
        return handler(args, parser)
    except EventFormatError as exc:
        print(f"kaon-eraser: event-file format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (ParamsError, ValueError) as exc:
        print(f"kaon-eraser: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        path = getattr(exc, "filename", None)
        print(f"kaon-eraser: I/O error on {path or 'file'}: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
