"""The three benchmark workloads and the output checks they run.

Each workload is built from a seed (set-up), then runs one closed-loop
iteration per :meth:`run_once` call.  Only the calls into kaon_eraser are
timed; the checks on their outputs run between the timed sections, and so
do the samples of the host's speed (see ``hostspeed``).  All
library calls go through module attributes (``generator.generate``, not
a name imported once) so that a tracer patching those attributes sees them.

eraser_scan    the paper's four-protocol comparison in memory: Monte Carlo
               generation and the per-protocol row builders, no text I/O.
events_file    the CLI round trip ``generate`` -> event file ->
               ``experiment d --events-in``: event-file write and read.
analytic_grid  closed forms only (analytic scans, full tables, passive
               probabilities): no Monte Carlo and no event I/O.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
from pathlib import Path
from time import perf_counter as _now

import numpy as np
from hostspeed import HostClock

import kaon_eraser
from kaon_eraser import cli, decay, experiments, generator, probabilities
from kaon_eraser import params as kparams
from kaon_eraser.decay import DecayMode, integrated_mode_pair_probabilities
from kaon_eraser.experiments import ExperimentKind, ExperimentSpec
from kaon_eraser.generator import GeneratorConfig
from kaon_eraser.kaon import Basis, Outcome
from kaon_eraser.probabilities import TABLE_SUM_TOL

FAMILIES = ("like", "unlike", "s_ks", "s_kl")
THREADS = 2
PULL_NSIGMA = 5.0
PULL_MIN_SHARE = 0.99
CHI2_MIN_P = 1e-6
PASSIVE_TOL = 1e-9

_MODE_FOR_OUTCOME = {
    Outcome.K0: DecayMode.SEMILEPTONIC_PLUS,
    Outcome.K0BAR: DecayMode.SEMILEPTONIC_MINUS,
    Outcome.KS: DecayMode.TWO_PI,
    Outcome.KL: DecayMode.THREE_PI,
}


@dataclasses.dataclass
class Iteration:
    """Outcome of one closed-loop iteration."""

    seconds: float                 # timed calls into the library only
    rows: int                      # scan rows written
    pairs: int                     # Monte Carlo pairs generated
    failures: list[str]            # failed output checks, empty if correct


def grid(start: float, stop: float, step: float) -> tuple[float, ...]:
    """``start:stop:step`` inclusive of ``stop``, rounded like the scripts do."""
    n = int(math.floor((stop - start) / step + 0.5)) + 1
    return tuple(round(start + k * step, 12) for k in range(n))


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def scan_rows(path: Path) -> int:
    """Data rows of a scan CSV: lines after the comment header and column line."""
    with open(path) as fh:
        body = [line for line in fh if line.strip() and not line.startswith("#")]
    return max(len(body) - 1, 0)


# --------------------------------------------------------------------------
# Output checks (pure functions of the outputs)
# --------------------------------------------------------------------------


def pull_failure(results) -> str | None:
    """At least 99% of unflagged estimates must lie within 5 sigma of their twin."""
    tested = passed = 0
    for result in results:
        for row in result.rows:
            for fam in FAMILIES:
                est = getattr(row, fam)
                if est.flagged:
                    continue
                tested += 1
                if abs(est.value - est.twin) <= PULL_NSIGMA * max(est.sigma, 1e-12):
                    passed += 1
    if tested and passed < PULL_MIN_SHARE * tested:
        return f"only {passed}/{tested} unflagged estimates within {PULL_NSIGMA:g} sigma"
    return None


def forbidden_cell_events(mode_l: np.ndarray, mode_r: np.ndarray, params) -> int:
    """Events in (mode_l, mode_r) cells whose exact probability is 0."""
    counts = np.bincount(
        mode_l.astype(np.int64) * 5 + mode_r.astype(np.int64), minlength=25
    ).reshape(5, 5)
    # bound at import, so a tracer never records the check's own call
    forbidden = integrated_mode_pair_probabilities(params) == 0.0
    return int(counts[forbidden].sum())


def event_failures(events, chi2_p: float, params) -> list[str]:
    failures = []
    if not chi2_p > CHI2_MIN_P:
        failures.append(f"mode_pair_chi2 p = {chi2_p:.3g} <= {CHI2_MIN_P:g}")
    n_bad = forbidden_cell_events(events.mode_l, events.mode_r, params)
    if n_bad:
        failures.append(f"{n_bad} events in structurally forbidden mode cells")
    return failures


def hash_failures(reference: dict[str, str], hashes: dict[str, str]) -> list[str]:
    """Scan files must be byte-identical across the iterations of a run."""
    return [
        f"{name}: sha256 differs from the first iteration"
        for name, digest in hashes.items()
        if reference.get(name, digest) != digest
    ]


def cli_failures(codes: dict[str, int]) -> list[str]:
    return [f"cli {cmd} exited with {code}" for cmd, code in codes.items() if code != 0]


def events_equal(a, b) -> bool:
    """Bitwise equality of two event sets, header fields included."""
    return (
        a.n == b.n
        and a.seed == b.seed
        and a.params_digest == b.params_digest
        and np.float64(a.tau_max).tobytes() == np.float64(b.tau_max).tobytes()
        and np.asarray(a.tau_l, dtype=np.float64).tobytes()
        == np.asarray(b.tau_l, dtype=np.float64).tobytes()
        and np.asarray(a.tau_r, dtype=np.float64).tobytes()
        == np.asarray(b.tau_r, dtype=np.float64).tobytes()
        and np.array_equal(a.mode_l, b.mode_l)
        and np.array_equal(a.mode_r, b.mode_r)
    )


def table_sum_failures(totals) -> list[str]:
    """Every table (given by its sum of probabilities) must sum to 1."""
    bad = [t for t in totals if not abs(t - 1.0) <= TABLE_SUM_TOL]
    if bad:
        worst = max(bad, key=lambda t: abs(t - 1.0))
        return [f"{len(bad)} tables do not sum to 1 (worst {worst!r})"]
    return []


def passive_failures(active: np.ndarray, passive: np.ndarray) -> list[str]:
    diff = np.abs(active - passive)
    if not np.all(diff <= PASSIVE_TOL):
        return [f"passive_probability differs from full_table by up to {np.nanmax(diff):.3g}"]
    return []


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


def _run_cli(argv: list[str]) -> int:
    """Exit code of ``cli.main``; argparse reports usage errors by SystemExit."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 1


class Workload:
    name = ""

    def __init__(self) -> None:
        self.reference_hashes: dict[str, str] | None = None
        self.clock = HostClock()

    def run_once(self) -> Iteration:
        raise NotImplementedError

    def run_checks(self) -> list[str] | None:
        """Failures of the checks made once per run, outside timing; None
        when the workload has no such check."""
        return None

    def generator_config(self) -> GeneratorConfig | None:
        """Sample on which the traced run times a serial ``generate``."""
        return None

    def _finish(self, seconds: float, paths: list[Path], pairs: int, failures: list[str]):
        hashes = {p.name: sha256_file(p) for p in paths}
        if self.reference_hashes is None:
            self.reference_hashes = hashes
        failures = failures + hash_failures(self.reference_hashes, hashes)
        rows = sum(scan_rows(p) for p in paths)
        return Iteration(seconds, rows, pairs, failures)


class EraserScan(Workload):
    name = "eraser_scan"

    # 5e5 pairs per protocol, not 1e6: a 30 s run then holds ~10 iterations
    # instead of 4-6, whose median swung by 11% from run to run.
    def __init__(self, seed: int, workdir: Path, n_pairs: int = 500_000) -> None:
        super().__init__()
        scan_grid = grid(0.0, 8.0, 0.2)
        self.jobs = [
            (
                GeneratorConfig(seed=seed + offset, n_pairs=n_pairs),
                ExperimentSpec(
                    kind=kind,
                    tau_r0=2.0,
                    tau_l_grid=scan_grid,
                    n_pairs=n_pairs,
                    seed=seed + 100 + offset,
                    bin_width_r=1.0,
                ),
                workdir / f"scan_{kind.value}.csv",
            )
            for offset, kind in enumerate(ExperimentKind)
        ]

    @classmethod
    def small(cls, seed: int, workdir: Path) -> "EraserScan":
        return cls(seed, workdir, n_pairs=20_000)

    def generator_config(self) -> GeneratorConfig:
        return self.jobs[0][0]

    def run_once(self) -> Iteration:
        timed = 0.0
        failures: list[str] = []
        results = []
        pairs = 0
        t0 = _now()
        params = kparams.load_params()
        timed += _now() - t0
        for config, spec, path in self.jobs:
            t0 = _now()
            events = generator.generate(config, params, threads=THREADS)
            timed += _now() - t0
            self.clock.sample()
            t0 = _now()
            result = experiments.run_experiment(spec, params, events=events)
            experiments.write_scan_csv(path, result, kaon_eraser.__version__)
            _, _, p_value = generator.mode_pair_chi2(events, params)
            timed += _now() - t0
            self.clock.sample()
            pairs += events.n
            failures += [f"{spec.kind.value}: {f}" for f in event_failures(events, p_value, params)]
            results.append(result)
            del events
        pull = pull_failure(results)
        if pull:
            failures.append(pull)
        return self._finish(timed, [job[2] for job in self.jobs], pairs, failures)


class EventsFile(Workload):
    name = "events_file"

    # 2.5e5 pairs, not 1e6: a 30 s run then holds ~14 iterations instead of
    # 3, and the median of 3 swung by 20% from run to run.
    def __init__(self, seed: int, workdir: Path, n_pairs: int = 250_000) -> None:
        super().__init__()
        self.seed = seed
        self.n_pairs = n_pairs
        self.events_path = workdir / "events.csv"
        self.scan_path = workdir / "scan_d.csv"
        self.argv = {
            "generate": [
                "generate", "--pairs", str(n_pairs), "--threads", str(THREADS),
                "--seed", str(seed), "--out", str(self.events_path),
            ],
            "experiment": [
                "experiment", "d", "--events-in", str(self.events_path),
                "--grid", "0:8:0.2", "--tau-r0", "2", "--bin-width-r", "1.0",
                "--seed", str(seed), "--out", str(self.scan_path),
            ],
        }

    @classmethod
    def small(cls, seed: int, workdir: Path) -> "EventsFile":
        return cls(seed, workdir, n_pairs=20_000)

    def generator_config(self) -> GeneratorConfig:
        return GeneratorConfig(seed=self.seed, n_pairs=self.n_pairs)

    def run_once(self) -> Iteration:
        codes: dict[str, int] = {}
        t0 = _now()
        codes["generate"] = _run_cli(self.argv["generate"])
        timed = _now() - t0
        if codes["generate"] == 0:
            self.clock.sample()
            t0 = _now()
            codes["experiment"] = _run_cli(self.argv["experiment"])
            timed += _now() - t0
        failures = cli_failures(codes)
        if failures:
            return Iteration(timed, 0, 0, failures)
        return self._finish(timed, [self.scan_path], self.n_pairs, failures)

    def run_checks(self) -> list[str]:
        params = kparams.load_params()
        read_back = generator.read_events(self.events_path)
        fresh = generator.generate(
            GeneratorConfig(seed=self.seed, n_pairs=self.n_pairs), params, threads=THREADS
        )
        if not events_equal(read_back, fresh):
            return ["events read back differ from generate on the same seed"]
        return []


class AnalyticGrid(Workload):
    name = "analytic_grid"

    BASIS_PAIRS = (
        (Basis.STRANGENESS, Basis.STRANGENESS),
        (Basis.STRANGENESS, Basis.LIFETIME),
        (Basis.LIFETIME, Basis.STRANGENESS),
    )
    TAU_R0S = (0.0, 0.5, 2.0, 5.0)

    def __init__(
        self,
        seed: int,
        workdir: Path,
        scan_grid: tuple[float, ...] = grid(0.0, 26.8, 0.01),
        lattice: int = 40,
    ) -> None:
        super().__init__()
        self.jobs = [
            (
                ExperimentSpec(kind=kind, tau_r0=tau_r0, tau_l_grid=scan_grid, n_pairs=0, seed=seed),
                workdir / f"scan_{kind.value}_r{tau_r0:g}.csv",
            )
            for tau_r0 in self.TAU_R0S
            for kind in (ExperimentKind.ACTIVE_ACTIVE, ExperimentKind.PARTIALLY_ACTIVE)
        ]
        rng = np.random.default_rng(seed)
        taus_l = np.sort(rng.uniform(0.0, 10.0, lattice))
        taus_r = np.sort(rng.uniform(0.0, 10.0, lattice))
        self.lattice = [(float(a), float(b)) for a, b in itertools.product(taus_l, taus_r)]

    @classmethod
    def small(cls, seed: int, workdir: Path) -> "AnalyticGrid":
        return cls(seed, workdir, scan_grid=grid(0.0, 26.8, 0.5), lattice=3)

    def run_once(self) -> Iteration:
        # Each timed call's output is reduced at once, outside timing, to the
        # numbers the checks need, so the peak RSS is that of the library.
        timed = 0.0
        totals: list[float] = []
        active: list[float] = []
        passive: list[float] = []
        t0 = _now()
        params = kparams.load_params()
        timed += _now() - t0
        for spec, path in self.jobs:
            t0 = _now()
            result = experiments.run_experiment(spec, params)
            experiments.write_scan_csv(path, result, kaon_eraser.__version__)
            timed += _now() - t0
            self.clock.sample()
            for row in result.rows:
                totals.append(row.like.value + row.unlike.value)
                totals.append(row.s_ks.value + row.s_kl.value)
            del result
        for tau_l, tau_r in self.lattice:
            for kind_l, kind_r in self.BASIS_PAIRS:
                t0 = _now()
                table = probabilities.full_table(kind_l, kind_r, tau_l, tau_r, params)
                for out_l, out_r in table.p:
                    passive.append(
                        decay.passive_probability(
                            _MODE_FOR_OUTCOME[out_l], tau_l, _MODE_FOR_OUTCOME[out_r], tau_r, params
                        )
                    )
                timed += _now() - t0
                totals.append(table.total())
                active.extend(table.p.values())
        t0 = _now()
        integrated = decay.integrated_mode_pair_probabilities(params)
        timed += _now() - t0
        totals.append(float(integrated.sum()))
        failures = table_sum_failures(totals)
        failures += passive_failures(np.asarray(active), np.asarray(passive))
        return self._finish(timed, [job[1] for job in self.jobs], 0, failures)

WORKLOADS = {w.name: w for w in (EraserScan, EventsFile, AnalyticGrid)}
