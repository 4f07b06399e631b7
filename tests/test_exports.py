"""The package's public names: each export resolves, removed ones stay gone,
and the benchmark's tracer still finds what it reads."""

import importlib.util
import sys
from pathlib import Path

import kaon_eraser
from kaon_eraser import decay, experiments, generator, kaon, pair, params, probabilities

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"

#: The per-event object view, the outcome-kind pair, the string-keyed
#: eigenvalue lookup, the single-kaon state API and the one-record lifetime
#: classifier, removed because no output depends on them; the generator's
#: own mode-cell table, which ``decay._mode_cells`` replaces; the
#: ``np.loadtxt`` record parser, its record dtype and its bad-line search,
#: which the block parser's grammar and its halving search replace; the scan
#: writer's format list and dedupe, which ``_csv_text``'s rule by dtype
#: replaces, with the formatter imports, and the rows' dedupe helper; the
#: UTF-8 check that ``_line_blocks`` makes as it cuts each block.
REMOVED = {
    experiments: ("classify_event_lifetime", "_ESTIMATE_FORMATS", "_byte_columns",
                  "_once_per_array", "_g17_bytes", "_d_bytes"),
    generator: ("DecayEvent", "PairEvent", "Side", "_cell_weights", "_parse_records",
                "_parses", "_mode_codes", "_RECORD", "_MODE_FIELD", "_bad_line_error",
                "_check_utf8"),
    kaon: ("KaonAmplitude", "ket", "to_basis", "evolve", "project"),
    params: ("lambda_eigenvalue",),
    probabilities: ("Observable",),
}


def test_every_export_resolves():
    assert len(set(kaon_eraser.__all__)) == len(kaon_eraser.__all__)
    missing = [name for name in kaon_eraser.__all__ if not hasattr(kaon_eraser, name)]
    assert missing == []


def test_removed_names_are_gone():
    for module, names in REMOVED.items():
        for name in names:
            assert name not in kaon_eraser.__all__
            assert not hasattr(kaon_eraser, name)
            assert not hasattr(module, name)
    assert not hasattr(generator.EventSet, "pairs")
    assert not hasattr(experiments.ScanResult, "column")
    assert not hasattr(probabilities.JointProbabilityTable, "outcomes")
    # read by no output
    assert not hasattr(pair.PairAmplitude, "tau_l")
    assert not hasattr(pair.PairAmplitude, "tau_r")
    assert not hasattr(probabilities.TimeWindow, "is_point")


def _patchable():
    """Identity of every attribute that the tracer may patch: the names of
    each loaded ``kaon_eraser`` module and of the one traced class."""
    owners = [mod for key, mod in sys.modules.items()
              if key == "kaon_eraser" or key.startswith("kaon_eraser.")]
    owners.append(decay.TransitionAmplitudes)
    return {(id(owner), key): id(value) for owner in owners for key, value in vars(owner).items()}


def test_bench_tracer_reads_the_library(monkeypatch, tmp_path):
    # bench/run.py patches library functions by name and counts unflagged
    # estimates through row.<family>.flagged: a rename breaks it here first
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_DIR / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    from tracer import summarize

    tracer = run.build_tracer()
    before = _patchable()
    original = experiments.run_experiment
    tracer.install()
    try:
        assert experiments.run_experiment is not original
        scan = experiments.ExperimentSpec(
            kind="a", tau_r0=1.0, tau_l_grid=(0.0, 0.5, 1.0), n_pairs=0
        )
        result = experiments.run_experiment(scan, params.PhysicsParams())
        experiments.write_scan_csv(tmp_path / "scan.csv", result, "test")
    finally:
        tracer.uninstall()
    assert _patchable() == before
    summary = summarize(tracer, 0, len(tracer))
    assert summary["experiments.run_experiment.a"]["calls"] == 1
    assert summary["experiments.write_scan_csv"]["calls"] == 1
    assert tracer.extra["unflagged.a"] == 12
