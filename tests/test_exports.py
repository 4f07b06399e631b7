"""The package's public names: each export resolves, removed ones stay gone,
and the benchmark's tracer still finds what it reads."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import kaon_eraser
from kaon_eraser import cli, decay, experiments, generator, kaon, pair, params, probabilities, textio

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
PACKAGE_DIR = Path(kaon_eraser.__file__).resolve().parent

#: The per-event object view, the outcome-kind pair, the string-keyed
#: eigenvalue lookup, the single-kaon state API and the one-record lifetime
#: classifier, removed because no output depends on them; the generator's
#: own mode-cell table, which ``decay._mode_cells`` replaces; the
#: ``np.loadtxt`` record parser, its record dtype and its bad-line search,
#: which the block parser's grammar and its halving search replace; the scan
#: writer's format list and dedupe, which ``_csv_text``'s rule by dtype
#: replaces, with the formatter imports, and the rows' dedupe helper; the
#: UTF-8 check that ``_line_blocks`` makes as it cuts each block; the event
#: and scan text codec, which moved to ``textio``, and its lazy table
#: builder, which the tables built at import replace; the metadata's own
#: number rule and key table, which the writer's metadata line replaces; the
#: protocols' counting helpers, which one tally per mode code replaces; the
#: scans' record check, which ``EventSet`` makes when a set is built; the
#: checked channel rate, folded into its one caller, ``joint_decay_rate``;
#: the sampler's fringe reach, folded into ``_saturated_cells``; the Born
#: draws' own helper, folded into the one ``_born_columns``.
REMOVED = {
    decay: ("joint_rate_channels",),
    experiments: ("classify_event_lifetime", "_ESTIMATE_FORMATS", "_byte_columns",
                  "_once_per_array", "_g17_bytes", "_d_bytes", "_n_above", "_n_within",
                  "_survivors", "_above_by_mode", "_window_cells", "_check_records",
                  "_born_counts"),
    generator: ("DecayEvent", "PairEvent", "Side", "_cell_weights", "_parse_records",
                "_parses", "_mode_codes", "_RECORD", "_MODE_FIELD", "_bad_line_error",
                "_check_utf8", "_atomic_write", "_csv_text", "_g17_bytes", "_g17_rows",
                "_g17_decimal", "_d_bytes", "_event_lines", "_line_blocks", "_fast_records",
                "_read_records", "_read_header", "_read_times", "_read_names", "_bad_line",
                "_READ_BLOCK", "_PAD", "_HEADER_COLUMNS", "_MODE_BYTES", "_text_tables",
                "_TextTables", "EVENT_SCHEMA_VERSION", "_fringe_reach"),
    kaon: ("KaonAmplitude", "ket", "to_basis", "evolve", "project"),
    params: ("lambda_eigenvalue",),
    probabilities: ("Observable", "_select"),
    textio: ("_TextTables", "_text_tables", "_metadata_number", "_METADATA"),
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


def _names_read(path):
    """Every name that the source at ``path`` reads: as a load, as an
    attribute or as an imported name."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name.rpartition(".")[2])
    return read


def _module_level_names(tree):
    """The functions, classes, class methods and constants that ``tree``
    defines at module level, dunder names left out: Python reads those."""
    for node in tree.body:
        nodes = [node]
        if isinstance(node, ast.ClassDef):
            nodes += [sub for sub in node.body
                      if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for sub in nodes:
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [sub.name]
            elif isinstance(sub, (ast.Assign, ast.AnnAssign)):
                targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            yield from (name for name in names if not re.fullmatch("__.*__", name))


def test_no_package_name_is_read_only_by_tests():
    # a helper kept only for its tests is code that no output depends on:
    # delete it, or fold it into its one caller
    read = set()
    for directory in (PACKAGE_DIR, BENCH_DIR.parent / "scripts", BENCH_DIR):
        for path in directory.glob("*.py"):
            read |= _names_read(path)
    unread = [(path.name, name) for path in sorted(PACKAGE_DIR.glob("*.py"))
              for name in _module_level_names(ast.parse(path.read_text()))
              if name not in read and name not in kaon_eraser.__all__]
    assert unread == []


def _imports(module):
    """``(source, names)`` of every import in ``module``'s source, the source
    as written: ``.decay`` for a relative import, and no names for a plain
    ``import``."""
    found = []
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            found += [(alias.name, []) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            found.append(("." * node.level + (node.module or ""), names))
    return found


def test_textio_imports_only_decay_from_the_package():
    package = [source for source, _ in _imports(textio)
               if source.startswith((".", "kaon_eraser"))]
    assert package == [".decay"]


def test_protocols_and_cli_take_no_private_name_from_the_generator():
    for module in (experiments, cli):
        private = [name for source, names in _imports(module)
                   if source in (".generator", "kaon_eraser.generator")
                   for name in names if name.startswith("_")]
        assert private == [], module.__name__


def test_textio_imports_first_in_a_fresh_interpreter():
    out = subprocess.run([sys.executable, "-c", "import kaon_eraser.textio"],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)})
    assert out.returncode == 0, out.stderr


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
        # the event file, written and read by the names the CLI calls
        events = textio.EventSet(np.array([0.5, 2.0]), np.array([0, 1], np.int8),
                                 np.array([1.0, 0.25]), np.array([1, 0], np.int8),
                                 7, 50.0, "digest")
        cli.write_events(tmp_path / "events.csv", events)
        read_back = cli.read_events(tmp_path / "events.csv")
    finally:
        tracer.uninstall()
    assert _patchable() == before
    summary = summarize(tracer, 0, len(tracer))
    assert summary["experiments.run_experiment.a"]["calls"] == 1
    assert summary["experiments.write_scan_csv"]["calls"] == 1
    assert tracer.extra["unflagged.a"] == 12
    # the bench traces the codec by its names on ``generator``
    assert generator.read_events is textio.read_events
    assert generator.write_events is textio.write_events
    assert summary["generator.write_events"]["calls"] == 1
    assert summary["generator.read_events"]["calls"] == 1
    assert tracer.extra["write_events.bytes"] == tracer.extra["read_events.bytes"] > 0
    assert read_back.tau_r.tolist() == [1.0, 0.25]
