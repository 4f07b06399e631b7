import builtins
import errno
import inspect
import io
import json
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import kaon_eraser
from kaon_eraser import (
    EventSet,
    ExperimentSpec,
    GeneratorConfig,
    sampling_kernel,
    sort_passive_events,
    write_events,
)
from kaon_eraser.cli import (
    EXIT_FORMAT,
    EXIT_IO,
    EXIT_USAGE,
    _MAX_GRID_POINTS,
    _build_parser,
    _parse_grid,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_grid():
    grid = _parse_grid("0:1:0.25")
    assert grid == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert len(_parse_grid("0:26.8:0.2")) == 135
    with pytest.raises(ValueError):
        _parse_grid("0:1")
    with pytest.raises(ValueError):
        _parse_grid("1:0:0.5")


#: Address-space cap of the child process that parses bad grids.
_CHILD_MEMORY = 600 << 20

# Parses each grid of argv[1:] with ``_parse_grid`` and prints one line per
# grid: its text and "ValueError", or the number of points.
_PARSE_GRIDS = """
import sys
from kaon_eraser.cli import _parse_grid
for text in sys.argv[1:]:
    try:
        print(text, len(_parse_grid(text)))
    except ValueError:
        print(text, "ValueError")
"""


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (_CHILD_MEMORY, _CHILD_MEMORY))


def _parse_grids_in_child(texts):
    """Lines printed by ``_PARSE_GRIDS`` for ``texts``.

    A parser that counts towards a stop it never reaches, or builds a
    list of 1e12 points, runs until memory runs out, so the grids are
    parsed in a child process with its address space capped and a time
    limit: a regression fails the test with a MemoryError (or a timeout)
    in the child.
    """
    src = str(Path(kaon_eraser.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env["OPENBLAS_NUM_THREADS"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", _PARSE_GRIDS, *texts],
        capture_output=True, text=True, timeout=120, env=env, preexec_fn=_cap_memory,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.splitlines()


def test_parse_grid_rejects_non_finite_values():
    texts = ["0:inf:0.1", "0:nan:0.1", "0:1:nan", "nan:1:0.1", "0:1:inf", "0:1:0.5"]
    expected = [f"{text} ValueError" for text in texts[:-1]] + ["0:1:0.5 3"]
    assert _parse_grids_in_child(texts) == expected


def test_parse_grid_bounds_point_count():
    assert _MAX_GRID_POINTS == 1_000_000
    texts = ["0:1e12:1", "0:2e6:1", "5:5.2:1e-7", "0:1e5:1", "0:1e6:1"]
    expected = [f"{text} ValueError" for text in texts[:3]] + ["0:1e5:1 100001", "0:1e6:1 1000001"]
    assert _parse_grids_in_child(texts) == expected


def test_defaults_are_the_library_defaults():
    # the CLI, the kernel and the passive sorter read each default from its
    # dataclass field; the values stay as they were
    parser = _build_parser()
    gen = parser.parse_args(["generate", "--pairs", "1", "--out", "x"])
    exp = parser.parse_args(["experiment", "a", "--tau-r0", "1", "--grid", "0:1:1", "--out", "x"])
    assert gen.tau_max == GeneratorConfig.tau_max == 50.0
    assert inspect.signature(sampling_kernel).parameters["tau_max"].default == 50.0
    spec = ExperimentSpec("a", 1.0, (0.0,), 0)
    assert (exp.seed, exp.bin_width, exp.min_count) == (0, 0.2, 5)
    assert (spec.seed, spec.bin_width_l, spec.bin_width_r, spec.min_count) == (0, 0.2, 0.2, 5)
    assert inspect.signature(sort_passive_events).parameters["min_count"].default == 5


def test_table_epr_point(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--left", "strangeness", "--right", "strangeness",
        "--tau-l", "1.0", "--tau-r", "1.0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["p"]["K0,K0"] == 0.0
    assert payload["p"]["K0,K0bar"] == 0.5
    assert payload["p"]["K0bar,K0"] == 0.5
    assert payload["p"]["K0bar,K0bar"] == 0.0


def test_table_mixed_quarter(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--left", "strangeness", "--right", "lifetime",
        "--tau-l", "1.0", "--tau-r", "1.0",
    )
    assert code == 0
    payload = json.loads(out)
    assert all(v == 0.25 for v in payload["p"].values())


def test_table_negative_time_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--left", "strangeness", "--right", "strangeness",
              "--tau-l", "-1.0", "--tau-r", "0.0"])
    assert exc.value.code == EXIT_USAGE
    assert "--tau-l" in capsys.readouterr().err


@pytest.mark.parametrize(
    "left, right, flag, value",
    [
        ("strangeness", "strangeness", "--tau-l", "nan"),
        ("strangeness", "strangeness", "--tau-r", "nan"),
        ("strangeness", "lifetime", "--tau-r", "inf"),
        ("lifetime", "lifetime", "--tau-l", "inf"),
    ],
)
def test_table_non_finite_time_usage_error(capsys, left, right, flag, value):
    argv = ["table", "--left", left, "--right", right, "--tau-l", "1.0", "--tau-r", "1.0"]
    argv[argv.index(flag) + 1] = value
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"{flag} must be finite" in captured.err
    assert value in captured.err
    assert captured.out == ""


def test_generate_deterministic_and_counted(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        code, _, _ = run_cli(
            capsys, "generate", "--pairs", "1000", "--seed", "5", "--out", str(out)
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(data) == 1000
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["outputs"] == [str(out1)]


def test_generate_manifest_digest_round_trip(tmp_path, capsys):
    out = tmp_path / "ev.csv"
    code, _, _ = run_cli(
        capsys, "generate", "--pairs", "100", "--seed", "1", "--out", str(out)
    )
    assert code == 0
    manifest = json.loads((tmp_path / "ev.csv.manifest.json").read_text())
    from kaon_eraser import load_params

    assert load_params(manifest["params"]).digest() == manifest["params_digest"]
    # event bytes depend on NumPy (Philox, Generator.random) and SciPy (expit)
    import scipy

    assert manifest["libraries"] == {"numpy": np.__version__, "scipy": scipy.__version__}


def test_generate_unwritable_path(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "generate", "--pairs", "10", "--seed", "1",
        "--out", str(tmp_path / "missing_dir" / "ev.csv"),
    )
    assert code == EXIT_IO
    assert "missing_dir" in err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_generate_refuses_non_finite_tau_max(tmp_path, capsys, value):
    # an infinite horizon truncates nothing, but JSON cannot hold it: the
    # manifest would read "tau_max": Infinity
    code, _, err = run_cli(
        capsys, "generate", "--pairs", "10", "--tau-max", value,
        "--out", str(tmp_path / "ev.csv"),
    )
    assert code == EXIT_USAGE
    assert "tau_max must be finite" in err
    assert list(tmp_path.iterdir()) == []


def test_generate_refuses_tau_max_whose_horizon_overflows(tmp_path, capsys):
    # the longest horizon, tau_max * gamma_s / gamma_l, is inf at defaults
    # for tau_max above about 3.1e305; drawing with it overflowed in divide
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(
            capsys, "generate", "--pairs", "2000", "--tau-max", "1e306",
            "--out", str(tmp_path / "ev.csv"),
        )
    assert code == EXIT_USAGE
    assert "horizon" in err
    assert list(tmp_path.iterdir()) == []


def test_experiment_analytic_fringe_table(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, _, _ = run_cli(
        capsys, "experiment", "a", "--tau-r0", "0", "--grid", "0:26.8:0.2",
        "--pairs", "0", "--out", str(out),
    )
    assert code == 0
    data = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][1:]
    assert len(data) == 135
    unlike = np.array([float(ln.split(",")[6]) for ln in data])
    # two full oscillation periods: at least four interior extrema
    sign_changes = np.sum(np.abs(np.diff(np.sign(np.diff(unlike)))) > 0)
    assert sign_changes >= 4


@pytest.mark.parametrize(
    "flag, value",
    [("--tau-r0", "nan"), ("--tau-r0", "inf"), ("--bin-width", "nan"), ("--bin-width-r", "inf")],
)
def test_experiment_non_finite_usage_error(tmp_path, capsys, flag, value):
    out = tmp_path / "scan.csv"
    code, _, err = run_cli(
        capsys, "experiment", "a", "--tau-r0", "1", "--grid", "0:1:0.5",
        "--out", str(out), flag, value,
    )
    assert code == EXIT_USAGE
    assert "finite" in err
    assert not list(tmp_path.iterdir())


def test_experiment_where_survival_underflows_names_it(tmp_path):
    # no pair survives to tau_r0 = 1e308: the scan is refused with the cause,
    # not with NumPy's divide warnings and a range check; run as a command,
    # so that stderr is what a user sees
    src = str(Path(kaon_eraser.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "x.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "kaon_eraser.cli", "experiment", "a", "--tau-r0", "1e308",
         "--grid", "0:1:0.5", "--out", str(out)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == EXIT_USAGE
    assert "meter window [1e+308, 1e+308]" in proc.stderr
    assert "underflows to 0: no pair survives" in proc.stderr
    assert "Warning" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("content, named", [
    (b'{"delta_m": 1' + b"0" * 400 + b"}", "key 'delta_m'"),
    (b'\xff{"delta_m": 0.5}', "{path}: not UTF-8 text"),
], ids=["integer-beyond-float", "not-utf8"])
def test_table_refuses_a_bad_params_file_by_name(tmp_path, content, named):
    # an integer beyond the float range, and a file that is not UTF-8, are
    # refused like any other bad params file; run as a command, so that
    # stderr is what a user sees
    src = str(Path(kaon_eraser.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    path = tmp_path / "params.json"
    path.write_bytes(content)
    proc = subprocess.run(
        [sys.executable, "-m", "kaon_eraser.cli", "table", "--left", "strangeness",
         "--right", "strangeness", "--tau-l", "1", "--tau-r", "1", "--params", str(path)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == EXIT_USAGE
    assert named.format(path=path) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_a_params_integer_past_the_digit_limit_is_refused_by_name(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"delta_m": 1' + "0" * 5000 + "}")
    assert main(["table", "--left", "strangeness", "--right", "strangeness", "--tau-l", "1",
                 "--tau-r", "1", "--params", str(path)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert err.startswith(f"kaon-eraser: {path}: not valid JSON: ")
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["generate", "--pairs", "1000000000000"],
    ["experiment", "a", "--tau-r0", "0", "--grid", "0:1:0.5", "--pairs", "1000000000000"],
])
def test_a_sample_too_large_for_memory_exits_2(tmp_path, capsys, monkeypatch, argv):
    # never allocated for real: a host that overcommits may grant it
    def too_large(config, params, threads=1):
        raise MemoryError(f"Unable to allocate {config.n_pairs} pairs")

    monkeypatch.setattr("kaon_eraser.cli.generate", too_large)
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "kaon-eraser: not enough memory: Unable to allocate 1000000000000 pairs\n"
    assert list(tmp_path.iterdir()) == []


def test_experiment_requires_tau_r0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "b", "--grid", "0:1:0.5", "--out", "x.csv"])
    assert exc.value.code == EXIT_USAGE
    assert "--tau-r0" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["generate", "--pairs", "0"], "--pairs must be >= 1"),
    (["experiment", "a", "--tau-r0", "-1", "--grid", "0:1:0.5"], "--tau-r0 must be >= 0"),
])
def test_flags_out_of_range_usage_error(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "x.csv")])
    assert exc.value.code == EXIT_USAGE
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_usage_error(tmp_path, capsys, threads):
    commands = [
        ["generate", "--pairs", "10"],
        ["experiment", "a", "--tau-r0", "1", "--grid", "0:1:0.5"],
    ]
    for argv in commands:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--threads", threads, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == EXIT_USAGE
        assert "--threads must be >= 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_experiment_events_in_and_threads_identical(tmp_path, capsys):
    events_path = tmp_path / "ev.csv"
    code, _, _ = run_cli(
        capsys, "generate", "--pairs", "30000", "--seed", "9", "--out", str(events_path)
    )
    assert code == 0
    outputs = []
    for threads in ("1", "2", "8"):
        out = tmp_path / f"scan_{threads}.csv"
        code, _, _ = run_cli(
            capsys, "experiment", "d", "--tau-r0", "1", "--grid", "0:4:0.5",
            "--pairs", "30000", "--seed", "9", "--bin-width-r", "1.0",
            "--events-in", str(events_path), "--threads", threads, "--out", str(out),
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_experiment_events_in_sets_pair_count(tmp_path, capsys):
    events_path = tmp_path / "ev.csv"
    assert run_cli(
        capsys, "generate", "--pairs", "5000", "--seed", "4", "--out", str(events_path)
    )[0] == 0
    out = tmp_path / "scan.csv"
    code, _, _ = run_cli(
        capsys, "experiment", "d", "--tau-r0", "1", "--grid", "0:2:0.5",
        "--events-in", str(events_path), "--out", str(out),
    )
    assert code == 0
    manifest = json.loads((tmp_path / "scan.csv.manifest.json").read_text())
    assert manifest["spec"]["n_pairs"] == 5000


def test_experiment_refuses_empty_event_file(tmp_path, capsys, default_params):
    # the scan would state n_pairs=0, the mark of an analytic scan, over
    # flagged 0 +- 0 columns
    events_path = tmp_path / "ev.csv"
    empty = np.zeros(0)
    no_modes = np.zeros(0, dtype=np.int8)
    write_events(events_path, EventSet(empty, no_modes, empty, no_modes, 0, 50.0,
                                       default_params.digest()))
    code, _, err = run_cli(
        capsys, "experiment", "a", "--tau-r0", "1", "--grid", "0:1:0.5",
        "--events-in", str(events_path), "--out", str(tmp_path / "scan.csv"),
    )
    assert code == EXIT_USAGE
    assert "n_pairs >= 1" in err
    assert list(tmp_path.iterdir()) == [events_path]


@pytest.mark.parametrize("kind, source", [
    ("a", "analytic"), ("a", "events"), ("b", "events"), ("c", "events"), ("d", "events"),
])
def test_experiment_refuses_negative_seed(tmp_path, capsys, kind, source):
    # c draws only in rows that hold a semileptonic record, and a and b
    # only with events, so the seed is checked before any scan
    argv = ["experiment", kind, "--tau-r0", "1", "--grid", "0:2:0.5", "--seed", "-1",
            "--out", str(tmp_path / "scan.csv")]
    if source == "events":
        events_path = tmp_path / "ev.csv"
        assert run_cli(
            capsys, "generate", "--pairs", "2000", "--seed", "4", "--out", str(events_path)
        )[0] == 0
        argv += ["--events-in", str(events_path)]
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert "seed must be an integer in [0, 2**64), got -1" in err
    assert not (tmp_path / "scan.csv").exists()


def test_experiment_refuses_events_from_other_params(tmp_path, capsys):
    events_path = tmp_path / "ev.csv"
    assert run_cli(
        capsys, "generate", "--pairs", "2000", "--seed", "4", "--out", str(events_path)
    )[0] == 0
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps({"delta_m": 0.5}))
    out = tmp_path / "scan.csv"
    code, _, err = run_cli(
        capsys, "experiment", "d", "--tau-r0", "1", "--grid", "0:2:0.5",
        "--events-in", str(events_path), "--params", str(params_path), "--out", str(out),
    )
    assert code == EXIT_USAGE
    assert "params_digest" in err
    assert not out.exists()
    assert not (tmp_path / "scan.csv.manifest.json").exists()


def test_experiment_accepts_events_from_same_params_file(tmp_path, capsys):
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps({"delta_m": 0.5}))
    events_path = tmp_path / "ev.csv"
    assert run_cli(
        capsys, "generate", "--pairs", "2000", "--seed", "4",
        "--params", str(params_path), "--out", str(events_path),
    )[0] == 0
    code, _, _ = run_cli(
        capsys, "experiment", "d", "--tau-r0", "1", "--grid", "0:2:0.5",
        "--events-in", str(events_path), "--params", str(params_path),
        "--out", str(tmp_path / "scan.csv"),
    )
    assert code == 0


def test_experiment_rejects_malformed_event_file(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("junk\n")
    code, _, err = run_cli(
        capsys, "experiment", "d", "--tau-r0", "1", "--grid", "0:2:0.5",
        "--pairs", "10", "--events-in", str(bad), "--out", str(tmp_path / "s.csv"),
    )
    assert code == EXIT_FORMAT
    assert "line 1" in err


def test_experiment_refuses_event_file_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(
        b"# kaon-eraser events v1\n# seed=0 n_pairs=2 tau_max=50 params_digest=x\n"
        b"id,tau_l,mode_l,tau_r,mode_r\n0,1.0,TwoPi,1.0,ThreePi\n1,1.0,Two\xffPi,1.0,TwoPi\n"
    )
    code, _, err = run_cli(
        capsys, "experiment", "d", "--tau-r0", "1", "--grid", "0:2:0.5",
        "--pairs", "10", "--events-in", str(bad), "--out", str(tmp_path / "s.csv"),
    )
    assert code == EXIT_FORMAT
    assert "not UTF-8" in err


def test_experiment_refuses_event_file_with_nan_tau_max(tmp_path, capsys):
    # a NaN tau_max once read, and the manifest recorded it as null
    events_path = tmp_path / "ev.csv"
    assert run_cli(capsys, "generate", "--pairs", "100", "--out", str(events_path))[0] == 0
    data = events_path.read_bytes()
    start = data.index(b"tau_max=") + len(b"tau_max=")
    events_path.write_bytes(data[:start] + b"nan" + data[data.index(b" ", start):])
    out = tmp_path / "scan.csv"
    code, _, err = run_cli(
        capsys, "experiment", "d", "--tau-r0", "1", "--grid", "0:2:0.5",
        "--events-in", str(events_path), "--out", str(out),
    )
    assert code == EXIT_FORMAT
    assert "line 2: tau_max must be finite" in err
    assert not out.exists()
    assert not (tmp_path / "scan.csv.manifest.json").exists()


def test_experiment_scan_manifest(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, _, _ = run_cli(
        capsys, "experiment", "c", "--tau-r0", "1", "--grid", "0:2:0.5",
        "--pairs", "5000", "--seed", "2", "--out", str(out),
    )
    assert code == 0
    manifest = json.loads((tmp_path / "scan.csv.manifest.json").read_text())
    assert manifest["spec"]["kind"] == "c"
    assert manifest["tool_version"]
    assert "libraries" not in manifest


def test_experiment_manifest_records_event_provenance(tmp_path, capsys):
    events_path = tmp_path / "ev.csv"
    assert run_cli(
        capsys, "generate", "--pairs", "3000", "--seed", "17", "--tau-max", "60",
        "--out", str(events_path),
    )[0] == 0
    out = tmp_path / "scan.csv"
    code, _, _ = run_cli(
        capsys, "experiment", "d", "--tau-r0", "1", "--grid", "0:2:0.5", "--seed", "3",
        "--events-in", str(events_path), "--out", str(out),
    )
    assert code == 0
    manifest = json.loads((tmp_path / "scan.csv.manifest.json").read_text())
    generated = json.loads((tmp_path / "ev.csv.manifest.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["events"] == {
        "seed": 17,
        "n_pairs": 3000,
        "tau_max": 60.0,
        "params_digest": generated["params_digest"],
    }
    # a scan of events drawn in the same run has no event file to describe
    code, _, _ = run_cli(
        capsys, "experiment", "d", "--tau-r0", "1", "--grid", "0:2:0.5", "--pairs", "1000",
        "--out", str(out),
    )
    assert code == 0
    assert "events" not in json.loads((tmp_path / "scan.csv.manifest.json").read_text())


class _FullDisk:
    """A text file whose writes raise ENOSPC once ``room`` characters are used."""

    def __init__(self, fh, room):
        self._fh, self._room = fh, room

    def write(self, text):
        if len(text) > self._room:
            self._fh.write(text[: self._room])
            self._room = 0
            raise OSError(errno.ENOSPC, "No space left on device", self._fh.name)
        self._room -= len(text)
        return self._fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


def _fill_disk_for(monkeypatch, directory, manifest, room=40):
    """Make text files opened for writing in ``directory`` fail with ENOSPC
    after ``room`` characters: the manifests if ``manifest``, else the
    data files (temporary names included)."""
    real_open = io.open

    def open_(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if isinstance(file, (str, os.PathLike)) and "w" in mode:
            path = Path(file)
            if path.parent == directory and ("manifest" in path.name) == manifest:
                return _FullDisk(fh, room)
        return fh

    monkeypatch.setattr(builtins, "open", open_)
    monkeypatch.setattr(io, "open", open_)


_WRITES = {
    "generate": ["generate", "--pairs", "300", "--seed", "{seed}"],
    "experiment": ["experiment", "c", "--tau-r0", "1", "--grid", "0:2:0.5", "--pairs", "2000",
                   "--seed", "{seed}"],
}


@pytest.mark.parametrize("earlier", [False, True])
@pytest.mark.parametrize("target", ["out.csv", "out.csv.manifest.json"])
@pytest.mark.parametrize("command", sorted(_WRITES))
def test_failed_write_leaves_no_partial_file(tmp_path, capsys, monkeypatch, command, target,
                                             earlier):
    # a write that fails partway through (here: the disk fills) must leave
    # the target as it was: absent, or holding the earlier complete file
    out = tmp_path / "out.csv"

    def run(seed):
        argv = [a.format(seed=seed) for a in _WRITES[command]] + ["--out", str(out)]
        return run_cli(capsys, *argv)

    before = {}
    if earlier:
        assert run(1)[0] == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    _fill_disk_for(monkeypatch, tmp_path, manifest=target.endswith(".manifest.json"))
    code, _, err = run(2)
    monkeypatch.undo()
    assert code == EXIT_IO, err
    assert "No space left" in err
    path = tmp_path / target
    if earlier:
        assert path.read_bytes() == before[target]
    else:
        assert not path.exists()
    # and no temporary file is left behind
    assert {p.name for p in tmp_path.iterdir()} <= {"out.csv", "out.csv.manifest.json"}
    # nor a data file beside a manifest of another run, whichever write failed
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_device_target_is_written_in_place(tmp_path, capsys):
    # a device cannot be replaced: a link to /dev/null must stay a link
    link = tmp_path / "out.csv"
    link.symlink_to(os.devnull)
    code, _, err = run_cli(capsys, "generate", "--pairs", "10", "--out", str(link))
    assert code == 0, err
    assert link.is_symlink()
    assert {p.name for p in tmp_path.iterdir()} == {"out.csv", "out.csv.manifest.json"}
