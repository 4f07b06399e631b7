"""Smoke runs of the analysis scripts and of the text check on small samples.

The scripts read the scan families and the ``Estimate`` fields of
:mod:`kaon_eraser.experiments`; these runs check that they still do so
end to end: exit 0, the scan files written and the report printed.  A
malformed ``--grid``, ``--pairs``, ``--threads`` or ``--seed``, and a
``--tau-r0`` or bin width that the scan spec refuses, is refused with
exit 2 before any event is drawn or any output path made.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.test_cli import _cap_memory

REPO = Path(__file__).resolve().parent.parent


def _proc(script: str, *argv: str, **kwargs) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *argv],
        capture_output=True, text=True, env=env, timeout=120, **kwargs,
    )


def _run(script: str, *argv: str) -> str:
    proc = _proc(script, *argv)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_OUT_FLAG = {"run_eraser_scan.py": "--out-dir", "delayed_choice_split.py": "--out"}

_BAD_GRIDS = [
    ("0:8:0", "step > 0"),
    ("2:1:0.5", "start <= stop"),
    ("0:nan:0.1", "finite"),
    ("0:8", "start:stop:step"),
]
#: Per script, other flags it refuses: (flag, value, message).  The largest
#: seed of run_eraser_scan.py leaves room for its derived seeds, up to + 103.
_BAD_FLAGS = {
    "run_eraser_scan.py": [
        ("--pairs", "0", "must be >= 1"),
        ("--threads", "0", "must be >= 1"),
        ("--seed", "-1", "must be in [0, "),
        ("--seed", str(2**64 - 103), f"must be in [0, {2**64 - 104}]"),
        ("--seed", "1.5", "expected an integer"),
    ],
    "delayed_choice_split.py": [
        ("--pairs", "0", "must be >= 1"),
        ("--seed", "-1", "must be in [0, "),
        ("--seed", str(2**64), f"must be in [0, {2**64 - 1}]"),
    ],
}

#: Per script, values that parse but that ``ExperimentSpec`` refuses:
#: (flag, value, the spec's message).  argparse reports them without naming
#: the flag.
_BAD_SPEC_FLAGS = {
    "run_eraser_scan.py": [
        ("--bin-width", "0", "bin widths must be > 0"),
        ("--tau-r0", "-1", "tau_r0 must be >= 0, got -1.0"),
        ("--bin-width-r", "nan", "tau_r0, tau_l_grid and bin widths must be finite"),
    ],
    "delayed_choice_split.py": [
        ("--tau-r0", "nan", "tau_r0, tau_l_grid and bin widths must be finite"),
        ("--bin-width-r", "inf", "tau_r0, tau_l_grid and bin widths must be finite"),
        ("--bin-width-r", "0", "bin widths must be > 0"),
    ],
}


def _refusals():
    for script in sorted(_OUT_FLAG):
        for grid, message in _BAD_GRIDS:
            yield pytest.param(script, "--grid", grid, ("argument --grid", message),
                               id=f"{grid}-{message}-{script}")
        for flag, value, message in _BAD_FLAGS[script]:
            yield pytest.param(script, flag, value, (f"argument {flag}", message),
                               id=f"{flag}={value}-{script}")
        for flag, value, message in _BAD_SPEC_FLAGS[script]:
            yield pytest.param(script, flag, value, (f"error: {message}",),
                               id=f"{flag}={value}-{script}")


@pytest.mark.parametrize("script, flag, value, expected", _refusals())
def test_script_refuses_malformed_grid(tmp_path, script, flag, value, expected):
    # also every other malformed flag: each is refused before anything is written
    out = tmp_path / "out"
    proc = _proc(script, _OUT_FLAG[script], str(out), "--pairs", "20000", flag, value)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert all(text in proc.stderr for text in expected), proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    assert proc.stdout == "" and not out.exists()


@pytest.mark.parametrize("script", sorted(_OUT_FLAG))
def test_script_bounds_grid_point_count(tmp_path, script):
    # an unbounded grid would fill memory: the child's address space is capped
    proc = _proc(script, _OUT_FLAG[script], str(tmp_path / "out"), "--grid", "0:1e12:1",
                 preexec_fn=_cap_memory)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "more than 1000000 steps" in proc.stderr


def test_run_eraser_scan(tmp_path):
    out = _run("run_eraser_scan.py", "--out-dir", str(tmp_path), "--pairs", "20000",
               "--grid", "0:2:0.5")
    for kind in "abcd":
        path = tmp_path / f"scan_{kind}.csv"
        assert f"wrote {path}" in out
        data = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        assert len(data) == 1 + 5  # header and the grid 0, 0.5, ..., 2
    report = [ln for ln in out.splitlines() if " vs " in ln]
    assert len(report) == 6
    assert all(("bins agree" in ln) != ln.endswith("no mutually unflagged bins") for ln in report)
    assert "nan" not in out


def test_run_eraser_scan_reports_pairs_without_common_bins(tmp_path):
    # at 100 pairs protocol d flags every row, so no bin of it is compared
    out = _run("run_eraser_scan.py", "--out-dir", str(tmp_path), "--pairs", "100",
               "--grid", "0:2:0.5")
    report = [ln for ln in out.splitlines() if " vs " in ln]
    assert "  (a) vs (d): no mutually unflagged bins" in report
    assert "nan" not in out


def test_delayed_choice_split(tmp_path):
    path = tmp_path / "split.csv"
    out = _run("delayed_choice_split.py", "--out", str(path), "--pairs", "20000",
               "--grid", "0:4:0.5")
    assert f"wrote {path}" in out
    data = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    assert len(data) == 1 + 9
    report = [ln for ln in out.splitlines() if "unflagged bins fit the closed forms" in ln]
    assert len(report) == 2
    assert "object measured first" in report[0] and "meter measured first" in report[1]


def test_check_g17_finds_no_mismatch_either_way():
    out = _run("check_g17.py", "--values", "6000", "--seed", "1")
    assert out.splitlines()[-1].startswith("0 mismatches in 6000 values")
    # one row per family, each with values read back through the block parser
    rows = [line.split() for line in out.splitlines()[1:-1]]
    assert len(rows) == 6 and all(int(row[-4]) > 0 and row[-3] == "0" for row in rows)
