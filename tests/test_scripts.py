"""Smoke runs of the two analysis scripts on small samples.

The scripts read the scan families and the ``Estimate`` fields of
:mod:`kaon_eraser.experiments`; these runs check that they still do so
end to end: exit 0, the scan files written and the report printed.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _run(script: str, *argv: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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
    assert all("bins agree" in ln for ln in report)


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
