"""Golden sha256 of small scan files.

The hashes pin the scan CSV bytes across commits, not only within one
run: a change to the closed forms, the row builders or the CSV writer
that moves any printed digit shows up here.  They were computed before
the twins moved to the array core of :mod:`kaon_eraser.probabilities`,
so they also pin that core to the scalar arithmetic it replaced.
"""

import hashlib

import pytest

from kaon_eraser import (
    ExperimentKind,
    ExperimentSpec,
    GeneratorConfig,
    generate,
    run_experiment,
    write_scan_csv,
)

ANALYTIC_GRID = tuple(round(0.05 * k, 12) for k in range(241))  # 0:12:0.05
MC_GRID = tuple(round(0.2 * k, 12) for k in range(41))  # 0:8:0.2
MC_PAIRS = 20_000

ANALYTIC_HASHES = {
    ("a", 0.0): "937d4a0b463244ba4b29b565e1856e4b33fa45c2a19cc5c49fef4bb6c40605f0",
    ("b", 0.0): "db1410a892e593ccc876b6d50ac375eb4c6abd56978ddeaec5161156f81bf4bf",
    ("a", 0.5): "9f1c1e2cd90617870240f1f1f6caced181f87319fb38b812e979f75bf2d4485f",
    ("b", 0.5): "58701ca6006b2bafa1d5314e3ab3511df4bb2c5d7239bbb33f8b61d8372cf874",
    ("a", 2.0): "18c627fd5868c70c77cd5f999741dbe250549e694ae8acd16a56f8b182ae51c2",
    ("b", 2.0): "d840bf5a95dee0c90d0cf46433abbf949e70bfdfb56314d64b7673cbaf7975cd",
    ("a", 5.0): "bc57ee251609e53f2605993702b5b6f3404f692e7a031421973db6f0b7e8d652",
    ("b", 5.0): "7817a9a3db6acc72083a8c821cc47fceae08139f0d3c06fc74a1e9cfe1b71a6c",
}

MC_HASHES = {
    "a": "b600b4db049d320608a2ac06cfd241d5a3c76b371e854d226ce994d91dba1eaf",
    "b": "2548483d844f904e837b9886ddbbc52e7d182b10835f8b7d2e15f71c814f26c9",
    "c": "a9cdd254b7049ac173ffafe4d73791b38c7c3059b19b4e21d07e1a5d529fe687",
    "d": "5d4cae89b4b950508dc47f404a83c2ec67162b1906a0d2d8f011003726ea17f4",
}


def _scan_sha256(tmp_path, result) -> str:
    path = tmp_path / "scan.csv"
    write_scan_csv(path, result, "test")
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("kind, tau_r0", sorted(ANALYTIC_HASHES))
def test_analytic_scan_bytes(tmp_path, default_params, kind, tau_r0):
    # bin_width_r = 1 clips b's early window at 0 for tau_r0 = 0.5, and
    # shrinks it to the point [0, 0] for tau_r0 = 0
    spec = ExperimentSpec(
        kind=ExperimentKind(kind),
        tau_r0=tau_r0,
        tau_l_grid=ANALYTIC_GRID,
        n_pairs=0,
        bin_width_r=1.0,
    )
    result = run_experiment(spec, default_params)
    assert _scan_sha256(tmp_path, result) == ANALYTIC_HASHES[(kind, tau_r0)]


@pytest.fixture(scope="module")
def events_mc(rich_params):
    return generate(GeneratorConfig(seed=23, n_pairs=MC_PAIRS), rich_params)


@pytest.mark.parametrize("kind", sorted(MC_HASHES))
def test_monte_carlo_scan_bytes(tmp_path, rich_params, events_mc, kind):
    spec = ExperimentSpec(
        kind=ExperimentKind(kind),
        tau_r0=1.0,
        tau_l_grid=MC_GRID,
        n_pairs=MC_PAIRS,
        seed=29,
        bin_width_r=0.6,
    )
    result = run_experiment(spec, rich_params, events=events_mc)
    assert _scan_sha256(tmp_path, result) == MC_HASHES[kind]


def test_scalar_square_in_passive_sigma(tmp_path, rich_params):
    # d's family sigma is sqrt(s_a**2 + s_b**2) on Python floats, where **
    # calls libm pow; the array form computes x * x, which differs in the
    # last bit of s_kl_sigma in row tau_l = 3.25 of this scan
    events = generate(GeneratorConfig(seed=1, n_pairs=60_000), rich_params)
    spec = ExperimentSpec(
        kind=ExperimentKind.PASSIVE_PASSIVE,
        tau_r0=0.0,
        tau_l_grid=tuple(0.25 * k for k in range(20)),
        n_pairs=events.n,
        seed=8,
        bin_width_l=0.5,
        bin_width_r=0.3,
        min_count=3,
    )
    result = run_experiment(spec, rich_params, events=events)
    assert result.rows[13].s_kl.sigma == 0.16099994417638597
    assert _scan_sha256(tmp_path, result) == (
        "c1b62779020bc1ad3c6ecc01cb5458939b6d51357730ab79ed5271de7fa71442"
    )
