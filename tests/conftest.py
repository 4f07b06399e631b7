import numpy as np
import pytest

from kaon_eraser import PhysicsParams, textio


@pytest.fixture
def formatter_calls(monkeypatch):
    """Per text formatter, ``_g17_bytes`` or ``_d_bytes``, the size of the
    array of each call made while the test runs."""
    calls = {}
    for name in ("_g17_bytes", "_d_bytes"):
        formatter = getattr(textio, name)
        monkeypatch.setattr(textio, name,
                            lambda values, name=name, formatter=formatter:
                            calls.setdefault(name, []).append(values.size) or formatter(values))
    return calls


@pytest.fixture(scope="session")
def default_params():
    return PhysicsParams()


@pytest.fixture(scope="session")
def rich_params():
    """A width ratio of 4 with large semileptonic fractions.

    Joint semileptonic statistics at the physical width ratio of 579 are
    far too thin to reconstruct fringes from binned passive counts at
    test-scale sample sizes, so estimator machinery is validated here.
    """
    return PhysicsParams(
        gamma_s=1.0,
        gamma_l=0.25,
        delta_m=0.5,
        br_s_2pi=0.85,
        br_l_3pi=0.4,
        br_semileptonic_s=0.15,
        br_semileptonic_l=0.6,
    )


def random_params(rng: np.random.Generator) -> PhysicsParams:
    """Valid random parameter draw (semileptonic widths tied, gamma_s = 1)."""
    gamma_l = rng.uniform(0.02, 0.8)
    delta_m = rng.uniform(0.0, 3.0)
    bsl_l = rng.uniform(0.05, 0.9)
    bsl_s = bsl_l * gamma_l
    b2pi = rng.uniform(0.05, 1.0 - bsl_s)
    b3pi = rng.uniform(0.05, 1.0 - bsl_l)
    return PhysicsParams(
        gamma_s=1.0,
        gamma_l=gamma_l,
        delta_m=delta_m,
        br_s_2pi=b2pi,
        br_l_3pi=b3pi,
        br_semileptonic_s=bsl_s,
        br_semileptonic_l=bsl_l,
    )
