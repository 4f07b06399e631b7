"""Golden sha256 of the analytic tables and point closed forms.

Every cell is printed by ``float.hex``, so the hashes pin each bit across
commits.  ``full_table`` cells are hashed in key order, the order the CLI
prints; ``window_table`` cells with their keys sorted.  The lattice holds
equal times (dt = 0, where the fringe and the lifetime shares are exact
halves), short and long separations, and both point and bin windows.
The hashes were computed before the tables were laid out by one cell
function, so they pin that layout to the four hand-written bodies it
replaced.
"""

import hashlib
import itertools

import pytest

from kaon_eraser import Basis, Outcome, PhysicsParams
from kaon_eraser.cli import main
from kaon_eraser.probabilities import (
    TimeWindow,
    full_table,
    joint_strangeness,
    joint_strangeness_lifetime,
    window_table,
)

TIMES = (0.0, 0.05, 0.5, 1.0, 1.7, 4.0, 12.0, 40.0)
PAIRS = tuple(itertools.product(TIMES, TIMES))
BASES = tuple(itertools.product(Basis, Basis))
S_OUT = (Outcome.K0, Outcome.K0BAR)
L_OUT = (Outcome.KS, Outcome.KL)
BIN_WIDTH = 0.3

TABLE_HASHES = {
    ("default", "full_table"): "3d35914a0af034b4fa776fde5f22dee911d405dad032c334c2bef24e087e73b9",
    ("default", "window_table"): "57b9c9a27388cac7cfabcd997dcbb8d876684e05cfac16de9d47ee9078c3e06b",
    ("default", "joint_strangeness"): "d58fc19611b7f4e358fb6f48432350c92a4996fda0269ffdf5bba1d428a224ef",
    ("default", "joint_strangeness_lifetime"): "757b74580191ecd3304ba055c5bf7b7b39944b4178a14bd1f95ee2d920d5321b",
    ("rich", "full_table"): "569ef9494dad40a2fef18e87e988467d5925ca9956be453f8c21a9a2669d81c3",
    ("rich", "window_table"): "9645af1475c15e5e7ad5a42ea3dfeb9d96f968ced137d9ba02b80ceaf9502285",
    ("rich", "joint_strangeness"): "53936c59811d5621c3569b72f9e7372246fac18071f81b011433eaec2fbb4d20",
    ("rich", "joint_strangeness_lifetime"): "a2386c930e0c8cfbab2cf5c7c2d50e36725e0218a2792935888ca252ba61f0b9",
}

CLI_HASHES = {
    ("strangeness", "strangeness"): "2fdd7d15cca6b3ba3d0fbfe87d260931a84737562ccfbad9800a927b4658f36f",
    ("strangeness", "lifetime"): "07a8c612d8b2ece25e8ef7fba8aa03b412d2fe8b0eaf8aa03b37c6b29c40d3de",
    ("lifetime", "strangeness"): "0e1a2c99c13ac62fedf49245c3d136edb4db82a1bd0baa6d9ca323de57e00114",
    ("lifetime", "lifetime"): "b90ceebafe96d4d139556088fae8779438d0eb75bf12cef095aeb18ddbc75d10",
}


def _hex_cells(p, sort: bool) -> str:
    keys = sorted(p, key=lambda k: (k[0].value, k[1].value)) if sort else list(p)
    return ",".join(f"{a.value}|{b.value}={float(p[(a, b)]).hex()}" for a, b in keys)


def _lines(name: str, params: PhysicsParams):
    for tau_l, tau_r in PAIRS:
        head = f"{tau_l!r},{tau_r!r}"
        if name == "full_table":
            for kl, kr in BASES:
                yield f"{head},{kl.value},{kr.value}:" + _hex_cells(
                    full_table(kl, kr, tau_l, tau_r, params).p, sort=False
                )
        elif name == "window_table":
            windows = (
                (TimeWindow.point(tau_l), TimeWindow.point(tau_r)),
                (TimeWindow.centered(tau_l, BIN_WIDTH), TimeWindow.centered(tau_r, BIN_WIDTH)),
            )
            for (w_l, w_r), (kl, kr) in itertools.product(windows, BASES):
                yield f"{head},{w_l},{w_r},{kl.value},{kr.value}:" + _hex_cells(
                    window_table(kl, kr, w_l, w_r, params).p, sort=True
                )
        else:
            fn = joint_strangeness if name == "joint_strangeness" else joint_strangeness_lifetime
            outcomes_r = S_OUT if name == "joint_strangeness" else L_OUT
            for ol, orr in itertools.product(S_OUT, outcomes_r):
                value = fn(tau_l, tau_r, ol, orr, params)
                yield f"{head},{ol.value},{orr.value}:{float(value).hex()}"


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("which, name", sorted(TABLE_HASHES))
def test_analytic_table_bits(default_params, rich_params, which, name):
    params = default_params if which == "default" else rich_params
    assert _sha256(_lines(name, params)) == TABLE_HASHES[(which, name)]


@pytest.mark.parametrize("left, right", sorted(CLI_HASHES))
def test_cli_table_stdout(capsys, left, right):
    out = []
    for tau_l, tau_r in (("1.5", "0.25"), ("0.7", "0.7"), ("0", "9.5")):
        code = main(["table", "--left", left, "--right", right, "--tau-l", tau_l, "--tau-r", tau_r])
        assert code == 0
        out.append(capsys.readouterr().out)
    assert _sha256(out) == CLI_HASHES[(left, right)]
