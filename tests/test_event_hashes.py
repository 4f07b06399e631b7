"""Golden sha256 of small event files.

The hashes pin the bytes that ``write_events`` gives for a fixed seed
across commits, not only within one run or across thread counts: a
change to the sampling kernel, its sech or its mode table that moves one
draw or one printed digit shows up here.
"""

import hashlib

import pytest

from kaon_eraser import GeneratorConfig, generate, write_events

N_PAIRS = 20_000
SEED = 5

EVENT_HASHES = {
    "default_params": "7a3b4c674038e2008688399e0c745585b1d69d8cf1cedc9d529a5846373e5df2",
    "rich_params": "9aa13508bdd743563f40f08a6c8bc0a4128fd500b1992e1d5423f262dcf9c42f",
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("params_name", sorted(EVENT_HASHES))
def test_event_file_bytes(tmp_path, request, params_name, threads):
    params = request.getfixturevalue(params_name)
    events = generate(GeneratorConfig(seed=SEED, n_pairs=N_PAIRS), params, threads=threads)
    path = tmp_path / "events.csv"
    write_events(path, events)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EVENT_HASHES[params_name]
