"""The package's public names: each export resolves, removed ones stay gone."""

import kaon_eraser
from kaon_eraser import experiments, generator, probabilities

#: The per-event object view and the outcome-kind pair, removed because
#: no output depends on them.
REMOVED = {
    generator: ("DecayEvent", "PairEvent", "Side"),
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
