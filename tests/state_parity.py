"""State parity: an engine's written-back rigs against the scalar loop.

Recorded traces pass through the ADC and the Q-format PI, whose
quantizers can hide a small drift inside the engine's thermal chain;
the rigs' declared state cannot.  :func:`assert_state_parity` writes an
engine's state back into its rigs and holds every declared stage of
each one to the scalar rig that ran the same steps.
"""

from __future__ import annotations

from repro.state import state_of
from tests.test_stage_state import _plain, _plain_fields, _stages


def assert_state_parity(engine, rigs, oracles) -> None:
    """``engine.write_back()``; then each rig's stages equal its oracle's.

    ``rigs`` are the engine's rigs in its row order, ``oracles`` the
    scalar rigs (``TestRig.run``/``advance``) that stepped alongside,
    one per row.  Every declared stage reachable from a rig must hold
    the same state (generators by their bit-generator state) and the
    same plain fields.
    """
    engine.write_back()
    assert len(rigs) == len(oracles)
    for row, (rig, oracle) in enumerate(zip(rigs, oracles)):
        sources, targets = _stages(oracle), _stages(rig)
        assert [type(s) for s in sources] == [type(t) for t in targets]
        for source, target in zip(sources, targets):
            name = type(source).__name__
            assert _plain(state_of(target)) == _plain(state_of(source)), \
                (row, name)
            assert _plain_fields(target) == _plain_fields(source), (row, name)
