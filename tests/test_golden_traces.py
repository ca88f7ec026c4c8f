"""Golden-trace regression: the numerics must not drift — at all.

Each checked-in archive under ``tests/golden/`` was produced by
``tests/golden/regen.py`` at fixed seeds.  The tests re-run the same
case functions and compare byte for byte (dtype, shape and raw buffer),
which is strictly stronger than any numeric tolerance: a single ulp of
drift anywhere in the physics, the DSP chain, the RNG consumption order
or the merge logic fails the suite.

The ``*_resume`` archives additionally pin the checkpoint contract:
each was produced by cutting its sibling case at step 737 (not a
recording boundary), round-tripping the live engine through
``save_checkpoint``/``load_checkpoint`` on disk and finishing from the
restored object — so ``test_resume_matches_uninterrupted_bytes``
asserting the pair byte-identical is the durability guarantee in
archive form.

If a change *intends* to alter the numerics, regenerate with::

    PYTHONPATH=src python -m tests.golden.regen

and commit the new archives together with the change that explains them.
"""

import numpy as np
import pytest

from tests.golden.regen import CASES, GOLDEN_DIR, RESUME_PAIRS


@pytest.mark.parametrize("stem", sorted(CASES))
def test_golden_archive_exists(stem):
    assert (GOLDEN_DIR / f"{stem}.npz").exists(), \
        f"missing golden archive {stem}.npz; run tests/golden/regen.py"


@pytest.mark.parametrize("stem", sorted(CASES))
def test_traces_match_golden_bytes(stem):
    live = CASES[stem]()
    with np.load(GOLDEN_DIR / f"{stem}.npz") as archive:
        assert sorted(archive.files) == sorted(live), stem
        for name in archive.files:
            stored = archive[name]
            fresh = np.ascontiguousarray(live[name])
            assert fresh.dtype == stored.dtype, f"{stem}/{name} dtype"
            assert fresh.shape == stored.shape, f"{stem}/{name} shape"
            assert fresh.tobytes() == stored.tobytes(), \
                f"{stem}/{name}: traces drifted from the golden bytes"


@pytest.mark.parametrize("resume_stem,base_stem", sorted(RESUME_PAIRS.items()))
def test_resume_matches_uninterrupted_bytes(resume_stem, base_stem):
    """A checkpointed-and-resumed run equals the uninterrupted one, in bytes.

    Compares the checked-in archives directly (both already pinned to
    their case functions above), so a parity break cannot hide behind a
    joint regeneration.
    """
    with np.load(GOLDEN_DIR / f"{resume_stem}.npz") as resumed, \
            np.load(GOLDEN_DIR / f"{base_stem}.npz") as base:
        assert sorted(resumed.files) == sorted(base.files)
        for name in base.files:
            assert resumed[name].dtype == base[name].dtype, name
            assert resumed[name].shape == base[name].shape, name
            assert resumed[name].tobytes() == base[name].tobytes(), \
                f"{resume_stem}/{name}: resume diverged from {base_stem}"
