"""Deterministic seed derivation.

All randomness in the package flows from one root seed. Stages derive
child seeds from (root, *keys) so partial re-runs of a pipeline stage
see the same random stream regardless of what ran before it.
"""

import numpy as np

# Stable stage identifiers used in the derivation. Changing these changes
# every downstream random stream, so they are frozen here.
STAGE_IDS = {
    "synth": 1,
    "split": 2,
    "fold": 5,
    "transfer": 6,
}


def derive(root_seed, *keys):
    """Return a SeedSequence for (root_seed, *keys).

    Keys may be ints or stage-name strings from STAGE_IDS.
    """
    entropy = [int(root_seed)]
    for k in keys:
        entropy.append(STAGE_IDS[k] if isinstance(k, str) else int(k))
    return np.random.SeedSequence(entropy)


def rng_for(root_seed, *keys):
    """Generator seeded from derive(root_seed, *keys)."""
    return np.random.Generator(np.random.PCG64(derive(root_seed, *keys)))
