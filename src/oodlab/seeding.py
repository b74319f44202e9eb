"""Deterministic per-component seed derivation.

All randomness in a run flows from one root seed. Each consumer gets its own
stream, derived as ``SeedSequence(entropy=root, spawn_key=(index,))`` with the
fixed component indices below, so adding draws to one component never perturbs
another. The generator algorithm is PCG64 everywhere.
"""

from __future__ import annotations

import numpy as np

COMPONENTS = {
    "train_data": 0,
    "eval_data": 1,
    "hard_out": 2,
    "backbone_init": 3,
    "head_init": 4,
    "batch_in": 5,
    "batch_out": 6,
    "shift_bank": 7,
}


def component_seed(root_seed: int, component: str) -> int:
    """Derive the integer seed for one named component."""
    seq = np.random.SeedSequence(entropy=int(root_seed), spawn_key=(COMPONENTS[component],))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(int(seed)))


def component_rng(root_seed: int, component: str) -> np.random.Generator:
    return rng_from_seed(component_seed(root_seed, component))
