"""Deterministic random streams.

Every source of randomness in the package descends from one master seed.
Each consumer asks for a named stream; the name is hashed into the seed
sequence, so streams are independent of each other and of consumption
order.  Re-running with the same master seed reproduces every draw
byte for byte.
"""

from __future__ import annotations

import zlib

import numpy as np

# fixed stream identifiers; new consumers append, never renumber
STREAMS = {
    "extractor-weights": 1,
    "generator-init": 2,
    "noise": 3,
    "schedule": 4,
    "derangement": 5,
    "transfer-init": 6,
    "transfer-noise": 7,
    "transfer-content": 8,
}


def _stream_id(name: str) -> int:
    if name in STREAMS:
        return STREAMS[name]
    # unknown names still get a stable id, disjoint from the registry
    return 0x10000 + zlib.crc32(name.encode())


def stream(master_seed: int, name: str) -> np.random.Generator:
    """An independent generator for the stream ``name``.

    The same (seed, name) always yields the same generator state.
    """
    seq = np.random.SeedSequence([int(master_seed), _stream_id(name)])
    return np.random.Generator(np.random.PCG64(seq))
