"""All randomness flows from one seed through named sub-streams."""

import zlib

import numpy as np


def substream(seed: int, name: str, *extra: int) -> np.random.Generator:
    """Deterministic generator for (seed, stream name, optional indices).

    Independent of worker scheduling: the stream for e.g. ("masking", seq_id)
    is the same no matter which order sequences are processed in.  The key
    goes to SeedSequence as a uint32 array: the same entropy words it makes
    of a list of 32-bit ints, without its per-int coercion.
    """
    key = [int(seed) & 0xFFFFFFFF, zlib.crc32(name.encode("utf-8"))]
    key.extend(int(x) & 0xFFFFFFFF for x in extra)
    return np.random.default_rng(np.random.SeedSequence(np.array(key, dtype=np.uint32)))
