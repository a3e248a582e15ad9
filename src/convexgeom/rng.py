"""Deterministic random-stream management.

All randomness in the package flows from a single 64-bit seed.  Named
sub-streams are derived by hashing string keys into a
``numpy.random.SeedSequence``, so any operation gets a reproducible
generator independent of call order.  Each Monte-Carlo call keys its
stream on its function name, its parameters and its bodies, functions
or measures, all named by the one rule of :func:`substream`, and draws
``chunked`` fixed-size chunks in order from that one generator through
:func:`convexgeom.estimate.mc_draws` or
:func:`convexgeom.estimate.mc_direction_moments`.  A draw of the latter
returns one chunk of vectors z and weights, and the moments |<z, u>|^p
are formed on ``NODE_BLOCK`` sphere-rule nodes u at a time, so each
temporary holds at most one chunk times one node block:
``CHUNK * NODE_BLOCK`` floats, 8 MiB.  Results are therefore bit-reproducible for a
given seed and budget, whatever the order in which cases run.
"""

from __future__ import annotations

import hashlib

import numpy as np

DEFAULT_SEED = 42
CHUNK = 1 << 16
NODE_BLOCK = 16


def _key_to_ints(key: str) -> list[int]:
    digest = hashlib.sha256(key.encode()).digest()
    return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]


def substream(seed: int, *keys) -> np.random.Generator:
    """Generator for the sub-stream identified by ``keys`` under ``seed``.

    A key is named by its ``label`` when it has one (functions, surface
    measures) and by ``str`` otherwise (strings, numbers, bodies).
    """
    entropy = [int(seed)]
    for k in keys:
        entropy.extend(_key_to_ints(str(getattr(k, "label", k))))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def chunked(total: int, chunk: int = CHUNK):
    """Yield chunk sizes covering ``total`` samples in fixed order."""
    done = 0
    while done < total:
        size = min(chunk, total - done)
        yield size
        done += size
