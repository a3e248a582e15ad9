"""Unit tests for deterministic stream splitting and chunking."""

import numpy as np

from convexgeom import rng as rngmod


class TestSubstream:
    def test_same_keys_same_stream(self):
        a = rngmod.substream(42, "x", "y").uniform(size=5)
        b = rngmod.substream(42, "x", "y").uniform(size=5)
        assert np.array_equal(a, b)

    def test_different_keys_differ(self):
        a = rngmod.substream(42, "x").uniform(size=5)
        b = rngmod.substream(42, "y").uniform(size=5)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = rngmod.substream(1, "x").uniform(size=5)
        b = rngmod.substream(2, "x").uniform(size=5)
        assert not np.array_equal(a, b)

    def test_objects_are_named_by_their_label(self):
        from convexgeom.bodies import Ball
        from convexgeom.funcspace import bump_profile, radial_function

        f = radial_function(bump_profile(3), Ball(1.0, 2))
        a = rngmod.substream(42, "x", f).uniform(size=5)
        b = rngmod.substream(42, "x", f.label).uniform(size=5)
        assert np.array_equal(a, b)

    def test_numeric_keys_allowed(self):
        a = rngmod.substream(42, "case", 3).uniform(size=3)
        b = rngmod.substream(42, "case", 3).uniform(size=3)
        assert np.array_equal(a, b)


class TestChunked:
    def test_chunks_sum_to_total(self):
        total = rngmod.CHUNK * 2 + 17
        sizes = list(rngmod.chunked(total))
        assert sum(sizes) == total

    def test_fixed_chunk_size(self):
        sizes = list(rngmod.chunked(rngmod.CHUNK * 3))
        assert sizes == [rngmod.CHUNK] * 3

    def test_chunking_invariant_consumption(self):
        # consuming a stream in fixed chunks must not depend on the total
        gen1 = rngmod.substream(7, "t")
        big = np.concatenate([gen1.uniform(size=s) for s in rngmod.chunked(rngmod.CHUNK + 5)])
        gen2 = rngmod.substream(7, "t")
        first = gen2.uniform(size=rngmod.CHUNK)
        assert np.array_equal(big[: rngmod.CHUNK], first)
