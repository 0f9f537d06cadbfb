"""Seeded randomness and the uniform-measure sampler.

The distributional checks are statistical by nature; they run on fixed seeds
so the suite stays deterministic, and the thresholds leave wide margins
(the morally-null hypotheses hold with p-values far above the cut).
"""

import numpy as np
import pytest
from scipy import stats

from su4c.haar import SeededRng, sample_su4
from su4c.linalg import _special_unitary_projection, is_unitary


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(1234).generator.random(16)
        b = SeededRng(1234).generator.random(16)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = SeededRng(0).generator.random(16)
        b = SeededRng(1).generator.random(16)
        assert not np.array_equal(a, b)

    def test_spawn_deterministic(self):
        kids1 = SeededRng(7).spawn(3)
        kids2 = SeededRng(7).spawn(3)
        for k1, k2 in zip(kids1, kids2):
            assert np.array_equal(k1.generator.random(8), k2.generator.random(8))

    def test_spawn_streams_are_distinct(self):
        kids = SeededRng(7).spawn(4)
        draws = [tuple(k.generator.random(4)) for k in kids]
        assert len(set(draws)) == 4

    def test_spawn_independent_of_parent_draws(self):
        r1 = SeededRng(5)
        r1.generator.random(100)  # consuming the parent must not move children
        r2 = SeededRng(5)
        a = r1.spawn(1)[0].generator.random(8)
        b = r2.spawn(1)[0].generator.random(8)
        assert np.array_equal(a, b)

    def test_child_is_the_spawned_stream(self):
        # spawning in pieces hands out the same children in order
        pieces = SeededRng(9)
        again = pieces.spawn(2) + pieces.spawn(3)
        kids = SeededRng(9).spawn(5)
        for k1, k2 in zip(again, kids):
            assert np.array_equal(k1.generator.random(8), k2.generator.random(8))
        # and spawning leaves the parent's own draws where they were, so
        # benchmark's unitaries do not depend on the streams it spawns
        assert np.array_equal(pieces.generator.random(8), SeededRng(9).generator.random(8))


class TestSampleSu4:
    def test_postconditions(self):
        rng = SeededRng(11)
        for _ in range(500):
            u = sample_su4(rng)
            assert u.shape == (4, 4)
            assert is_unitary(u, atol=1e-12)
            assert abs(np.linalg.det(u) - 1.0) < 1e-12

    def test_deterministic(self):
        u1 = sample_su4(SeededRng(42))
        u2 = sample_su4(SeededRng(42))
        assert np.array_equal(u1, u2)

    def test_trace_second_moment(self):
        # E |Tr u|^2 = 1 exactly under the invariant measure
        rng = SeededRng(0)
        n = 20_000
        acc = sum(abs(np.trace(sample_su4(rng))) ** 2 for _ in range(n))
        assert acc / n == pytest.approx(1.0, abs=0.05)

    def test_left_invariance_two_sample(self):
        # statistical: fixed seeds, observed p ~ 0.36 >> 0.01
        fixed = sample_su4(SeededRng(99))
        r1, r2 = SeededRng(1), SeededRng(2)
        a = np.array([abs(sample_su4(r1)[0, 0]) ** 2 for _ in range(10_000)])
        b = np.array([abs((fixed @ sample_su4(r2))[0, 0]) ** 2 for _ in range(10_000)])
        assert stats.ks_2samp(a, b).pvalue > 0.01

    def test_column_phases_uniform(self):
        # arg(u[0,0]) must be uniform on the circle; statistical, fixed seed
        rng = SeededRng(3)
        angles = np.array([np.angle(sample_su4(rng)[0, 0]) for _ in range(10_000)])
        counts, _ = np.histogram(angles, bins=16, range=(-np.pi, np.pi))
        assert stats.chisquare(counts).pvalue > 0.01

    def test_naive_qr_would_fail_the_moment(self):
        # mutation check: dropping the diagonal-phase correction after QR
        # biases the measure; the second moment then sits near 1.8, far from
        # the 1.00 +- 0.03 the sampler must satisfy
        gen = np.random.Generator(np.random.PCG64(0))
        n = 10_000
        acc = 0.0
        for _ in range(n):
            g = (
                gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
            ) / np.sqrt(2.0)
            q, _ = np.linalg.qr(g)  # deliberately skipping the phase fix
            su, _ = _special_unitary_projection(q[None])
            acc += abs(np.trace(su[0])) ** 2
        assert abs(acc / n - 1.0) > 0.5
