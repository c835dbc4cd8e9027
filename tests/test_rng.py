import numpy as np
import pytest

from orthopt import rng as rng_module
from orthopt.errors import InputError
from orthopt.rng import Rng

_GOLDEN = 0x9E3779B97F4A7C15


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = Rng(123).raw64(50)
        b = Rng(123).raw64(50)
        np.testing.assert_array_equal(a, b)

    def test_draws_are_pure_functions_of_counter(self):
        # one call for 20 values equals two calls for 10 each
        whole = Rng(9).raw64(20)
        r = Rng(9)
        split = np.concatenate([r.raw64(10), r.raw64(10)])
        np.testing.assert_array_equal(whole, split)
        assert r.counter == 20

    def test_seed_and_stream_change_the_sequence(self):
        base = Rng(1, stream=0).raw64(20)
        assert not np.array_equal(base, Rng(2, stream=0).raw64(20))
        assert not np.array_equal(base, Rng(1, stream=1).raw64(20))

    def test_known_values_frozen(self):
        # guards against accidental changes to the mixing constants: the
        # scalar finalizer reproduces the published splitmix64 sequence for
        # state 0, and the vectorized stream equals the scalar oracle
        # _finalize((key + i * golden) mod 2**64) at small and large counters
        assert [rng_module._finalize(i * _GOLDEN) for i in (1, 2, 3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]
        for counter in (0, 2**40 - 5):
            r = Rng(0, stream=7, counter=counter)
            got = r.raw64(9).tolist()
            want = [
                rng_module._finalize((r._key + i * _GOLDEN) % 2**64)
                for i in range(counter + 1, counter + 10)
            ]
            assert got == want
            assert r.counter == counter + 9

    def test_counter_wraps_at_two_to_the_64(self):
        # the counter lives mod 2**64: position 2**64 is position 0, and a
        # draw that crosses 2**64 continues the scalar oracle mod 2**64
        r = Rng(5, stream=3, counter=2**64)
        np.testing.assert_array_equal(r.raw64(4), Rng(5, stream=3).raw64(4))
        assert r.counter == 4
        start = 2**64 - 200
        r = Rng(5, stream=3, counter=start)
        got = r.raw64(1000).tolist()
        want = [
            rng_module._finalize((r._key + i * _GOLDEN) % 2**64)
            for i in range(start + 1, start + 1001)
        ]
        assert got == want
        assert r.counter == 800

    @pytest.mark.parametrize("n", [1, 7, 8, 48])
    def test_normals_are_box_muller_on_split_uniforms(self, n):
        m = (n + 1) // 2
        u = Rng(4, counter=2**40).uniforms(2 * m)
        r, theta = np.sqrt(-2.0 * np.log(u[:m])), (2.0 * np.pi) * u[m:]
        want = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        gen = Rng(4, counter=2**40)
        np.testing.assert_array_equal(gen.normals(n), want)
        assert gen.counter == 2**40 + 2 * m


class TestDistributions:
    def test_uniforms_in_half_open_unit_interval(self):
        u = Rng(7).uniforms(200_000)
        assert np.all(u > 0.0)
        assert np.all(u <= 1.0)
        assert abs(u.mean() - 0.5) < 0.005

    def test_normals_moments(self):
        z = Rng(11).normals(400_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01
        assert abs(np.mean(z**3)) < 0.02  # symmetric

    def test_normals_odd_count(self):
        z = Rng(3).normals(7)
        assert z.shape == (7,)

    def test_normal_matrix_shape(self):
        m = Rng(5).normal_matrix(4, 6)
        assert m.shape == (4, 6)
        np.testing.assert_array_equal(m.ravel(), Rng(5).normals(24))


class TestIntegersAndSampling:
    def test_integers_bounds(self):
        vals = Rng(13).integers(10_000, 3, 17)
        assert vals.min() >= 3 and vals.max() < 17
        assert set(np.unique(vals)) == set(range(3, 17))

    def test_integers_validation(self):
        with pytest.raises(InputError):
            Rng(0).integers(5, 4, 4)

    def test_sample_without_replacement(self):
        idx = Rng(17).sample_without_replacement(20, 8)
        assert len(idx) == 8
        assert len(set(idx.tolist())) == 8
        assert all(0 <= i < 20 for i in idx)

    def test_sample_full_population_is_permutation(self):
        idx = Rng(19).sample_without_replacement(10, 10)
        assert sorted(idx.tolist()) == list(range(10))

    def test_sample_validation(self):
        with pytest.raises(InputError):
            Rng(0).sample_without_replacement(5, 6)

    def test_negative_count_rejected(self):
        with pytest.raises(InputError):
            Rng(0).raw64(-1)


class TestSubstreams:
    def test_substreams_are_deterministic(self):
        a = Rng(21).substream(4).normals(10)
        b = Rng(21).substream(4).normals(10)
        np.testing.assert_array_equal(a, b)

    def test_substreams_differ_by_tag(self):
        r = Rng(21)
        a = r.substream(0).raw64(20)
        b = r.substream(1).raw64(20)
        assert not np.array_equal(a, b)

    def test_substream_does_not_consume_parent(self):
        r = Rng(23)
        before = r.counter
        r.substream(5)
        assert r.counter == before
