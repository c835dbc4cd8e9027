import tracemalloc

import numpy as np
import pytest

from orthopt import rng as rng_module
from orthopt.errors import InputError
from orthopt.rng import Rng, draws

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

    @pytest.mark.parametrize("rows", [1, 3, 64])
    @pytest.mark.parametrize("n", [1, 7, 48, 49, 5700])
    def test_normal_rows_are_consecutive_normals(self, n, rows):
        gen, ref = Rng(6, stream=2, counter=2**40), Rng(6, stream=2, counter=2**40)
        block = gen.normal_rows(rows, n)
        assert block.shape == (rows, n)
        for i in range(rows):
            np.testing.assert_array_equal(block[i], ref.normals(n))
        assert gen.counter == ref.counter


class TestDistributions:
    def test_uniforms_in_half_open_unit_interval(self):
        u = Rng(7).uniforms(200_000)
        assert np.all(u > 0.0)
        assert np.all(u <= 1.0)
        assert abs(u.mean() - 0.5) < 0.005

    @pytest.mark.parametrize("counter", [0, 2**64 - 9])
    def test_uniforms_are_top_53_bits_plus_one_over_two_to_the_53(self, counter):
        bits = Rng(13, counter=counter).raw64(4000)
        want = ((bits >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        assert Rng(13, counter=counter).uniforms(4000).tobytes() == want.tobytes()
        assert rng_module._uniforms(np.array([0, 2**64 - 1], dtype=np.uint64)).tolist() == [2.0**-53, 1.0]

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
    def test_sample_without_replacement(self):
        idx = Rng(17).sample_without_replacement(20, 8)
        assert len(idx) == 8
        assert len(set(idx.tolist())) == 8
        assert all(0 <= i < 20 for i in idx)

    def test_sample_full_population_is_permutation(self):
        idx = Rng(19).sample_without_replacement(10, 10)
        assert sorted(idx.tolist()) == list(range(10))

    @pytest.mark.parametrize("counter", [0, 2**40, 2**64 - 3])
    @pytest.mark.parametrize("n_items,k", [(256, 32), (10, 10), (20, 8), (1, 1), (5, 0)])
    def test_sample_matches_scalar_fisher_yates(self, n_items, k, counter):
        # reference: one numpy-scalar offset per swap, as the loop was written
        ref = Rng(21, stream=5, counter=counter)
        pool = np.arange(n_items, dtype=np.int64)
        draws = ref.raw64(k)
        for i in range(k):
            j = i + int(draws[i] % np.uint64(n_items - i))
            pool[i], pool[j] = pool[j], pool[i]
        gen = Rng(21, stream=5, counter=counter)
        got = gen.sample_without_replacement(n_items, k)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, pool[:k])
        assert gen.counter == ref.counter

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


class TestBatchedDraws:
    @pytest.mark.parametrize("normal", [False, True], ids=["uniforms", "normals"])
    @pytest.mark.parametrize(
        "counts",
        [[], [0], [1], [0, 0], [7], [1, 0, 2, 3, 5, 8, 101, 48], [6400] * 5, [192] * 157],
        ids=["none", "zero", "one", "zeros", "odd", "mixed", "snr-block", "trace-block"],
    )
    def test_draws_equal_per_generator_calls(self, normal, counts):
        # counters small, large and near 2**64, so some draws cross the wrap
        def generators():
            return [Rng(8, stream=i, counter=(i, 2**40 + i, 2**64 - 3 - i)[i % 3]) for i in range(len(counts))]

        batched, single = generators(), generators()
        out = draws(batched, counts, normal=normal)
        assert len(out) == len(counts)
        for gen, ref, n, got in zip(batched, single, counts, out):
            want = ref.normals(n) if normal else ref.uniforms(n)
            assert got.shape == want.shape == (n,)
            assert got.tobytes() == want.tobytes()
            assert gen.counter == ref.counter
            assert gen.raw64(3).tolist() == ref.raw64(3).tolist()

    def test_counter_wraps_at_two_to_the_64(self):
        gens = [Rng(5, stream=3, counter=2**64 - 200), Rng(5, stream=4, counter=2**64)]
        got = draws(gens, [1000, 4], normal=False)
        assert [g.counter for g in gens] == [800, 4]
        ref = Rng(5, stream=3, counter=2**64 - 200)
        assert got[0].tobytes() == ref.uniforms(1000).tobytes()
        assert got[1].tobytes() == Rng(5, stream=4).uniforms(4).tobytes()

    def test_peak_memory_stays_below_three_outputs(self):
        # 20 x 5000 normals are 800 KB of output; dropping the raw uint64 buffer before an
        # in-place Box-Muller peaks at about 2.5x that, keeping both at about 4.0x
        gens = [Rng(3, stream=i) for i in range(20)]
        tracemalloc.start()
        try:
            draws(gens, [5000] * 20, normal=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 800_000, peak

    def test_negative_count_rejected(self):
        gens = [Rng(0), Rng(1)]
        with pytest.raises(InputError):
            draws(gens, [3, -1], normal=True)
        assert [g.counter for g in gens] == [0, 0]


class TestElementwiseSlices:
    # draws() runs Box-Muller once over many generators' uniforms, so each value
    # must not depend on where in a contiguous array it sits
    @pytest.mark.parametrize("fn", [np.log, np.sqrt, np.cos, np.sin], ids=lambda fn: fn.__name__)
    def test_function_of_a_slice_equals_function_of_the_slice_alone(self, fn):
        u = Rng(12).uniforms(3000)
        x = {"log": u, "sqrt": -2.0 * np.log(u)}.get(fn.__name__, (2.0 * np.pi) * u)
        whole = fn(x)
        for start in range(0, 40):
            for stop in (start + k for k in (0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100, 1001, 2960)):
                want = whole[start:stop].tobytes()
                assert fn(x[start:stop]).tobytes() == want, (start, stop)
                assert fn(x[start:stop].copy()).tobytes() == want, (start, stop)
