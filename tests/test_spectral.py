import cmath
import decimal
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bohr_members, dft_direct, lambda_weight
from polyprimelab.coloring import TransferredSet, dense_prime_class, make_coloring
from polyprimelab.numtheory import ap_primes, euler_phi, is_prime
from polyprimelab.polynomials import INTEGER_COLORING, PRIME_COLORING, IntPolynomial, rescale
from polyprimelab.spectral import (
    CollisionError,
    DensityFunction,
    bohr_set,
    build_poly_prime_measure,
    build_prime_coloring_measure,
    complete_gauss_sum,
    dft,
    idft,
    large_spectrum,
    restriction_nonzero,
    smooth,
    smoothing_regime,
    transform_pair,
    weighted_exp_sum,
)
from polyprimelab.wtrick import WTrickContext, build_context

GOLDEN = (math.sqrt(5) - 1) / 2


def toy_context(n_modulus: int = 13, cutoff: int = 3) -> WTrickContext:
    """Hand-assembled identity-rescaling context (W = 1, b = 0, K = 1)."""
    psi = IntPolynomial((1, 0, 0))
    return WTrickContext(
        variant=INTEGER_COLORING,
        psi=psi,
        b0=1,
        w0=1,
        num_colors=1,
        coeff_bound=3,
        bp={2: 3, 3: 2},
        cp=None,
        K=1,
        kappa=Fraction(1, 10**4),
        smooth_exponents={},
        W=1,
        b=0,
        n=(n_modulus - 1) // 2,
        N=n_modulus,
        rescaled=rescale(psi, 1, 0),
        M=cutoff,
    )


class TestDft:
    def test_delta(self):
        assert np.allclose(DensityFunction(np.eye(5)[0]).spectrum, np.ones(5), atol=1e-12)

    def test_constant(self):
        spec = DensityFunction(np.ones(5)).spectrum
        assert spec[0] == pytest.approx(5)
        assert np.allclose(spec[1:], 0, atol=1e-9)

    def test_mass_is_zeroth_coefficient(self):
        f = DensityFunction(np.array([0, 1, 1, 0, 0]))
        assert f.spectrum[0] == pytest.approx(f.mass) == pytest.approx(2)

    def test_direct_vs_chirp(self):
        # dft_direct is the oracle at every length; at N = 100003 it sums at
        # 200 frequencies, the ends and the middle among them
        for n in (1, 2, 3, 4, 211, 1024, 2039, 100003):
            rng = np.random.default_rng(n)
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            rows = np.arange(n)
            if n > 10_000:
                rows = np.concatenate(([0, 1, n // 2, n - 1], rng.integers(0, n, 196)))
            d = dft_direct(v, rows)
            c = dft(DensityFunction(v))[rows]
            assert float(np.abs(d - c).max()) <= 1e-9 * float(np.abs(d).max()), n

    @pytest.mark.parametrize("n", [101, 1009, 65537, 211, 2039, 100003, 400009, 1000003])
    def test_matches_numpy_fft_at_large_n(self, n):
        # np.fft.fft is a test oracle only; the two transforms agree far
        # below the 1e-9 of the direct oracle.  L2 is odd at 101, 1009 and
        # 65537 and even at 211, 2039 and 100003, and each has a block of
        # rows that straddles the last kept row of the kernel's spectrum
        v = np.random.default_rng(n).standard_normal(n)
        want = np.fft.fft(v)
        assert np.abs(dft(DensityFunction(v)) - want).max() <= 1e-13 * np.abs(want).max()

    def test_bit_identical_under_concurrent_calls(self):
        # the halves are fixed, so neither a second call nor three callers
        # at once with a 1 us switch interval (six threads on any core
        # count) changes a bit
        import sys
        import threading

        rng = np.random.default_rng(12)
        v = DensityFunction(rng.standard_normal(100003) + 1j * rng.standard_normal(100003))
        want = dft(v)
        assert np.array_equal(dft(v), want)
        results = [None] * 3

        def call(i):
            results[i] = dft(v)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(i,)) for i in range(3)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        for got in results:
            assert np.array_equal(got, want)

    def test_helper_thread_error_reaches_caller(self, monkeypatch):
        import threading

        real = np.fft.fft
        main = threading.main_thread()

        def fail_off_main(*args, **kwargs):
            if threading.current_thread() is not main:
                raise FloatingPointError("helper FFT failed")
            return real(*args, **kwargs)

        from polyprimelab import spectral

        # a length whose FFT passes are long enough to run a helper thread
        n = 100003
        assert spectral._smooth_at_least(2 * n - 1) >= spectral._THREAD_MIN_POINTS
        monkeypatch.setattr(np.fft, "fft", fail_off_main)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="helper FFT failed"):
            dft(DensityFunction(np.arange(float(n))))
        assert threading.active_count() == before

    @pytest.mark.parametrize("n", [1, 2, 3, 101, 32767, 32769, 65537, 100003])
    def test_out_is_bit_identical(self, n):
        # the input is read in place, so a real input and its complex copy,
        # and the pair read a + i b / 2^k and its packed copy, give the same
        # bits; idft reads the conjugate of a read-only input, untouched
        rng = np.random.default_rng(n)
        re, im = rng.standard_normal(n), rng.standard_normal(n)
        f, g = DensityFunction(re), DensityFunction(im)
        assert bits_equal(dft(f), dft(DensityFunction(re.astype(np.complex128))))
        assert bits_equal(dft(f, g, 8.0), dft(DensityFunction(re + 1j * (im / 8.0))))
        c = re + 1j * im
        spec = dft(DensityFunction(c))
        frozen = spec.copy()
        frozen.setflags(write=False)
        want = np.conjugate(dft(DensityFunction(np.conjugate(spec))))
        want /= n
        assert bits_equal(idft(frozen), want) and bits_equal(frozen, spec)

    @pytest.mark.parametrize("n", [10007, 1000003, 5000011])
    def test_table_chirp_matches_reduced_trig(self, n):
        # the chirp from two small tables is within 1e-15 of trig on the
        # exactly reduced phase k^2 mod 2N, at every k < N
        from polyprimelab.spectral import _chirp, _unit_phases

        block = 1 << 18
        chirp = _chirp(n)(block)
        got = np.empty(block, dtype=np.complex128)
        want = np.empty(block, dtype=np.complex128)
        worst = 0.0
        for start in range(0, n, block):
            k = np.arange(start, min(n, start + block), dtype=np.int64)
            m = len(k)
            _unit_phases(k * k, 2 * n, want[:m])
            chirp(k, got[:m])
            worst = max(worst, float(np.abs(got[:m] - want[:m]).max()))
        assert worst <= 1e-15

    @pytest.mark.parametrize("n", [101, 1009, 10007, 65537, 100003])
    def test_threads_do_not_change_a_bit(self, monkeypatch, n):
        # every pass on helper threads, and every pass on the caller, give
        # the transform the cutoff picks, on both sides of it
        from polyprimelab import spectral

        rng = np.random.default_rng(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a, b = rng.standard_normal(n), rng.random(n)
        got = []
        for cutoff in (spectral._THREAD_MIN_POINTS, 0, math.inf):
            monkeypatch.setattr(spectral, "_THREAD_MIN_POINTS", cutoff)
            got.append((dft(DensityFunction(v)), idft(v), *pair_spectra(a, b)))
        for other in got[1:]:
            assert all(bits_equal(x, y) for x, y in zip(got[0], other))

    def test_small_transforms_run_on_the_caller(self, monkeypatch):
        # at N <= 1e4 no helper thread starts
        import threading

        for n in (101, 1009, 10007):
            v = np.random.default_rng(n).standard_normal(n)
            with monkeypatch.context() as m:
                m.setattr(threading, "Thread", lambda **kw: pytest.fail("helper thread"))
                dft(DensityFunction(v))
                pair_spectra(v, v[::-1].copy())

    def test_matches_definition(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(17)
        spec = dft_direct(v)
        for r in range(17):
            want = sum(v[x] * cmath.exp(-2j * cmath.pi * x * r / 17) for x in range(17))
            assert spec[r] == pytest.approx(want, abs=1e-10)

    def test_inversion_and_parseval(self):
        rng = np.random.default_rng(2)
        for n in (1, 5, 101, 499, 100003):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            f = DensityFunction(v)
            assert np.allclose(idft(f.spectrum), v, rtol=0, atol=1e-9 * np.abs(v).max())
            lhs = float((np.abs(v) ** 2).sum())
            rhs = float((np.abs(f.spectrum) ** 2).sum()) / n
            assert rhs == pytest.approx(lhs, rel=1e-9)


def real_test_array(rng, n: int, kind: str, log10_mass: int) -> np.ndarray:
    """A real array of l1 mass about 10^log10_mass: zeros, a 0/1 indicator,
    a nonnegative sparse weight, or signed noise."""
    if kind == "zero":
        return np.zeros(n)
    if kind == "indicator":
        v = (rng.random(n) < 0.3).astype(np.float64)
        v[rng.integers(n)] = 1.0
    elif kind == "sparse":
        v = np.where(rng.random(n) < 0.1, rng.random(n), 0.0)
        v[rng.integers(n)] = 0.5
    else:
        v = rng.standard_normal(n)
    return v * (10.0**log10_mass / np.abs(v).sum())


def bits_equal(got, want) -> bool:
    """Equal to the bit, the sign of each zero included."""
    return np.array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))


def pair_spectra(a, b) -> tuple[np.ndarray, np.ndarray]:
    """The two spectra `transform_pair` caches for a and b, each an array or
    a DensityFunction with no spectrum cached yet."""
    f, g = (x if isinstance(x, DensityFunction) else DensityFunction(x) for x in (a, b))
    assert f._spectrum is None and g._spectrum is None
    transform_pair(f, g)
    return f.spectrum, g.spectrum


def assert_close_to_own_max(got, want):
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


PAIR_SIZES = [1, 2, 3, 4, 9, 15, 64, 97, 100, 211, 256, 1000, 1009, 4096]
PAIR_KINDS = ["zero", "indicator", "sparse", "noise"]


class TestPairedTransforms:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.sampled_from(PAIR_SIZES),
        kinds=st.tuples(st.sampled_from(PAIR_KINDS), st.sampled_from(PAIR_KINDS)),
        masses=st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pair_matches_separate_transforms(self, n, kinds, masses, seed):
        # l1 masses differ by up to 1e12, prime and composite N; each
        # spectrum (and each inverse) agrees to 1e-12 of its own max
        rng = np.random.default_rng(seed)
        a, b = (real_test_array(rng, n, k, m) for k, m in zip(kinds, masses))
        spec_a, spec_b = pair_spectra(a, b)
        assert_close_to_own_max(spec_a, dft(DensityFunction(a)))
        assert_close_to_own_max(spec_b, dft(DensityFunction(b)))

    def test_split_is_exactly_hermitian(self):
        rng = np.random.default_rng(14)
        spec_a, spec_b = pair_spectra(rng.standard_normal(101), rng.random(101) < 0.5)
        for spec in (spec_a, spec_b):
            assert np.array_equal(spec[1:], np.conj(spec[:0:-1]))
            assert spec[0].imag == 0

    def test_zero_partner_exact(self):
        a = np.arange(7.0)
        spec_a, spec_b = pair_spectra(a, np.zeros(7))
        assert not spec_b.any() and np.array_equal(spec_a, dft(DensityFunction(a)))

    def test_complex_rejected(self):
        with pytest.raises(ValueError, match="real"):
            pair_spectra(np.ones(5, dtype=complex), np.ones(5))

    def test_partner_of_other_length_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            pair_spectra(np.ones(5), np.ones(4))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 100, 101, 4096, 100003, 131072])
    def test_split_matches_full_length_formula(self, n):
        # the oracle splits Z over every r with Z(-r) from a rolled copy; the
        # half-range split with conjugate mirrors agrees to the bit, up to
        # the sign of an exact zero
        from polyprimelab.spectral import _pow2_ratio

        rng = np.random.default_rng(n)
        a, b = rng.standard_normal(n), (rng.random(n) < 0.3) * 1e-6
        b[-1] = 1e-6  # not all zero, so Z is split
        scale = _pow2_ratio(float(np.abs(b).sum()), float(np.abs(a).sum()))
        z = np.empty(n, dtype=np.complex128)
        z.real = a
        z.imag = b / scale
        z = dft(DensityFunction(z))
        conj_neg = np.conjugate(np.roll(z[::-1], 1))
        want_a = (z + conj_neg) * 0.5
        want_b = (z - conj_neg) * (-0.5j * scale)
        for got, want in zip(pair_spectra(a, b), (want_a, want_b)):
            assert bits_equal(got + 0.0, want + 0.0)  # -0.0 + 0.0 is 0.0

    @staticmethod
    def traced_peak_over_24l(call) -> int:
        """call()'s traced peak above 24L bytes, at N = 1000003."""
        import tracemalloc

        from polyprimelab.spectral import _smooth_at_least

        size = _smooth_at_least(2 * 1_000_003 - 1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out[0]) == 1_000_003
        return peak - base - 24 * size

    def test_pair_working_set(self):
        # the traced peak is the length-L grid (16L), the kept half of the
        # kernel's spectrum (8L) and a fixed allowance, at N = 1000003: a and
        # b are read in place, and the first spectrum (16N <= 8L) comes after
        # the transform's scratch is freed
        rng = np.random.default_rng(17)
        f, g = DensityFunction(rng.standard_normal(1_000_003)), DensityFunction(rng.random(1_000_003))
        assert self.traced_peak_over_24l(lambda: pair_spectra(f, g)) <= 8 << 20

    @pytest.mark.parametrize("inverse", [False, True], ids=["dft", "idft"])
    def test_transform_working_set(self, inverse):
        # the same bound for one transform: its input is read in place and
        # its output (16N <= 8L) is allocated after the kernel is freed
        rng = np.random.default_rng(19)
        v = rng.standard_normal(1_000_003) + 1j * rng.standard_normal(1_000_003)
        f = DensityFunction(v)
        call = (lambda: [idft(v)]) if inverse else (lambda: [dft(f)])
        assert self.traced_peak_over_24l(call) <= 8 << 20

    def test_scratch_freed_on_return(self):
        # with the cycle collector off, a transform leaves only its output
        # behind: a reference cycle through a pass would keep the grid or
        # the kernel alive until the next collection
        import gc
        import tracemalloc

        n = 100003
        rng = np.random.default_rng(18)
        v, a, b = rng.standard_normal(n), rng.standard_normal(n), rng.random(n)
        pair_spectra(v[:7], b[:7])  # first-call allocations of numpy's FFT
        v, a, b = DensityFunction(v), DensityFunction(a), DensityFunction(b)
        gc.disable()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            spectrum = dft(v)
            after_dft = tracemalloc.get_traced_memory()[0] - base
            spectra = pair_spectra(a, b)
            after_pair = tracemalloc.get_traced_memory()[0] - base - after_dft
        finally:
            tracemalloc.stop()
            gc.enable()
        assert len(spectrum) == len(spectra[1]) == n
        assert 16 * n <= after_dft <= 16 * n + (64 << 10)
        assert 32 * n <= after_pair <= 32 * n + (64 << 10)

    def test_transform_pair_caches_both(self, monkeypatch):
        from polyprimelab import spectral

        calls = []
        real = spectral.dft
        monkeypatch.setattr(
            spectral, "dft", lambda *args, **kwargs: calls.append(len(args[0])) or real(*args, **kwargs)
        )
        rng = np.random.default_rng(15)
        f, g = DensityFunction(rng.random(31)), DensityFunction(rng.random(31) < 0.5)
        transform_pair(f, g)
        assert calls == [31]
        assert np.allclose(f.spectrum, real(DensityFunction(f.values)), atol=1e-12)
        assert np.allclose(g.spectrum, real(DensityFunction(g.values)), atol=1e-12)
        assert calls == [31] and not f.spectrum.flags.writeable

    def test_real_values_are_float64(self, ctx_w6):
        assert build_poly_prime_measure(ctx_w6).values.dtype == np.float64
        assert DensityFunction([1, 0, 1]).values.dtype == np.float64
        assert DensityFunction([1j, 0, 1]).values.dtype == np.complex128


class TestDensityFunction:
    def test_given_spectrum_kept_without_a_transform(self, monkeypatch):
        from polyprimelab import spectral

        monkeypatch.setattr(spectral, "dft", lambda *args, **kwargs: pytest.fail("transform ran"))
        f = DensityFunction(np.eye(5)[1], [1, 2, 3, 4, 5])
        assert f.spectrum.dtype == np.complex128 and not f.spectrum.flags.writeable
        assert f.spectrum.tolist() == [1, 2, 3, 4, 5]


def held(f: DensityFunction) -> DensityFunction:
    """A new copy of f held on its support, with no spectrum cached."""
    return DensityFunction.on_support(f.modulus, f.points, f.weights)


class TestSupportForm:
    # a function held on its support transforms to the bits of its dense
    # array: the fill pass writes the same block either way
    @pytest.fixture(scope="class")
    def integer_pair(self):
        # N = 100003: above _THREAD_MIN_POINTS, so both fill halves run
        ctx = build_context(IntPolynomial((1, 1, 0)), 1, 2, 2, INTEGER_COLORING, {2: 1, 3: 1},
                            300_000)
        members = np.sort(np.random.default_rng(31).choice(ctx.N, ctx.N // 5, replace=False))
        return (build_poly_prime_measure(ctx),
                DensityFunction.on_support(ctx.N, members, np.ones(len(members))))

    @pytest.fixture(scope="class")
    def prime_pair(self, ctx_prime):
        col = make_coloring("primes", ctx_prime.n, 2, "random", 3)
        dens = dense_prime_class(col, ctx_prime)
        return build_poly_prime_measure(ctx_prime), build_prime_coloring_measure(dens)

    @pytest.mark.parametrize("pair", ["integer_pair", "prime_pair"])
    def test_pair_spectra_match_dense(self, request, pair):
        f, g = request.getfixturevalue(pair)
        assert f.points is not None and g.points is not None
        want = pair_spectra(np.array(f.values), np.array(g.values))
        f2, g2 = held(f), held(g)
        for got in (pair_spectra(f2, g2), pair_spectra(held(f), np.array(g.values))):
            assert all(bits_equal(a, b) for a, b in zip(got, want))
        assert bits_equal(f2.spectrum, want[0]) and bits_equal(g2.spectrum, want[1])

    def test_dft_matches_dense(self, integer_pair):
        f = integer_pair[0]
        assert bits_equal(dft(f), dft(DensityFunction(f.values)))

    def test_values_built_on_first_read(self):
        # a support's dense values are built anew on each read, never kept
        f = DensityFunction.on_support(7, [5, 1, 3], [2.0, 0.0, -1.5])
        assert f.points.tolist() == [3, 5] and f.weights.tolist() == [-1.5, 2.0]
        assert f.is_real
        assert f.mass == 0.5  # from a transient array
        assert f.at(np.arange(7)).tolist() == [0, 0, 0, -1.5, 0, 2.0, 0]
        assert f.values.tolist() == [0, 0, 0, -1.5, 0, 2.0, 0] and f.values is not f.values
        assert not f.values.flags.writeable and not f.points.flags.writeable
        dest = np.full(4, 9.0)  # a block is overwritten: zeros and the points in it
        f.read(2, 6, dest, 2.0)
        assert dest.tolist() == [0, -0.75, 0, 1.0]

    def test_mass_and_lookup_match_dense(self, prime_pair):
        for f in prime_pair:
            dense = DensityFunction(np.array(f.values))
            held = DensityFunction.on_support(f.modulus, f.points, f.weights)
            assert held.mass == dense.mass  # the same pairwise sum, to the bit
            xs = np.random.default_rng(37).integers(0, f.modulus, 5000)
            xs = np.concatenate([xs, f.points[:100]])
            assert bits_equal(held.at(xs), dense.at(xs))

    def test_empty_support(self):
        f = DensityFunction.on_support(5, np.zeros(0, dtype=np.int64), np.zeros(0))
        assert f.at(np.arange(5)).tolist() == [0.0] * 5
        assert f.spectrum.tolist() == [0j] * 5

    @pytest.mark.parametrize("form", ["support", "dense", "constant"])
    def test_every_form_transforms_as_its_values(self, form):
        # dft and transform_pair read a DensityFunction held in any form to the
        # bits of its dense values; N = 100003 runs both fill halves
        n = 100_003
        rng = np.random.default_rng(43)

        def make():
            if form == "support":
                points = np.sort(rng.choice(n, n // 7, replace=False))
                return DensityFunction.on_support(n, points, rng.standard_normal(len(points)))
            if form == "dense":
                return DensityFunction(rng.standard_normal(n))
            return DensityFunction.constant(n, np.float64(rng.standard_normal()))

        f, g = make(), make()
        assert len(f) == f.modulus == n
        assert bits_equal(dft(f), dft(DensityFunction(f.values)))
        want = pair_spectra(np.array(f.values), np.array(g.values))
        assert all(bits_equal(a, b) for a, b in zip(pair_spectra(f, g), want))

    def test_callers_arrays_stay_writable(self):
        points, weights = np.array([1, 2]), np.array([1.0, 2.0])
        DensityFunction.on_support(3, points, weights)
        assert points.flags.writeable and weights.flags.writeable

    @pytest.mark.parametrize("points,match", [([1, 1], "twice"), ([0, 5], "outside"),
                                              ([-1, 2], "outside")])
    def test_bad_points_rejected(self, points, match):
        with pytest.raises(ValueError, match=match):
            DensityFunction.on_support(5, points, [1.0, 1.0])


class TestPolyPrimeMeasure:
    def test_toy_values(self):
        m = build_poly_prime_measure(toy_context())
        assert np.flatnonzero(m.values).tolist() == [1, 4]  # z = 1, 2
        assert m.values[1].real == pytest.approx(math.log(2) / 9)
        assert m.values[4].real == pytest.approx(3 * math.log(3) / 9)
        assert m.values[9].real == 0.0  # z = 3 has 1*3+1 = 4 composite

    def test_collision_on_composite_modulus(self):
        # z^2 mod 8 is 1, 4, 1 at z = 1, 2, 3: z = 3 is the first to repeat,
        # and z = 1 took its x = 1 first
        with pytest.raises(CollisionError) as exc:
            build_poly_prime_measure(toy_context(n_modulus=8))
        assert str(exc.value) == "psi_{b,W} collides mod N at z = 1 and z = 3 (x = 1)"

    def test_values_beyond_int64_rejected(self):
        # psi_{b,W}(M) = M^2 = 2^62 leaves room for no forward difference in
        # int64: refused before any array is made
        with pytest.raises(ValueError, match="may leave int64"):
            build_poly_prime_measure(toy_context(cutoff=2**31))

    def test_mass_in_band(self, ctx_w6):
        m = build_poly_prime_measure(ctx_w6)
        assert 0.7 <= m.mass.real <= 1.3

    def test_no_collisions_on_suite(self, context_suite):
        for name, ctx in context_suite:
            m = build_poly_prime_measure(ctx)
            assert len({x % ctx.N for x in (ctx.rescaled(z) for z in range(1, ctx.M + 1))}) == ctx.M, name
            assert m.mass.real >= 0


class TestPrimeColoringMeasure:
    @pytest.fixture
    def ctx(self, request, context_suite):
        if isinstance(request.param, str):
            return dict(context_suite)[request.param]
        coeffs, b0, w0 = request.param
        return build_context(IntPolynomial(coeffs), b0, w0, 2, PRIME_COLORING, {}, 10**4)

    def test_empty_set(self, ctx_prime):
        empty = TransferredSet(ctx_prime, 1, np.zeros(0, dtype=np.int64), np.zeros(0))
        assert build_prime_coloring_measure(empty).mass == 0

    def test_single_point(self, ctx_prime):
        # a member's weight divided by N, and nothing elsewhere
        x0 = 7 * ctx_prime.K
        one = TransferredSet(ctx_prime, 1, np.array([x0]), np.array([2.5]))
        f = build_prime_coloring_measure(one)
        assert f.values[x0] == 2.5 / ctx_prime.N
        assert np.count_nonzero(f.values) == 1

    @pytest.mark.parametrize(
        "ctx",
        [
            "pr-x2x4",  # member 0 maps to psi(b)/2 = 23, a prime
            "pr-x2x-b3w4",  # K = 3
            "pr-x3x-w2",  # K = 4
            ((1, 3, 0), 1, 4),  # K = W = 1 with psi(b)/2 = 0
            ((1, 3, -2), 1, 4),  # K = W = 1 with psi(b)/2 = -1
        ],
        indirect=True,
    )
    def test_matches_per_member_primality(self, ctx):
        # the densest class, its weights and its measure against a
        # prime-by-prime oracle over the admissible x = psi(b)/2 (mod KW)
        kw, half, m = ctx.K * ctx.W, ctx.half_psi_b, ctx.num_colors
        lo = max(ctx.psi(ctx.W), half)
        primes = [x for x in range(lo + (half - lo) % kw, ctx.n + 1, kw) if is_prime(x)]
        for rule in ("random", "residue:7"):
            col = make_coloring("primes", ctx.n, m, rule, 11)
            dens = dense_prime_class(col, ctx)
            sums = [0.0] * (m + 1)
            for p in primes:
                sums[col.color_at[p]] += math.log(p)
            assert dens.color_index == max(range(1, m + 1), key=sums.__getitem__), rule
            sources = (ctx.W * dens.members + half).tolist()
            assert sources == [p for p in primes if col.color_at[p] == dens.color_index]
            assert all(x % ctx.K == 0 for x in dens.members.tolist())
            assert all(is_prime(v) for v in sources)
            want = np.array([euler_phi(kw) / kw * math.log(v) for v in sources])
            assert np.all(np.abs(dens.weights - want) <= 1e-15 * want), rule
            f = build_prime_coloring_measure(dens)
            assert np.array_equal(f.values[dens.members], dens.weights / ctx.N)
            assert np.count_nonzero(f.values) == len(dens.members)

    def test_member_outside_range_rejected(self, ctx_prime):
        bad = TransferredSet(ctx_prime, 1, np.array([0, ctx_prime.N]), np.ones(2))
        with pytest.raises(ValueError, match="outside"):
            build_prime_coloring_measure(bad)

    def test_noncoprime_offset_rejected(self):
        import dataclasses

        # psi(b)/2 = 2 shares the factor 2 with K*W once W is even: the
        # class's weights come from a progression that carries no primes
        psi = IntPolynomial((1, 0, 4))
        bad = dataclasses.replace(
            toy_context(101),
            variant=PRIME_COLORING,
            psi=psi,
            smooth_exponents={2: 1},
            W=2,
            rescaled=rescale(psi, 2, 0),
        )
        with pytest.raises(ValueError, match="gcd"):
            dense_prime_class(make_coloring("primes", bad.n, 1, "random", 0), bad)


class TestLargeSpectrum:
    def test_delta_everything(self):
        assert large_spectrum(DensityFunction(np.eye(7)[0]), 0.5).tolist() == list(range(7))

    def test_above_max_empty(self):
        assert len(large_spectrum(DensityFunction(np.eye(7)[0]), 1.5)) == 0

    def test_zero_in_set_for_unit_mass(self):
        f = DensityFunction(np.full(9, 1 / 9))
        assert 0 in large_spectrum(f, 0.9)

    def test_blocked_scan_matches_one_scan(self):
        # the blocks give what one scan of |fhat| gives, entries exactly at
        # eta included, at and across block boundaries
        from polyprimelab.spectral import _BLOCK

        n, eta = 3 * _BLOCK + 5, 1.5
        rng = np.random.default_rng(23)
        spec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        at_eta = [0, _BLOCK - 1, _BLOCK, 2 * _BLOCK + 7, n - 1]
        spec[at_eta] = [eta, -eta, 1j * eta, -1j * eta, eta]
        spec[[1, _BLOCK + 1]] = np.nextafter(eta, 0)
        got = large_spectrum(DensityFunction(np.zeros(n), spec), eta)
        assert got.dtype == np.int64
        assert got.tolist() == np.flatnonzero(np.abs(spec) >= eta).tolist()
        assert set(at_eta) <= set(got.tolist()) and not {1, _BLOCK + 1} & set(got.tolist())


class TestBohrSet:
    def test_empty_frequencies(self):
        assert len(bohr_members(bohr_set([], Fraction(1, 3), 11))) == 11
        # B = Z_N by eps alone (2L + 1 >= N) is held as the constant 1/N too,
        # whatever R is: no members array, and no inverse of a non-unit first
        # frequency
        for r, eps, n in (([1], Fraction(5, 11), 11), ([3], Fraction(7, 15), 15)):
            b = bohr_set(r, eps, n)
            assert b.points is None and len(bohr_members(b)) == n and smoothing_regime(b) == "constant"

    def test_explicit_count(self):
        b = bohr_set([1], Fraction(1, 10), 101)
        assert len(bohr_members(b)) == 21  # |x| <= 10 around 0 on the 101-cycle

    def test_bound_example(self):
        b = bohr_set([1, 2], Fraction(1, 4), 101)
        assert len(bohr_members(b)) * 4**2 >= 101

    def test_zero_always_member(self):
        b = bohr_set([3, 5, 7], Fraction(1, 5), 97)
        assert 0 in bohr_members(b)

    def test_randomized_bound_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.choice([97, 199, 499]))
            r = rng.choice(n, size=int(rng.integers(0, 4)), replace=False)
            eps = Fraction(int(rng.integers(1, 50)), 100)
            if not 0 < eps < Fraction(1, 2):
                continue
            b = bohr_set(r, eps, n)
            p, q = eps.numerator, eps.denominator
            assert len(bohr_members(b)) * q ** len(r) >= p ** len(r) * n

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.sampled_from([p for p in range(3, 400) if is_prime(p)]),
        freqs=st.lists(st.integers(0, 10**6), max_size=5),
        eps=st.fractions(Fraction(1, 1000), Fraction(499, 1000), max_denominator=1000),
    )
    def test_pigeonhole_bound_property(self, n, freqs, eps):
        p, q = eps.numerator, eps.denominator
        # ||x r / N|| <= p/q in exact integers, by direct scan
        want = [x for x in range(n) if all(q * min(x * r % n, n - x * r % n) <= p * n for r in freqs)]
        assert bohr_members(bohr_set(freqs, eps, n)).tolist() == want
        assert len(want) * q ** len(freqs) >= p ** len(freqs) * n

    @pytest.mark.parametrize("seed", [1024, 16])
    def test_blocked_tail_matches_bruteforce(self, seed):
        # random (N, R, eps) with repeated frequencies and r = 0; the
        # survivors meet the remaining frequencies in 2-D blocks
        rng = np.random.default_rng(seed)
        for _ in range(30):
            n = int(rng.choice([1031, 2003, 4099]))
            r = rng.integers(0, n, size=int(rng.integers(1, 40)))
            r = np.concatenate((r, r[: int(rng.integers(0, len(r) + 1))], [0]))
            rng.shuffle(r)
            eps = Fraction(int(rng.integers(1, 50)), 100)
            p, q = eps.numerator, eps.denominator
            # every (x, r) product at once, ||x r / N|| <= p/q as q * dist <= p * N
            t = np.outer(np.arange(n), r) % n
            want = np.flatnonzero((q * np.minimum(t, n - t) <= p * n).all(axis=1))
            assert bohr_members(bohr_set(r, eps, n)).tolist() == want.tolist()

    @pytest.mark.parametrize("seed", [1, 100, 65536])
    def test_first_frequency_in_blocks(self, seed):
        # the x with ||x r / N|| <= eps for a unit r are the block j r^-1 for
        # |j| <= eps N, alone (|R| = 1) and with more frequencies after it
        rng = np.random.default_rng(seed)
        for n in (2, 1031, 4099):
            for size in (1, 3):
                r = rng.integers(1, n, size=size)
                eps = Fraction(int(rng.integers(1, 50)), 100)
                t = np.outer(np.arange(n), r) % n
                want = np.flatnonzero((eps.denominator * np.minimum(t, n - t) <= eps.numerator * n).all(axis=1))
                assert bohr_members(bohr_set(r, eps, n)).tolist() == want.tolist()

    def test_non_unit_first_frequency_rejected(self):
        with pytest.raises(ValueError, match="not invertible"):
            bohr_set([4, 6], Fraction(1, 8), 12)  # 4 comes first, a non-unit mod 12

    def test_eps_range_enforced(self):
        with pytest.raises(ValueError):
            bohr_set([1], Fraction(1, 2), 11)

    def test_float_eps_rejected(self):
        with pytest.raises(ValueError, match="rational"):
            bohr_set([1], 0.1, 11)

    def test_tiny_radius_is_exact(self):
        # dist * q with q = 10**15 overflows int64; the exact set is {0}
        b = bohr_set([1, 7, 19], Fraction(1, 10**15), 100003)
        assert bohr_members(b).tolist() == [0]

    @pytest.mark.parametrize(
        "eps",
        [
            Fraction(1, 3),
            Fraction(1, 8),
            Fraction(3, 40),
            Fraction(1, 97),
            Fraction(10**17, 3 * 10**17 + 1),
            Fraction(1, 10**20),
            Fraction(2**70 - 1, 2**72),
        ],
    )
    def test_matches_fraction_oracle(self, eps):
        rng = np.random.default_rng(eps.denominator % 2**32)
        for n in (11, 97, 211):
            r = rng.choice(n, size=3, replace=False).tolist()

            def member(x: int) -> bool:
                # ||x r / N|| <= eps, each distance an exact fraction
                return all(min(Fraction(x * f % n, n), 1 - Fraction(x * f % n, n)) <= eps for f in r)

            want = [x for x in range(n) if member(x)]
            assert bohr_members(bohr_set(r, eps, n)).tolist() == want

    def test_full_set_holds_no_length_n_array(self):
        # B = Z_N at N = 1000003: b's weights are one value broadcast with
        # zero stride, and building b allocates well under 8N bytes
        import tracemalloc

        n = 1_000_003
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            b = bohr_set([0], Fraction(1, 8), n)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert smoothing_regime(b) == "constant" and len(b.weights) == n
        assert b.weights.strides == (0,) and peak < 1 << 20


class TestSmooth:
    def test_full_bohr_averages(self):
        rng = np.random.default_rng(8)
        f = DensityFunction(rng.standard_normal(31))
        out = smooth(f, bohr_set([], Fraction(1, 3), 31))
        assert np.allclose(out.values, f.mass / 31, atol=1e-9)

    def test_mass_preserved(self, ctx_w6):
        m = build_poly_prime_measure(ctx_w6)
        b = bohr_set(large_spectrum(m, 0.5), Fraction(1, 8), ctx_w6.N)
        out = smooth(m, b)
        assert out.mass.real == pytest.approx(m.mass.real, rel=1e-9)

    def test_spectrum_identity(self):
        rng = np.random.default_rng(9)
        f = DensityFunction(rng.standard_normal(101))
        b = bohr_set([1, 5], Fraction(1, 5), 101)
        assert smoothing_regime(b) == "fft"
        out = smooth(f, b)
        want = f.spectrum * b.spectrum ** 2
        assert np.allclose(out.spectrum, want, atol=1e-9 * 101)

    def test_carried_spectrum_matches_values(self):
        rng = np.random.default_rng(10)
        n = 1009
        f = DensityFunction(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        out = smooth(f, bohr_set([3, 40], Fraction(1, 6), n))
        assert not out.spectrum.flags.writeable
        assert np.allclose(dft(DensityFunction(out.values)), out.spectrum, rtol=0, atol=1e-9 * n)

    @pytest.mark.parametrize("full", [False, True], ids=["zero", "full"])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_trivial_bohr_matches_fft_formula(self, monkeypatch, full, dtype):
        # B = {0} and B = Z_N run no transform and read no dense b, yet agree
        # with ifft(fft(f) fft(b)^2) for the indicator b built here
        from polyprimelab import spectral

        rng = np.random.default_rng(16)
        n = 101
        v = rng.random(n)
        f = DensityFunction(v + 1j * rng.random(n) if dtype is np.complex128 else v)
        bohr = bohr_set([] if full else [1], Fraction(1, 3) if full else Fraction(1, 1000), n)
        members = bohr_members(bohr)
        assert len(members) == (n if full else 1)
        assert smoothing_regime(bohr) == ("constant" if full else "identity")
        b = np.zeros(n)
        b[members] = 1 / len(members)
        want_spec = np.fft.fft(f.values) * np.fft.fft(b).real ** 2
        want = np.fft.ifft(want_spec)
        with monkeypatch.context() as m:
            for name in ("dft", "idft"):
                m.setattr(spectral, name, lambda *args, **kwargs: pytest.fail("transform ran"))
            out = smooth(f, bohr)
        assert bohr.weights.strides == (0,) if full else len(bohr.weights) == 1
        assert bohr._spectrum is None
        assert out.values.dtype == f.values.dtype
        assert_close_to_own_max(out.values, want if dtype is np.complex128 else want.real)
        assert_close_to_own_max(out.spectrum, want_spec)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["real", "complex"])
    def test_full_bohr_in_closed_form(self, monkeypatch, dtype):
        # at N = 1000003, B = Z_N and the smoothed constant hold no length-N
        # array: no transform runs, the traced peak is the mass's transient
        # dense sum (8N, for the real f held on its support) and 1 MiB, and
        # every array read later is the dense formula's to the bit
        import tracemalloc

        from polyprimelab import counting, spectral
        from polyprimelab.experiments import config_from_sources

        ctx = config_from_sources(None, {"n": 3_000_000, "psi": (1, 1, 0), "b0": 1, "w0": 2}).context()
        n = ctx.N
        assert n == 1_000_003
        rng = np.random.default_rng(39)
        points = np.sort(rng.choice(n, 5000, replace=False))
        dense = np.zeros(n)
        dense[points] = rng.random(5000) / 1000
        if dtype is np.complex128:
            f = DensityFunction(dense + 1j * dense[::-1])
        else:
            f = DensityFunction.on_support(n, points, dense[points])
        eps = Fraction(1, 8)
        for name in ("dft", "idft"):
            monkeypatch.setattr(spectral, name, lambda *args, **kwargs: pytest.fail("transform ran"))
        monkeypatch.setattr(counting, "large_spectrum", lambda f, eta: np.empty(0, dtype=np.int64))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            bohr = bohr_set([], eps, n)
            out = smooth(f, bohr)
            if dtype is np.float64:  # the links of a real function
                _, links, _ = counting.bohr_smoothing(f, ctx, Fraction(1, 4), eps)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n + (1 << 20)
        assert len(bohr_members(bohr)) == n and smoothing_regime(bohr) == "constant"
        assert bohr.weights.strides == out.weights.strides == (0,) and out._spectrum is None
        # the dense formulas: the constant array, the delta spectrum, b = 1/N
        total = f.values.sum()
        values = np.full(n, total / n)
        spec = np.zeros(n, dtype=np.complex128)
        spec[0] = total
        for got, want in ((out.values, values), (out.spectrum, spec), (bohr.values, np.full(n, 1 / n))):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert not got.flags.writeable
        assert out.mass == complex(values.sum()) and out.is_real == (dtype is np.float64)
        if dtype is np.float64:
            kappa = float(ctx.kappa)
            top = max(values.max(initial=0.0), -values.min(initial=0.0))
            assert links["pointwise_measure"]["measured"] == abs(float(top))
            assert links["frak_A"]["measured"] == int(np.count_nonzero(values >= kappa / n))

    def test_fft_regime_working_set(self):
        # at N = 1000003, with f's spectrum cached, the traced peak is the
        # inverse transform's 24L, the smoothed spectrum (16N) and a fixed
        # allowance: b's spectrum (16N) is not cached on b, and is freed
        # before the inverse transform runs
        n = 1_000_003
        rng = np.random.default_rng(23)
        f = DensityFunction.on_support(n, np.sort(rng.choice(n, 20_000, replace=False)), rng.random(20_000))
        f.spectrum
        b = bohr_set([1, 7], Fraction(1, 8), n)
        assert len(b.points) == 35_715
        assert TestPairedTransforms.traced_peak_over_24l(lambda: [smooth(f, b)]) <= 16 * n + (8 << 20)
        assert b._spectrum is None

    def test_dense_even_b_gets_fft_formula(self):
        # an even b held densely, not by bohr_set, is neither a constant nor
        # the identity: smooth convolves with it twice
        n = 11
        bv = np.zeros(n)
        bv[[0, 1, 10]] = 1 / 3
        b = DensityFunction(bv)
        f = DensityFunction(np.random.default_rng(41).random(n))
        want = np.fft.ifft(np.fft.fft(f.values) * np.fft.fft(bv).real ** 2)
        assert_close_to_own_max(smooth(f, b).values, want.real)
        assert smoothing_regime(b) == "fft"

    def test_modulus_mismatch_rejected(self):
        # the B = {0} shortcut must not accept a Bohr set of another modulus
        f = DensityFunction(np.ones(31))
        with pytest.raises(ValueError, match="modulus mismatch"):
            smooth(f, bohr_set([1], Fraction(1, 1000), 11))

    def test_pointwise_diagnostic_reported(self, ctx_w6):
        m = build_poly_prime_measure(ctx_w6)
        b = bohr_set(large_spectrum(m, 0.2), Fraction(1, 5), ctx_w6.N)
        out = smooth(m, b)
        peak = float(np.abs(out.values).max())
        mark = (1 + 2 * float(ctx_w6.kappa)) / ctx_w6.N
        assert peak > 0 and mark > 0  # diagnostic only; no hard threshold


# the measure `spectrum` reports at its default config (N = 10007)
DEFAULT_MEASURE = build_poly_prime_measure(
    build_context(IntPolynomial((1, 1, 0)), 1, 2, 2, INTEGER_COLORING, {2: 1, 3: 1}, 30000)
)


class TestRestrictionNonzero:
    @pytest.mark.parametrize("rho", [1.0, 4.0, 64.0])
    def test_matches_definition(self, rho):
        spec = DEFAULT_MEASURE.spectrum
        want = (np.abs(spec[1:] / spec[0]) ** rho).sum() ** (1 / rho)
        assert restriction_nonzero(DEFAULT_MEASURE, rho) == pytest.approx(want, rel=1e-12)

    def test_finite_where_the_plain_sum_overflows(self):
        # fhat(0) = 11 and fhat(r != 0) = 1: 11^100000 is beyond float64
        f = DensityFunction(np.full(5, 2.0) + np.eye(5)[0])
        assert restriction_nonzero(f, 1e5) == pytest.approx(4 ** 1e-5 / 11, rel=1e-12)

    def test_single_point_and_zero_mass(self):
        assert restriction_nonzero(DensityFunction(np.ones(1)), 4) == 0.0
        with pytest.raises(ValueError, match="fhat"):
            restriction_nonzero(DensityFunction(np.array([1.0, -1.0])), 4)

    @settings(max_examples=40, deadline=None)
    @given(
        c=st.floats(1e-100, 1e100),
        rho=st.sampled_from([1.0, 4.0, 64.0, 1e5]),
    )
    def test_scale_invariant(self, c, rho):
        scaled = DensityFunction(DEFAULT_MEASURE.values * c)
        base = restriction_nonzero(DEFAULT_MEASURE, rho)
        assert abs(restriction_nonzero(scaled, rho) - base) < 1e-12 * base


class TestCompleteGaussSum:
    def test_trivial_modulus(self, ctx_w6):
        assert complete_gauss_sum(ctx_w6, 1, 1) == pytest.approx(1)

    def test_dichotomy_even_k(self):
        ctx = build_context(IntPolynomial((1, 0, 0)), 1, 1, 1, INTEGER_COLORING, {2: 3, 3: 1}, 10**6)
        assert ctx.K == 4
        assert complete_gauss_sum(ctx, 1, 2) == pytest.approx(2, abs=1e-9)
        assert complete_gauss_sum(ctx, 1, 4) == pytest.approx(4, abs=1e-9)
        assert complete_gauss_sum(ctx, 1, 8) == pytest.approx(0, abs=1e-9)

    def test_dichotomy_zero_branch(self, ctx_w6):
        # 3 | W but 3 does not divide K = 1
        assert complete_gauss_sum(ctx_w6, 1, 3) == pytest.approx(0, abs=1e-9)

    def test_rejects_noncoprime(self, ctx_w6):
        with pytest.raises(ValueError):
            complete_gauss_sum(ctx_w6, 2, 4)

    def test_rejects_modulus_beyond_evaluator(self, ctx_w6):
        with pytest.raises(ValueError, match="q < 2\\^32"):
            complete_gauss_sum(ctx_w6, 1, 2**32)


class TestWeightedExpSum:
    def test_ap_form_matches_chebyshev(self, ctx_w1):
        # sum of lambda_{1,2} up to N: frozen from the trial-division oracle
        s = weighted_exp_sum(ctx_w1, 0.0)
        assert ctx_w1.N == 10007
        assert s.real == pytest.approx(9907.260257264306, rel=1e-9)
        assert abs(s.real / ctx_w1.N - 1) < 0.05

    def test_minor_arc_decay_reported(self, ctx_w1):
        s0 = abs(weighted_exp_sum(ctx_w1, 0.0))
        sg = abs(weighted_exp_sum(ctx_w1, GOLDEN))
        assert sg < s0  # decay diagnostic; no hard threshold

    def test_exact_rational_phase(self, ctx_w6):
        # the Fraction phase is reduced mod 3 in exact integers: the oracle
        # sums lambda * e(r / 3) over the residues r of psi_{b,W}(x) mod 3
        c, q = ctx_w6.progression
        want = sum(
            lambda_weight(c, q, x) * cmath.exp(2j * cmath.pi * (ctx_w6.rescaled(x) % 3) / 3)
            for x in range(1, ctx_w6.N + 1)
        )
        sf = weighted_exp_sum(ctx_w6, Fraction(1, 3))
        assert sf == pytest.approx(want, rel=1e-12)
        assert weighted_exp_sum(ctx_w6, 1 / 3) == pytest.approx(sf, rel=1e-6, abs=1e-6 * ctx_w6.N)

    @pytest.mark.parametrize(
        "alpha", [GOLDEN, 1 / 3, Fraction(1, 3), Fraction(5, 2**32 - 1), Fraction(1, 2**62)]
    )
    def test_denominator_in_range_accepted(self, ctx_w6, alpha):
        # GOLDEN has denominator 2^53 and the float 1/3 has 2^54
        weighted_exp_sum(ctx_w6, alpha)

    @pytest.mark.parametrize(
        "alpha", [Fraction(1, 2**32 + 1), Fraction(1, 3 * 2**32), Fraction(1, 2**63), 2.0**-70]
    )
    def test_denominator_out_of_range_rejected(self, ctx_w6, alpha):
        with pytest.raises(ValueError, match=f"^alpha = {re.escape(repr(alpha))} has denominator"):
            weighted_exp_sum(ctx_w6, alpha)

    def test_float_phase_exact_at_large_n(self):
        # a float alpha is its exact binary fraction.  The oracle reduces each
        # phase alpha * psi_{b,W}(x) mod 1 in 80-digit decimals, where
        # Decimal(float), the ~90-bit product and the remainder are all exact
        ctx = build_context(
            IntPolynomial((1, 1, 0)), 1, 2, 2, INTEGER_COLORING, {2: 1, 3: 1}, 300_000
        )
        assert ctx.N >= 10**5
        support, weights = ap_primes(*ctx.progression, ctx.N)
        want = 0j
        with decimal.localcontext() as dctx:
            dctx.prec = 80
            golden = decimal.Decimal(GOLDEN)
            for x, w in zip(support.tolist(), weights.tolist()):
                phase = float(decimal.Decimal(ctx.rescaled(x)) * golden % 1)
                want += w * cmath.exp(2j * cmath.pi * phase)
        assert abs(weighted_exp_sum(ctx, GOLDEN) - want) <= 1e-12 * abs(want)
