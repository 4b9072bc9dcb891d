import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import popularity, triple_count_bruteforce
from polyprimelab.coloring import (
    blocking_partition,
    dense_class,
    dense_prime_class,
    make_coloring,
)
from polyprimelab import counting
from polyprimelab.counting import (
    LiftingError,
    _at_double,
    _unweighted_count,
    bound_link,
    find_monochromatic,
    find_zn_solutions,
    lift_solution,
    transference_report,
    triple_count,
)
from polyprimelab.numtheory import euler_phi, is_prime
from polyprimelab.polynomials import INTEGER_COLORING, IntPolynomial
from polyprimelab.spectral import (
    DensityFunction,
    bohr_set,
    build_poly_prime_measure,
    build_prime_coloring_measure,
    idft,
    large_spectrum,
)
from polyprimelab.wtrick import build_context

X2X = IntPolynomial((1, 1, 0))

# Polynomials for the search property test; each exceeds 2 * 80 for z >= 100.
SEARCH_PSIS = [(1, 1, 0), (6, 0, 0), (1, 0, 4), (1, -5, 0), (2, 3), (1, 0, 1, 0)]
SEARCH_Z_MAX = 100


def monochromatic_scan(coloring, psi, b0, w0, n):
    """Independent oracle: the per-element scan, one color lookup per
    candidate (0 off the domain); rows [color, x, y, z] in search order."""
    out = []
    for z in range(1, SEARCH_Z_MAX):
        s = psi(z)
        if not is_prime(w0 * z + b0):
            continue
        for x in range(max(1, s - n), (s - 1) // 2 + 1):
            c = int(coloring.color_at[x])
            if c and coloring.color_at[s - x] == c:
                out.append([c, x, s - x, z])
    return out


def exhaustive_triples(f, g, h):
    """Independent oracle: literal triple loop over x, y."""
    n = f.modulus
    total = 0j
    for x in range(n):
        for y in range(n):
            total += f.values[x] * g.values[y] * h.values[(x + y) % n]
    return total


class TestTripleCounts:
    def test_indicator_example(self):
        f = DensityFunction(np.array([0, 1, 1, 0, 0]))
        h = DensityFunction(np.eye(5)[3])
        assert triple_count_bruteforce(f, f, h) == pytest.approx(2)

    def test_all_ones(self):
        ones = DensityFunction(np.ones(7))
        assert triple_count_bruteforce(ones, ones, ones) == pytest.approx(49)

    def test_zero_factor(self):
        f = DensityFunction(np.ones(7))
        z = DensityFunction(np.zeros(7))
        assert triple_count_bruteforce(f, f, z) == 0

    def test_fourier_matches_example(self):
        f = DensityFunction(np.array([0, 1, 1, 0, 0]))
        h = DensityFunction(np.eye(5)[3])
        assert triple_count(f, f, h) == pytest.approx(2, abs=1e-9)

    def test_delta_triple(self):
        d = DensityFunction(np.eye(5)[0])
        assert triple_count(d, d, d) == pytest.approx(1, abs=1e-12)

    def test_fourier_matches_bruteforce_up_to_oracle_limit(self):
        rng = np.random.default_rng(12)
        for n in (2, 101, 1024, 2039, 2048):
            f, g, h = (DensityFunction(rng.standard_normal(n) + 1j * rng.standard_normal(n)) for _ in range(3))
            want = triple_count_bruteforce(f, g, h)
            assert abs(triple_count(f, g, h) - want) <= 1e-9 * max(1.0, abs(want))

    def test_size_limit(self):
        big = DensityFunction(np.zeros(4001))
        with pytest.raises(ValueError, match="Fourier"):
            triple_count_bruteforce(big, big, big)

    def test_brute_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.choice([7, 11, 17]))
            f = DensityFunction(rng.standard_normal(n))
            g = DensityFunction(rng.standard_normal(n))
            h = DensityFunction(rng.standard_normal(n))
            want = exhaustive_triples(f, g, h)
            assert triple_count_bruteforce(f, g, h) == pytest.approx(want, abs=1e-9)


class TestPopularity:
    def test_full_cycle(self):
        prof = popularity(range(5), range(5), 5)
        assert prof.nu[0] == 25
        assert prof.bound == Fraction(25, 8)
        assert prof.bound_holds is True

    def test_singletons_vacuous(self):
        prof = popularity([0], [0], 5)
        assert prof.nu[0] == 1
        assert prof.bound_holds is None

    def test_matches_exhaustive_count(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            n = int(rng.choice([7, 11, 13]))
            a = set(int(v) for v in rng.choice(n, size=int(rng.integers(1, n)), replace=False))
            b = set(int(v) for v in rng.choice(n, size=int(rng.integers(1, n)), replace=False))
            prof = popularity(a, b, n)
            for x in range(n):
                want = sum(
                    1
                    for x1 in a
                    for x2 in a
                    for x3 in b
                    if (x1 + x2 - x3 - x) % n == 0
                )
                assert prof.nu[x] == want


class TestFindMonochromatic:
    def test_hand_verified_triple(self):
        col = make_coloring("integers", 12, 1, "random", 0)
        sols = find_monochromatic(col, X2X, 1, 2, 12)
        assert any((x, y, z) == (2, 10, 3) for x, y, z in sols[:, 1:].tolist())
        for x, y, z in sols[:, 1:].tolist():
            assert x != y and x + y == X2X(z) and is_prime(2 * z + 1)

    def test_too_small_range_empty(self):
        col = make_coloring("integers", 1, 1, "random", 0)
        assert len(find_monochromatic(col, X2X, 1, 2, 1)) == 0

    def test_blocking_partition_is_empty(self):
        psi = IntPolynomial((6, 0, 0))
        part = blocking_partition(psi, 1, 1, 3, 10**4)
        assert len(find_monochromatic(part, psi, 1, 1, 10**4)) == 0

    def test_no_hits_is_empty_int64_array(self):
        part = blocking_partition(IntPolynomial((6, 0, 0)), 1, 1, 3, 2000)
        col = make_coloring("integers", 1, 1, "random", 0)
        for sols in (
            find_monochromatic(part, IntPolynomial((6, 0, 0)), 1, 1, 2000),
            find_monochromatic(col, X2X, 1, 2, 1),
        ):
            assert sols.dtype == np.int64 and sols.shape == (0, 4)

    @pytest.mark.parametrize("seed", range(5))
    def test_first_only_is_oracle_first_row(self, seed):
        # the whole search, first row included, is the oracle's, and not empty
        col = make_coloring("integers", 80, 3, "random", seed)
        sols = find_monochromatic(col, X2X, 1, 2, 80)
        want = monochromatic_scan(col, X2X, 1, 2, 80)
        assert want and sols.dtype == np.int64 and sols.tolist() == want

    @pytest.mark.parametrize("domain", ["integers", "primes"])
    def test_bound_beyond_coloring_rejected(self, domain):
        col = make_coloring(domain, 100, 2, "random", 0)
        with pytest.raises(ValueError, match="exceeds"):
            find_monochromatic(col, X2X, 1, 2, 1000)

    @settings(max_examples=150, deadline=None)
    @given(
        domain=st.sampled_from(["integers", "primes"]),
        n=st.integers(2, 80),
        m=st.integers(1, 3),
        seed=st.integers(0, 2**16),
        coeffs=st.sampled_from(SEARCH_PSIS),
        progression=st.sampled_from([(1, 1), (1, 2), (3, 4), (5, 6), (2, 1)]),
        shrink=st.integers(0, 10),
    )
    def test_matches_per_element_scan(self, domain, n, m, seed, coeffs, progression, shrink):
        col = make_coloring(domain, n, m, "random", seed)
        psi = IntPolynomial(coeffs)
        b0, w0 = progression
        bound = max(1, n - shrink)
        got = find_monochromatic(col, psi, b0, w0, bound)
        want = monochromatic_scan(col, psi, b0, w0, bound)
        assert got.dtype == np.int64 and got.shape == (len(want), 4)
        assert got.tolist() == want

    def test_prime_domain_requires_prime_pair(self):
        col = make_coloring("primes", 50, 1, "random", 0)
        # psi = x^2 + x, w0 = 2: psi(3) = 12 = 5 + 7 with 7 prime, both colored
        sols = find_monochromatic(col, X2X, 1, 2, 50)
        assert all(is_prime(x) and is_prime(y) for x, y in sols[:, 1:3].tolist())
        assert any((x, y, z) == (5, 7, 3) for x, y, z in sols[:, 1:].tolist())


class TestLifting:
    def test_identity_context(self, ctx_w1):
        assert ctx_w1.W == 1 and ctx_w1.b == 0 and ctx_w1.K == 1
        assert lift_solution(2, 10, 3, ctx_w1) == (2, 10, 3)

    def test_synthetic_violation(self, ctx_w1):
        zp = 5
        val = ctx_w1.rescaled(zp)
        with pytest.raises(LiftingError):
            lift_solution(3, val - ctx_w1.N - 3, zp, ctx_w1)

    def test_pipeline_solutions_lift(self, ctx_w6):
        col = make_coloring("integers", ctx_w6.n, 2, "random", 21)
        dens = dense_class(col, ctx_w6)
        sols = find_zn_solutions(dens.members, ctx_w6, limit=40)
        assert sols
        for xp, yp, zp in sols:
            x, y, z = lift_solution(xp, yp, zp, ctx_w6)
            assert x + y == ctx_w6.psi(z)
            assert is_prime(ctx_w6.w0 * z + ctx_w6.b0)
            # both endpoints map back into the chosen color class
            assert col.color_at[x] == col.color_at[y] == dens.color_index

    def test_bad_zp_rejected(self, ctx_w6):
        with pytest.raises(ValueError):
            lift_solution(0, 0, ctx_w6.M + 1, ctx_w6)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_synthetic_solutions_lift_property(self, context_suite, data):
        # x' + y' = psi_{b,W}(z') exactly, with x', y' residues mod N and z'
        # admissible, is the image of an integer triple x + y = psi(z) with
        # x = W x' + psi(b)/2, y = W y' + psi(b)/2, z = W z' + b
        name, ctx = data.draw(st.sampled_from(context_suite))
        c, q = ctx.progression
        vals = {
            zp: ctx.rescaled(zp)
            for zp in range(1, ctx.M + 1)
            if is_prime(q * zp + c) and ctx.rescaled(zp) <= 2 * ctx.N - 2
        }
        zp = data.draw(st.sampled_from(sorted(vals)))
        val = vals[zp]
        xp = data.draw(st.integers(max(0, val - ctx.N + 1), min(val, ctx.N - 1)))
        yp = val - xp
        x, y, z = lift_solution(xp, yp, zp, ctx)
        half = ctx.half_psi_b
        assert (x, y, z) == (ctx.W * xp + half, ctx.W * yp + half, ctx.W * zp + ctx.b), name
        assert x + y == ctx.psi(z) and is_prime(ctx.w0 * z + ctx.b0)
        # shifting any one coordinate breaks the identity and must be refused
        coord = data.draw(st.sampled_from([0, 1, 2]))
        limit = ctx.M + 5 if coord == 2 else 2 * ctx.N
        shift = data.draw(st.integers(-limit, limit).filter(bool))
        triple = [xp, yp, zp]
        triple[coord] += shift
        with pytest.raises((LiftingError, ValueError)):
            lift_solution(*triple, ctx)


def unpacked_transference_report(a_set, eta, eps) -> dict:
    """Oracle: the report with every function complex and transformed on its
    own (7 transforms for a prime coloring, 4 for an integer one), hhat(-r)
    by index reversal, and the diagonal by the index array (2x) mod N."""
    ctx = a_set.context
    n_mod = ctx.N
    kappa = float(ctx.kappa)

    def complex_copy(f):
        return DensityFunction(f.values.astype(np.complex128))

    def regime(bohr):  # which shortcut, if any, smooth may take
        return {n_mod: "constant", 1: "identity"}.get(bohr.size, "fft")

    def smooth_unpacked(f, bohr):
        b_spec = complex_copy(bohr.normalized_indicator()).spectrum
        spec = f.spectrum * b_spec * b_spec
        return DensityFunction(idft(spec), spec)

    measure = complex_copy(build_poly_prime_measure(ctx))
    indicator = DensityFunction(a_set.indicator_values().astype(np.complex128))
    if ctx.variant == INTEGER_COLORING:
        f = indicator
    else:
        f = complex_copy(build_prime_coloring_measure(a_set.members, ctx))
    mass_measure = measure.mass.real
    spec_r = large_spectrum(measure, float(eta))
    bohr = bohr_set(spec_r, eps, n_mod)
    smoothed_measure = smooth_unpacked(measure, bohr)
    if ctx.variant == INTEGER_COLORING:
        f_smooth = f
    else:
        spec_r2 = large_spectrum(f, float(eta))
        bohr2 = bohr_set(spec_r2, eps, n_mod)
        f_smooth = smooth_unpacked(f, bohr2)
    raw = triple_count(f, f, measure).real
    smoothed = triple_count(f_smooth, f_smooth, smoothed_measure).real
    xs = np.arange(n_mod)
    at_double = measure.values[(2 * xs) % n_mod]
    diag_exact = float((f.values**2 * at_double).sum().real)
    frak_a = np.flatnonzero(smoothed_measure.values.real >= kappa / n_mod)
    max_smoothed = float(np.abs(smoothed_measure.values).max())
    mass_smoothed = smoothed_measure.mass.real

    def link(measured, relation, bound):
        holds = bool(measured >= bound if relation == ">=" else measured <= bound)
        return {"measured": measured, "relation": relation, "bound": bound, "holds": holds}

    def bohr_link(spec, bohr):
        log10_bound = len(spec) * math.log10(eps) + math.log10(n_mod)
        holds = math.log10(bohr.size) >= log10_bound
        return {"measured": bohr.size, "relation": ">=", "log10_bound": log10_bound, "holds": holds}

    chain = {
        "pointwise_measure": link(max_smoothed, "<=", (1 + 2 * kappa) / n_mod),
        "frak_A": link(int(len(frak_a)), ">=", (1 - 3 * kappa) * n_mod),
        "bohr_measure": bohr_link(spec_r, bohr),
        "smoothing_mass": link(
            abs(mass_smoothed - mass_measure), "<=", 1e-9 * max(1.0, abs(mass_measure))
        ),
    }
    report = {
        "variant": ctx.variant,
        "N": n_mod,
        "kappa": ctx.kappa,
        "mass_measure": mass_measure,
        "mass_smoothed_measure": mass_smoothed,
        "large_spectrum_size": int(len(spec_r)),
        "bohr_size": bohr.size,
        "smoothing_regime": regime(bohr),
        "raw_count": raw,
        "smoothed_count": smoothed,
        "count_difference": raw - smoothed,
        "diagonal_exact": diag_exact,
        "chain": chain,
    }
    if ctx.variant == INTEGER_COLORING:
        final_bound = kappa**4 * n_mod / 3
        chain.update(
            dense_class=link(int(len(a_set.members)), ">=", n_mod / (4 * ctx.num_colors * ctx.K)),
            final_diag_bound=link(raw - mass_measure, ">=", final_bound),
            final_diag_exact=link(raw - diag_exact, ">=", final_bound),
        )
        return report
    kw = ctx.K * ctx.W
    amax = euler_phi(kw) / kw * math.log(kw * n_mod + ctx.psi(ctx.b)) / n_mod
    unweighted = triple_count(indicator, indicator, measure).real
    diag_unweighted = float((indicator.values**2 * at_double).sum().real)
    a_dash = np.flatnonzero(f_smooth.values.real >= kappa / n_mod)
    chain.update(
        class_mass=link(f.mass.real, ">=", 1 / (3 * ctx.num_colors * ctx.K)),
        class_weight=link(
            a_set.meta["weighted_sum"], ">=", (1 - kappa) * ctx.n / (ctx.num_colors * euler_phi(kw))
        ),
        A_dash=link(int(len(a_dash)), ">=", 2 * kappa * n_mod),
        pointwise_class=link(float(np.abs(f_smooth.values).max()), "<=", 2 / n_mod),
        bohr_class=bohr_link(spec_r2, bohr2),
        final=link(
            unweighted - diag_unweighted, ">=", kappa**6 / (3 * n_mod) / amax**2
        ),
    )
    report.update(
        class_large_spectrum_size=int(len(spec_r2)),
        class_bohr_size=bohr2.size,
        class_smoothing_regime=regime(bohr2),
        pointwise_weight_cap=amax,
        unweighted_count=unweighted,
    )
    return report


def flatten(report: dict, prefix: str = "") -> dict:
    """A nested report as one dict keyed by dotted paths."""
    out = {}
    for key, value in report.items():
        if isinstance(value, dict):
            out.update(flatten(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


# a difference of two report counts is compared at the scale of its operands,
# where the rounding of either operand shows
DIFFERENCE_SCALE = {
    "count_difference": "raw_count",
    "chain.final_diag_bound.measured": "raw_count",
    "chain.final_diag_exact.measured": "raw_count",
    "chain.final.measured": "unweighted_count",
    "chain.smoothing_mass.measured": "mass_measure",
}


def random_unweighted_instance(n, support_size, set_size, seed, weights=None):
    """(members, measure): a random set A and a measure on a random support."""
    rng = np.random.default_rng(seed)
    values = np.zeros(n)
    support = rng.choice(n, support_size, replace=False)
    values[support] = rng.random(support_size) if weights is None else weights(rng, support_size)
    members = np.sort(rng.choice(n, set_size, replace=False)).astype(np.int64)
    return members, DensityFunction(values)


class TestUnweightedCount:
    @pytest.mark.parametrize(
        "n,support_size,set_size,transforms",
        [
            (101, 7, 40, 0),
            (1009, 30, 300, 0),
            (2027, 11, 2000, 0),  # 22,000 pairs against a cutoff of 22,297
            (2039, 2039, 1, 0),
            (997, 5, 0, 0),
            (1999, 0, 500, 0),
            (2027, 300, 1000, 1),  # 300,000 pairs: over the cutoff
        ],
    )
    def test_matches_bruteforce(self, monkeypatch, n, support_size, set_size, transforms):
        # |supp| * |A| <= N * N.bit_length() sums exact pair counts over the
        # support; above it the indicator's triple count runs one transform
        members, measure = random_unweighted_instance(n, support_size, set_size, n + set_size)
        calls = []

        def counted(*args):
            calls.append(args)
            return triple_count(*args)

        monkeypatch.setattr(counting, "triple_count", counted)
        got = _unweighted_count(members, measure)
        assert len(calls) == transforms
        indicator = np.zeros(n)
        indicator[members] = 1.0
        ind = DensityFunction(indicator)
        want = triple_count_bruteforce(ind, ind, measure).real
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_integer_weights_give_the_exact_count(self):
        # integer measure values: the support sum is an exact integer
        members, measure = random_unweighted_instance(
            1009, 60, 150, 4, weights=lambda rng, k: rng.integers(1, 10, size=k)
        )
        a = members.tolist()
        want = sum(int(measure.values[(x + y) % 1009]) for x in a for y in a)
        assert _unweighted_count(members, measure) == want


class TestTransferenceReport:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("variant", ["integer", "prime", "integer-wide"])
    def test_matches_unpacked_oracle(self, ctx_w6, ctx_prime, variant, seed):
        # paired transforms change rounding only: every non-float field is
        # identical and every float agrees to a relative 1e-12; a flip of
        # large_spectrum_size at the eta threshold would fail here, not pass
        eps = Fraction(1, 8)
        if variant == "integer":
            ctx, eta = ctx_w6, Fraction(1, 4)
        elif variant == "prime":
            ctx, eta = ctx_prime, Fraction(1, 20)
        else:
            # a wide radius at small N: |R| = 25 leaves a Bohr set of 33 points
            ctx = build_context(X2X, 1, 2, 2, INTEGER_COLORING, {2: 1, 3: 1}, 3000)
            eta, eps = Fraction(1, 2), Fraction(1, 4)
        if ctx.variant == INTEGER_COLORING:
            dens = dense_class(make_coloring("integers", ctx.n, 2, "random", seed), ctx)
        else:
            dens = dense_prime_class(make_coloring("primes", ctx.n, 2, "random", seed), ctx)
        got = flatten(transference_report(dens, build_poly_prime_measure(ctx), eta=eta, eps=eps))
        want = flatten(unpacked_transference_report(dens, eta, eps))
        if variant == "integer-wide":
            assert (got["large_spectrum_size"], got["bohr_size"]) == (25, 33)
        # log10_ratio is derived from measured and bound (TestBoundLink)
        assert {k for k in got if not k.endswith(".log10_ratio")} == want.keys()
        for key, value in want.items():
            if not isinstance(value, float):
                assert got[key] == value and type(got[key]) is type(value), key
                continue
            scale = max(abs(value), abs(want.get(DIFFERENCE_SCALE.get(key), 0.0)))
            assert abs(got[key] - value) <= 1e-12 * scale, key

    def test_diagonal_by_halves_matches_index_formula(self):
        rng = np.random.default_rng(12)
        for n in (1, 3, 5, 97, 1001, 10007):
            v = rng.standard_normal(n)
            assert np.array_equal(_at_double(v), v[(2 * np.arange(n)) % n])
        with pytest.raises(ValueError, match="odd N"):
            _at_double(np.zeros(10))

    def test_full_set_identity(self, ctx_w6):
        # A = Z_N: the weighted count is mass * N, and (N odd) the exact
        # diagonal sums the whole measure once
        from polyprimelab.coloring import TransferredSet

        full = TransferredSet(ctx_w6, 1, np.arange(ctx_w6.N, dtype=np.int64))
        m = build_poly_prime_measure(ctx_w6)
        rep = transference_report(full, m, eta=Fraction(1, 4), eps=Fraction(1, 8))
        assert rep["raw_count"] == pytest.approx(m.mass.real * ctx_w6.N, rel=1e-9)
        assert rep["diagonal_exact"] == pytest.approx(m.mass.real, rel=1e-9)
        assert rep["chain"]["final_diag_exact"]["measured"] >= 0

    def test_report_fields_integer(self, ctx_w6):
        col = make_coloring("integers", ctx_w6.n, 2, "random", 33)
        dens = dense_class(col, ctx_w6)
        m = build_poly_prime_measure(ctx_w6)
        rep = transference_report(dens, m, eta=Fraction(1, 4), eps=Fraction(1, 8))
        for key in (
            "raw_count",
            "smoothed_count",
            "count_difference",
            "diagonal_exact",
        ):
            assert key in rep
        assert rep["chain"].keys() == {
            "pointwise_measure", "frak_A", "bohr_measure", "smoothing_mass",
            "dense_class", "final_diag_bound", "final_diag_exact",
        }
        assert rep["chain"]["dense_class"]["measured"] == len(dens.members)
        assert rep["raw_count"] >= 0

    def test_empty_set(self, ctx_w6):
        from polyprimelab.coloring import TransferredSet

        empty = TransferredSet(ctx_w6, 1, np.zeros(0, dtype=np.int64))
        rep = transference_report(
            empty, build_poly_prime_measure(ctx_w6), eta=Fraction(1, 4), eps=Fraction(1, 8)
        )
        assert rep["raw_count"] == 0 and rep["smoothed_count"] == pytest.approx(0, abs=1e-12)

    def test_report_fields_prime(self, ctx_prime):
        from polyprimelab.coloring import dense_prime_class

        col = make_coloring("primes", ctx_prime.n, 2, "random", 44)
        dens = dense_prime_class(col, ctx_prime)
        m = build_poly_prime_measure(ctx_prime)
        rep = transference_report(dens, m, eta=Fraction(1, 20), eps=Fraction(1, 8))
        for key in (
            "unweighted_count",
            "class_large_spectrum_size",
            "class_bohr_size",
        ):
            assert key in rep
        assert rep["chain"].keys() == {
            "pointwise_measure", "frak_A", "bohr_measure", "smoothing_mass",
            "class_mass", "class_weight", "A_dash", "pointwise_class", "bohr_class", "final",
        }
        # the class-mass bound 1/(3mK) is reliably met from n = 1e6 up
        assert ctx_prime.n >= 10**6
        assert rep["chain"]["class_mass"]["holds"] is True


class TestBoundLink:
    @pytest.mark.parametrize(
        "measured,relation,bound,holds",
        [
            (5, ">=", 3.0, True),
            (3, ">=", 3.0, True),
            (2, ">=", 3.0, False),
            (0.5, "<=", 0.5, True),
            (0.6, "<=", 0.5, False),
        ],
    )
    def test_holds_is_the_relation(self, measured, relation, bound, holds):
        link = bound_link(measured, relation, bound)
        assert link == {
            "measured": measured,
            "relation": relation,
            "bound": bound,
            "holds": holds,
            "log10_ratio": pytest.approx(math.log10(measured / bound), abs=1e-15),
        }

    @pytest.mark.parametrize("measured,bound", [(0, 2.0), (0.0, 1e-9), (3, 0.0), (-1.5, 2.0)])
    def test_no_ratio_unless_both_positive(self, measured, bound):
        assert "log10_ratio" not in bound_link(measured, ">=", bound)

    def test_log10_bound_never_forms_the_power(self):
        # (1/8)^455 * 1000003 is below the smallest float64: the bound is
        # kept as its log10 and compared in logs
        log10_bound = 455 * math.log10(1 / 8) + math.log10(1000003)
        assert float(Fraction(1, 8) ** 455) == 0.0
        link = bound_link(1, ">=", log10_bound=log10_bound)
        assert link["holds"] is True and "bound" not in link
        assert link["log10_ratio"] == -log10_bound
        assert bound_link(10, ">=", log10_bound=1.5)["holds"] is False

    def test_ratio_of_extreme_values_is_finite(self):
        link = bound_link(1e300, ">=", 1e-300)
        assert link["log10_ratio"] == pytest.approx(600)
