import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from conftest import suggest_smooth_exponents
from polyprimelab.numtheory import is_prime, p_adic_valuation, sieve_primes
from polyprimelab.polynomials import INTEGER_COLORING, PRIME_COLORING, IntPolynomial
from polyprimelab.wtrick import (
    HypothesisError,
    NecessityViolationError,
    ScaleError,
    build_context,
    check_cp,
    check_parity,
    compute_K,
    find_nonroot,
    select_bp,
    verify_gcd_identity,
)

X2 = IntPolynomial((1, 0, 0))
X2X = IntPolynomial((1, 1, 0))


class TestFindNonroot:
    def test_linear_mod_5(self):
        assert find_nonroot(IntPolynomial((2, 1)), 5, range(1, 6)) == 1

    def test_identity_mod_2(self):
        assert find_nonroot(IntPolynomial((1, 0)), 2, [0, 1]) == 1

    def test_nondistinct_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            find_nonroot(X2, 3, [3, 6, 9])

    def test_vanishing_rejected(self):
        with pytest.raises(ValueError, match="vanishes"):
            find_nonroot(IntPolynomial((3, 6)), 3, [0, 1, 2])

    def test_insufficient_candidates(self):
        with pytest.raises(ValueError, match="candidates"):
            find_nonroot(IntPolynomial((1, 0, 0)), 7, [1, 2])

    def test_always_finds_with_enough_candidates(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            p = int(rng.choice([5, 7, 11, 13]))
            coeffs = tuple(int(c) for c in rng.integers(0, p, size=3))
            if not any(c % p for c in coeffs):
                continue
            poly = IntPolynomial(coeffs)
            deg = next(
                len(coeffs) - 1 - i for i, c in enumerate(coeffs) if c % p
            )
            cands = list(range(deg + 1))
            b = find_nonroot(poly, p, cands)
            assert poly(b) % p != 0


class TestCheckCp:
    def test_examples(self):
        assert check_cp(X2X, 1, 4, 3) == 1
        assert check_cp(IntPolynomial((6, 0, 0)), 1, 1, 3) is None
        assert check_cp(X2X, 1, 2, 3) is None

    def test_parity_error(self):
        # an odd psi(c) is no error: at p = 3, c = 1 stands for z = 4, where
        # psi(4)/2 = 8; at p = 2 both c are out (psi(1) odd, psi(2)/2 even)
        assert check_cp(X2, 1, 1, 3) == 1
        assert check_cp(X2, 1, 1, 2) is None
        # psi(c)/2 mod 2 has period 4: x^2 - 3x - 2 has c_2 = 4 (psi(4)/2 = 1)
        assert check_cp(IntPolynomial((1, -3, -2)), 1, 1, 2) == 4

    @settings(max_examples=300, deadline=None)
    @given(
        coeffs=st.lists(st.integers(-20, 20), min_size=1, max_size=5).filter(lambda c: c[0]),
        w0=st.integers(1, 12),
        b0=st.integers(1, 12),
        p=st.sampled_from([2, 3, 5, 7, 11, 13]),
    )
    def test_returned_cp_meets_its_condition(self, coeffs, w0, b0, p):
        # the docstring's condition, by its definition: p divides neither
        # w0*c + b0 nor psi(z)/2 at some z = c (mod p) with psi(z) even; at
        # p = 2, z = c over a full period 1..4 of psi(c)/2 mod 2
        psi = IntPolynomial(tuple(coeffs))
        if psi(0) % 2 and psi(1) % 2:
            reject()  # psi takes no even value: the parity hypothesis fails

        def meets(c: int) -> bool:
            zs = (c,) if p == 2 else (c, c + p)  # c + p has the other parity
            return bool((w0 * c + b0) % p) and any(
                psi(z) % 2 == 0 and (psi(z) // 2) % p for z in zs
            )

        admissible = [c for c in range(1, 5 if p == 2 else p + 1) if meets(c)]
        assert check_cp(psi, b0, w0, p) == (admissible[0] if admissible else None)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(29)
        primes = [p for p in sieve_primes(50).tolist()]
        for _ in range(100):
            # x^2 + x times a random positive factor is always even
            a = int(rng.integers(1, 10))
            poly = IntPolynomial((a, a, 0))
            w0 = int(rng.integers(1, 6))
            b0 = int(rng.integers(1, w0 + 1))
            if math.gcd(b0, w0) != 1:
                continue
            for p in primes:
                brute = next(
                    (
                        c
                        for c in range(1, p + 1)
                        if (w0 * c + b0) % p and (poly(c) // 2) % p
                    ),
                    None,
                )
                assert check_cp(poly, b0, w0, p) == brute


class TestSelectBp:
    def test_small_prime_integer(self):
        assert select_bp(X2, 1, 1, 3, 2, INTEGER_COLORING) == 3

    def test_large_prime_integer(self):
        assert select_bp(X2, 1, 1, 3, 5, INTEGER_COLORING) == 2

    def test_small_prime_coloring(self):
        assert select_bp(X2X, 1, 4, 20, 3, PRIME_COLORING, cp=1) == 5

    @pytest.mark.parametrize("variant", [INTEGER_COLORING, PRIME_COLORING])
    def test_large_prime_passes_few_candidates(self, monkeypatch, variant):
        from polyprimelab import wtrick

        p = 10000019
        assert is_prime(p)
        h = X2.derivative() if variant == INTEGER_COLORING else X2.derivative() * X2
        seen = []

        def recording(poly, q, candidates):
            seen.append(list(candidates))
            return find_nonroot(poly, q, seen[-1])

        monkeypatch.setattr(wtrick, "find_nonroot", recording)
        bp = select_bp(X2, 1, 2, 3, p, variant)
        assert len(seen) == 1 and 1 <= len(seen[0]) <= h.degree + 1
        t = next(t for t in range(p) if h(t) % p)  # t = 1: 0 is a root of both h
        assert bp == 1 + 2 * t

    def test_missing_cp(self):
        with pytest.raises(NecessityViolationError):
            select_bp(X2X, 1, 4, 20, 3, PRIME_COLORING, cp=None)

    def test_constraints_reverified_randomized(self):
        rng = np.random.default_rng(31)
        count = 0
        while count < 1000:
            degree = int(rng.integers(1, 4))
            coeffs = [int(c) for c in rng.integers(-9, 10, size=degree + 1)]
            if coeffs[0] <= 0:
                coeffs[0] = 1
            poly = IntPolynomial(tuple(coeffs))
            w0 = int(rng.integers(1, 5))
            b0 = int(rng.integers(1, w0 + 1))
            if math.gcd(b0, w0) != 1:
                continue
            p = int(rng.choice([2, 3, 5, 7, 11, 13]))
            bound = int(rng.integers(1, 30))
            try:
                bp = select_bp(poly, b0, w0, bound, p, INTEGER_COLORING)
            except (ValueError, RuntimeError):
                continue
            count += 1
            t, rem = divmod(bp - b0, w0)
            assert rem == 0 and bp >= 1
            dpsi = poly.derivative()
            if p > bound:
                assert 1 <= bp <= p - 1
                assert dpsi(t) % p != 0
            else:
                assert bp % p != 0
                assert dpsi(t) > 0
                if p == 2 and w0 % 2 == 0:
                    assert poly(t) % 2 == 0


class TestComputeK:
    def test_example_x2(self):
        assert compute_K({2: 3, 3: 2}, X2, 1, 1, 3) == 4

    def test_example_odd_derivative(self):
        assert compute_K({2: 1, 3: 1, 5: 1}, X2X, 1, 2, 6) == 1

    def test_zero_derivative_rejected(self):
        with pytest.raises(ValueError, match="valuation"):
            compute_K({2: 1, 3: 1}, X2, 1, 1, 3)  # psi'((1-1)/1) = 0


class TestParityCertificate:
    def test_even_w0_branch(self):
        check_parity(X2X, 1, 2)

    def test_odd_w0_branch(self):
        check_parity(X2X, 1, 1)

    def test_failure(self):
        with pytest.raises(HypothesisError):
            check_parity(IntPolynomial((1, 1, 1)), 1, 2)  # psi(0), psi(1) odd


class TestBuildContext:
    def test_reference_context(self, ctx_w6):
        assert ctx_w6.W == 6 and ctx_w6.K == 1
        assert math.gcd(2 * ctx_w6.b + 1, 12) == 1
        assert ctx_w6.psi(ctx_w6.b) % 2 == 0
        assert ctx_w6.kappa == Fraction(1, 20000)
        assert is_prime(ctx_w6.N) and ctx_w6.N * ctx_w6.W > 2 * ctx_w6.n

    def test_least_prime_above_2n_over_w_at_small_scale(self):
        # at n = 1e4 the first prime above 2n/W = 3333.3 is 3343, far past the
        # paper's window (2 + kappa) n/W, which the context does not enforce
        ctx = build_context(X2X, 1, 2, 2, INTEGER_COLORING, {2: 1, 3: 1}, 10**4)
        assert ctx.N == 3343 and not any(is_prime(x) for x in range(3334, 3343))
        assert ctx.N > (2 + ctx.kappa) * Fraction(ctx.n, ctx.W)
        assert ctx.N * ctx.W <= 4 * ctx.n
        assert all(ok for _, ok, _ in ctx.verify_invariants())

    @pytest.mark.parametrize("n_mod, ok", [(10007, True), (10009, False), (9973, False)])
    def test_n_in_interval_names_the_least_prime(self, ctx_w6, n_mod, ok):
        # 2n/W = 10000 at the reference context: 10009 is a later prime
        # inside 4n/W, 9973 a prime below 2n/W
        ctx = dataclasses.replace(ctx_w6, N=n_mod)
        assert dict((name, good) for name, good, _ in ctx.verify_invariants())["n-in-interval"] is ok

    def test_necessity_violation(self):
        with pytest.raises(NecessityViolationError) as exc:
            build_context(IntPolynomial((6, 0, 0)), 1, 1, 2, PRIME_COLORING, {2: 1}, 10**4)
        assert 3 in exc.value.primes

    def test_gcd_precondition(self):
        with pytest.raises(ValueError, match="gcd"):
            build_context(X2, 2, 4, 2, INTEGER_COLORING, {2: 1}, 10**4)

    def test_scale_error(self):
        with pytest.raises(ScaleError):
            build_context(X2X, 1, 2, 2, INTEGER_COLORING, {2: 4, 3: 3, 5: 2}, 100)

    def test_even_modulus_rejected(self):
        # at n = 4 and W = 6 the only prime in (2n/W, 4n/W] = (1, 2] is N = 2
        with pytest.raises(ScaleError, match="needs an odd N"):
            build_context(X2X, 1, 2, 2, INTEGER_COLORING, {2: 1, 3: 1}, 4)

    def test_negative_smooth_exponent_rejected(self):
        with pytest.raises(ValueError, match="negative smooth exponent"):
            build_context(X2X, 1, 2, 2, INTEGER_COLORING, {2: 1, 3: -1}, 10**4)
        # an exponent of 0 is p^0 = 1
        with_zero = build_context(X2X, 1, 2, 2, INTEGER_COLORING, {2: 1, 3: 1, 5: 0}, 10**4)
        assert with_zero == build_context(X2X, 1, 2, 2, INTEGER_COLORING, {2: 1, 3: 1}, 10**4)

    def test_all_invariants_assert(self, context_suite):
        for name, ctx in context_suite:
            failures = [(n, info) for n, ok, info in ctx.verify_invariants() if not ok]
            assert not failures, f"{name}: {failures}"

    def test_crt_congruence_explicit(self, context_suite):
        for name, ctx in context_suite:
            for p, e in ctx.smooth_exponents.items():
                mod = p ** (e + p_adic_valuation(p, ctx.w0) if ctx.w0 % p == 0 else e)
                assert (ctx.w0 * ctx.b + ctx.b0 - ctx.bp[p]) % mod == 0, name

    def test_k_formula_explicit(self, context_suite):
        for name, ctx in context_suite:
            dpsi = ctx.psi.derivative()
            want = 1
            for p in sieve_primes(ctx.coeff_bound).tolist():
                want *= p ** p_adic_valuation(p, dpsi((ctx.bp[p] - ctx.b0) // ctx.w0))
            assert ctx.K == want, name


class TestVerifyGcdIdentity:
    def test_reference_true(self):
        ctx = build_context(X2, 1, 1, 1, INTEGER_COLORING, {2: 3, 3: 1}, 10**6)
        assert ctx.K == 4
        assert verify_gcd_identity(ctx) is True

    def test_inconclusive_when_exponent_too_small(self):
        ctx = build_context(X2, 1, 1, 1, INTEGER_COLORING, {2: 1, 3: 1}, 10**6)
        assert verify_gcd_identity(ctx) is None

    def test_true_on_randomized_suite(self):
        rng = np.random.default_rng(41)
        built = 0
        while built < 50:
            lead = int(rng.integers(1, 7))
            lin = int(rng.integers(0, 7))
            poly = IntPolynomial((lead, lin, 0))
            w0 = int(rng.choice([1, 2]))
            b0 = 1
            try:
                check_parity(poly, b0, w0)
                exps = suggest_smooth_exponents(poly, b0, w0, INTEGER_COLORING)
                ctx = build_context(
                    poly, b0, w0, int(rng.integers(1, 4)), INTEGER_COLORING, exps,
                    int(rng.integers(10**4, 10**6)),
                )
            except (ValueError, RuntimeError):
                continue
            built += 1
            assert verify_gcd_identity(ctx) is True, poly
