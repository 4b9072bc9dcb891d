import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyprimelab.polynomials import (
    INTEGER_COLORING,
    PRIME_COLORING,
    IntPolynomial,
    compute_M,
    psi_bound,
    rescale,
)


class TestEval:
    def test_examples(self):
        assert IntPolynomial((1, 1, 0))(3) == 12
        assert IntPolynomial((6, 0, 0))(0) == 0
        assert IntPolynomial((1, 0, 0))(-2) == 4

    def test_normalizes_leading_zeros(self):
        assert IntPolynomial((0, 0, 2, 1)).coeffs == (2, 1)
        assert IntPolynomial((0,)).coeffs == (0,)

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            IntPolynomial((1.5, 0))


class TestEvalMod:
    @settings(max_examples=300, deadline=None)
    @given(
        coeffs=st.lists(
            st.one_of(st.integers(-(2**70), 2**70), st.integers(-9, 9)), min_size=1, max_size=6
        ),
        xs=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=0, max_size=20),
        d=st.one_of(
            st.integers(0, 64).map(lambda j: 1 << j),  # every d dividing 2^64, 1 and 2^64 included
            st.integers(1, 2**32 - 1),
        ),
    )
    def test_matches_python_ints(self, coeffs, xs, d):
        # negative coefficients and coefficients of 2^64 or more are reduced exactly
        poly = IntPolynomial(tuple(coeffs))
        got = poly.eval_mod(np.array(xs, dtype=np.int64), d)
        assert got.dtype == np.uint64
        assert got.tolist() == [poly(x) % d for x in xs]

    @pytest.mark.parametrize("d", [0, -4, 2**32 + 1, 3 * 2**32, 2**64 - 1, 2**65])
    def test_other_moduli_raise(self, d):
        with pytest.raises(ValueError, match="neither below 2\\^32 nor a power of two"):
            IntPolynomial((1, 1, 0)).eval_mod(np.arange(3), d)


class TestDerivative:
    def test_examples(self):
        assert IntPolynomial((1, 1, 0)).derivative().coeffs == (2, 1)
        assert IntPolynomial((6, 0, 0)).derivative().coeffs == (12, 0)
        assert IntPolynomial((1, 0, 0, 0)).derivative().coeffs == (3, 0, 0)

    def test_constant(self):
        assert IntPolynomial((5,)).derivative().coeffs == (0,)


class TestRootBound:
    def test_falling_factorial(self):
        # psi' of x(x-1)...(x-6) is 7x^6 - 126x^5 + ...: 7t >= 2 * 126 first
        # holds at t = 36, where a Cauchy bound, 2 + 4872 // 7, reads 698
        d = IntPolynomial((1, -21, 175, -735, 1624, -1764, 720, 0)).derivative()
        assert d.root_bound() == 36

    @settings(max_examples=200, deadline=None)
    @given(coeffs=st.lists(st.integers(-(10**6), 10**6), min_size=2, max_size=8).filter(
        lambda c: c[0] != 0))
    def test_least_integer_above_every_root(self, coeffs):
        p = IntPolynomial(tuple(coeffs))
        t = p.root_bound()
        assert np.abs(np.roots(coeffs)).max() <= t * (1 + 1e-9)

        def covers(s):
            return all(abs(p.leading) * s**i >= 2**i * abs(c) for i, c in enumerate(p.coeffs[1:], 1))

        assert covers(t) and (t == 1 or not covers(t - 1))


class TestRescale:
    def test_examples(self):
        assert rescale(IntPolynomial((1, 0, 0)), 6, 1).coeffs == (6, 2, 0)
        assert rescale(IntPolynomial((1, 1, 0)), 1, 0).coeffs == (1, 1, 0)
        assert rescale(IntPolynomial((1, 0, 0)), 2, 3).coeffs == (2, 6, 0)

    def test_random_identity_and_structure(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            degree = int(rng.integers(1, 5))
            coeffs = [int(c) for c in rng.integers(-50, 51, size=degree + 1)]
            if coeffs[0] == 0:
                coeffs[0] = 1
            poly = IntPolynomial(tuple(coeffs))
            w = int(rng.integers(1, 101))
            b = int(rng.integers(0, 101))
            resc = rescale(poly, w, b)
            assert resc.coefficient(0) == 0
            assert resc.coefficient(1) == poly.derivative()(b)
            for i in range(2, resc.degree + 1):
                assert resc.coefficient(i) % w == 0
            for x in rng.integers(-100, 101, size=20):
                x = int(x)
                assert w * resc(x) == poly(w * x + b) - poly(b)

    @settings(max_examples=300, deadline=None)
    @given(
        coeffs=st.lists(st.integers(-(10**6), 10**6), min_size=2, max_size=6).filter(
            lambda c: c[0] != 0
        ),
        w=st.integers(1, 10**4),
        b=st.integers(0, 10**4),
        x=st.integers(-(10**6), 10**6),
    )
    def test_identity_property(self, coeffs, w, b, x):
        poly = IntPolynomial(tuple(coeffs))
        resc = rescale(poly, w, b)
        assert w * resc(x) == poly(w * x + b) - poly(b)
        assert resc.coefficient(1) == poly.derivative()(b)

    @settings(max_examples=300, deadline=None)
    @given(
        coeffs=st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=7),
        w=st.integers(1, 10**4),
        b=st.integers(0, 10**4),
    )
    def test_coefficients_are_scaled_taylor_coefficients(self, coeffs, w, b):
        # the coefficient of x^j is t_j w^(j-1), with t_j = psi^(j)(b) / j!
        poly = IntPolynomial(tuple(coeffs))
        resc = rescale(poly, w, b)
        assert resc.degree == poly.degree and resc.coefficient(0) == 0
        deriv = poly
        for j in range(1, poly.degree + 1):
            deriv = deriv.derivative()
            t_j, rem = divmod(deriv(b), math.factorial(j))
            assert rem == 0
            assert resc.coefficient(j) == t_j * w ** (j - 1)


class TestPsiBound:
    def test_examples(self):
        psi = IntPolynomial((1, 1, 0))
        assert psi_bound(psi, 4, INTEGER_COLORING) == 12
        assert psi_bound(psi, 4, PRIME_COLORING) == 20
        assert psi_bound(IntPolynomial((6, 0, 0)), 1, INTEGER_COLORING) == 6

    def test_rejects_constants(self):
        with pytest.raises(ValueError):
            psi_bound(IntPolynomial((5,)), 1, INTEGER_COLORING)


class TestComputeM:
    def test_examples(self):
        assert compute_M(IntPolynomial((6, 2, 0)), 2, 101) == 5
        assert compute_M(IntPolynomial((1, 0, 0)), 1, 101) == 10

    def test_empty_range(self):
        with pytest.raises(ValueError, match="empty range"):
            compute_M(IntPolynomial((1, 0, 0)), 1, 1)

    def test_bracketing_postcondition(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            lead = int(rng.integers(1, 20))
            lin = int(rng.integers(0, 20))
            poly = IntPolynomial((lead, lin, 0))
            k = int(rng.integers(1, 5))
            n = int(rng.integers(2, 10**6))
            if poly(1) >= k * n:
                continue
            m = compute_M(poly, k, n)
            assert poly(m) < k * n <= poly(m + 1)
