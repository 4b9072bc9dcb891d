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


class TestDerivative:
    def test_examples(self):
        assert IntPolynomial((1, 1, 0)).derivative().coeffs == (2, 1)
        assert IntPolynomial((6, 0, 0)).derivative().coeffs == (12, 0)
        assert IntPolynomial((1, 0, 0, 0)).derivative().coeffs == (3, 0, 0)

    def test_constant(self):
        assert IntPolynomial((5,)).derivative().coeffs == (0,)


class TestForwardDifference:
    def test_examples(self):
        assert IntPolynomial((1, 0, 0)).forward_difference(3) == 7
        assert IntPolynomial((1, 1, 0)).forward_difference(0) == 2
        assert IntPolynomial((9,)).forward_difference(123) == 0

    def test_telescoping(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            poly = IntPolynomial(tuple(int(c) for c in rng.integers(-9, 10, size=4)))
            top = int(rng.integers(1, 60))
            total = sum(poly.forward_difference(x) for x in range(top))
            assert total == poly(top) - poly(0)


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
