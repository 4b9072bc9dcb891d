"""Shared fixtures: reference contexts and the 20-context acceptance suite."""

from __future__ import annotations

import pytest

from polyprimelab.numtheory import p_adic_valuation, sieve_primes
from polyprimelab.polynomials import INTEGER_COLORING, PRIME_COLORING, IntPolynomial, psi_bound
from polyprimelab.wtrick import build_context, check_cp, select_bp


def suggest_smooth_exponents(psi, b0, w0, variant):
    """Exponents e_p = v_p(psi'((b_p - b0)/w0)) + 1 for every prime p up to
    the coefficient bound; the context built from them satisfies the
    gcd-identity precondition, and K divides W.  For a prime coloring e_2 is
    at least 2, which pins b mod 4 so that psi(b)/2 stays odd."""
    bound = psi_bound(psi, w0, variant)
    dpsi = psi.derivative()
    out = {}
    for p in (sieve_primes(bound).tolist() if bound >= 2 else []):
        cp = check_cp(psi, b0, w0, p) if variant == PRIME_COLORING else None
        bp = select_bp(psi, b0, w0, bound, p, variant, cp)
        out[p] = p_adic_valuation(p, dpsi((bp - b0) // w0)) + 1
    if variant == PRIME_COLORING and 2 in out:
        out[2] = max(out[2], 2)
    return out


# (name, coeffs, b0, w0, m, variant, exps_override, extra_exps, N_target)
SUITE_SPECS = [
    ("x2-m1", (1, 0, 0), 1, 1, 1, INTEGER_COLORING, None, {}, 20_000),
    ("x2-m2-extra5", (1, 0, 0), 1, 1, 2, INTEGER_COLORING, None, {5: 1}, 12_000),
    ("x2x-w2", (1, 1, 0), 1, 2, 2, INTEGER_COLORING, None, {}, 20_000),
    ("x2x-w2-m3-extra7", (1, 1, 0), 1, 2, 3, INTEGER_COLORING, None, {7: 1}, 8_000),
    ("x2x-w1", (1, 1, 0), 1, 1, 2, INTEGER_COLORING, None, {}, 20_000),
    ("2x2x-K2", (2, 2, 0), 1, 1, 2, INTEGER_COLORING, None, {}, 20_000),
    ("2x2x-m1-extra5", (2, 2, 0), 1, 1, 1, INTEGER_COLORING, None, {5: 2}, 10_000),
    ("x3x-w1", (1, 0, 1, 0), 1, 1, 2, INTEGER_COLORING, None, {}, 20_000),
    ("x3x2-K16", (1, 1, 0, 0), 1, 1, 2, INTEGER_COLORING, None, {}, 20_000),
    ("6x2-K24", (6, 0, 0), 1, 1, 1, INTEGER_COLORING, None, {}, 20_000),
    ("x2x-b3w4", (1, 1, 0), 3, 4, 2, INTEGER_COLORING, None, {}, 40_000),
    ("x2-3x-K3", (1, 3, 0), 1, 2, 2, INTEGER_COLORING, None, {}, 20_000),
    ("x2x-const2", (1, 1, 2), 1, 1, 2, INTEGER_COLORING, None, {}, 20_000),
    ("3x2x", (3, 1, 0), 1, 2, 2, INTEGER_COLORING, None, {}, 20_000),
    ("pr-x2x-w4-m1", (1, 1, 0), 1, 4, 1, PRIME_COLORING, {2: 2, 3: 2, 5: 2}, {}, 20_000),
    ("pr-x2x-w4-m2", (1, 1, 0), 1, 4, 2, PRIME_COLORING, {2: 2, 3: 2, 5: 2}, {}, 20_000),
    ("pr-x2x-b3w4", (1, 1, 0), 3, 4, 2, PRIME_COLORING, {2: 2, 3: 2, 5: 1}, {}, 20_000),
    ("pr-x3x-w2", (1, 0, 1, 0), 1, 2, 2, PRIME_COLORING, {2: 3, 3: 1, 5: 1}, {}, 100_000),
    ("pr-x2x4", (1, 1, 4), 1, 1, 2, PRIME_COLORING, None, {}, 30_000),
    ("pr-x3x-b3w4", (1, 0, 1, 0), 3, 4, 2, PRIME_COLORING, {2: 3, 3: 1}, {}, 20_000),
]


def build_suite_context(spec):
    name, coeffs, b0, w0, m, variant, override, extra, n_target = spec
    psi = IntPolynomial(coeffs)
    if override is not None:
        exps = dict(override)
    else:
        exps = suggest_smooth_exponents(psi, b0, w0, variant)
        for p, e in extra.items():
            exps[p] = max(exps.get(p, 0), e)
    w_mod = 1
    for p, e in exps.items():
        w_mod *= p**e
    n = n_target * w_mod // 2
    return build_context(psi, b0, w0, m, variant, exps, n)


@pytest.fixture(scope="session")
def context_suite():
    return [(spec[0], build_suite_context(spec)) for spec in SUITE_SPECS]


@pytest.fixture(scope="session")
def ctx_w6():
    """The W = 6 reference context."""
    return build_context(
        IntPolynomial((1, 1, 0)), 1, 2, 2, INTEGER_COLORING, {2: 1, 3: 1}, 30_000
    )


@pytest.fixture(scope="session")
def ctx_w1():
    """The W = 1 reference context (empty smooth modulus)."""
    return build_context(IntPolynomial((1, 1, 0)), 1, 2, 2, INTEGER_COLORING, {}, 5_000)


@pytest.fixture(scope="session")
def ctx_prime():
    """Prime-coloring reference context (psi = x^2 + x + 4, W = 60)."""
    psi = IntPolynomial((1, 1, 4))
    exps = suggest_smooth_exponents(psi, 1, 1, PRIME_COLORING)
    return build_context(psi, 1, 1, 2, PRIME_COLORING, exps, 1_200_000)
