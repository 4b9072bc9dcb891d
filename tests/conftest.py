"""Shared fixtures: reference contexts and the 20-context acceptance suite,
and the slow exact oracles the library's fast paths are tested against."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from polyprimelab.numtheory import (
    check_progression,
    euler_phi,
    is_prime,
    p_adic_valuation,
    sieve_primes,
)
from polyprimelab.polynomials import INTEGER_COLORING, PRIME_COLORING, IntPolynomial, psi_bound
from polyprimelab.spectral import DensityFunction
from polyprimelab.wtrick import build_context, check_cp, select_bp

_DIRECT_CELLS = 1 << 20  # (frequency, point) pairs per block of dft_direct
_BRUTE_LIMIT = 2048  # largest N the O(N^2) oracle accepts


def dft_direct(values: np.ndarray, rows=None) -> np.ndarray:
    """O(N^2) transform by explicit summation, in row blocks; the oracle.
    `rows` are the frequencies to sum at, all N of them by default."""
    v = np.asarray(values, dtype=np.complex128)
    n = len(v)
    table = np.exp(-2j * np.pi * np.arange(n) / n)
    x = np.arange(n, dtype=np.int64)
    rows = np.arange(n, dtype=np.int64) if rows is None else np.asarray(rows, dtype=np.int64)
    out = np.empty(len(rows), dtype=np.complex128)
    step = max(1, _DIRECT_CELLS // n)
    for lo in range(0, len(rows), step):
        block = rows[lo : lo + step]
        idx = (block[:, None] * x[None, :]) % n
        out[lo : lo + len(block)] = table[idx] @ v
    return out


def bohr_members(b: DensityFunction) -> np.ndarray:
    """B's members, ascending, from `bohr_set`'s b = 1_B / |B|: all of Z_N
    when b is the constant 1/N, else b's support."""
    return np.arange(b.modulus, dtype=np.int64) if b.points is None else b.points


def triple_count_bruteforce(
    f: DensityFunction, g: DensityFunction, h: DensityFunction
) -> complex:
    """sum over x, y of f(x) g(y) h(x+y mod N) by explicit summation."""
    if not f.modulus == g.modulus == h.modulus:
        raise ValueError("modulus mismatch")
    n = f.modulus
    if n > _BRUTE_LIMIT:
        raise ValueError(f"N = {n} > {_BRUTE_LIMIT}; use triple_count, the Fourier path")
    fv, gv, hv = f.values, g.values, h.values  # each read of a support's builds it anew
    total = 0j
    for x in range(n):
        fx = fv[x]
        if fx == 0:
            continue
        total += fx * complex(np.dot(gv, np.roll(hv, -x)))
    return total


@dataclass(frozen=True)
class PopularityProfile:
    """nu(x) = #{(x1, x2, x3): x1, x2 in A, x3 in B, x1 + x2 - x3 = x} with
    the cube lower bound (min{|A|, |B|, (2|A|+|B|-N)/4})^3 / N."""

    nu: np.ndarray
    bound: Fraction
    bound_holds: bool | None  # None when the bound is vacuous


def popularity(set_a, set_b, modulus: int) -> PopularityProfile:
    """Exact integer popularity profile with the bound checked at every x."""
    a = frozenset(int(x) % modulus for x in set_a)
    b = frozenset(int(x) % modulus for x in set_b)
    ind_a = np.zeros(modulus, dtype=np.int64)
    for x in a:
        ind_a[x] = 1
    lin = np.convolve(ind_a, ind_a)  # exact integer linear convolution
    pair_sums = np.zeros(modulus, dtype=np.int64)
    pair_sums[: min(modulus, len(lin))] += lin[:modulus]
    if len(lin) > modulus:
        tail = lin[modulus:]
        pair_sums[: len(tail)] += tail
    nu = np.zeros(modulus, dtype=np.int64)
    for x3 in b:
        nu += np.roll(pair_sums, -x3)
    m4 = min(4 * len(a), 4 * len(b), 2 * len(a) + len(b) - modulus)
    bound = Fraction(m4, 4) ** 3 / modulus
    if m4 <= 0:
        holds = None
    else:
        holds = bool(np.all(64 * modulus * nu.astype(object) >= m4**3))
    return PopularityProfile(nu, bound, holds)


def lambda_weight(b: int, w: int, x: int) -> float:
    """Logarithmic prime weight (phi(w)/w) * log(w*x + b), zero off primes."""
    check_progression(b, w)
    if x < 1:
        raise ValueError("requires x >= 1")
    v = w * x + b
    if not is_prime(v):
        return 0.0
    return euler_phi(w) / w * math.log(v)


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
