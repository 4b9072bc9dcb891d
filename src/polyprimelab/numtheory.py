"""Exact integer number theory: the prime sieve, primes in arithmetic
progressions, totient, p-adic valuations, CRT, and logarithmic prime weights.

One progression sieve, `ap_prime_mask`, marks the composites of any
progression w*x + b with w >= 1 and gcd(b, w) = 1 (`check_progression`).
`sieve_primes` is its odd-number case, the progression 2x + 1, run one
segment at a time; the base primes of each segment come from `sieve_primes`
again.  `ap_primes` returns a progression's primes and log weights as
(support, weights).

All modular and combinatorial data are exact integers; only the logarithmic
weights are double precision.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "ap_prime_mask",
    "ap_primes",
    "check_progression",
    "crt",
    "euler_phi",
    "factorize",
    "is_prime",
    "p_adic_valuation",
    "prime_in_interval",
    "sieve_primes",
]

# Integers per segment of the segmented sieve (half as many odd-number
# flags); bounds peak memory for large limits.
_SEGMENT = 8_000_000

# The first 13 primes as Miller-Rabin witnesses: exact below psi_13, the
# smallest strong pseudoprime to all of them (Sorenson & Webster 2017).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit as one read-only ascending int64 array (empty
    below 2): 2, then the odd numbers 2x + 1 that `ap_prime_mask` marks
    prime, _SEGMENT integers at a time; the segment from 2 lo + 3 on is the
    progression 2x + (2 lo + 1)."""
    odd_count = max(0, (limit - 1) // 2)  # 3, 5, ..., the largest odd number <= limit
    step = max(1, _SEGMENT // 2)
    chunks = [np.array([2] if limit >= 2 else [], dtype=np.int64)]
    for lo in range(0, odd_count, step):
        chunk = np.flatnonzero(ap_prime_mask(2 * lo + 1, 2, min(step, odd_count - lo)))
        chunk = chunk.astype(np.int64, copy=False)
        chunk *= 2
        chunk += 2 * lo + 3
        chunks.append(chunk)
    primes = np.concatenate(chunks)
    primes.setflags(write=False)
    return primes


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3317044064679887385961981.

    Larger n raise ValueError: the witness set cannot decide them.
    """
    if n < 2:
        return False
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"is_prime is exact only below {_MR_EXACT_BELOW}, got {n}")
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (2, 3, then 6k+-1 wheel)."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@lru_cache(maxsize=65536)
def euler_phi(n: int) -> int:
    if n <= 0:
        raise ValueError("totient requires n >= 1")
    phi = n
    for p in factorize(n):
        phi -= phi // p
    return phi


def p_adic_valuation(p: int, x: int) -> int:
    """Largest v with p^v | x; x = 0 is rejected (valuation undefined)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if x == 0:
        raise ValueError("valuation of 0 is undefined")
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def crt(congruences: list[tuple[int, int]]) -> tuple[int, int]:
    """Combine x = r_i (mod m_i) for pairwise coprime moduli.

    Non-coprime inputs are rejected: inconsistent residues raise a conflict,
    consistent ones are rejected too (callers must pre-merge).
    """
    r, m = 0, 1
    for ri, mi in congruences:
        if mi < 1:
            raise ValueError(f"modulus {mi} must be >= 1")
        g = math.gcd(m, mi)
        if g != 1:
            if (ri - r) % g:
                raise ValueError(f"conflicting congruences modulo gcd {g}")
            raise ValueError("moduli not pairwise coprime; pre-merge congruences")
        t = ((ri - r) * pow(m, -1, mi)) % mi
        r += m * t
        m *= mi
    return r % m, m


def prime_in_interval(lo: int, hi: int) -> int | None:
    """Smallest prime in (lo, hi], or None."""
    if not hi > lo >= 1:
        raise ValueError("requires hi > lo >= 1")
    n = max(lo + 1, 2)
    while n <= hi:
        if is_prime(n):
            return n
        n += 1
    return None


def check_progression(b: int, w: int) -> None:
    """ValueError unless w*x + b is a progression of primes: w >= 1 and
    gcd(b, w) = 1."""
    if w < 1:
        raise ValueError(f"requires w >= 1, got w={w}")
    if math.gcd(b, w) != 1:
        raise ValueError(f"gcd({b}, {w}) != 1")


def ap_prime_mask(b: int, w: int, count: int) -> np.ndarray:
    """Boolean mask over x = 1..count marking where w*x + b is prime.

    Sieves the progression directly; any offset b coprime to w is accepted.
    Each prime p not dividing w strikes its multiples from p^2 on: a composite
    w*x + b is coprime to w, so its least prime factor is such a p, and
    p^2 <= w*x + b.  This is the only code that marks composites.
    """
    check_progression(b, w)
    if count <= 0:
        return np.zeros(0, dtype=bool)
    top = w * count + b
    mask = np.ones(count, dtype=bool)
    mask[: max(0, (1 - b) // w)] = False  # w*x + b <= 1
    for p in sieve_primes(math.isqrt(max(top, 0))).tolist():
        if w % p == 0:
            continue
        lo = max(1, -((b - p * p) // w))  # first x with w*x + b >= p^2
        x0 = lo + (-b * pow(w, -1, p) - lo) % p
        mask[x0 - 1 :: p] = False
    return mask


def ap_primes(b: int, w: int, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """(support, weights) of the progression w*x + b over x in [1, limit]:
    the ascending int64 x with w*x + b prime, for any offset b coprime to w
    (values below 2 are not prime), and their log weights
    (phi(w)/w) log(w*x + b)."""
    mask = ap_prime_mask(b, w, limit)
    support = (np.flatnonzero(mask) + 1).astype(np.int64)
    values = w * support + b
    return support, euler_phi(w) / w * np.log(values.astype(np.float64))
