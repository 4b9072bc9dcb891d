"""Exact integer polynomials and their derived objects: formal derivative,
affine rescaling, coefficient bounds, the cutoff search used to size the
ambient cyclic group, and the one array evaluator, `IntPolynomial.eval_mod`."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "INTEGER_COLORING",
    "PRIME_COLORING",
    "VARIANTS",
    "IntPolynomial",
    "compute_M",
    "psi_bound",
    "rescale",
]

INTEGER_COLORING = "integer-coloring"
PRIME_COLORING = "prime-coloring"
VARIANTS = (INTEGER_COLORING, PRIME_COLORING)


@dataclass(frozen=True)
class IntPolynomial:
    """Polynomial with exact integer coefficients, stored highest degree first."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("empty coefficient list")
        if not all(isinstance(c, int) for c in self.coeffs):
            raise ValueError("coefficients must be exact integers")
        trimmed = self.coeffs
        while len(trimmed) > 1 and trimmed[0] == 0:
            trimmed = trimmed[1:]
        object.__setattr__(self, "coeffs", tuple(trimmed))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[0]

    def coefficient(self, i: int) -> int:
        """Coefficient of x^i (0 for i above the degree)."""
        if i < 0:
            raise ValueError("power must be >= 0")
        if i > self.degree:
            return 0
        return self.coeffs[len(self.coeffs) - 1 - i]

    def __call__(self, x: int) -> int:
        acc = 0
        for c in self.coeffs:
            acc = acc * x + c
        return acc

    def root_bound(self) -> int:
        """An integer t >= |z| for every complex root z: the least t >= 1 with
        |a_d| t^i >= 2^i |a_(d-i)| for i = 1..d, which is at least Fujiwara's
        bound 2 max_i |a_(d-i) / a_d|^(1/i); found in exact integers by
        doubling, then bisection."""
        lead = abs(self.leading)

        def covers(t: int) -> bool:
            return all(lead * t**i >= abs(c) << i for i, c in enumerate(self.coeffs[1:], 1))

        lo, hi = 0, 1
        while not covers(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if covers(mid) else (mid, hi)
        return hi

    def derivative(self) -> IntPolynomial:
        if self.degree == 0:
            return IntPolynomial((0,))
        k = self.degree
        return IntPolynomial(tuple(c * (k - i) for i, c in enumerate(self.coeffs[:-1])))

    def eval_mod(self, x: np.ndarray, d: int) -> np.ndarray:
        """self(x) mod d over the int64 array x, as uint64, by Horner's rule:
        exact for d < 2^32, reduced at each step, and for d dividing 2^64, as
        uint64 wraps mod 2^64; any other d raises ValueError."""
        small = 0 < d < 1 << 32
        if not (small or 0 < d <= 1 << 64 and d & (d - 1) == 0):
            raise ValueError(f"modulus {d} is neither below 2^32 nor a power of two <= 2^64")
        m = d if small else 1 << 64
        x = np.asarray(x, dtype=np.int64)
        xs = (x % d if small else x).view(np.uint64)
        acc = np.full(x.shape, self.coeffs[0] % m, dtype=np.uint64)
        for c in self.coeffs[1:]:
            acc *= xs
            acc += np.uint64(c % m)
            if small:
                acc %= np.uint64(d)
        return acc if small else acc & np.uint64(d - 1)

    def __mul__(self, other: IntPolynomial) -> IntPolynomial:
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))


def rescale(psi: IntPolynomial, w: int, b: int) -> IntPolynomial:
    """The integral polynomial psi_{b,w}(x) = (psi(w*x + b) - psi(b)) / w.

    With t_j = psi^(j)(b) / j!, the integer Taylor coefficients of psi at b,
    psi(w*x + b) = sum_j t_j w^j x^j, so the coefficient of x^j here is
    t_j w^(j-1).  The constant term is 0, the linear coefficient is psi'(b),
    and w divides every coefficient of x^j, j >= 2, by construction.
    """
    if w < 1:
        raise ValueError("requires w >= 1")
    if b < 0:
        raise ValueError("requires b >= 0")
    # each synthetic division by (x - b) leaves the next t_j as remainder
    quotient = list(psi.coeffs)
    taylor = []  # t_0, t_1, ..., t_deg
    while quotient:
        for i in range(1, len(quotient)):
            quotient[i] += b * quotient[i - 1]
        taylor.append(quotient.pop())
    return IntPolynomial(tuple(t * w ** (j - 1) for j, t in enumerate(taylor) if j)[::-1] + (0,))


def psi_bound(psi: IntPolynomial, w0: int, variant: str) -> int:
    """Coefficient bound gating the per-prime residue selection.

    max{(k+1)*w0, |a_1|, ..., |a_k|} for the integer-coloring variant and
    max{(2k+1)*w0, |a_1|, ..., |a_k|} for the prime-coloring variant, where
    a_1 is the leading coefficient and the constant term is excluded.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    k = psi.degree
    if k < 1:
        raise ValueError("requires degree >= 1")
    factor = (k + 1) if variant == INTEGER_COLORING else (2 * k + 1)
    return max([factor * w0] + [abs(c) for c in psi.coeffs[:-1]])


def compute_M(poly, k_factor: int, n_modulus: int) -> int:
    """Largest x >= 1 with poly(x) < k_factor * n_modulus.

    Exponential bracketing then binary search; the caller guarantees poly is
    strictly increasing on [1, oo). The bracketing postcondition
    poly(M) < K*N <= poly(M+1) is re-verified exactly.
    """
    target = k_factor * n_modulus
    if poly(1) >= target:
        raise ValueError(f"empty range: poly(1) = {poly(1)} >= {target}")
    lo, hi = 1, 2
    while poly(hi) < target:
        lo = hi
        hi *= 2
        if hi > 1 << 200:
            raise RuntimeError("cutoff search diverged")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if poly(mid) < target:
            lo = mid
        else:
            hi = mid
    if not (poly(lo) < target <= poly(lo + 1)):
        raise ValueError("cutoff bracketing failed (input not increasing)")
    return lo
