"""Output oracles for the benchmark, written without `polyprimelab`.

Each `check_*` function takes a parsed report (and any bulk output) and
returns a list of human-readable mismatches; an empty list means the output
is correct.  The arithmetic here is deliberately independent of the package
under test, so a defect there cannot hide itself.
"""

from __future__ import annotations

import io

import numpy as np

# Miller-Rabin with the first twelve prime bases is exact below psi_12, the
# smallest strong pseudoprime to all of them (Sorenson & Webster 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461

MASS_BAND = (0.7, 1.3)


def is_prime(n: int) -> bool:
    """Deterministic primality below 3.1e23; raises above that range."""
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is beyond the exact Miller-Rabin range")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_mask(limit: int) -> np.ndarray:
    """Boolean array of length limit + 1, True exactly at the primes."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask


def psi_value(coeffs, z: int) -> int:
    """Exact value of the polynomial with coefficients highest degree first."""
    v = 0
    for c in coeffs:
        v = v * z + c
    return v


def _z_limit(coeffs, n: int) -> int:
    """Largest z >= 1 with psi(z) <= 2n, for psi increasing on z >= 1."""
    if any(c < 0 for c in coeffs) or not any(coeffs[:-1]):
        raise ValueError("the oracle needs nonnegative coefficients and degree >= 1")
    z = 0
    while psi_value(coeffs, z + 1) <= 2 * n:
        z += 1
    return z


def check_transfer(report: dict, psi, b0: int, w0: int) -> list[str]:
    """Lifted triples are exact solutions and the measure mass is in band."""
    errors = []
    lifted = report["lifted_solutions"]
    if not lifted:
        errors.append("no lifted solution was sampled")
    if int(report["solutions_sampled"]) != len(lifted):
        errors.append(f"solutions_sampled = {report['solutions_sampled']} but {len(lifted)} listed")
    for t in lifted:
        x, y, z = int(t["x"]), int(t["y"]), int(t["z"])
        if x == y:
            errors.append(f"lifted triple {(x, y, z)} has x = y")
        if x + y != psi_value(psi, z):
            errors.append(f"lifted triple {(x, y, z)}: x + y != psi(z) = {psi_value(psi, z)}")
        if not is_prime(w0 * z + b0):
            errors.append(f"lifted triple {(x, y, z)}: {w0}*z + {b0} is not prime")
    mass = float(report["transference"]["mass_measure"])
    if not MASS_BAND[0] <= mass <= MASS_BAND[1]:
        errors.append(f"measure mass {mass} outside {MASS_BAND}")
    return errors


def check_counterexample(report: dict, prime_count: int) -> list[str]:
    """No solutions, and the blocking classes partition the primes up to n."""
    errors = []
    if report["empty"] is not True:
        errors.append(f"empty = {report['empty']!r}")
    if int(report["solutions_found"]) != 0:
        errors.append(f"solutions_found = {report['solutions_found']}")
    total = sum(int(c["count"]) for c in report["classes"].values())
    if total != prime_count:
        errors.append(f"class counts sum to {total}, pi(n) = {prime_count}")
    return errors


def count_solutions(colors: np.ndarray, psi, b0: int, w0: int) -> int:
    """Monochromatic x < y in [1, n] with x + y = psi(z), w0*z + b0 prime.

    `colors[x]` is the color of x for 1 <= x <= n; colors[0] is unused.
    """
    n = len(colors) - 1
    total = 0
    for z in range(1, _z_limit(psi, n) + 1):
        if not is_prime(w0 * z + b0):
            continue
        s = psi_value(psi, z)
        xs = np.arange(max(1, s - n), (s - 1) // 2 + 1)
        total += int(np.count_nonzero(colors[xs] == colors[s - xs]))
    return total


def check_search(
    report: dict, csv_bytes: bytes, colors: np.ndarray, psi, b0: int, w0: int, expected: int
) -> list[str]:
    """The count matches the independent count, and the CSV lists exactly
    that many distinct valid monochromatic solutions."""
    errors = []
    if int(report["solutions_found"]) != expected:
        errors.append(f"solutions_found = {report['solutions_found']}, expected {expected}")
    header, _, body = csv_bytes.partition(b"\n")
    if header.strip() != b"color,x,y,z":
        return errors + [f"unexpected CSV header {header!r}"]
    rows = np.loadtxt(io.BytesIO(body), delimiter=",", dtype=np.int64, ndmin=2).reshape(-1, 4)
    if len(rows) != expected:
        errors.append(f"CSV has {len(rows)} rows, expected {expected}")
    c, x, y, z = rows.T
    n = len(colors) - 1
    z_max = _z_limit(psi, n)
    in_range = (x >= 1) & (x <= n) & (y >= 1) & (y <= n) & (z >= 1) & (z <= z_max)
    if not in_range.all():
        return errors + [f"{np.count_nonzero(~in_range)} CSV rows out of range"]
    s = np.zeros_like(z)
    for coeff in psi:
        s = s * z + coeff
    primes = prime_mask(w0 * z_max + b0)
    bad = (x == y) | (x + y != s) | (colors[x] != c) | (colors[y] != c) | ~primes[w0 * z + b0]
    if bad.any():
        errors.append(f"{np.count_nonzero(bad)} CSV rows are not monochromatic solutions")
    distinct = len(np.unique(np.minimum(x, y) * (n + 1) + np.maximum(x, y)))
    if distinct != len(rows):
        errors.append(f"CSV has {len(rows) - distinct} duplicate rows")
    return errors
