"""Solution counting: additive triple counts via the spectrum (the explicit
O(N^2) sum is a test oracle only), monochromatic solution search for
x + y = psi(z) with z restricted to a progression's primes, the exact lift
of Z_N solutions to integer triples (x, y, z), and the transference report,
whose chain of inequalities is one `bound_link` record per link."""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

from .coloring import ColoringInstance, TransferredSet
from .numtheory import ap_primes, check_progression, euler_phi, is_prime
from .polynomials import INTEGER_COLORING, IntPolynomial
from .spectral import (
    DensityFunction,
    bohr_set,
    build_prime_coloring_measure,
    large_spectrum,
    smooth,
    transform_pair,
)
from .wtrick import WTrickContext

__all__ = [
    "LiftingError",
    "SearchVerificationError",
    "bound_link",
    "find_monochromatic",
    "find_zn_solutions",
    "lift_solution",
    "pointwise_link",
    "transference_report",
    "triple_count",
]

_PAIR_BLOCK = 1 << 16  # pairs per block of the exact unweighted count
_RELATIONS = {">=": operator.ge, "<=": operator.le}


class LiftingError(ValueError):
    """A Z_N solution failed to lift to an exact integer identity."""


class SearchVerificationError(RuntimeError):
    """A monochromatic triple failed its exact re-check before being reported."""


def triple_count(f: DensityFunction, g: DensityFunction, h: DensityFunction) -> complex:
    """(1/N) sum_r fhat(r) ghat(r) hhat(-r).

    This is the orthogonality identity matching brute force under the
    transform convention fhat(r) = sum f(x) e(-x r / N), verified against
    exhaustive counting.
    """
    if not f.modulus == g.modulus == h.modulus:
        raise ValueError("modulus mismatch")
    hs = h.spectrum
    h_neg = np.concatenate((hs[:1], hs[1:][::-1]))
    return complex((f.spectrum * g.spectrum * h_neg).sum() / f.modulus)


def _at_double(v: np.ndarray) -> np.ndarray:
    """v((2x) mod N) for x in [0, N), N = len(v) odd: the even-index half of
    v followed by its odd-index half, with no index array."""
    if len(v) % 2 == 0:
        raise ValueError(f"v(2x mod N) by halves needs odd N, got N = {len(v)}")
    return np.concatenate((v[0::2], v[1::2]))


def _monotone_tail(psi: IntPolynomial) -> int:
    """An integer beyond which psi is strictly increasing (Cauchy bound on psi')."""
    d = psi.derivative()
    if d.degree == 0:
        return 1
    lead = abs(d.leading)
    return 2 + max(abs(c) for c in d.coeffs) // lead


def find_monochromatic(
    coloring: ColoringInstance, psi: IntPolynomial, b0: int, w0: int, n: int
) -> np.ndarray:
    """All monochromatic x != y with x + y = psi(z), w0*z + b0 prime, and
    x, y in the coloring's domain below n.

    Returns an int64 array of shape (k, 4) with columns (color, x, y, z),
    ordered by z and then x; its shape is (0, 4) without hits.  z is
    enumerated in the outer loop (few admissible values); for each
    admissible z the domain elements x below psi(z)/2 are paired with
    psi(z) - x in one gather from the coloring's color table, and the hit
    rows are kept as array slices and joined once at the end.  Only
    z with s = psi(z) <= 2n are searched and n <= coloring.n, so x, y, s and
    x + y are exact in int64, and so is the closing re-check of x != y and
    x + y = psi(z) over every row.  A progression with w0 < 1 or
    gcd(b0, w0) != 1 raises ValueError.
    """
    check_progression(b0, w0)
    if psi.degree < 1 or psi.leading <= 0:
        raise ValueError("psi must have degree >= 1 and positive leading coefficient")
    if n > coloring.n:
        raise ValueError(f"search bound n = {n} exceeds the coloring's n = {coloring.n}")
    tail = _monotone_tail(psi)
    color_at = coloring.color_at
    elements = coloring.elements
    parts = []  # (colors, xs, ys) of the hits at each z that has any
    zs, sums, counts = [], [], []
    z = 0
    while True:
        z += 1
        s = psi(z)
        if s > 2 * n and z >= tail:
            break
        lo = max(1, s - n)
        hi = (s - 1) // 2  # x < y, both <= n
        if s > 2 * n or hi < lo or not is_prime(w0 * z + b0):
            continue
        i0, i1 = np.searchsorted(elements, (lo, hi + 1))
        xs = elements[i0:i1]
        ys = s - xs
        cx = color_at[xs]
        idx = np.flatnonzero((cx == color_at[ys]) & (cx != 0))
        if len(idx):
            parts.append((cx[idx], xs[idx], ys[idx]))
            zs.append(z)
            sums.append(s)
            counts.append(len(idx))
    out = np.empty((sum(counts), 4), dtype=np.int64)
    if not parts:
        return out
    for col in range(3):
        np.concatenate([part[col] for part in parts], out=out[:, col])
    out[:, 3] = np.repeat(zs, counts)
    # re-verify the array arithmetic against psi(z), row by row
    x, y = out[:, 1], out[:, 2]
    bad = np.flatnonzero((x == y) | (x + y != np.repeat(sums, counts)))
    if len(bad):
        _, bx, by, bz = out[bad[0]].tolist()
        raise SearchVerificationError(f"({bx}, {by}, {bz}) fails x != y, x + y = psi(z)")
    return out


def lift_solution(xp: int, yp: int, zp: int, ctx: WTrickContext) -> tuple[int, int, int]:
    """Lift x' + y' = psi_{b,W}(z') from Z_N to (x, y, z) with x + y = psi(z)
    in the integers.

    Replays the divisibility argument: the gap l*N between the integer sum
    and the polynomial value must satisfy 0 <= l < K and K | l, forcing l = 0;
    the lifted identity and primality are then re-verified exactly.
    """
    resc, n_mod, k = ctx.rescaled, ctx.N, ctx.K
    if not 1 <= zp <= ctx.M:
        raise ValueError(f"z' = {zp} outside [1, M]")
    c, q = ctx.progression
    if not is_prime(q * zp + c):
        raise ValueError(f"z' = {zp} is not in the admissible progression")
    val = resc(zp)
    gap = val - (xp + yp)
    if gap % n_mod:
        raise ValueError("x' + y' is not congruent to psi_{b,W}(z') mod N")
    l = gap // n_mod
    if not 0 <= l < k:
        raise LiftingError(f"gap multiplier l = {l} outside [0, K)")
    if (xp + yp) % k:
        raise LiftingError(f"K = {k} does not divide x' + y' = {xp + yp}")
    for i in range(1, resc.degree + 1):
        if resc.coefficient(i) % k:
            raise LiftingError(f"K = {k} does not divide the coefficient of x^{i}")
    if l % k:
        raise LiftingError(f"K | l fails: l = {l}, K = {k}")
    if l != 0:
        raise LiftingError(f"nonzero gap multiplier l = {l}")
    half = ctx.half_psi_b
    x = ctx.W * xp + half
    y = ctx.W * yp + half
    z = ctx.W * zp + ctx.b
    if x + y != ctx.psi(z):
        raise LiftingError(f"lift failed: {x} + {y} != psi({z})")
    if not is_prime(ctx.w0 * z + ctx.b0):
        raise LiftingError(f"lifted z = {z} leaves the progression")
    return x, y, z


def find_zn_solutions(
    members: np.ndarray, ctx: WTrickContext, limit: int = 100
) -> list[tuple[int, int, int]]:
    """(x', y', z') with x', y' in the set, z' admissible, x'+y' = psi_{b,W}(z')
    in Z_N, and x' != y'; at most `limit` triples.  The admissible z' are the
    support of the measure: `ap_primes` of the progression over [1, M]."""
    n_mod = ctx.N
    in_set = np.zeros(n_mod, dtype=bool)
    in_set[members] = True
    out = []
    for zp in ap_primes(*ctx.progression, ctx.M)[0].tolist():
        t = ctx.rescaled(zp) % n_mod
        ys = (t - members) % n_mod
        ok = in_set[ys] & (members != ys)
        for xp, yp in zip(members[ok].tolist(), ys[ok].tolist()):
            if xp < yp:  # report each unordered pair once
                out.append((int(xp), int(yp), zp))
                if len(out) >= limit:
                    return out
    return out


def _unweighted_count(members: np.ndarray, measure: DensityFunction) -> float:
    """sum over x, y in A of measure(x + y), A the distinct members in
    [0, N), by the cost rule in `transference_report`.  The exact pair
    counts are taken _PAIR_BLOCK pairs at a time from a membership table
    over [0, 2N), which holds (s - x) mod N at s + (N - x)."""
    n_mod = measure.modulus
    support = np.flatnonzero(measure.values)
    in_a = np.zeros(2 * n_mod, dtype=bool)
    in_a[members] = True
    if len(support) * len(members) > n_mod * n_mod.bit_length():
        indicator = DensityFunction(in_a[:n_mod])  # as float64 0/1 values
        return triple_count(indicator, indicator, measure).real
    in_a[n_mod:] = in_a[:n_mod]
    neg = n_mod - members
    counts = np.empty(len(support), dtype=np.int64)
    rows = max(1, _PAIR_BLOCK // max(1, len(members)))
    for lo in range(0, len(support), rows):
        pairs = np.add.outer(support[lo : lo + rows], neg)
        counts[lo : lo + rows] = np.count_nonzero(in_a[pairs], axis=1)
    return float(counts @ measure.values[support])


def bound_link(measured, relation: str, bound=None, log10_bound=None) -> dict:
    """A link of the transference chain: `measured` `relation` (">=" or "<=")
    `bound`, `holds` the relation applied, and log10(measured / bound) where
    both are positive.  A bound beyond float range is given as `log10_bound`."""
    link = {"measured": measured, "relation": relation}
    if bound is None:
        link["log10_bound"] = log10_bound
        link["holds"] = _RELATIONS[relation](math.log10(measured), log10_bound)
    else:
        link["bound"] = bound
        link["holds"] = bool(_RELATIONS[relation](measured, bound))
        log10_bound = math.log10(bound) if bound > 0 else None
    if measured > 0 and log10_bound is not None:
        link["log10_ratio"] = math.log10(measured) - log10_bound
    return link


def pointwise_link(smoothed: DensityFunction, ctx: WTrickContext) -> dict:
    """max |smoothed measure| against the pointwise bound (1 + 2 kappa)/N."""
    bound = (1 + 2 * float(ctx.kappa)) / ctx.N
    return bound_link(float(np.abs(smoothed.values).max()), "<=", bound)


def _bohr_link(bohr, eps: Fraction) -> dict:
    """|B| >= eps^|R| N, the bound as its log10: the power underflows."""
    log10_eps = math.log10(eps.numerator) - math.log10(eps.denominator)
    log10_bound = len(bohr.frequencies) * log10_eps + math.log10(bohr.modulus)
    return bound_link(bohr.size, ">=", log10_bound=log10_bound)


def transference_report(
    a_set: TransferredSet, measure: DensityFunction, eta: Fraction, eps: Fraction
) -> dict:
    """End-to-end weighted-count comparison for one transferred set against
    its context's measure (`spectral.build_poly_prime_measure`).

    Computes the raw and smoothed triple counts and the exact diagonal, and
    states each inequality of the argument once, as a `bound_link` record
    under `chain`.  Asymptotic bounds are recorded, never enforced.  When
    neither Bohr set smooths anything (both are {0}), the smoothed count is
    the raw count.  A prime class's `meta` must hold its `weighted_sum`.

    For a prime coloring the final inequality counts the class's unweighted
    pairs, `unweighted_count` = sum over x, y in A of measure(x + y), with
    the diagonal sum over x in A of measure(2x) read from the members.  When
    |supp measure| * |A| <= N * N.bit_length(), at most one transform's
    work, it is the sum over s in the support of measure(s) times the exact
    integer count #{x in A : (s - x) mod N in A}, and no transform runs;
    above that cost it is the triple count of A's indicator, one transform.
    """
    ctx = a_set.context
    n_mod = ctx.N
    kappa = float(ctx.kappa)
    mass_measure = measure.mass.real

    if ctx.variant == INTEGER_COLORING:
        f = DensityFunction(a_set.indicator_values())
    else:
        f = build_prime_coloring_measure(a_set.members, ctx)

    # Each stage runs right after the transform it needs, and a spectrum no
    # later stage reads is dropped before the next transform: each transform
    # peaks at the live set plus the FFT's own scratch.
    transform_pair(measure, f)
    raw = triple_count(f, f, measure).real
    # exact diagonal sum_x f(x)^2 measure(2x), against the subtracted bound
    diag_exact = float((f.values**2 * _at_double(measure.values)).sum())
    if ctx.variant != INTEGER_COLORING:
        unweighted = _unweighted_count(a_set.members, measure)
        diag_unweighted = float(measure.values[(2 * a_set.members) % n_mod].sum())

    spec_r = large_spectrum(measure, float(eta))
    bohr = bohr_set(spec_r, eps, n_mod)
    smoothed_measure = smooth(measure, bohr)
    if ctx.variant == INTEGER_COLORING:
        f_smooth = f
    else:
        spec_r2 = large_spectrum(f, float(eta))
        bohr2 = bohr_set(spec_r2, eps, n_mod)
        f_smooth = smooth(f, bohr2)
    if f_smooth is f and smoothed_measure is measure:
        smoothed = raw  # both Bohr sets are {0}: the same triple count
    else:
        smoothed = triple_count(f_smooth, f_smooth, smoothed_measure).real

    mass_smoothed = smoothed_measure.mass.real
    frak_a = int(np.count_nonzero(smoothed_measure.values >= kappa / n_mod))
    chain = {  # frak A = {smoothed measure >= kappa/N}
        "pointwise_measure": pointwise_link(smoothed_measure, ctx),
        "frak_A": bound_link(frak_a, ">=", (1 - 3 * kappa) * n_mod),
        "bohr_measure": _bohr_link(bohr, eps),
        "smoothing_mass": bound_link(
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
        "smoothing_regime": bohr.smoothing_regime,
        "raw_count": raw,
        "smoothed_count": smoothed,
        "count_difference": raw - smoothed,
        "diagonal_exact": diag_exact,
        "chain": chain,
    }

    if ctx.variant == INTEGER_COLORING:
        final = kappa**4 * n_mod / 3
        chain["dense_class"] = bound_link(
            len(a_set.members), ">=", n_mod / (4 * ctx.num_colors * ctx.K)
        )
        chain["final_diag_bound"] = bound_link(raw - mass_measure, ">=", final)
        chain["final_diag_exact"] = bound_link(raw - diag_exact, ">=", final)
    else:
        kw = ctx.K * ctx.W
        amax = euler_phi(kw) / kw * math.log(kw * n_mod + ctx.psi(ctx.b)) / n_mod
        a_dash = int(np.count_nonzero(f_smooth.values >= kappa / n_mod))  # A'
        chain["class_mass"] = bound_link(f.mass.real, ">=", 1 / (3 * ctx.num_colors * ctx.K))
        # the class's log weight against the prime-number-theorem margin
        weight_bound = (1 - kappa) * ctx.n / (ctx.num_colors * euler_phi(kw))
        chain["class_weight"] = bound_link(a_set.meta["weighted_sum"], ">=", weight_bound)
        chain["A_dash"] = bound_link(a_dash, ">=", 2 * kappa * n_mod)
        chain["pointwise_class"] = bound_link(float(np.abs(f_smooth.values).max()), "<=", 2 / n_mod)
        chain["bohr_class"] = _bohr_link(bohr2, eps)
        chain["final"] = bound_link(
            unweighted - diag_unweighted, ">=", kappa**6 / (3 * n_mod) / amax**2
        )
        report["class_large_spectrum_size"] = int(len(spec_r2))
        report["class_bohr_size"] = bohr2.size
        report["class_smoothing_regime"] = bohr2.smoothing_regime
        report["pointwise_weight_cap"] = amax
        report["unweighted_count"] = unweighted
    return report
