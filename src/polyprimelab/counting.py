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
from .numtheory import ap_prime_mask, ap_primes, check_progression, euler_phi, is_prime
from .polynomials import INTEGER_COLORING, IntPolynomial, compute_M
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
    "bohr_smoothing",
    "bound_link",
    "find_monochromatic",
    "find_zn_solutions",
    "lift_solution",
    "sum_pairs",
    "transference_report",
    "triple_count",
]

_RELATIONS = {">=": operator.ge, "<=": operator.le}
_TRIPLE_BLOCK = 1 << 16  # frequencies per block of triple_count's sum
_GATHER_BLOCK = 1 << 16  # (t, x) entries per gather of _unweighted_count


class LiftingError(RuntimeError):
    """A Z_N solution failed to lift to an exact integer identity: a broken
    invariant, since `build_context` proved the lift's precondition."""


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
    n = f.modulus
    fs, gs, hs = f.spectrum, g.spectrum, h.spectrum
    total = complex(fs[0] * gs[0] * hs[0])
    for lo in range(1, n, _TRIPLE_BLOCK):  # in blocks: no length-N product
        hi = min(n, lo + _TRIPLE_BLOCK)
        prod = fs[lo:hi] * gs[lo:hi]
        prod *= hs[n - lo : n - hi : -1]  # hhat(-r), a reversed view
        total += complex(prod.sum())
    return total / n


def sum_pairs(elements: np.ndarray, s: int, top: int) -> tuple[np.ndarray, np.ndarray]:
    """(xs, ys): the pairs x < y = s - x <= top, x from the sorted int64
    `elements` and x, y between its least and greatest element, by one
    `np.searchsorted` window, skipped when empty; the caller tests y.  Over Z_N,
    x' < y' with x' + y' = t (mod N) are the pairs with sum t or t + N, top N - 1."""
    lo, hi = s - top, (s - 1) // 2
    if len(elements):
        lo = max(s - min(top, int(elements[-1])), int(elements[0]))
    i0, i1 = np.searchsorted(elements, (lo, hi + 1)) if lo <= hi else (0, 0)
    xs = elements[i0:i1]
    return xs, s - xs


def find_monochromatic(
    coloring: ColoringInstance, psi: IntPolynomial, b0: int, w0: int, n: int
) -> np.ndarray:
    """All monochromatic x != y with x + y = psi(z), w0*z + b0 prime, and
    x, y in the coloring's domain below n.

    Returns an int64 array of shape (k, 4) with columns (color, x, y, z),
    ordered by z and then x; its shape is (0, 4) without hits.  The z in
    [1, top] come from one `ap_prime_mask` call and their s = psi(z) from
    one `eval_mod` call, exact in int64 once the sum of |coefficient| top^j
    is below 2^63 (else ValueError); top is the last z with psi(z) <= 2n
    past the point where psi increases, by `compute_M`'s bisection.  At
    each s <= 2n one gather of the color table tests the pairs of
    `sum_pairs`.  The closing re-check recomputes psi(z) in Python ints for
    each z that has hits and checks x != y and x + y = psi(z) over every
    row.  A progression with w0 < 1 or gcd(b0, w0) != 1 raises ValueError.
    """
    check_progression(b0, w0)
    if psi.degree < 1 or psi.leading <= 0:
        raise ValueError("psi must have degree >= 1 and positive leading coefficient")
    if n > coloring.n:
        raise ValueError(f"search bound n = {n} exceeds the coloring's n = {coloring.n}")
    d = psi.derivative()  # psi increases from tail on, past every root of psi'
    tail = 1 if d.degree == 0 else d.root_bound() + 1
    top = tail - 1
    if psi(tail) <= 2 * n:
        top += compute_M(lambda x: psi(x + tail - 1), 1, 2 * n + 1)
    if IntPolynomial(tuple(map(abs, psi.coeffs)))(top) >= 1 << 63:
        raise ValueError(f"psi may leave int64 on [1, {top}]")
    zs = np.flatnonzero(ap_prime_mask(b0, w0, top)) + 1
    sums = psi.eval_mod(zs, 1 << 64).view(np.int64)
    elements = coloring.elements
    parts = []  # (colors, xs, ys) of the hits at each z that has any
    hit_z, counts = [], []
    for z, s in zip(zs[sums <= 2 * n].tolist(), sums[sums <= 2 * n].tolist()):
        xs, ys = sum_pairs(elements, s, n)
        cx = coloring.color_at[xs]
        idx = np.flatnonzero(cx == coloring.color_at[ys])  # xs are colored
        if len(idx):
            parts.append((cx[idx], xs[idx], ys[idx]))
            hit_z.append(z)
            counts.append(len(idx))
    out = np.empty((sum(counts), 4), dtype=np.int64)
    if not parts:
        return out
    for col in range(3):
        np.concatenate([part[col] for part in parts], out=out[:, col])
    out[:, 3] = np.repeat(hit_z, counts)
    # re-verify every row against psi(z) in Python ints, in int64 by the guard above
    x, y = out[:, 1], out[:, 2]
    bad = np.flatnonzero((x == y) | (x + y != np.repeat([psi(z) for z in hit_z], counts)))
    if len(bad):
        _, bx, by, bz = out[bad[0]].tolist()
        raise SearchVerificationError(f"({bx}, {by}, {bz}) fails x != y, x + y = psi(z)")
    return out


def lift_solution(xp: int, yp: int, zp: int, ctx: WTrickContext) -> tuple[int, int, int]:
    """Lift x' + y' = psi_{b,W}(z') from Z_N to (x, y, z) with x + y = psi(z)
    in the integers: x = W x' + psi(b)/2, y = W y' + psi(b)/2, z = W z' + b.

    `build_context` proved that K divides psi_{b,W} and N does not divide K;
    the identity, which holds iff x' + y' = psi_{b,W}(z') exactly, is checked
    here exactly, and its failure is a broken invariant (LiftingError).
    z = W z' + b gives w0 z + b0 = q z' + c, so the primality test of z' is
    that of the lift.
    """
    if not 1 <= zp <= ctx.M:
        raise ValueError(f"z' = {zp} outside [1, M]")
    c, q = ctx.progression
    if not is_prime(q * zp + c):
        raise ValueError(f"z' = {zp} is not in the admissible progression")
    if (ctx.rescaled(zp) - xp - yp) % ctx.N:
        raise ValueError("x' + y' is not congruent to psi_{b,W}(z') mod N")
    half = ctx.half_psi_b
    x, y, z = ctx.W * xp + half, ctx.W * yp + half, ctx.W * zp + ctx.b
    if x + y != ctx.psi(z):
        raise LiftingError(f"lift failed: {x} + {y} != psi({z})")
    return x, y, z


def find_zn_solutions(
    members: np.ndarray, ctx: WTrickContext, limit: int
) -> list[tuple[int, int, int]]:
    """The first `limit` (x', y', z') by z', then x': x' < y' in the set (ascending,
    in [0, N)), z' admissible (`ap_primes` of the progression over [1, M]), and
    x' + y' = t = psi_{b,W}(z') in Z_N (every t from one `eval_mod` call, so
    N < 2^32), from `sum_pairs` at sums t and t + N."""
    n_mod = ctx.N
    in_set = np.zeros(n_mod, dtype=bool)
    in_set[members] = True
    out = []
    zps = ap_primes(*ctx.progression, ctx.M)[0]
    for zp, t in zip(zps.tolist(), ctx.rescaled.eval_mod(zps, n_mod).tolist()):
        for s in (t, t + n_mod):
            xs, ys = sum_pairs(members, s, n_mod - 1)
            hits = np.flatnonzero(in_set[ys])[: limit - len(out)]
            out.extend(zip(xs[hits].tolist(), ys[hits].tolist(), [zp] * len(hits)))
        if len(out) >= limit:
            return out
    return out


def _unweighted_count(members: np.ndarray, measure: DensityFunction) -> float:
    """sum over x, y in A (ascending, in [0, N)) of measure(x + y), by the cost
    rule in `transference_report`; exactly, at each support point t, the x in
    A with t + N - x in `table` (x and x + N for x in A), gathered in blocks of
    at most `_GATHER_BLOCK` (t, x) entries."""
    n_mod = measure.modulus
    if measure.support is None:
        support = np.flatnonzero(measure.values)
        weights = measure.values[support]
    else:
        support, weights = measure.support.points, measure.support.weights
    if len(support) * len(members) > n_mod * n_mod.bit_length():
        indicator = DensityFunction.on_support(n_mod, members, np.ones(len(members)))
        return triple_count(indicator, indicator, measure).real
    table = np.zeros(2 * n_mod, dtype=bool)
    table[members] = table[members + n_mod] = True
    counts = np.zeros(len(support), dtype=np.int64)
    for lo in range(0, len(members), _GATHER_BLOCK):
        shifts = n_mod - members[lo : lo + _GATHER_BLOCK]
        rows = _GATHER_BLOCK // len(shifts)
        for r in range(0, len(support), rows):
            block = table[support[r : r + rows, None] + shifts]
            counts[r : r + rows] += np.count_nonzero(block, axis=1)
    return float(counts @ weights)


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


def _bohr_link(bohr, eps: Fraction) -> dict:
    """|B| >= eps^|R| N, the bound as its log10: the power underflows."""
    log10_eps = math.log10(eps.numerator) - math.log10(eps.denominator)
    log10_bound = len(bohr.frequencies) * log10_eps + math.log10(bohr.modulus)
    return bound_link(bohr.size, ">=", log10_bound=log10_bound)


def _smoothing(f: DensityFunction, eta: Fraction, eps: Fraction):
    """(R, B, smoothed f): f's large spectrum at eta, its Bohr set at radius
    eps, and f smoothed over that Bohr set."""
    spec_r = large_spectrum(f, float(eta))
    bohr = bohr_set(spec_r, eps, f.modulus)
    return spec_r, bohr, smooth(f, bohr)


def bohr_smoothing(
    f: DensityFunction, ctx: WTrickContext, eta: Fraction, eps: Fraction, of_class: bool = False
) -> tuple[DensityFunction, dict, dict]:
    """(smoothed f, links, sizes): f smoothed by `_smoothing`; its links max
    |smoothed f| <= a pointwise bound, #{smoothed f >= kappa/N} >= a count
    bound (the measure's frak A, the class's A') and |B| >= eps^|R| N; and
    |R|, |B| and the regime.  `of_class` takes the prime class's bounds.
    A function held on its support is read from its weights: the zeros off
    the support change neither link, as max |f| >= 0 and kappa > 0."""
    spec_r, bohr, smoothed = _smoothing(f, eta, eps)
    v = smoothed.values if smoothed.support is None else smoothed.support.weights
    kappa, n_mod = float(ctx.kappa), ctx.N
    if of_class:
        names, prefix = ("pointwise_class", "A_dash", "bohr_class"), "class_"
        pointwise, count = 2 / n_mod, 2 * kappa * n_mod
    else:
        names, prefix = ("pointwise_measure", "frak_A", "bohr_measure"), ""
        pointwise, count = (1 + 2 * kappa) / n_mod, (1 - 3 * kappa) * n_mod
    links = (
        bound_link(abs(float(max(v.max(initial=0.0), -v.min(initial=0.0)))), "<=", pointwise),
        bound_link(int(np.count_nonzero(v >= kappa / n_mod)), ">=", count),
        _bohr_link(bohr, eps),
    )
    sizes = {"large_spectrum_size": int(len(spec_r)), "bohr_size": bohr.size,
             "smoothing_regime": bohr.smoothing_regime}
    return smoothed, dict(zip(names, links)), {prefix + k: v for k, v in sizes.items()}


def transference_report(
    a_set: TransferredSet, measure: DensityFunction, eta: Fraction, eps: Fraction
) -> dict:
    """End-to-end weighted-count comparison for one transferred set against
    its context's measure (`spectral.build_poly_prime_measure`).

    Computes the raw and smoothed triple counts and the exact diagonal, and
    states each inequality of the argument once, as a `bound_link` record
    under `chain`.  Asymptotic bounds are recorded, never enforced.  When
    neither Bohr set smooths anything (both are {0}), the smoothed count is
    the raw count.  A prime class must carry its `weights`.

    For a prime coloring the final inequality counts the class's unweighted
    pairs, `unweighted_count` = sum over x, y in A of measure(x + y), with
    the diagonal sum over x in A of measure(2x) read from the members.  The
    count is exact, gathered from a table of A, when |supp measure| * |A| <=
    N * N.bit_length(); above that it is A's indicator's triple count.
    """
    ctx = a_set.context
    n_mod = ctx.N
    kappa = float(ctx.kappa)
    mass_measure = measure.mass.real  # each mass from a transient dense sum, before the transform

    if ctx.variant == INTEGER_COLORING:
        f = DensityFunction.on_support(n_mod, a_set.members, np.ones(len(a_set.members)))
    else:
        f = build_prime_coloring_measure(a_set)
        mass_class = f.mass.real

    # Each stage runs right after the transform it needs, and a spectrum no
    # later stage reads is dropped before the next transform: each transform
    # peaks at the live set plus the FFT's own scratch.  The measure and the
    # class are read from their supports: no dense length-N array is made.
    transform_pair(measure, f)
    raw = triple_count(f, f, measure).real
    # exact diagonal sum_x f(x)^2 measure(2x), against the subtracted bound,
    # and its unweighted sum_x measure(2x): f vanishes off the members
    mu2 = measure.at((2 * a_set.members) % n_mod)
    diag_exact = float((f.at(a_set.members) ** 2 * mu2).sum())
    if ctx.variant != INTEGER_COLORING:
        unweighted = _unweighted_count(a_set.members, measure)
        diag_unweighted = float(mu2.sum())

    smoothed_measure, chain, sizes = bohr_smoothing(measure, ctx, eta, eps)
    f_smooth = f
    if ctx.variant != INTEGER_COLORING:
        f_smooth, class_links, class_sizes = bohr_smoothing(f, ctx, eta, eps, of_class=True)
    same = f_smooth is f and smoothed_measure is measure  # both Bohr sets are {0}
    smoothed = raw if same else triple_count(f_smooth, f_smooth, smoothed_measure).real

    mass_smoothed = smoothed_measure.mass.real
    mass_bound = 1e-9 * max(1.0, abs(mass_measure))
    chain["smoothing_mass"] = bound_link(abs(mass_smoothed - mass_measure), "<=", mass_bound)
    # the paper's window for N; the context takes the least prime above 2n/W
    chain["N_window"] = bound_link(n_mod, "<=", float((2 + ctx.kappa) * Fraction(ctx.n, ctx.W)))
    report = {
        "variant": ctx.variant,
        "N": n_mod,
        "kappa": ctx.kappa,
        "mass_measure": mass_measure,
        "mass_smoothed_measure": mass_smoothed,
        **sizes,
        "raw_count": raw,
        "smoothed_count": smoothed,
        "count_difference": raw - smoothed,
        "diagonal_exact": diag_exact,
        "chain": chain,
    }

    if ctx.variant == INTEGER_COLORING:
        final = kappa**4 * n_mod / 3
        dense_bound = n_mod / (4 * ctx.num_colors * ctx.K)
        chain["dense_class"] = bound_link(len(a_set.members), ">=", dense_bound)
        chain["final_diag_bound"] = bound_link(raw - mass_measure, ">=", final)
        chain["final_diag_exact"] = bound_link(raw - diag_exact, ">=", final)
    else:
        kw = ctx.K * ctx.W
        amax = euler_phi(kw) / kw * math.log(kw * n_mod + ctx.psi(ctx.b)) / n_mod
        chain["class_mass"] = bound_link(mass_class, ">=", 1 / (3 * ctx.num_colors * ctx.K))
        # the class's weight against the prime-number-theorem margin
        weight_bound = (1 - kappa) * ctx.n / (ctx.num_colors * kw)
        chain["class_weight"] = bound_link(float(a_set.weights.sum()), ">=", weight_bound)
        chain.update(class_links)
        final = kappa**6 / (3 * n_mod) / amax**2
        chain["final"] = bound_link(unweighted - diag_unweighted, ">=", final)
        report.update(class_sizes)
        report["pointwise_weight_cap"] = amax
        report["unweighted_count"] = unweighted
    return report
