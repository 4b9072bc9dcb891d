"""Solution counting: additive triple counts via the spectrum (the explicit
O(N^2) sum is a test oracle only), the search for x + y = psi(z) with z from
a progression's primes, monochromatic or in one set over Z_N (every pair
from one producer, `_same_class_pairs`), the exact lift of Z_N solutions to
integer triples (x, y, z), and the transference report, whose chain of
inequalities is one `bound_link` record per link.  The report is
`chain_links` (once per eta, eps) of `chain_spectra` (once per n), and each
coloring variant's part in it is declared once, in `CHAIN_VARIANTS`."""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coloring import (
    DOMAIN_INTEGERS,
    DOMAIN_PRIMES,
    ColoringInstance,
    TransferredSet,
    dense_class,
    dense_prime_class,
)
from .numtheory import ap_prime_mask, ap_primes, check_progression, euler_phi, is_prime
from .polynomials import INTEGER_COLORING, PRIME_COLORING, IntPolynomial, compute_M
from .spectral import (
    DensityFunction,
    bohr_set,
    build_prime_coloring_measure,
    large_spectrum,
    smooth,
    smoothing_regime,
    transform_pair,
)
from .wtrick import WTrickContext

__all__ = [
    "CHAIN_VARIANTS",
    "ChainVariant",
    "LiftingError",
    "MEASURE_LINKS",
    "SearchVerificationError",
    "bohr_smoothing",
    "bound_link",
    "chain_links",
    "chain_spectra",
    "find_monochromatic",
    "find_zn_solutions",
    "lift_solution",
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
    exhaustive counting.  A constant factor's spectrum vanishes off r = 0: the
    sum is then its r = 0 term, as the other blocks would add exact zeros.
    """
    if not f.modulus == g.modulus == h.modulus:
        raise ValueError("modulus mismatch")
    n = f.modulus
    total = complex(f.spectrum_at_zero() * g.spectrum_at_zero() * h.spectrum_at_zero())
    if f.total is None and g.total is None and h.total is None:
        fs, gs, hs = f.spectrum, g.spectrum, h.spectrum
        for lo in range(1, n, _TRIPLE_BLOCK):  # in blocks: no length-N product
            hi = min(n, lo + _TRIPLE_BLOCK)
            prod = fs[lo:hi] * gs[lo:hi]
            prod *= hs[n - lo : n - hi : -1]  # hhat(-r), a reversed view
            total += complex(prod.sum())
    return total / n


def _same_class_pairs(table, elements, zs, sums, top):
    """(z, table values, xs, ys) for each z in order whose sum s has hits: the
    x < y = s - x <= top in the sorted int64 `elements`, between its least and
    greatest, with table[x] == table[y], by one `np.searchsorted` window.
    Over Z_N, x' + y' = t (mod N) is sum t or t + N at top N - 1."""
    if not len(elements):
        return
    first, last = int(elements[0]), int(elements[-1])
    for z, s in zip(zs.tolist(), sums.tolist()):
        lo, hi = max(s - min(top, last), first), (s - 1) // 2
        if lo <= hi:
            i0, i1 = np.searchsorted(elements, (lo, hi + 1))
            xs = elements[i0:i1]
            ys = s - xs
            tx = table[xs]
            idx = np.flatnonzero(tx == table[ys])
            if len(idx):
                yield z, tx[idx], xs[idx], ys[idx]


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
    past the point where psi increases, by `compute_M`'s bisection.  The
    hits at each s <= 2n are `_same_class_pairs` over the color table.  The
    closing re-check recomputes psi(z) in Python ints for each z that has
    hits and checks x != y and x + y = psi(z) over every row.  A progression
    with w0 < 1 or gcd(b0, w0) != 1 raises ValueError.
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
    parts = list(_same_class_pairs(coloring.color_at, coloring.elements, zs, sums, n))
    if not parts:
        return np.empty((0, 4), dtype=np.int64)
    hit_z, *columns = zip(*parts)  # columns: colors, xs, ys
    counts = [len(xs) for xs in columns[1]]
    out = np.empty((sum(counts), 4), dtype=np.int64)
    for col, arrays in enumerate(columns):
        np.concatenate(arrays, out=out[:, col])
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
    N < 2^32), from `_same_class_pairs` over the set's membership table."""
    n_mod = ctx.N
    in_set = np.zeros(n_mod, dtype=bool)
    in_set[members] = True
    zps = ap_primes(*ctx.progression, ctx.M)[0]
    t = ctx.rescaled.eval_mod(zps, n_mod)
    sums = np.stack((t, t + n_mod), axis=1).ravel()
    out = []
    for zp, _, xs, ys in _same_class_pairs(in_set, members, zps.repeat(2), sums, n_mod - 1):
        out.extend(zip(xs.tolist(), ys.tolist(), [zp] * len(xs)))
        if len(out) >= limit:
            break
    return out[:limit]


def _unweighted_count(members: np.ndarray, measure: DensityFunction) -> float:
    """sum over x, y in A (ascending, in [0, N)) of measure(x + y), the
    measure held on its support.  When |supp| |A| <= N N.bit_length() it is
    exact: at each support point t, the x in A with t + N - x in `table` (x
    and x + N for x in A), gathered in blocks of at most `_GATHER_BLOCK`
    (t, x) entries.  Above that it is A's indicator's triple count."""
    n_mod, support, weights = measure.modulus, measure.points, measure.weights
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


# How a smoothed function's links read: the names of its pointwise, count and
# Bohr links, the prefix of its sizes, and its pointwise and count bounds at
# (kappa, N).  The measure's; a variant that smooths its class declares the class's.
MEASURE_LINKS = (
    ("pointwise_measure", "frak_A", "bohr_measure"), "",
    lambda kappa, n_mod: (1 + 2 * kappa) / n_mod, lambda kappa, n_mod: (1 - 3 * kappa) * n_mod,
)


def bohr_smoothing(
    f: DensityFunction, ctx: WTrickContext, eta: Fraction, eps: Fraction, links=MEASURE_LINKS
) -> tuple[DensityFunction, dict, dict]:
    """(smoothed f, links, sizes): f smoothed by b = 1_B / |B| (`bohr_set`)
    for B the Bohr set at radius eps of its large spectrum R at eta; its
    links max |smoothed f| <= a pointwise bound, #{smoothed f >= kappa/N} >= a
    count bound and |B| >= eps^|R| N, named and bounded as `links` declares;
    and |R|, |B| (the number of b's `weights`) and b's `smoothing_regime`.
    The links read the smoothed function's weights: off a support the zeros
    change neither link, as max |f| >= 0 and kappa > 0; a constant's one
    value is read once and counted N times."""
    names, prefix, pointwise, count = links
    spec_r = large_spectrum(f, float(eta))
    b = bohr_set(spec_r, eps, f.modulus)
    smoothed = smooth(f, b)
    kappa, n_mod = float(ctx.kappa), ctx.N
    bohr_size = len(b.weights)
    v, times = smoothed.weights, 1
    if smoothed.total is not None:
        v, times = v[:1], n_mod
    # eps^|R| N underflows: its log10
    log10_eps = math.log10(eps.numerator) - math.log10(eps.denominator)
    log10_bohr = len(spec_r) * log10_eps + math.log10(n_mod)
    measured = (
        bound_link(abs(float(max(v.max(initial=0.0), -v.min(initial=0.0)))), "<=",
                   pointwise(kappa, n_mod)),
        bound_link(int(np.count_nonzero(v >= kappa / n_mod)) * times, ">=", count(kappa, n_mod)),
        bound_link(bohr_size, ">=", log10_bound=log10_bohr),
    )
    sizes = {"large_spectrum_size": int(len(spec_r)), "bohr_size": bohr_size,
             "smoothing_regime": smoothing_regime(b)}
    return smoothed, dict(zip(names, measured)), {prefix + k: v for k, v in sizes.items()}


@dataclass(frozen=True)
class ChainVariant:
    """What a coloring variant changes in the transference chain: its
    coloring's domain, its dense-class builder and `verify`'s name for that
    check; its class function f; its class's smoothing links as in
    `MEASURE_LINKS` (None: f is not smoothed); its sums, read after the
    transform from the class, the measure, f and mu2 (the measure at 2x for
    each member x); and its extra and final links, read from the class and
    all the sums, with its own report fields."""

    domain: str
    dense_class: Callable[[ColoringInstance, WTrickContext], TransferredSet]
    dense_check: str
    class_function: Callable[[TransferredSet], DensityFunction]
    class_links: tuple | None
    sums: Callable[[TransferredSet, DensityFunction, DensityFunction, np.ndarray], dict]
    links: Callable[[TransferredSet, dict], tuple[dict, dict]]


def _integer_links(a_set: TransferredSet, sums: dict) -> tuple[dict, dict]:
    ctx = a_set.context
    final = float(ctx.kappa) ** 4 * ctx.N / 3
    links = {
        "dense_class": bound_link(len(a_set.members), ">=", ctx.N / (4 * ctx.num_colors * ctx.K)),
        "final_diag_bound": bound_link(sums["raw_count"] - sums["mass_measure"], ">=", final),
        "final_diag_exact": bound_link(sums["raw_count"] - sums["diagonal_exact"], ">=", final),
    }
    return links, {}


def _prime_links(a_set: TransferredSet, sums: dict) -> tuple[dict, dict]:
    ctx = a_set.context
    kappa, n_mod, kw = float(ctx.kappa), ctx.N, ctx.K * ctx.W
    amax = euler_phi(kw) / kw * math.log(kw * n_mod + ctx.psi(ctx.b)) / n_mod
    # the class's weight against the prime-number-theorem margin
    weight_bound = (1 - kappa) * ctx.n / (ctx.num_colors * kw)
    unweighted = sums["unweighted_count"]
    links = {
        "class_mass": bound_link(sums["mass_class"], ">=", 1 / (3 * ctx.num_colors * ctx.K)),
        "class_weight": bound_link(float(a_set.weights.sum()), ">=", weight_bound),
        "final": bound_link(unweighted - sums["diag_unweighted"], ">=",
                            kappa**6 / (3 * n_mod) / amax**2),
    }
    return links, {"pointwise_weight_cap": amax, "unweighted_count": unweighted}


# The one declaration of each variant.  A builder is named inside a lambda,
# so it is looked up when called: a wrapper put on its name sees the call.
CHAIN_VARIANTS = {
    INTEGER_COLORING: ChainVariant(
        domain=DOMAIN_INTEGERS,
        dense_class=lambda coloring, ctx: dense_class(coloring, ctx),
        dense_check="coloring.pigeonhole",
        class_function=lambda a_set: DensityFunction.on_support(
            a_set.context.N, a_set.members, np.ones(len(a_set.members))
        ),
        class_links=None,
        sums=lambda a_set, measure, f, mu2: {},
        links=_integer_links,
    ),
    PRIME_COLORING: ChainVariant(
        domain=DOMAIN_PRIMES,
        dense_class=lambda coloring, ctx: dense_prime_class(coloring, ctx),
        dense_check="coloring.dense_prime_class",
        class_function=lambda a_set: build_prime_coloring_measure(a_set),
        class_links=(
            ("pointwise_class", "A_dash", "bohr_class"), "class_",
            lambda kappa, n_mod: 2 / n_mod, lambda kappa, n_mod: 2 * kappa * n_mod,
        ),
        sums=lambda a_set, measure, f, mu2: {
            "mass_class": f.mass.real,
            "unweighted_count": _unweighted_count(a_set.members, measure),
            "diag_unweighted": float(mu2.sum()),
        },
        links=_prime_links,
    ),
}


def chain_spectra(a_set: TransferredSet, measure: DensityFunction) -> tuple:
    """The once-per-n part of the transference chain of one transferred set
    against its context's measure (`spectral.build_poly_prime_measure`), as
    (a_set, measure, f, sums): the class function f, both spectra from one
    `transform_pair`, and the sums: the measure's mass, the raw count, the
    exact diagonal sum_x f(x)^2 measure(2x) and the variant's own (a prime
    class's mass and `_unweighted_count`).  A prime class must carry its
    `weights`."""
    variant = CHAIN_VARIANTS[a_set.context.variant]
    f = variant.class_function(a_set)
    # Each stage runs right after the transform it needs, and a spectrum no
    # later stage reads is dropped before the next transform: each transform
    # peaks at the live set plus the FFT's own scratch.  The measure and the
    # class are read from their supports: no dense length-N array is kept
    # (each mass is summed from a transient one).
    transform_pair(measure, f)
    raw = triple_count(f, f, measure).real
    mu2 = measure.at((2 * a_set.members) % measure.modulus)  # f vanishes off the members
    diag_exact = float((f.weights**2 * mu2).sum())  # f is held on the members, in their order
    sums = variant.sums(a_set, measure, f, mu2)
    sums.update(mass_measure=measure.mass.real, raw_count=raw, diagonal_exact=diag_exact)
    return a_set, measure, f, sums


def chain_links(spectra: tuple, eta: Fraction, eps: Fraction) -> dict:
    """The per-(eta, eps) part of the chain, as its report: the measure, and
    the class where its variant smooths it, smoothed by `bohr_smoothing`;
    the smoothed count, which is the raw count when nothing is smoothed
    (every Bohr set is {0}); and each inequality of the argument, stated
    once as a `bound_link` record under `chain`.  Asymptotic bounds are
    recorded, never enforced."""
    a_set, measure, f, sums = spectra
    ctx, variant = a_set.context, CHAIN_VARIANTS[a_set.context.variant]
    smoothed_measure, chain, sizes = bohr_smoothing(measure, ctx, eta, eps)
    f_smooth = f
    if variant.class_links is not None:
        f_smooth, links, class_sizes = bohr_smoothing(f_smooth, ctx, eta, eps, variant.class_links)
        chain.update(links)
        sizes.update(class_sizes)
    raw, mass_measure = sums["raw_count"], sums["mass_measure"]
    same = f_smooth is f and smoothed_measure is measure
    smoothed = raw if same else triple_count(f_smooth, f_smooth, smoothed_measure).real

    mass_smoothed = smoothed_measure.mass.real
    mass_bound = 1e-9 * max(1.0, abs(mass_measure))
    chain["smoothing_mass"] = bound_link(abs(mass_smoothed - mass_measure), "<=", mass_bound)
    # the paper's window for N; the context takes the least prime above 2n/W
    chain["N_window"] = bound_link(ctx.N, "<=", float((2 + ctx.kappa) * Fraction(ctx.n, ctx.W)))
    links, fields = variant.links(a_set, sums)
    chain.update(links)
    return {
        "variant": ctx.variant,
        "N": ctx.N,
        "kappa": ctx.kappa,
        "mass_measure": mass_measure,
        "mass_smoothed_measure": mass_smoothed,
        **sizes,
        "raw_count": raw,
        "smoothed_count": smoothed,
        "count_difference": raw - smoothed,
        "diagonal_exact": sums["diagonal_exact"],
        "chain": chain,
        **fields,
    }


def transference_report(
    a_set: TransferredSet, measure: DensityFunction, eta: Fraction, eps: Fraction
) -> dict:
    """The transference chain of one transferred set at (eta, eps):
    `chain_links` of `chain_spectra`."""
    return chain_links(chain_spectra(a_set, measure), eta, eps)
