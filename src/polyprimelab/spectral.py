"""Fourier analysis over Z_N: transforms, the weighted polynomial-prime
measure and the prime-coloring measure, large spectra, Bohr sets,
smoothing, restriction norms, complete Gauss sums, and the weighted
exponential sum of the progression.

Both measures and `weighted_exp_sum` take their primes and log weights from
`numtheory.ap_primes`.

Transform convention: fhat(r) = sum_x f(x) e(-x r / N) with e(t) = exp(2 pi i t),
computed by one Bluestein (chirp-z) transform at every length N (the O(N^2)
sum by definition is a test oracle only).  With x r = (x^2 + r^2 - (r - x)^2)/2,
fhat(r) = w(r) sum_x f(x) w(x) conj w(r - x) for the chirp w(k) = e(-k^2 / 2N),
a cyclic convolution of length L, the least 7-smooth L >= 2N - 1.  Each
length-L FFT is a four-step FFT over an L2 x L1 grid (L1 <= L2, both near
sqrt L) made of numpy's batched FFTs along one axis, computed in place.  The
forward FFTs leave their output in transposed order, in which the pointwise
product and the inverse FFT work, so no transpose is copied.  Every pass is
split into two fixed halves, one on a helper thread and one on the caller
(numpy's FFT and ufunc loops release the GIL), so the result does not depend
on scheduling and is the same to the bit on every call.  The chirp phases
k^2 mod 2N and the twiddle phases mod L are reduced in exact integers before
trig, as `_e` reduces every other phase: `complete_gauss_sum` and
`weighted_exp_sum` for every alpha, a float alpha taken as its exact binary
fraction.

Real functions are stored as float64, complex ones as complex128.  Two real
functions share one transform: `dft_pair` transforms a + i b and splits the
result.  The partner is scaled by a power of two before packing, so that
neither part is lost in the other's rounding, and unscaled after (both
exactly).

`smooth` is the one smoothing routine.  It runs no transform when the Bohr
set's size settles the answer: B = {0} returns f itself, and B = Z_N returns
the constant f.mass / N with its spectrum (f.mass at r = 0, 0 elsewhere).
Any other B takes the transform path.  So `counting.transference_report`
runs 1 length-N transform for an integer coloring when B = {0}, and 1 for a
prime coloring when the measure's B is {0} and the class's is Z_N (its
unweighted pair count adds 1 only above the cost cutoff stated there); each
proper, nontrivial Bohr set adds 2.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .numtheory import ap_primes
from .wtrick import WTrickContext

__all__ = [
    "BohrStructure",
    "CollisionError",
    "DensityFunction",
    "bohr_set",
    "build_poly_prime_measure",
    "build_prime_coloring_measure",
    "complete_gauss_sum",
    "dft",
    "dft_pair",
    "idft",
    "large_spectrum",
    "restriction_norm",
    "smooth",
    "transform_pair",
    "weighted_exp_sum",
]

_BOHR_TAIL = 1024  # survivors from which bohr_set tests frequencies in blocks


class CollisionError(ValueError):
    """Two support points of the polynomial-prime measure collide mod N."""


def _smooth_at_least(n: int) -> int:
    """The least 7-smooth integer >= n, for n >= 1: the least s * 2^j >= n
    over the odd 7-smooth s < 2n."""
    best = 1 << (n - 1).bit_length()
    p7 = 1
    while p7 < 2 * n:
        p5 = p7
        while p5 < 2 * n:
            s = p5
            while s < 2 * n:
                best = min(best, s << ((n - 1) // s).bit_length())
                s *= 3
            p5 *= 5
        p7 *= 7
    return best


def _halves(task, n: int) -> None:
    """task(0, n // 2) on a helper thread and task(n // 2, n) on the caller.
    The split is fixed, so the work each thread does never depends on
    scheduling; an exception raised on the helper is re-raised here."""
    errors = []

    def helper():
        try:
            task(0, n // 2)
        except BaseException as e:  # handed to the caller, which re-raises it
            errors.append(e)

    thread = threading.Thread(target=helper)
    thread.start()
    try:
        task(n // 2, n)
    finally:
        thread.join()
        if errors:  # chained to the caller's own exception, if any
            raise errors[0]


def _unit_phases(p: np.ndarray, d: int, out: np.ndarray) -> None:
    """out = e(-p / d) for int64 phases p >= 0, p overwritten: p is reduced
    into [-d/2, d/2) in exact integers before trig."""
    p += d // 2
    p %= d
    p -= d // 2
    angle = p * (-2 * math.pi / d)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)


def _chirp_dft(v: np.ndarray) -> np.ndarray:
    """dft of a float64 or complex128 array v by Bluestein's algorithm (see
    the module docstring), as a new complex128 array.

    a = v w and b = conj w / L (b(L - k) = b(k)) fill L2 x L1 grids whose
    row-major order is the natural one, zero-padded.  A forward FFT runs
    length-L2 FFTs down the columns, multiplies by the twiddles e(-k2 n1 / L)
    and runs length-L1 FFTs along the rows, which leaves A(k2 + L2 k1) at
    [k2, k1]; the inverse undoes those steps in reverse, ending in natural
    order.  The twiddles come block by block, blk rows at a time, as the
    product of two small tables, e(-(k2 - c blk) n1 / L) and e(-c blk n1 / L)
    for block c: no length-L twiddle array is built.  The product and the
    inverse run inside the row pass, one block at a time.
    """
    n = len(v)
    size = _smooth_at_least(2 * n - 1)
    l1 = max(d for d in range(1, math.isqrt(size) + 1) if size % d == 0)
    l2 = size // l1
    blk = math.isqrt(l2)
    cols = np.arange(l1, dtype=np.int64)
    near = np.empty((blk, l1), dtype=np.complex128)
    _unit_phases(np.multiply.outer(np.arange(blk), cols), size, near)
    far = np.empty((-(-l2 // blk), l1), dtype=np.complex128)
    _unit_phases(np.multiply.outer(np.arange(0, l2, blk), cols), size, far)
    near_inv, far_inv = near.conj(), far.conj()

    chirp = np.empty(n, dtype=np.complex128)
    a = np.zeros((l2, l1), dtype=np.complex128)
    b = np.zeros((l2, l1), dtype=np.complex128)
    a_flat, b_flat = a.reshape(-1), b.reshape(-1)

    def fill(lo, hi):
        k = np.arange(lo, hi, dtype=np.int64)
        k *= k
        _unit_phases(k, 2 * n, chirp[lo:hi])
        np.multiply(v[lo:hi], chirp[lo:hi], out=a_flat[lo:hi])
        np.conjugate(chirp[lo:hi], out=b_flat[lo:hi])
        b_flat[lo:hi] *= 1 / size  # so the inverse FFT runs unscaled
        lo = max(lo, 1)
        if lo < hi:
            b_flat[size - hi + 1 : size - lo + 1] = b_flat[lo:hi][::-1]

    def columns_forward(lo, hi):
        for grid in (a, b):
            np.fft.fft(grid[:, lo:hi], axis=0, out=grid[:, lo:hi])

    def rows(lo, hi):
        for c in range(lo // blk, -(-hi // blk)):
            r0, r1 = max(lo, c * blk), min(hi, (c + 1) * blk)
            ra, rb = a[r0:r1], b[r0:r1]
            tn = slice(r0 - c * blk, r1 - c * blk)
            for grid in (ra, rb):
                grid *= near[tn]
                grid *= far[c]
                np.fft.fft(grid, axis=1, out=grid)
            ra *= rb
            np.fft.ifft(ra, axis=1, out=ra, norm="forward")
            ra *= near_inv[tn]
            ra *= far_inv[c]

    def columns_inverse(lo, hi):
        np.fft.ifft(a[:, lo:hi], axis=0, out=a[:, lo:hi], norm="forward")

    def unchirp(lo, hi):
        chirp[lo:hi] *= a_flat[lo:hi]

    _halves(fill, n)
    _halves(columns_forward, l1)
    _halves(rows, l2)
    del b, b_flat
    _halves(columns_inverse, l1)
    _halves(unchirp, n)
    return chirp


def dft(values: np.ndarray) -> np.ndarray:
    """Transform fhat(r) = sum_x f(x) e(-x r / N), as a new complex128 array,
    by the two-thread Bluestein transform described in the module docstring."""
    dtype = np.complex128 if np.iscomplexobj(values) else np.float64
    return _chirp_dft(np.asarray(values, dtype=dtype))


def idft(spectrum: np.ndarray) -> np.ndarray:
    """Inverse transform f(x) = (1/N) sum_r fhat(r) e(x r / N), as the
    conjugate of the forward transform of the conjugate."""
    out = _chirp_dft(np.conjugate(np.asarray(spectrum, dtype=np.complex128)))
    np.conjugate(out, out=out)
    out /= len(out)
    return out


def _pow2_ratio(num: float, den: float) -> float:
    """2^round(log2(num / den)) for positive norms, 1 when one is not finite."""
    if not (num < math.inf and den < math.inf):
        return 1.0
    return math.ldexp(1.0, round(math.log2(num) - math.log2(den)))


def _alone(values: np.ndarray, norm: float) -> np.ndarray:
    """dft(values), or exact complex zeros when the norm is zero."""
    return dft(values) if norm else np.zeros(len(values), dtype=np.complex128)


def dft_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectra of two real arrays from one dft of Z = dft(a + i b).

    A(r) = (Z(r) + conj Z(-r))/2 and B(r) = (Z(r) - conj Z(-r))/2i, so both
    come out exactly Hermitian.  b is packed as b / 2^k with
    k = round(log2(|b|_1 / |a|_1)) and B is multiplied back by 2^k, so a
    small a is not lost in the rounding of a large b, nor the reverse.  An
    all-zero array gets the zero spectrum exactly, and the other its own dft.
    """
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        raise ValueError("dft_pair transforms real arrays only")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    norm_a, norm_b = float(np.abs(a).sum()), float(np.abs(b).sum())
    if not (norm_a and norm_b):
        return _alone(a, norm_a), _alone(b, norm_b)
    scale = _pow2_ratio(norm_b, norm_a)
    z = np.empty(len(a), dtype=np.complex128)
    z.real = a
    z.imag = b / scale
    z = dft(z)
    conj_neg = np.roll(z[::-1], 1)  # Z(-r)
    np.conjugate(conj_neg, out=conj_neg)
    spec_a = z + conj_neg
    spec_a *= 0.5
    z -= conj_neg
    z *= -0.5j * scale  # a pure-imaginary power of two: exact
    return spec_a, z


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class DensityFunction:
    """Function on Z_N with a lazily cached spectrum; real values are kept
    as float64, complex ones as complex128."""

    __slots__ = ("modulus", "values", "_spectrum")

    def __init__(self, values: np.ndarray, spectrum: np.ndarray | None = None):
        """`spectrum`, when given, is the transform the caller already has; it
        is kept as complex128 and made read-only."""
        dtype = np.complex128 if np.iscomplexobj(values) else np.float64
        v = np.array(values, dtype=dtype)
        if v.ndim != 1 or len(v) == 0:
            raise ValueError("values must be a nonempty 1-d array")
        self.modulus = len(v)
        self.values = _frozen(v)
        if spectrum is not None:
            spectrum = _frozen(np.asarray(spectrum, dtype=np.complex128))
        self._spectrum = spectrum

    @property
    def is_real(self) -> bool:
        return self.values.dtype == np.float64

    @property
    def spectrum(self) -> np.ndarray:
        if self._spectrum is None:
            self._spectrum = _frozen(dft(self.values))
        return self._spectrum

    @property
    def mass(self) -> complex:
        return complex(self.values.sum())


def transform_pair(f: DensityFunction, g: DensityFunction) -> None:
    """Cache the spectra of real f and g from one dft (see `dft_pair`);
    when either is already cached, the other is left to its own dft."""
    if f._spectrum is None and g._spectrum is None:
        f._spectrum, g._spectrum = map(_frozen, dft_pair(f.values, g.values))


def build_poly_prime_measure(ctx: WTrickContext) -> DensityFunction:
    """The normalized forward-difference-weighted prime measure on Z_N,
    exhaustively checking well-definedness.

    Supported at x = psi_{b,W}(z) mod N for z in [1, M] with the progression
    value q z + c prime; the weight there is psi_{b,W}(z) - psi_{b,W}(z-1)
    times the progression's log weight (phi(q)/q) log(q z + c) from
    `ap_primes`, normalized by psi_{b,W}(M).  Every z in [1, M] must land on
    a distinct residue mod N; a collision means the K-divisibility reasoning
    behind the context is violated.
    """
    n_mod = ctx.N
    resc = ctx.rescaled
    norm = resc(ctx.M)
    support, log_weights = ap_primes(*ctx.progression, ctx.M)
    weights = {
        z: resc.forward_difference(z - 1) * w
        for z, w in zip(support.tolist(), log_weights.tolist())
    }
    seen: dict[int, int] = {}
    values = np.zeros(n_mod)
    for z in range(1, ctx.M + 1):
        x = resc(z) % n_mod
        if x in seen:
            raise CollisionError(
                f"psi_{{b,W}} collides mod N at z = {seen[x]} and z = {z} (x = {x})"
            )
        seen[x] = z
        if z in weights:
            values[x] = weights[z] / norm
    return DensityFunction(values)


def build_prime_coloring_measure(members, ctx: WTrickContext) -> DensityFunction:
    """Normalized log-weighted indicator of a transferred prime class.

    The weight at x is (phi(KW)/KW) * log(W*x + psi(b)/2) / N when the source
    value W*x + psi(b)/2 is prime and K | x (transferred points always sit in
    K Z); the offset psi(b)/2 must be coprime to KW.  At x = K (t - 1) the
    source value is KW t + psi(b)/2 - KW, a progression in t for `ap_primes`.
    """
    kw = ctx.K * ctx.W
    xs = np.asarray(members, dtype=np.int64)
    outside = xs[(xs < 0) | (xs >= ctx.N)]
    if len(outside):
        raise ValueError(f"member {outside[0]} outside [0, N)")
    in_class = np.zeros(ctx.N, dtype=bool)
    in_class[xs] = True
    support, weights = ap_primes(ctx.half_psi_b - kw, kw, (ctx.N - 1) // ctx.K + 1)
    xs = ctx.K * (support - 1)
    keep = in_class[xs]
    values = np.zeros(ctx.N)
    values[xs[keep]] = weights[keep] / ctx.N
    return DensityFunction(values)


def large_spectrum(f: DensityFunction, eta) -> np.ndarray:
    """Frequencies r with |fhat(r)| >= eta."""
    eta = float(eta)
    if eta <= 0:
        raise ValueError("requires eta > 0")
    return np.flatnonzero(np.abs(f.spectrum) >= eta).astype(np.int64)


@dataclass(frozen=True)
class BohrStructure:
    """Frequency set R (sorted, reduced mod N, duplicates kept) and the
    resulting Bohr set, both read-only int64 arrays."""

    modulus: int
    frequencies: np.ndarray
    members: np.ndarray

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def smoothing_regime(self) -> str:
        """How `smooth` treats a function with this Bohr set: "identity" when
        B = {0}, "constant" when B = Z_N, "fft" otherwise."""
        if self.size == 1:
            return "identity"
        return "constant" if self.size == self.modulus else "fft"

    def normalized_indicator(self) -> DensityFunction:
        v = np.zeros(self.modulus)
        v[self.members] = 1.0 / len(self.members)
        return DensityFunction(v)


def bohr_set(frequencies, eps, modulus: int) -> BohrStructure:
    """B = {x : ||x r / N|| <= eps for all r}; membership and the pigeonhole
    bound |B| >= eps^{|R|} N are both exact integer comparisons."""
    if not isinstance(eps, Fraction):
        raise ValueError("radius must be an exact rational (a Fraction)")
    if not 0 < eps < Fraction(1, 2):
        raise ValueError("requires 0 < eps < 1/2")
    freqs = _frozen(np.sort(np.asarray(frequencies, dtype=np.int64) % modulus))
    p, q = eps.numerator, eps.denominator
    # ||x r / N|| <= p/q  iff  min(t, N - t) <= L, t = x r mod N, L = pN // q;
    # as 2L < N, that is (x r + L) mod N <= 2L
    radius = p * modulus // q
    # filter survivors one frequency at a time while more than _BOHR_TAIL
    # remain; the candidate set collapses quickly, so this is O(N) plus small
    # tails.  The last survivors meet the remaining frequencies in 2-D blocks
    # of at most N products each.  r = 0 removes nothing, and 0 is always a
    # member, so once it is the only survivor no later frequency can remove it
    nonzero = freqs[freqs != 0]
    members = np.arange(modulus, dtype=np.int64)
    i = 0
    while i < len(nonzero) and len(members) > 1:
        k = 1 if len(members) > _BOHR_TAIL else max(1, modulus // len(members))
        t = np.multiply.outer(members, nonzero[i : i + k])
        t += radius
        t %= modulus
        members = members[(t <= 2 * radius).all(axis=1)]
        i += k
    members.setflags(write=False)
    if len(members) * q ** len(freqs) < p ** len(freqs) * modulus:
        raise RuntimeError(
            f"Bohr bound violated: |B| = {len(members)} < eps^|R| * N"
            f" = ({eps})^{len(freqs)} * {modulus}"
        )
    return BohrStructure(modulus, freqs, members)


def smooth(f: DensityFunction, bohr: BohrStructure) -> DensityFunction:
    """f * b * b with b the normalized Bohr indicator; mass is preserved.

    When B = {0}, b is the delta at 0 and the answer is f itself.  When
    B = Z_N, b is the constant 1/N and the answer is the constant f.mass / N,
    whose spectrum is f.mass at r = 0 and 0 elsewhere.  Neither case builds b
    or runs a transform.  Otherwise b is even (x in B iff -x in B), so its
    spectrum is real and the real part of its dft is kept; a real f then has
    a Hermitian smoothed spectrum and real smoothed values."""
    if f.modulus != bohr.modulus:
        raise ValueError(f"modulus mismatch: {f.modulus} vs {bohr.modulus}")
    regime = bohr.smoothing_regime
    if regime == "identity":
        return f
    if regime == "constant":
        mass = f.values.sum()
        spec = np.zeros(f.modulus, dtype=np.complex128)
        spec[0] = mass
        return DensityFunction(np.full(f.modulus, mass / f.modulus), spec)
    b_spec = dft(bohr.normalized_indicator().values).real
    spec = f.spectrum * b_spec * b_spec
    del b_spec  # and the complex array it views, before the inverse
    values = idft(spec)
    return DensityFunction(values.real if f.is_real else values, spec)


def restriction_norm(f: DensityFunction, rho: float) -> float:
    """sum_r |fhat(r)|^rho, for 0 < rho < inf (a NaN rho is rejected); a sum
    beyond float64 raises ValueError."""
    if not 0 < rho < math.inf:
        raise ValueError("requires 0 < rho < inf")
    with np.errstate(over="ignore"):
        total = float((np.abs(f.spectrum) ** rho).sum())
    if not math.isfinite(total):
        raise ValueError(f"sum_r |fhat(r)|^rho overflows float64 at rho = {rho}")
    return total


def _e(numer: int, denom: int) -> complex:
    """e(numer / denom), the numerator reduced mod denom in exact integers and
    the quotient rounded once."""
    return cmath.exp(2j * cmath.pi * ((numer % denom) / denom))


def complete_gauss_sum(ctx: WTrickContext, a: int, q: int) -> complex:
    """sum over 1 <= s <= q, with the progression value coprime to q, of
    e(psi_{b,W}(s) a / q)."""
    if q < 1 or not 1 <= a <= q:
        raise ValueError("requires 1 <= a <= q")
    if math.gcd(a, q) != 1:
        raise ValueError(f"gcd({a}, {q}) != 1")
    c, big_q = ctx.progression
    total = 0j
    for s in range(1, q + 1):
        if math.gcd(big_q * s + c, q) == 1:
            total += _e(ctx.rescaled(s) * a, q)
    return total


def weighted_exp_sum(ctx: WTrickContext, alpha) -> complex:
    """sum over x in [1, N] of the progression's logarithmic prime weight
    times e(alpha * psi_{b,W}(x)).  alpha is an int, a Fraction or a float;
    a float is taken as its exact binary fraction, so every phase is reduced
    exactly."""
    a = Fraction(alpha)
    numer, denom, resc = a.numerator, a.denominator, ctx.rescaled
    support, weights = ap_primes(*ctx.progression, ctx.N)
    total = 0j
    for x, w in zip(support.tolist(), weights.tolist()):
        total += w * _e(resc(x) * numer, denom)
    return total
