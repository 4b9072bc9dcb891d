"""Fourier analysis over Z_N: transforms, the weighted polynomial-prime
measure and the prime-coloring measure, large spectra, Bohr sets,
smoothing, the normalized restriction norm over nonzero frequencies,
complete Gauss sums, and the weighted exponential sum of the progression.

Every log weight comes from `numtheory.ap_primes`: the polynomial-prime
measure and `weighted_exp_sum` call it, and the prime-coloring measure
places the weights its class took from it (`coloring.dense_prime_class`).

Transform convention: fhat(r) = sum_x f(x) e(-x r / N) with e(t) = exp(2 pi i t),
computed by one Bluestein (chirp-z) transform at every length N (the O(N^2)
sum by definition is a test oracle only).  With x r = (x^2 + r^2 - (r - x)^2)/2,
fhat(r) = w(r) sum_x f(x) w(x) conj w(r - x) for the chirp w(k) = e(-k^2 / 2N),
a cyclic convolution of length L, the least 7-smooth L >= 2N - 1.  Each
length-L FFT is a four-step FFT over an L2 x L1 grid (L1 <= L2, both near
sqrt L) made of numpy's batched FFTs along one axis, computed in place and
never transposed (`_chirp_dft`).  Every pass is split into two fixed halves,
one on a helper thread from _THREAD_MIN_POINTS points on (`_halves`; numpy's
FFT and ufunc loops release the GIL), so the result does not depend on
scheduling and is the same to the bit on every call.  `_unit_phases`
reduces every phase in exact integers before trig: the twiddles' mod L, and
those of `complete_gauss_sum` and `weighted_exp_sum`, taken by
`IntPolynomial.eval_mod`.  The chirp is never stored: `_chirp` evaluates it
where it is used, within 1e-15 of trig on the reduced phase itself.

A transform's working set is 24L bytes and a small allowance: the
length-L grid of v w (16L, L about 2N) and half the kernel's spectrum (8L),
the other half being the kept half read backwards.  The input is read in
place, block by block, and the output (16N, at most 8L) is allocated only
once the kernel's spectrum is freed.  The allowance is the twiddle tables
(64 L^(3/4) bytes, 3.4 MB at N = 1e6), the chirp tables and each pass's
block scratch, about 50 bytes a point in blocks of _BLOCK points, one block
per thread.

The transform reads only `DensityFunction`s (`idft` reads a spectrum):
`dft` reads one, or two real ones packed as f + i g / 2^k, block by block
through `DensityFunction.read`.  Real functions are stored as float64,
complex ones as complex128.  Two real functions share one transform in
`transform_pair`, the one code that packs them, which splits it in place:
the second spectrum takes its cells, the first one new array.

The measure, both classes and a Bohr set B's normalized indicator
b = 1_B / |B| (`bohr_set`) are `DensityFunction`s held on their supports
(`on_support`: ascending `points` and their nonzero `weights`).  A smoothed
function's `weights` are its values at every point; a constant's, as b for
B = Z_N and f smoothed by it, are one value broadcast with zero stride
(`constant`), no length-N buffer.  `read` takes a block from any form; from a
support it zeroes the block and scatters the points in it.  So during
`transfer`'s one transform the live arrays are its 24L working set, the
class's members and the two supports, and after it the two spectra (32N);
no stage of the transference chain reads a support's dense `values`.
`run_transfer`'s traced peak is 24L + 8|A| + 8.1 MiB, 58.5 B/N, at the
transfer-int bench config (N = 1000003), and 24L + 4.0 MiB, 58.8 B/N, at
transfer-prime (N = 400009).  In the fft regime, at eta = 1/2, eps = 1/4
(N = 1000003, |B| = 500001), it is 24L + 32N + 8|A| + 26.2 MiB, 109.5 B/N.

`smooth` is the one smoothing routine, and `smoothing_regime` names how it
treats b; it runs no transform when B = {0} or B = Z_N.  So
`counting.transference_report` runs 1 length-N transform for an integer
coloring when B = {0}, and 1 for a prime coloring when the measure's B is
{0} and the class's is Z_N (its unweighted pair count adds 1 only above the
cost cutoff stated there); each proper, nontrivial Bohr set adds 2.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

import numpy as np

from .coloring import TransferredSet
from .numtheory import ap_primes
from .polynomials import IntPolynomial
from .wtrick import WTrickContext

__all__ = [
    "CollisionError",
    "DensityFunction",
    "bohr_set",
    "build_poly_prime_measure",
    "build_prime_coloring_measure",
    "complete_gauss_sum",
    "dft",
    "idft",
    "large_spectrum",
    "restriction_nonzero",
    "smooth",
    "smoothing_regime",
    "transform_pair",
    "weighted_exp_sum",
]

_BLOCK = 1 << 14  # points per block of each transform pass that evaluates the chirp
_THREAD_MIN_POINTS = 1 << 16  # a pass over fewer points runs on the caller only
_MAX_LOG10 = math.log10(np.finfo(np.float64).max)  # about 308.25


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


def _halves(task, n: int, points: int) -> None:
    """task(0, n // 2) and task(n // 2, n), for a pass over `points` points:
    below _THREAD_MIN_POINTS both run on the caller, in turn; otherwise the
    first runs on a helper thread.  The split is fixed, so the work each
    thread does never depends on scheduling; an exception raised on the
    helper is re-raised here."""
    if points < _THREAD_MIN_POINTS:
        task(0, n // 2)
        task(n // 2, n)
        return
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


def _row_blocks(lo: int, hi: int, blk: int):
    """(r0, r1, c): rows [r0, r1) of [lo, hi) that lie in twiddle block c."""
    for c in range(lo // blk, -(-hi // blk)):
        yield max(lo, c * blk), min(hi, (c + 1) * blk), c


def _chirp(n: int):
    """The chirp w(k) = e(-k^2 / 2N), evaluated where it is used.

    p = k^2 mod 2N is taken in exact int64, and e(-p / 2N) is the product
    hi[p >> s] lo[p & (2^s - 1)] of two tables of about sqrt(2N) entries,
    e(-j 2^s / 2N) and e(-i / 2N), each from `_unit_phases` on an exactly
    reduced phase.  _chirp(n)(size) is a function chirp(k, out) that writes
    w(k) into the complex128 array `out` for a 1-d int64 array k >= 0 (which
    it overwrites) of the same length, at most `size`; its scratch is made
    once, so a pass that calls it block by block maps no fresh pages."""
    d = 2 * n
    shift = d.bit_length() // 2
    mask = (1 << shift) - 1
    lo = np.empty(mask + 1, dtype=np.complex128)
    _unit_phases(np.arange(mask + 1, dtype=np.int64), d, lo)
    hi = np.empty(-(-d >> shift), dtype=np.complex128)
    _unit_phases(np.arange(0, d, mask + 1, dtype=np.int64), d, hi)

    def evaluator(size: int):
        quot = np.empty(size, dtype=np.int64)
        low = np.empty(size, dtype=np.complex128)

        def chirp(k: np.ndarray, out: np.ndarray) -> None:
            q, g = quot[: len(k)], low[: len(k)]
            k *= k
            np.floor_divide(k, d, out=q)  # k mod d as k - (k // d) d: numpy's
            q *= d  # floor division by a scalar is faster than its remainder
            k -= q
            np.right_shift(k, shift, out=q)
            np.take(hi, q, out=out, mode="clip")  # in range; "clip" is unbuffered
            k &= mask
            np.take(lo, k, out=g, mode="clip")
            out *= g

        return chirp

    return evaluator


def _chirp_dft(n: int, read) -> np.ndarray:
    """dft of a length-n input by Bluestein's algorithm (see the module
    docstring), into a new complex128 array.  read(start, stop, dest) writes
    input entries [start, stop) into the complex128 block `dest`.

    a = v w fills an L2 x L1 grid whose row-major order is the natural one,
    zero-padded, in blocks of _BLOCK points: each block reads its part
    of the input into a and multiplies it by the chirp there.  A forward FFT
    runs length-L2 FFTs down the columns, multiplies by the twiddles
    e(-k2 n1 / L) and runs length-L1 FFTs along the rows, which leaves
    A(k2 + L2 k1) at [k2, k1]; the inverse undoes those steps in reverse,
    ending in natural order.  The twiddles come block by block, blk rows at
    a time, as the product of two small tables, e(-(k2 - c blk) n1 / L) and
    e(-c blk n1 / L) for block c: no length-L twiddle array is built.

    The kernel b = conj w / L, b(k) = b(L - k) = conj w(k) / L for k < N and
    0 between the bands, is even, so its spectrum is too: B at [k2, k1]
    equals B at [L2 - k2, L1 - 1 - k1] for k2 >= 1.  Only rows 0 .. L2 // 2
    of B are kept: b is made from the chirp about _BLOCK points (whole
    columns) at a time, its column FFTs keep their first L2 // 2 + 1 rows,
    and the twiddles and row FFTs run on those rows alone.  The product and
    the inverse run inside a's row pass, one block at a time; a row past
    L2 / 2 is multiplied by its mirror row read backwards.  The output is
    allocated once the kernel is freed, and the last pass writes the
    convolution times the chirp into it.
    """
    size = _smooth_at_least(2 * n - 1)
    l1 = max(d for d in range(1, math.isqrt(size) + 1) if size % d == 0)
    l2 = size // l1
    half = l2 // 2 + 1  # rows of B kept
    blk = math.isqrt(l2)
    cols = np.arange(l1, dtype=np.int64)
    near = np.empty((blk, l1), dtype=np.complex128)
    _unit_phases(np.multiply.outer(np.arange(blk), cols), size, near)
    far = np.empty((-(-l2 // blk), l1), dtype=np.complex128)
    _unit_phases(np.multiply.outer(np.arange(0, l2, blk), cols), size, far)
    near_inv, far_inv = near.conj(), far.conj()
    chirps = _chirp(n)

    a = np.zeros((l2, l1), dtype=np.complex128)
    a_flat = a.reshape(-1)
    kern = np.empty((half, l1), dtype=np.complex128)
    span = max(1, _BLOCK // l2)  # kernel columns made at a time
    row_starts = np.arange(0, size, l1, dtype=np.int64)[:, None]

    def blocks(lo, hi):
        for start in range(lo, hi, _BLOCK):
            yield start, min(hi, start + _BLOCK)

    def fill(lo, hi):
        chirp = chirps(_BLOCK)
        w = np.empty(_BLOCK, dtype=np.complex128)
        for start, stop in blocks(lo, hi):
            read(start, stop, a_flat[start:stop])
            chirp(np.arange(start, stop, dtype=np.int64), w[: stop - start])
            a_flat[start:stop] *= w[: stop - start]

    def columns_forward(lo, hi):
        np.fft.fft(a[:, lo:hi], axis=0, out=a[:, lo:hi])
        chirp = chirps(l2 * span)
        for c0 in range(lo, hi, span):
            k = row_starts + np.arange(c0, min(hi, c0 + span))
            b = np.empty(k.shape, dtype=np.complex128)
            np.minimum(k, size - k, out=k)
            outside = k >= n
            chirp(k.reshape(-1), b.reshape(-1))
            np.conjugate(b, out=b)
            b *= 1 / size  # so the inverse FFT runs unscaled
            b[outside] = 0
            np.fft.fft(b, axis=0, out=b)
            kern[:, c0 : c0 + b.shape[1]] = b[:half]

    def twiddled_fft(grid, r0, r1, c):
        grid *= near[r0 - c * blk : r1 - c * blk]
        grid *= far[c]
        np.fft.fft(grid, axis=1, out=grid)

    def kernel_rows(lo, hi):
        for r0, r1, c in _row_blocks(lo, hi, blk):
            twiddled_fft(kern[r0:r1], r0, r1, c)

    def rows(lo, hi):
        for r0, r1, c in _row_blocks(lo, hi, blk):
            ra = a[r0:r1]
            twiddled_fft(ra, r0, r1, c)
            m = min(max(r0, half), r1)  # rows [r0, m) kept, [m, r1) mirrored
            ra[: m - r0] *= kern[r0:m]
            ra[m - r0 :] *= kern[l2 - m : l2 - r1 : -1, ::-1]
            np.fft.ifft(ra, axis=1, out=ra, norm="forward")
            ra *= near_inv[r0 - c * blk : r1 - c * blk]
            ra *= far_inv[c]

    def columns_inverse(lo, hi):
        np.fft.ifft(a[:, lo:hi], axis=0, out=a[:, lo:hi], norm="forward")

    def unchirp(lo, hi):
        chirp = chirps(_BLOCK)
        for start, stop in blocks(lo, hi):
            chirp(np.arange(start, stop, dtype=np.int64), out[start:stop])
            out[start:stop] *= a_flat[start:stop]

    _halves(fill, n, n)
    _halves(columns_forward, l1, size)
    _halves(kernel_rows, half, half * l1)
    _halves(rows, l2, size)
    del kern
    _halves(columns_inverse, l1, size)
    out = np.empty(n, dtype=np.complex128)
    _halves(unchirp, n, n)
    return out


def dft(f: DensityFunction, g: DensityFunction | None = None, scale: float = 1.0) -> np.ndarray:
    """Transform fhat(r) = sum_x f(x) e(-x r / N) by the Bluestein transform
    described in the module docstring, into a new complex128 array; with a
    real g of f's length, the transform of f + i g / scale for a power of two
    `scale` (`transform_pair`'s packed pair).  Each function is read block by
    block through `DensityFunction.read`, never copied."""
    read = f.read
    if g is not None:
        if len(g) != len(f):
            raise ValueError(f"g has shape {(len(g),)}, f {(len(f),)}")

        def read(start, stop, dest):
            f.read(start, stop, dest.real)
            g.read(start, stop, dest.imag, scale)

    return _chirp_dft(len(f), read)


def idft(spectrum: np.ndarray) -> np.ndarray:
    """Inverse transform f(x) = (1/N) sum_r fhat(r) e(x r / N), as the
    conjugate of the forward transform of the conjugate, which the fill pass
    reads block by block from `spectrum`."""
    s = np.asarray(spectrum, dtype=np.complex128)
    out = _chirp_dft(len(s), lambda start, stop, dest: np.conjugate(s[start:stop], out=dest))
    np.conjugate(out, out=out)
    out /= len(out)
    return out


def _pow2_ratio(num: float, den: float) -> float:
    """2^round(log2(num / den)) for positive norms, 1 when one is not finite."""
    if not (num < math.inf and den < math.inf):
        return 1.0
    return math.ldexp(1.0, round(math.log2(num) - math.log2(den)))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class DensityFunction:
    """Function on Z_N with a lazily cached spectrum; real values are kept
    as float64, complex ones as complex128, all in `weights`.  A real
    function may be held on its support (`on_support`: ascending int64
    `points` and their nonzero float64 `weights`); otherwise `points` is
    None and `weights` are the values at every point: for a constant
    (`constant`), one value broadcast with no length-N buffer, its `total`
    kept for its closed-form spectrum.  Its length is N, and `dft` reads it
    in any form block by block (`read`)."""

    __slots__ = ("modulus", "points", "weights", "total", "_spectrum")

    def __init__(self, values: np.ndarray, spectrum: np.ndarray | None = None):
        """`spectrum`, when given, is the transform the caller already has; it
        is kept as complex128 and made read-only."""
        dtype = np.complex128 if np.iscomplexobj(values) else np.float64
        v = np.array(values, dtype=dtype)
        if v.ndim != 1 or len(v) == 0:
            raise ValueError("values must be a nonempty 1-d array")
        self.modulus = len(v)
        self.points = self.total = None
        self.weights = _frozen(v)
        if spectrum is not None:
            spectrum = _frozen(np.asarray(spectrum, dtype=np.complex128))
        self._spectrum = spectrum

    @classmethod
    def on_support(cls, modulus: int, points, weights) -> DensityFunction:
        """The real function equal to `weights` at the distinct `points` of
        [0, modulus) and 0 elsewhere, held on its support (zero weights are
        dropped); a point outside that range, or repeated, raises ValueError."""
        points, weights = np.asarray(points, dtype=np.int64), np.asarray(weights, dtype=np.float64)
        if not np.all(weights):
            points, weights = points[weights != 0], weights[weights != 0]
        if np.any(points[1:] < points[:-1]):
            order = np.argsort(points, kind="stable")
            points, weights = points[order], weights[order]
        # read-only views: the caller's own arrays stay writable
        points, weights = _frozen(points.view()), _frozen(weights.view())
        if len(points) and not 0 <= points[0] <= points[-1] < modulus:
            bad = points[0] if points[0] < 0 else points[-1]
            raise ValueError(f"point {bad} outside [0, N) for N = {modulus}")
        if np.any(points[1:] == points[:-1]):
            raise ValueError("a point is given twice")
        f = cls.__new__(cls)
        f.modulus, f.points, f.weights = modulus, points, weights
        f.total = f._spectrum = None
        return f

    @classmethod
    def constant(cls, modulus: int, total) -> DensityFunction:
        """The constant total / N for a real or complex scalar total, a
        zero-stride broadcast; its spectrum is total at r = 0, 0 elsewhere."""
        f = cls.__new__(cls)
        f.modulus, f.total = modulus, total
        f.weights = np.broadcast_to(total / modulus, modulus)
        f.points = f._spectrum = None
        return f

    def __len__(self) -> int:
        return self.modulus

    def read(self, start: int, stop: int, dest: np.ndarray, scale: float = 1.0) -> None:
        """dest = the values at [start, stop) over a power of two `scale`;
        from a support, zeros and the points that fall in the block."""
        if self.points is None:
            np.divide(self.weights[start:stop], scale, out=dest)
            return
        dest[...] = 0
        i, j = np.searchsorted(self.points, (start, stop))
        dest[self.points[i:j] - start] = self.weights[i:j] / scale

    @property
    def values(self) -> np.ndarray:
        """The read-only values at every point: `weights` unless held on a
        support, else a new dense array on each read."""
        if self.points is None:
            return self.weights
        v = np.zeros(self.modulus)
        v[self.points] = self.weights
        return _frozen(v)

    def at(self, xs: np.ndarray) -> np.ndarray:
        """The values at the points xs of [0, N): a gather from the dense
        values, or one lookup in the support."""
        if self.points is None:
            return self.weights[xs]
        i = np.searchsorted(self.points, xs)  # i = len(points) meets the padding
        return np.where(np.append(self.points, -1)[i] == xs, np.append(self.weights, 0.0)[i], 0.0)

    @property
    def is_real(self) -> bool:
        return self.weights.dtype == np.float64

    @property
    def spectrum(self) -> np.ndarray:
        if self._spectrum is None:
            if self.total is None:
                spec = dft(self)
            else:
                spec = np.zeros(self.modulus, dtype=np.complex128)
                spec[0] = self.total
            self._spectrum = _frozen(spec)
        return self._spectrum

    def spectrum_at_zero(self) -> np.complex128:
        """spectrum[0], with no spectrum built for a constant."""
        return self.spectrum[0] if self.total is None else np.complex128(self.total)

    @property
    def mass(self) -> complex:
        """The sum of the values; from a support, a transient dense array's,
        since numpy's pairwise sum rounds by where the zeros lie."""
        return complex(self.values.sum())


def transform_pair(f: DensityFunction, g: DensityFunction) -> None:
    """Cache the spectra of real f and g of one length from one dft, Z =
    dft(f, g, 2^k) of f + i g / 2^k, which reads each from its support or its
    values; when either is already cached, the other is left to its own dft.

    F(r) = (Z(r) + conj Z(-r))/2 and G(r) = (Z(r) - conj Z(-r))/2i, computed
    at r = 0, at N/2 when N is even and at r in [1, (N - 1)/2], with F(-r)
    and G(-r) written as their conjugates, so both are exactly Hermitian.  Z
    is split in place: G takes its cells, F one new array.  k = round(log2(
    |g|_1 / |f|_1)) and G is multiplied back by 2^k, so a small f is not lost
    in the rounding of a large g, nor the reverse.  A function that is zero
    everywhere gets the zero spectrum exactly, and the other its own dft.
    """
    if f._spectrum is not None or g._spectrum is not None:
        return
    if not (f.is_real and g.is_real):
        raise ValueError("transform_pair transforms real functions only")
    norm_f, norm_g = (float(np.abs(h.weights).sum()) for h in (f, g))
    if not (norm_f and norm_g):
        for h, norm in ((f, norm_f), (g, norm_g)):
            h._spectrum = _frozen(dft(h) if norm else np.zeros(len(h), dtype=np.complex128))
        return
    scale = _pow2_ratio(norm_g, norm_f)
    n = len(f)
    z = dft(f, g, scale)
    spec_f = np.empty(n, dtype=np.complex128)
    factor = -0.5j * scale  # a pure-imaginary power of two: exact

    def split(r, m):
        # F and G at the indices r from Z there and at m = -r, G over Z;
        # a slice m other than r is disjoint from it and takes the conjugates
        zr, fr = z[r], spec_f[r]
        conj_m = np.conjugate(z[m])
        np.add(zr, conj_m, out=fr)
        fr *= 0.5
        zr -= conj_m
        zr *= factor
        if m != r:
            np.conjugate(fr, out=spec_f[m])
            np.conjugate(zr, out=z[m])

    split(slice(0, 1), slice(0, 1))
    if n % 2 == 0:
        split(slice(n // 2, n // 2 + 1), slice(n // 2, n // 2 + 1))
    _halves(
        lambda lo, hi: split(slice(lo + 1, hi + 1), slice(n - 1 - lo, n - 1 - hi, -1)),
        (n - 1) // 2,
        n,
    )
    f._spectrum, g._spectrum = _frozen(spec_f), _frozen(z)


def build_poly_prime_measure(ctx: WTrickContext) -> DensityFunction:
    """The normalized forward-difference-weighted prime measure on Z_N,
    exhaustively checking well-definedness.

    Supported at x = psi_{b,W}(z) mod N for z in [1, M] with the progression
    value q z + c prime; the weight there is psi_{b,W}(z) - psi_{b,W}(z-1)
    times the progression's log weight (phi(q)/q) log(q z + c) from
    `ap_primes`, normalized by psi_{b,W}(M).  One `eval_mod` call gives every
    psi_{b,W}(z), z in [0, M], exact in int64 once the sum of |coefficient|
    M^j is below 2^62 (else ValueError).  Every z in [1, M] must land on a
    distinct residue mod N; a collision means the K-divisibility reasoning
    behind the context is violated.
    """
    n_mod, resc, top = ctx.N, ctx.rescaled, ctx.M
    if IntPolynomial(tuple(map(abs, resc.coeffs)))(top) >= 1 << 62:
        raise ValueError(f"psi_{{b,W}} may leave int64 on [0, M], M = {top}")
    support, log_weights = ap_primes(*ctx.progression, top)
    psi_z = resc.eval_mod(np.arange(top + 1), 1 << 64).view(np.int64)
    fd = psi_z[support] - psi_z[support - 1]
    x = np.remainder(psi_z[1:], n_mod, out=psi_z[1:])  # z's residue at z - 1
    ordered = np.sort(x)
    if np.any(ordered[1:] == ordered[:-1]):  # name the least z whose x an earlier z took
        z = np.argsort(x, kind="stable")[1:][ordered[1:] == ordered[:-1]].min() + 1
        zp = np.flatnonzero(x == x[z - 1])[0] + 1
        raise CollisionError(f"psi_{{b,W}} collides mod N at z = {zp} and z = {z} (x = {x[z - 1]})")
    weights = fd.astype(np.float64) * log_weights / float(resc(top))
    return DensityFunction.on_support(n_mod, x[support - 1], weights)


def build_prime_coloring_measure(a_set: TransferredSet) -> DensityFunction:
    """Normalized log-weighted indicator of a transferred prime class: its
    weight (phi(KW)/KW) log(W x + psi(b)/2), from `coloring.dense_prime_class`,
    divided by N at each member x, and 0 elsewhere, held on its support."""
    n_mod = a_set.context.N
    return DensityFunction.on_support(n_mod, a_set.members, a_set.weights / n_mod)


def large_spectrum(f: DensityFunction, eta) -> np.ndarray:
    """Frequencies r with |fhat(r)| >= eta, ascending, from a scan of the
    spectrum in blocks of _BLOCK: no length-N temporary."""
    eta = float(eta)
    if eta <= 0:
        raise ValueError("requires eta > 0")
    spec = f.spectrum
    blocks = range(0, len(spec), _BLOCK)
    hits = [np.flatnonzero(np.abs(spec[lo : lo + _BLOCK]) >= eta) + lo for lo in blocks]
    return np.concatenate(hits, dtype=np.int64)


def bohr_set(frequencies, eps, modulus: int) -> DensityFunction:
    """b = 1_B / |B|, the normalized indicator of B = {x : ||x r / N|| <= eps
    for all r}: the constant 1/N when B = Z_N (`DensityFunction.constant`),
    else 1/|B| on B's ascending members.  Membership and the pigeonhole bound
    |B| >= eps^{|R|} N are both exact integer comparisons.  Unless B = Z_N by
    eps alone, the first nonzero frequency must be a unit mod N (ValueError
    otherwise), as every one is for a prime N."""
    if not isinstance(eps, Fraction):
        raise ValueError("radius must be an exact rational (a Fraction)")
    if not 0 < eps < Fraction(1, 2):
        raise ValueError("requires 0 < eps < 1/2")
    freqs = np.sort(np.asarray(frequencies, dtype=np.int64) % modulus)
    p, q = eps.numerator, eps.denominator
    # ||x r / N|| <= p/q  iff  min(t, N - t) <= L, t = x r mod N, L = pN // q;
    # as 2L < N, that is (x r + L) mod N <= 2L
    radius = p * modulus // q

    def survivors(xs, rs):
        t = np.multiply.outer(rs, xs)  # a row per frequency: all() ANDs whole rows
        t += radius
        t %= modulus
        return xs[(t <= 2 * radius).all(axis=0)]

    # B = Z_N, b the constant 1/N, when no r is nonzero or 2L + 1 >= N (every
    # t is then within L of 0).  Otherwise the first frequency's set in closed
    # form: x r = j (mod N) with |j| <= L, so x = j r^-1, 2L + 1 distinct
    # residues.  The survivors then meet the other frequencies in 2-D blocks
    # of at most N products, each no longer than the frequencies read before
    # it (so the set shrinks before a block grows), and are sorted once at the
    # end.  r = 0 removes nothing, and 0 is always a member, so once it is the
    # only survivor no later frequency can remove it
    nonzero = freqs[freqs != 0]
    b, size = DensityFunction.constant(modulus, 1.0), modulus
    if len(nonzero) and 2 * radius + 1 < modulus:
        members = np.arange(-radius, radius + 1, dtype=np.int64)
        members *= pow(int(nonzero[0]), -1, modulus)  # ValueError for a non-unit
        members %= modulus
        i = 1
        while i < len(nonzero) and len(members) > 1:
            k = min(i, max(1, modulus // len(members)))
            members = survivors(members, nonzero[i : i + k])
            i += k
        members.sort()
        size = len(members)
        # one weight 1/|B|, broadcast to every member: no array but B's members
        b = DensityFunction.on_support(modulus, members, np.broadcast_to(1 / size, size))
    if size * q ** len(freqs) < p ** len(freqs) * modulus:
        raise RuntimeError(
            f"Bohr bound violated: |B| = {size} < eps^|R| * N"
            f" = ({eps})^{len(freqs)} * {modulus}"
        )
    return b


def smoothing_regime(b: DensityFunction) -> str:
    """How `smooth` treats a Bohr set's normalized indicator b (`bohr_set`):
    "identity" for one value (B = {0}), "constant" (B = Z_N), else "fft"."""
    if len(b.weights) == 1:
        return "identity"
    return "fft" if b.total is None else "constant"


def smooth(f: DensityFunction, b: DensityFunction) -> DensityFunction:
    """f * b * b for a Bohr set's normalized indicator b (`bohr_set`); mass is
    preserved.

    When B = {0}, b is the delta at 0 and the answer is f itself.  When
    B = Z_N, b is the constant 1/N and the answer is the constant f.mass / N,
    whose spectrum is f.mass at r = 0 and 0 elsewhere, held in closed form
    (`DensityFunction.constant`).  Neither case runs a transform.  Otherwise
    b is even (x in B iff -x in B), so its spectrum is real and the real part
    of its dft is kept, uncached on b; a real f then has a Hermitian smoothed
    spectrum and real smoothed values."""
    if f.modulus != b.modulus:
        raise ValueError(f"modulus mismatch: {f.modulus} vs {b.modulus}")
    regime = smoothing_regime(b)
    if regime == "identity":
        return f
    if regime == "constant":
        return DensityFunction.constant(f.modulus, f.values.sum())
    b_spec = dft(b).real
    spec = f.spectrum * b_spec * b_spec
    del b_spec  # and the complex array it views, before the inverse
    values = idft(spec)
    return DensityFunction(values.real if f.is_real else values, spec)


def restriction_nonzero(f: DensityFunction, rho: float) -> float:
    """(sum_{r != 0} |fhat(r) / fhat(0)|^rho)^(1/rho), for 0 < rho < inf and
    fhat(0) != 0 (0 when N = 1).  The sum S is taken in units of its largest
    term, so S is in [1, N - 1]; but S^(1/rho) leaves float range once
    log10(S) / rho > 308, so a small rho whose power or norm would overflow
    raises ValueError with the norm's log10, before the power is taken."""
    if not 0 < rho < math.inf:
        raise ValueError("requires 0 < rho < inf")
    a = np.abs(f.spectrum)
    if a[0] == 0:
        raise ValueError("requires fhat(0) != 0")
    top = a[1:].max(initial=0.0)
    if top == 0:
        return 0.0
    s = ((a[1:] / top) ** rho).sum()
    log10_root = math.log10(s) / rho
    log10_norm = math.log10(top / a[0]) + log10_root
    if max(log10_root, log10_norm) > _MAX_LOG10:
        raise ValueError(f"rho = {rho} overflows the restriction norm: its log10 is {log10_norm:.6g}")
    return float(top / a[0] * s ** (1 / rho))


def complete_gauss_sum(ctx: WTrickContext, a: int, q: int) -> complex:
    """sum over 1 <= s <= q, with the progression value coprime to q, of
    e(psi_{b,W}(s) a / q), for q < 2^32."""
    if not 1 <= a <= q < 1 << 32:
        raise ValueError("requires 1 <= a <= q < 2^32")
    if math.gcd(a, q) != 1:
        raise ValueError(f"gcd({a}, {q}) != 1")
    s = np.arange(1, q + 1)
    s = s[np.gcd(IntPolynomial(ctx.progression[::-1]).eval_mod(s, q), q) == 1]  # Q s + c
    return _phase_sum(ctx.rescaled, a, q, s, 1.0)


def weighted_exp_sum(ctx: WTrickContext, alpha) -> complex:
    """sum over x in [1, N] of the progression's logarithmic prime weight
    times e(alpha * psi_{b,W}(x)), for an int, Fraction or float alpha (a
    float is its exact binary fraction) whose reduced denominator is below
    2^32 or a power of two <= 2^62, else ValueError."""
    a = Fraction(alpha)
    d = a.denominator
    if d >= 1 << 32 and (d & (d - 1) or d > 1 << 62):
        raise ValueError(f"alpha = {alpha!r} has denominator {d}, neither below 2^32 "
                         "nor a power of two <= 2^62")
    support, weights = ap_primes(*ctx.progression, ctx.N)
    return _phase_sum(ctx.rescaled, a.numerator, d, support, weights)


def _phase_sum(resc: IntPolynomial, numer: int, denom: int, xs: np.ndarray, weights) -> complex:
    """sum of weights e(numer psi_{b,W}(x) / denom) over the int64 xs, each phase
    reduced exactly by `eval_mod` and turned into e(.) by `_unit_phases`."""
    terms = np.empty(len(xs), dtype=np.complex128)
    phases = IntPolynomial(tuple(-numer * c for c in resc.coeffs)).eval_mod(xs, denom)
    _unit_phases(phases.view(np.int64), denom, terms)
    terms *= weights
    return complex(terms.sum())
