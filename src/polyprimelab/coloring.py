"""Coloring generation and set constructions: random/rule colorings of an
integer range or of the primes, the blocking partition witnessing necessity
of the residue condition, and the pigeonhole-dense transferred classes; a
prime class carries its log weights, taken from `numtheory.ap_primes`."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .numtheory import ap_primes, check_progression, sieve_primes
from .polynomials import INTEGER_COLORING, PRIME_COLORING, IntPolynomial
from .wtrick import ScaleError, WTrickContext, check_cp

__all__ = [
    "ColoringInstance",
    "ConstructionInapplicableError",
    "TransferredSet",
    "blocking_partition",
    "dense_class",
    "dense_prime_class",
    "load_coloring",
    "make_coloring",
    "parse_coloring_rule",
    "save_coloring",
    "write_int_rows",
]

DOMAIN_INTEGERS = "integers"
DOMAIN_PRIMES = "primes"
_DRAW_CHUNK = 1 << 16  # random colors drawn at a time


class ConstructionInapplicableError(ValueError):
    """The blocking partition's guarantee fails (an admissible c_p exists)."""


@dataclass
class ColoringInstance:
    """Total assignment of colors 1..m to [1, n] or to the primes <= n."""

    domain: str
    n: int
    num_colors: int
    provenance: str
    color_at: np.ndarray  # color of each integer 0..n, 0 off the domain
    _elements: np.ndarray | None = None  # the sorted domain, once known

    @property
    def elements(self) -> np.ndarray:
        """Sorted domain elements: as the builder passed them, or else
        derived from `color_at` on first read and kept."""
        if self._elements is None:
            self._elements = np.flatnonzero(self.color_at)
        return self._elements

    @property
    def colors(self) -> np.ndarray:
        """Colors aligned with `elements`, values in 1..m."""
        return self.color_at[self.elements]


def _blank_table(n: int, m: int) -> np.ndarray:
    """A zero `color_at` for n: length n + 1, the smallest unsigned dtype
    that holds m."""
    dtype = np.min_scalar_type(m)
    if dtype.kind != "u":
        raise ValueError(f"{m} colors do not fit an unsigned integer type")
    return np.zeros(n + 1, dtype=dtype)


def _color_table(n: int, m: int, elements: np.ndarray, colors: np.ndarray) -> np.ndarray:
    """`color_at` of a coloring of `elements` by `colors`."""
    color_at = _blank_table(n, m)
    color_at[elements] = colors
    return color_at


def _random_table(domain: str, n: int, m: int, seed: int) -> np.ndarray:
    """`color_at` of the seeded random coloring: colors drawn in ascending
    element order, _DRAW_CHUNK at a time, straight into the table.  Chunked
    draws continue one PCG64 stream, so they equal one draw of them all, and
    the integer domain makes no n-element array but the table."""
    if domain == DOMAIN_INTEGERS and n < 1:
        raise ValueError("empty integer domain")
    primes = None if domain == DOMAIN_INTEGERS else _domain_elements(domain, n)
    count = n if primes is None else len(primes)
    color_at = _blank_table(n, m)
    rng = np.random.default_rng(seed)
    for lo in range(0, count, _DRAW_CHUNK):
        hi = min(count, lo + _DRAW_CHUNK)
        at = slice(lo + 1, hi + 1) if primes is None else primes[lo:hi]
        color_at[at] = rng.integers(1, m + 1, size=hi - lo, dtype=np.int64)
    return color_at


def _domain_elements(domain: str, n: int) -> np.ndarray:
    if domain == DOMAIN_INTEGERS:
        if n < 1:
            raise ValueError("empty integer domain")
        return np.arange(1, n + 1, dtype=np.int64)
    if domain == DOMAIN_PRIMES:
        if n < 2:
            raise ValueError("empty prime domain")
        return sieve_primes(n)
    raise ValueError(f"unknown domain {domain!r}")


def _rule_int(text: str, what: str) -> int:
    """An integer of a rule spec; it must fit the int64 arrays it meets."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{what} {text!r} is not an integer") from None
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{what} {value} does not fit in int64")
    return value


def parse_coloring_rule(rule: str) -> tuple[str, tuple[int, ...]]:
    """A rule spec's kind and its integers: ("random", ()), ("residue", (q,))
    with q >= 1, or ("interval", the sorted cuts).  A malformed spec raises
    ValueError saying what is wrong with it."""
    kind, sep, arg = rule.partition(":")
    if rule == "random":
        return "random", ()
    if sep and kind == "residue":
        q = _rule_int(arg, "residue modulus")
        if q < 1:
            raise ValueError("residue modulus must be >= 1")
        return kind, (q,)
    if sep and kind == "interval":
        return kind, tuple(sorted(_rule_int(c, "interval cut") for c in arg.split(",") if c))
    raise ValueError(f"unknown coloring rule {rule!r}")


def make_coloring(domain: str, n: int, m: int, rule: str = "random", seed: int = 0) -> ColoringInstance:
    """Build a coloring from a rule spec (see `parse_coloring_rule`).

    Rules: "random" (seeded), "residue:<q>" (color = ((x-1) mod q) mod m + 1),
    "interval:<c1,c2,...>" (blocks between cuts, cycled through the colors).
    """
    if m < 1:
        raise ValueError("requires at least one color")
    kind, args = parse_coloring_rule(rule)
    if kind == "random":
        table = _random_table(domain, n, m, seed)
        return ColoringInstance(domain, n, m, f"random;seed={seed}", table)
    elements = _domain_elements(domain, n)
    if kind == "residue":
        colors = ((elements - 1) % args[0]) % m + 1
    else:
        blocks = np.searchsorted(np.asarray(args, dtype=np.int64), elements, side="left")
        colors = blocks % m + 1
    return ColoringInstance(domain, n, m, rule, _color_table(n, m, elements, colors), elements)


def blocking_partition(
    psi: IntPolynomial, b0: int, w0: int, p: int, n: int
) -> ColoringInstance:
    """The 3q-class coloring of the primes <= n that blocks all solutions.

    Requires that no admissible residue c_p exists.  With T = psi of the
    integer part of (p - b0)/w0, primes split by size range (<= T/2, > T,
    or between) and by residue class mod q: q = p at odd p, q = 4 at p = 2,
    where two odd primes can sum to 0 mod 2 but not mod 4.  The progression
    w0*z + b0 must have w0 >= 1 and gcd(b0, w0) = 1.
    """
    check_progression(b0, w0)
    if check_cp(psi, b0, w0, p) is not None:
        raise ConstructionInapplicableError(
            f"c_{p} exists; the blocking construction's guarantee fails"
        )
    q = 4 if p == 2 else p
    arg, rem = divmod(p - b0, w0)
    note = "" if rem == 0 else f";T-arg-floored({p}-{b0})/{w0}"
    t_threshold = psi(arg)
    primes = _domain_elements(DOMAIN_PRIMES, n)
    j = np.where(primes % q == 0, q, primes % q).astype(np.int64)
    colors = np.where(
        2 * primes <= t_threshold,
        j,
        np.where(primes > t_threshold, q + j, 2 * q + j),
    )
    provenance = f"blocking:p={p}{'' if q == p else f';q={q}'};T={t_threshold}{note}"
    color_at = _color_table(n, 3 * q, primes, colors)
    return ColoringInstance(DOMAIN_PRIMES, n, 3 * q, provenance, color_at, primes)


@dataclass
class TransferredSet:
    """A color class mapped into Z_N: x -> (x - psi(b)/2) / W.  A prime
    class carries its members' weights (phi(KW)/KW) log(W x + psi(b)/2),
    aligned with `members`; an integer class carries None."""

    context: WTrickContext
    color_index: int
    members: np.ndarray  # ascending, values in [0, N)
    weights: np.ndarray | None = None


def _candidates(ctx: WTrickContext) -> range:
    """Integers x in [max(psi(W), psi(b)/2), n] with x = psi(b)/2 (mod KW)."""
    half = ctx.half_psi_b
    kw = ctx.K * ctx.W
    lo = max(ctx.psi(ctx.W), half)
    return range(lo + (half - lo) % kw, ctx.n + 1, kw)


def dense_class(coloring: ColoringInstance, ctx: WTrickContext) -> TransferredSet:
    """Pigeonhole-densest color class among admissible x, mapped into Z_N.

    The chosen class must hold at least N/(4mK) admissible points; smaller
    scales raise ScaleError.
    """
    if ctx.variant != INTEGER_COLORING:
        raise ValueError("dense_class requires an integer-coloring context")
    if coloring.domain != DOMAIN_INTEGERS or coloring.n < ctx.n:
        raise ValueError("coloring must cover the integers [1, n]")
    m, k, w = ctx.num_colors, ctx.K, ctx.W
    if m != coloring.num_colors:
        raise ValueError("coloring color count disagrees with the context")
    if Fraction(ctx.n, m * k * w) - ctx.psi(w) <= 0:
        raise ScaleError(f"n/(mKW) - psi(W) <= 0 at n = {ctx.n}")
    cand = _candidates(ctx)
    if len(cand) == 0:
        raise ScaleError("no admissible points below n")
    cand_colors = coloring.color_at[cand.start : cand.stop : cand.step]  # a strided view
    counts = np.bincount(cand_colors, minlength=m + 1)
    best = int(np.argmax(counts[1:])) + 1  # smallest index attaining the max
    best_count = int(counts[best])
    if 4 * m * k * best_count < ctx.N:
        raise ScaleError(
            f"densest class holds {best_count} points < N/(4mK) = {ctx.N}/(4*{m}*{k})"
        )
    # the i-th candidate is start + KW i, and start = psi(b)/2 (mod W)
    members = np.flatnonzero(cand_colors == best)
    members *= cand.step
    members += cand.start - ctx.half_psi_b
    members //= w
    if len(members) and not (0 <= members[0] and members[-1] < ctx.N):
        raise RuntimeError("transferred member outside [0, N)")
    return TransferredSet(ctx, best, members)


def dense_prime_class(coloring: ColoringInstance, ctx: WTrickContext) -> TransferredSet:
    """Log-weighted densest prime class among admissible primes, mapped to Z_N.

    The admissible x, from the least one x_0 up, form the progression
    KW t + x_0 - KW, t = 1, 2, ..., whose primes and weights
    (phi(KW)/KW) log x come from one `ap_primes` call (so psi(b)/2 must be
    coprime to KW); every such prime is in the coloring's domain.  The
    class with the largest weight sum wins, the smallest index on a tie,
    and keeps its members' weights.  That sum is compared with the prime-number-theorem margin
    (1-kappa) n / (m K W) by the `class_weight` link of
    `counting.transference_report`, never enforced here.
    """
    if ctx.variant != PRIME_COLORING:
        raise ValueError("dense_prime_class requires a prime-coloring context")
    if coloring.domain != DOMAIN_PRIMES or coloring.n < ctx.n:
        raise ValueError("coloring must cover the primes up to n")
    m, kw = ctx.num_colors, ctx.K * ctx.W
    if m != coloring.num_colors:
        raise ValueError("coloring color count disagrees with the context")
    cand = _candidates(ctx)
    if len(cand) == 0:
        raise ScaleError("no admissible points below n")
    primes, weights = ap_primes(cand.start - kw, kw, len(cand))
    if len(primes) == 0:
        raise ScaleError("no admissible primes below n")
    primes *= kw  # the prime kw z + start - kw, in place of its index z
    primes += cand.start - kw
    colors = coloring.color_at[primes]
    best = int(np.argmax(np.bincount(colors, weights=weights, minlength=m + 1)[1:])) + 1
    chosen = colors == best
    members = (primes[chosen] - ctx.half_psi_b) // ctx.W
    return TransferredSet(ctx, best, members, weights[chosen])


_ROW_BLOCK = 4096  # rows encoded per write by write_int_rows


def _encode_rows(columns: list[np.ndarray], sep: bytes, end: bytes) -> bytes:
    """One block of rows as decimal text.  Each column fills one contiguous
    uint8 digit plane per decimal position, most significant first, by
    repeated // 10; a position above a value's leading digit is zeroed by the
    mask value >= 10**p, and the zero bytes of the block are dropped at once."""
    k = len(columns[0])
    planes = []
    for j, v in enumerate(columns):
        top = int(v.max())
        width = len(str(top))
        rest = v.astype(np.uint32 if top < 2**32 else np.uint64)
        digits = np.empty((width, k), dtype=np.uint8)
        for p in range(width - 1, 0, -1):
            quot = rest // 10
            digits[p] = rest - 10 * quot
            rest = quot
        digits[0] = rest
        digits += ord("0")
        for p in range(width - 1):
            digits[p] *= v >= 10 ** (width - 1 - p)
        planes.append(digits)
        tail = np.frombuffer(sep if j < len(columns) - 1 else end, dtype=np.uint8)
        planes.append(np.broadcast_to(tail[:, None], (len(tail), k)))
    return np.concatenate(planes).T.tobytes().replace(b"\0", b"")


def write_int_rows(fh, columns, sep: str, end: str) -> None:
    """Write one row per index of the equal-length integer `columns` to the
    text file `fh`: each value in decimal without leading zeros, `sep`
    between values and `end` after each row, the text of
    `sep.join(map(str, row)) + end` (for "," and "\r\n", what csv.writer
    writes).  Rows are encoded with numpy, _ROW_BLOCK at a time, so memory
    stays bounded.  The columns must have an int or uint dtype and hold no
    negative value (so every value is below 2**64); otherwise ValueError is
    raised before anything is written.  `sep` and `end` are ASCII without
    NUL, the byte the encoder drops."""
    columns = [np.asarray(c) for c in columns]
    for c in columns:
        if c.dtype.kind not in "iu":
            raise ValueError(f"integer rows need an integer dtype, not {c.dtype}")
        if c.dtype.kind == "i" and len(c) and c.min() < 0:
            raise ValueError(f"integer rows hold nonnegative values only, not {c.min()}")
    sep_b, end_b = sep.encode("ascii"), end.encode("ascii")
    for i in range(0, len(columns[0]), _ROW_BLOCK):
        block = [c[i : i + _ROW_BLOCK] for c in columns]
        fh.write(_encode_rows(block, sep_b, end_b).decode("ascii"))


def save_coloring(inst: ColoringInstance, path) -> None:
    """Write the exchange format: header "domain n m rule", then one
    "element color" line per domain element, through write_int_rows."""
    with open(path, "w") as fh:
        fh.write(f"{inst.domain} {inst.n} {inst.num_colors} {inst.provenance}\n")
        write_int_rows(fh, (inst.elements, inst.colors), " ", "\n")


def _parse_pairs(fh, n: int, m: int) -> tuple[np.ndarray, np.ndarray] | None:
    """load_coloring's fast path: the elements and colors of the text file
    `fh`'s remaining lines as int64 arrays from one np.loadtxt call, or None
    when that call fails in any way (a warning included), there is no pair,
    a line has other than two fields, or an element or color is out of
    range.  Where it returns the arrays, _scan_pairs returns the same pairs:
    np.loadtxt splits fields on the whitespace str.split splits on and lines
    where iterating the file does, and reads a subset of int()'s spellings."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs = np.loadtxt(fh, dtype=np.int64, comments=None, ndmin=2)
    except (ValueError, Warning):
        return None
    if len(pairs) == 0 or pairs.shape[1] != 2:
        return None
    elements, colors = pairs[:, 0], pairs[:, 1]
    if elements.min() < 1 or int(elements.max()) > n or colors.min() < 1 or int(colors.max()) > m:
        return None
    return elements, colors


def _check_utf8(line: str, i: int) -> None:
    """ValueError naming line i, and the position in it, of a byte that is
    not UTF-8; the file was opened with errors="surrogateescape", which kept
    such a byte as a lone surrogate."""
    if not line.isascii():
        try:
            line.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as e:
            raise ValueError(f"line {i}: {e}") from None


def _scan_pairs(lines, n: int, m: int) -> tuple[list[int], list[int]]:
    """load_coloring's line-by-line path: the elements and colors of the
    body `lines`, or ValueError naming the first malformed, non-UTF-8 or
    out-of-range line by its number in the file (the header is line 1);
    blank lines are skipped."""
    elements = []
    colors = []
    for i, line in enumerate(lines, start=2):
        _check_utf8(line, i)
        if not line.strip():
            continue
        bits = line.split()
        if len(bits) != 2:
            raise ValueError(f"line {i}: expected 'element color', got {line.strip()!r}")
        try:
            x, c = int(bits[0]), int(bits[1])
        except ValueError as e:
            raise ValueError(f"line {i}: {e}") from e
        if not 1 <= x <= n:
            raise ValueError(f"line {i}: element {x} outside 1..{n}")
        if not 1 <= c <= m:
            raise ValueError(f"line {i}: color {c} outside 1..{m}")
        elements.append(x)
        colors.append(c)
    return elements, colors


def load_coloring(path) -> ColoringInstance:
    """Parse the exchange format.  The body is parsed by one numpy call
    (_parse_pairs); if that fails in any way, or the file cannot seek, it is
    scanned line by line (_scan_pairs), so a malformed line reports its line
    number, with the message the line scan alone gives.  The fast path reads
    elements and colors as int64; larger values take the line scan.  The
    file is UTF-8; a byte that is not is reported by its line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        header = fh.readline()
        _check_utf8(header, 1)
        parts = header.split()
        if len(parts) < 4:
            raise ValueError("line 1: header must be 'domain n m rule'")
        domain, n_s, m_s = parts[0], parts[1], parts[2]
        rule = " ".join(parts[3:])
        if domain not in (DOMAIN_INTEGERS, DOMAIN_PRIMES):
            raise ValueError(f"line 1: unknown domain {domain!r}")
        try:
            n, m = int(n_s), int(m_s)
        except ValueError as e:
            raise ValueError(f"line 1: {e}") from e
        pairs = None
        if fh.seekable():
            body = fh.tell()
            pairs = _parse_pairs(fh, n, m)
            if pairs is None:
                fh.seek(body)
        elements, colors = pairs if pairs is not None else _scan_pairs(fh, n, m)
    # a pair count no total coloring has fails before the domain is built, so
    # memory is bounded by the file, not by the header: [1, n] has n integers,
    # and pi(n) > n / ln n for n >= 17 (Rosser-Schoenfeld); past this check
    # n, and so every element, is small enough to sort as int64
    if domain == DOMAIN_INTEGERS:
        impossible = len(elements) != n
    else:
        impossible = n >= 17 and len(elements) <= n / math.log(n)
    domain_elements = None if impossible else _domain_elements(domain, n)
    if impossible or not np.array_equal(np.sort(elements), domain_elements):
        raise ValueError("coloring is not total over its declared domain")
    return ColoringInstance(domain, n, m, rule, _color_table(n, m, elements, colors), domain_elements)
