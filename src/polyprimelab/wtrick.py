"""Parameter construction for the residue-restricted transference setup.

Builds the full bundle: per-prime residues b_p (non-root search for large
primes, positivity-constrained scan for small ones), the derivative's
small-prime part K, the smooth modulus W with its CRT residue b, the prime
modulus N (the least prime above 2n/W), and the rescaled polynomial with
its cutoff M.  `to_json_dict` writes every dataclass field for the
reports; no code reads a context back from JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction

from .numtheory import crt, is_prime, p_adic_valuation, prime_in_interval, sieve_primes
from .polynomials import (
    INTEGER_COLORING,
    PRIME_COLORING,
    VARIANTS,
    IntPolynomial,
    compute_M,
    rescale,
    psi_bound,
)

__all__ = [
    "HypothesisError",
    "NecessityViolationError",
    "ScaleError",
    "WTrickContext",
    "build_context",
    "check_cp",
    "check_parity",
    "compute_K",
    "find_nonroot",
    "level_exponents",
    "select_bp",
    "verify_gcd_identity",
]

_SCAN_CAP = 10**6  # defensive bound for residue scans


class HypothesisError(ValueError):
    """The parity hypothesis on psi fails for the given (b0, w0)."""


class NecessityViolationError(ValueError):
    """No admissible residue c_p exists for some prime(s); carries them."""

    def __init__(self, primes: list[int]):
        self.primes = list(primes)
        super().__init__(f"no admissible c_p for p in {self.primes}")


class ScaleError(ValueError):
    """The requested scale n is too small for the context's parameters."""


def check_parity(psi: IntPolynomial, b0: int, w0: int) -> None:
    """HypothesisError unless the parity hypothesis holds: psi(1) or psi(0)
    even when w0 is even, psi(b0 - 1) even when w0 is odd."""
    if w0 % 2 == 0:
        if psi(1) % 2 and psi(0) % 2:
            raise HypothesisError("psi(1) and psi(0) both odd with w0 even")
        return
    v = psi(b0 - 1)
    if v % 2:
        raise HypothesisError(f"psi(b0-1) = {v} odd with w0 odd")


def find_nonroot(h: IntPolynomial, p: int, candidates) -> int:
    """Smallest candidate residue where h does not vanish mod p.

    Candidates must be distinct mod p and number at least deg(h mod p) + 1,
    which guarantees a non-root exists when h is nonzero mod p.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    cand = sorted(candidates)
    if len({c % p for c in cand}) != len(cand):
        raise ValueError("candidate residues not distinct mod p")
    reduced = [c % p for c in h.coeffs]
    if not any(reduced):
        raise ValueError("polynomial vanishes identically mod p")
    deg_mod = len(reduced) - 1 - next(i for i, c in enumerate(reduced) if c)
    if len(cand) <= deg_mod:
        raise ValueError(f"need at least {deg_mod + 1} candidates, got {len(cand)}")
    for c in cand:
        if h(c) % p:
            return c
    raise RuntimeError("unreachable: nonzero polynomial had only roots")


def check_cp(psi: IntPolynomial, b0: int, w0: int, p: int) -> int | None:
    """Smallest c >= 1 such that p divides neither w0*c + b0 nor psi(z)/2 at
    some z = c (mod p) with psi(z) even, scanned over one period: c <= p at
    odd p, c <= 4 at p = 2.  None when there is none.

    At p = 2 that is z = c with psi(c)/2 odd, which depends on c mod 4; a c
    with psi(c) odd is skipped (the search for b_2 steps by 2 from c_2 and
    again asks psi(t) = 2 mod 4).  At odd p the test is p not dividing
    psi(c), whatever the parity of psi(c).  By CRT, z = c (mod p) can take
    either parity, and psi(z) mod 2 depends on z mod 2 only, so some such z
    has psi(z) even whenever psi takes an even value (the parity hypothesis
    asks that it does).  There psi(z) = psi(c) (mod p), and 2 is invertible
    mod p, so p divides psi(z)/2 iff p divides psi(c).  The context reads
    c_p mod p only (b = c_p mod p); the parity of b comes from p = 2.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    for c in range(1, 5 if p == 2 else p + 1):
        v = psi(c)
        if p == 2 and v % 2:
            continue
        if (w0 * c + b0) % p and (v // 2 if p == 2 else v) % p:
            return c
    return None


def select_bp(
    psi: IntPolynomial,
    b0: int,
    w0: int,
    coeff_bound: int,
    p: int,
    variant: str,
    cp: int | None = None,
) -> int:
    """Residue b_p = b0 (mod w0) admissible for the prime p.

    For p > coeff_bound the choice is a non-root search in [1, p-1] (of psi'
    alone, or of psi'*psi in the prime-coloring variant).  For small p the
    scan additionally demands psi'((b_p-b0)/w0) > 0, avoidance of p | b_p,
    and in the prime-coloring variant the congruence b_p = w0*c_p + b0
    (mod p*w0).
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    dpsi = psi.derivative()
    if p > coeff_bound:
        h = dpsi if variant == INTEGER_COLORING else dpsi * psi
        # the first deg(h) + 1 admissible t (1 <= b0 + t*w0 <= p-1) hold a non-root
        t_lo = max(0, -((b0 - 1) // w0))
        t_hi = min((p - 1 - b0) // w0, t_lo + h.degree)
        t = find_nonroot(h, p, range(t_lo, t_hi + 1))
        return b0 + t * w0
    if variant == INTEGER_COLORING:
        if p == 2 and w0 % 2 == 0 and psi(0) % 2 and psi(1) % 2:
            raise HypothesisError("psi is odd on every integer; no admissible b_2")
        t = 0
        while t < _SCAN_CAP:
            bp = b0 + t * w0
            ok = bp % p != 0 and dpsi(t) > 0
            if ok and p == 2 and w0 % 2 == 0:
                ok = psi(t) % 2 == 0
            if ok:
                return bp
            t += 1
        raise RuntimeError("residue scan exhausted")
    if cp is None:
        raise NecessityViolationError([p])
    t = cp % p
    while t < _SCAN_CAP:
        ok = b0 + t * w0 >= 1 and dpsi(t) > 0
        if ok and p == 2:
            # keep psi(t)/2 odd, as at c_2; the class offset psi(b)/2 must
            # stay coprime to 2 for the prime-class measure to carry mass
            ok = psi(t) % 4 == 2
        if ok:
            return b0 + t * w0  # = w0*c_p + b0 (mod p*w0) since t = c_p (mod p)
        t += p
    raise RuntimeError("residue scan exhausted")


def _derivative_valuations(
    bp: dict[int, int], psi: IntPolynomial, b0: int, w0: int, coeff_bound: int
) -> dict[int, int]:
    """{p: v_p(psi'((b_p - b0)/w0))} for every prime p <= coeff_bound."""
    dpsi = psi.derivative()
    out = {}
    for p in sieve_primes(coeff_bound).tolist():
        if p not in bp:
            raise ValueError(f"b_p missing for p = {p}")
        t, rem = divmod(bp[p] - b0, w0)
        if rem:
            raise ValueError(f"b_{p} = {bp[p]} is not congruent to b0 mod w0")
        d = dpsi(t)
        if d == 0:
            raise ValueError(f"psi'((b_{p} - b0)/w0) = 0; valuation undefined")
        out[p] = p_adic_valuation(p, d)
    return out


def compute_K(
    bp: dict[int, int],
    psi: IntPolynomial,
    b0: int,
    w0: int,
    coeff_bound: int,
) -> int:
    """Product over p <= coeff_bound of p^(v_p of psi'((b_p - b0)/w0))."""
    return math.prod(p**v for p, v in _derivative_valuations(bp, psi, b0, w0, coeff_bound).items())


@dataclass
class WTrickContext:
    """The complete parameter bundle for one transference experiment.

    Fields mirror the construction order: the polynomial psi and progression
    (b0, w0); the color count; the coefficient bound gating small primes;
    per-prime residues bp (and cp for the prime-coloring variant); the
    derivative's small-prime part K and the density margin kappa = 1/(10^4*K*m);
    the smooth modulus W = prod p^e_p with CRT residue b; the ambient scale n
    and prime modulus N; and the rescaled polynomial with cutoff M.
    """

    variant: str
    psi: IntPolynomial
    b0: int
    w0: int
    num_colors: int
    coeff_bound: int
    bp: dict[int, int]
    cp: dict[int, int] | None
    K: int
    kappa: Fraction
    smooth_exponents: dict[int, int]
    W: int
    b: int
    n: int
    N: int
    rescaled: IntPolynomial
    M: int

    @property
    def progression(self) -> tuple[int, int]:
        """(residue, modulus) of the progression carrying the measure."""
        return self.w0 * self.b + self.b0, self.W * self.w0

    @property
    def half_psi_b(self) -> int:
        v = self.psi(self.b)
        if v % 2:
            raise ValueError("psi(b) is odd")
        return v // 2

    def verify_invariants(self) -> list[tuple[str, bool, str]]:
        """Re-check every structural invariant exactly; returns (name, ok, info)."""
        out = []
        c, q = self.progression
        out.append(("coprime-progression", math.gcd(c, q) == 1, f"gcd({c},{q})"))
        out.append(("psi-b-even", self.psi(self.b) % 2 == 0, f"psi(b)={self.psi(self.b)}"))
        want = Fraction(1, 10**4 * self.K * self.num_colors)
        out.append(("kappa-exact", self.kappa == want, f"kappa={self.kappa}"))
        ok = True
        for p, e in self.smooth_exponents.items():
            mod = p ** (e + p_adic_valuation(p, self.w0) if self.w0 % p == 0 else e)
            if (self.w0 * self.b + self.b0 - self.bp[p]) % mod:
                ok = False
        out.append(("crt-residues", ok, "w0*b+b0 = b_p mod p^(e_p+v_p(w0))"))
        try:
            k_check = compute_K(self.bp, self.psi, self.b0, self.w0, self.coeff_bound)
            out.append(("k-product", k_check == self.K, f"K={self.K} vs {k_check}"))
        except ValueError as e:
            out.append(("k-product", False, str(e)))
        # N is the least prime above 2n/W, so above lo, and N W <= 4n; lo >= 1,
        # as prime_in_interval asks, leaves out only 1, which is not prime
        lo = max(2 * self.n // self.W, 1)
        n_ok = is_prime(self.N) and self.N > lo and self.N * self.W <= 4 * self.n
        if n_ok and self.N - 1 > lo:
            n_ok = prime_in_interval(lo, self.N - 1) is None
        out.append(("n-in-interval", n_ok, f"N={self.N}, 2n/W={Fraction(2 * self.n, self.W)}"))
        return out

    def to_json_dict(self) -> dict:
        """Every field under its own name, a polynomial as its coefficient
        tuple; `experiments.write_report` renders the integers as strings."""
        out = {"format": "wtrick-context/1"}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.coeffs if isinstance(value, IntPolynomial) else value
        return out


def level_exponents(level: int) -> dict[int, int]:
    """Smooth exponents of smoothing level `level`: 1 for each prime <= level."""
    return dict.fromkeys(sieve_primes(level).tolist(), 1)


def _admissible_cp(psi: IntPolynomial, b0: int, w0: int, bound: int) -> dict[int, int]:
    """c_p for every prime p <= bound (the prime-coloring residues); raises
    NecessityViolationError naming every prime that has none."""
    cp = {p: check_cp(psi, b0, w0, p) for p in sieve_primes(bound).tolist()}
    missing = [p for p, c in cp.items() if c is None]
    if missing:
        raise NecessityViolationError(missing)
    return cp


def build_context(
    psi: IntPolynomial,
    b0: int,
    w0: int,
    num_colors: int,
    variant: str,
    smooth_exponents: dict[int, int],
    n: int,
) -> WTrickContext:
    """Assemble and validate the full parameter bundle at scale n.

    The prime modulus N is the smallest prime above 2n/W, and must be odd
    (the spectral side relies on it); Bertrand's postulate puts it at most
    4n/W.  The paper's window N <= (2+kappa)n/W is recorded by the
    transference report (`N_window`), not enforced.  A smooth exponent must
    be >= 0; an exponent of 0 contributes p^0 = 1 to W.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if not 1 <= b0 <= w0:
        raise ValueError(f"requires 1 <= b0 <= w0, got b0={b0}, w0={w0}")
    if math.gcd(b0, w0) != 1:
        raise ValueError(f"gcd(b0, w0) = {math.gcd(b0, w0)} != 1")
    if psi.degree < 1 or psi.leading <= 0:
        raise ValueError("psi must have degree >= 1 and positive leading coefficient")
    if num_colors < 1:
        raise ValueError("requires num_colors >= 1")
    check_parity(psi, b0, w0)

    if any(e < 0 for e in smooth_exponents.values()):
        raise ValueError(f"negative smooth exponent in {smooth_exponents}")
    exps = {int(p): int(e) for p, e in smooth_exponents.items() if e > 0}
    for p in exps:
        if not is_prime(p):
            raise ValueError(f"smooth modulus key {p} is not prime")

    bound = psi_bound(psi, w0, variant)
    cp = _admissible_cp(psi, b0, w0, bound) if variant == PRIME_COLORING else None

    w_modulus = math.prod(p**e for p, e in exps.items())
    lo = (2 * n) // w_modulus  # N > 2n/W  <=>  N >= lo + 1
    bertrand_hi = (4 * n) // w_modulus
    if bertrand_hi <= max(lo, 1):  # lo = 0 means 4n/W < 2: no prime in (lo, 4n/W]
        raise ScaleError(f"no room for a prime modulus: n={n}, W={w_modulus}")

    needed = sorted(set(sieve_primes(bound).tolist()) | set(exps))
    bp = {
        p: select_bp(psi, b0, w0, bound, p, variant, cp.get(p) if cp else None)
        for p in needed
    }
    k_factor = compute_K(bp, psi, b0, w0, bound)
    kappa = Fraction(1, 10**4 * k_factor * num_colors)

    congruences = [((bp[p] - b0) // w0 % p**e, p**e) for p, e in sorted(exps.items())]
    b = 0
    if congruences:
        b, _ = crt(congruences)

    if psi(b) % 2:
        raise HypothesisError(
            f"psi(b) = psi({b}) is odd; include p = 2 in the smooth modulus"
        )

    found = prime_in_interval(lo, bertrand_hi)
    if found is None:
        raise ScaleError(f"no prime in (2n/W, 4n/W] = ({lo}, {bertrand_hi}]")
    if found == 2:
        raise ScaleError(f"N = 2 at n={n}, W={w_modulus}; the spectral side needs an odd N")

    resc = rescale(psi, w_modulus, b)
    try:
        cutoff = compute_M(resc, k_factor, found)
    except ValueError as e:
        raise ScaleError(f"cutoff search failed at n={n}: {e}") from e

    ctx = WTrickContext(
        variant=variant,
        psi=psi,
        b0=b0,
        w0=w0,
        num_colors=num_colors,
        coeff_bound=bound,
        bp=bp,
        cp=cp,
        K=k_factor,
        kappa=kappa,
        smooth_exponents=exps,
        W=w_modulus,
        b=b,
        n=n,
        N=found,
        rescaled=resc,
        M=cutoff,
    )
    bad = [name for name, ok, _ in ctx.verify_invariants() if not ok]
    if bad:
        raise RuntimeError(f"context invariants violated: {bad}")
    return ctx


def verify_gcd_identity(ctx: WTrickContext) -> bool | None:
    """Check gcd(psi'(b), W) = K and gcd(psi'(b), a1*W^(k-1)) = gcd(psi'(b), W).

    Returns None (inconclusive) unless every smooth exponent for p up to the
    coefficient bound strictly exceeds the corresponding valuation of
    psi'((b_p - b0)/w0); the identity is only a theorem beyond that point.
    """
    vals = _derivative_valuations(ctx.bp, ctx.psi, ctx.b0, ctx.w0, ctx.coeff_bound)
    if any(ctx.smooth_exponents.get(p, 0) <= v for p, v in vals.items()):
        return None
    d_b = ctx.psi.derivative()(ctx.b)
    g_w = math.gcd(d_b, ctx.W)
    g_lead = math.gcd(d_b, ctx.psi.leading * ctx.W ** (ctx.psi.degree - 1))
    return g_w == ctx.K and g_lead == g_w
