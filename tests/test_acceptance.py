"""Acceptance suite: one test per criterion, each printing a pass line with
its measured quantities.  Tolerances and runtime budgets are fixed here."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import bohr_members, dft_direct, popularity, triple_count_bruteforce
from polyprimelab.coloring import blocking_partition, dense_class, make_coloring, save_coloring
from polyprimelab.counting import (
    find_monochromatic,
    find_zn_solutions,
    lift_solution,
    triple_count,
)
from polyprimelab.numtheory import euler_phi, sieve_primes
from polyprimelab.polynomials import INTEGER_COLORING, IntPolynomial
from polyprimelab.spectral import (
    DensityFunction,
    bohr_set,
    build_poly_prime_measure,
    complete_gauss_sum,
    dft,
)
from polyprimelab.wtrick import build_context, verify_gcd_identity

GOLDEN = (math.sqrt(5) - 1) / 2


def _report(criterion: str, detail: str) -> None:
    print(f"\ncriterion {criterion}: PASS  ({detail})")


def test_criterion_01_fourier_counting_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    primes = [int(p) for p in sieve_primes(512).tolist() if p >= 5]
    worst = 0.0
    for _ in range(200):
        n = int(rng.choice(primes))
        f = DensityFunction(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        g = DensityFunction(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        h = DensityFunction(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        brute = triple_count_bruteforce(f, g, h)
        four = triple_count(f, g, h)
        err = abs(four - brute) / max(1.0, abs(brute))
        worst = max(worst, err)
        assert err <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report("1", f"200 instances, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_bohr_pigeonhole():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    primes = [int(p) for p in sieve_primes(499).tolist() if p >= 11]
    for _ in range(200):
        n = int(rng.choice(primes))
        size = int(rng.integers(0, 5))
        freqs = rng.choice(n, size=size, replace=False)
        eps = Fraction(int(rng.integers(1, 99)), 200)
        b = bohr_set(freqs, eps, n)
        p, q = eps.numerator, eps.denominator
        assert len(bohr_members(b)) * q ** len(freqs) >= p ** len(freqs) * n
        assert 0 in bohr_members(b)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("2", f"200 instances, exact integer inequality, {elapsed:.1f}s")


def test_criterion_03_popularity_cube_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    primes = [int(p) for p in sieve_primes(199).tolist() if p >= 11]
    checked = 0
    while checked < 200:
        n = int(rng.choice(primes))
        size_a = int(rng.integers(n // 3, n + 1))
        size_b = int(rng.integers(n // 3, n + 1))
        if 2 * size_a + size_b <= n:
            continue
        a = rng.choice(n, size=size_a, replace=False)
        b = rng.choice(n, size=size_b, replace=False)
        prof = popularity(a, b, n)
        m4 = min(4 * size_a, 4 * size_b, 2 * size_a + size_b - n)
        assert m4 > 0
        assert bool(np.all(64 * n * prof.nu.astype(object) >= m4**3))
        assert prof.bound_holds is True
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("3", f"200 instances, bound held at every x, {elapsed:.1f}s")


def test_criterion_04_gauss_sum_dichotomy(context_suite):
    assert len(context_suite) == 20
    checked = 0
    for name, ctx in context_suite:
        for q in range(1, min(ctx.W, 64) + 1):
            if ctx.W % q:
                continue
            coprime_as = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
            for a in (coprime_as[0], coprime_as[-1]):
                s = complete_gauss_sum(ctx, a, q)
                want = q if ctx.K % q == 0 else 0
                assert abs(s - want) <= 1e-6 * q, (name, a, q, s, want)
                checked += 1
    _report("4", f"20 contexts, {checked} (a, q) sums within 1e-6*q")


def test_criterion_05_gcd_identity(context_suite):
    conclusive = 0
    for name, ctx in context_suite:
        result = verify_gcd_identity(ctx)
        if result is not None:
            assert result is True, name
            conclusive += 1
    assert conclusive >= 14  # every full-exponent context is conclusive
    _report("5", f"true on all {conclusive} contexts meeting the exponent precondition")


def test_criterion_06_well_definedness_and_lifting(context_suite):
    lifted_total = 0
    for name, ctx in context_suite:
        measure = build_poly_prime_measure(ctx)  # raises CollisionError on any clash
        assert len(measure.values) == ctx.N
        half_n = (ctx.N + 1) // 2
        synthetic = np.arange(0, half_n, ctx.K, dtype=np.int64)
        sols = find_zn_solutions(synthetic, ctx, limit=20)
        for xp, yp, zp in sols:
            x, y, z = lift_solution(xp, yp, zp, ctx)  # raises LiftingError on failure
            assert x + y == ctx.psi(z)
            lifted_total += 1
    # pipeline solutions through the dense class where the scale admits one
    for name, ctx in context_suite:
        if ctx.variant != INTEGER_COLORING:
            continue
        if Fraction(ctx.n, ctx.num_colors * ctx.K * ctx.W) - ctx.psi(ctx.W) <= 0:
            continue
        col = make_coloring("integers", ctx.n, ctx.num_colors, "random", 1000 + ctx.N)
        dens = dense_class(col, ctx)
        for xp, yp, zp in find_zn_solutions(dens.members, ctx, limit=10):
            x, y, _ = lift_solution(xp, yp, zp, ctx)
            assert col.color_at[x] == col.color_at[y] == dens.color_index
            lifted_total += 1
    assert lifted_total >= 100
    _report("6", f"zero collisions, zero lifting failures, {lifted_total} lifts")


def test_criterion_07_necessity_counterexample():
    start = time.perf_counter()
    psi = IntPolynomial((6, 0, 0))
    part = blocking_partition(psi, 1, 1, 3, 10**5)
    assert part.num_colors == 9
    counts = np.bincount(part.colors, minlength=part.num_colors + 1)
    assert int(counts[1:].sum()) == len(sieve_primes(10**5))
    sols = find_monochromatic(part, psi, 1, 1, 10**5)
    assert len(sols) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("7", f"all 9 classes empty up to 1e5, {elapsed:.1f}s")


def test_criterion_08_random_colorings_always_yield_triples(tmp_path):
    start = time.perf_counter()
    psi = IntPolynomial((1, 1, 0))
    found = 0
    misses = []
    for trial in range(100):
        col = make_coloring("integers", 10**4, 2, "random", 88_000 + trial)
        sols = find_monochromatic(col, psi, 1, 2, 10**4)
        if len(sols):
            found += 1
        else:
            path = tmp_path / f"miss-seed-{88_000 + trial}.txt"
            save_coloring(col, path)
            misses.append(str(path))
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    assert found >= 99, f"misses archived at {misses}"
    _report("8", f"{found}/100 colorings produced a triple, {elapsed:.1f}s")


def test_criterion_09_measure_mass():
    psi = IntPolynomial((1, 1, 0))
    masses = []
    for w_config, n in [
        ({}, 5_000),
        ({}, 10_000),
        ({}, 50_000),
        ({2: 1, 3: 1}, 30_000),
        ({2: 1, 3: 1}, 150_000),
        ({2: 1, 3: 1}, 300_000),
    ]:
        ctx = build_context(psi, 1, 2, 2, INTEGER_COLORING, w_config, n)
        assert ctx.N >= 10**4 and ctx.W in (1, 6)
        measure = build_poly_prime_measure(ctx)
        mass = measure.mass.real
        # independent Chebyshev-style oracle: re-sum the weights from a sieve
        c, q = ctx.progression
        primes = set(sieve_primes(q * ctx.M + c).tolist())
        phi_ratio = euler_phi(q) / q
        oracle = sum(
            (ctx.rescaled(z) - ctx.rescaled(z - 1)) * phi_ratio * math.log(q * z + c)
            for z in range(1, ctx.M + 1)
            if q * z + c in primes
        ) / ctx.rescaled(ctx.M)
        assert mass == pytest.approx(oracle, rel=1e-9)
        assert 0.7 <= mass <= 1.3, (ctx.W, ctx.N, mass)
        masses.append((ctx.W, ctx.N, round(mass, 4)))
    _report("9", f"masses within [0.7, 1.3]: {masses}")


def test_criterion_10_spectral_engine():
    for n in (2003, 8009):
        rng = np.random.default_rng(n)
        values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        direct = dft_direct(values)
        fast = dft(DensityFunction(values))
        err = float(np.abs(direct - fast).max()) / float(np.abs(direct).max())
        assert err <= 1e-9, (n, err)
    rng = np.random.default_rng(10**5)
    f = DensityFunction(rng.standard_normal(100_003) + 1j * rng.standard_normal(100_003))
    start = time.perf_counter()
    spec = dft(f)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    assert len(spec) == 100_003
    _report("10", f"1e-9 agreement at 2003/8009; N=100003 transform in {elapsed:.2f}s")


def test_criterion_11_diagnostics_emitted(tmp_path):
    from polyprimelab.experiments import config_from_sources, run_spectrum, write_report

    cfg = config_from_sources(
        None, {"n": 30_000, "trend_n": (2003, 4001, 8009), "trend_w": (1, 2, 3)}
    )
    report = run_spectrum(cfg, str(tmp_path))
    # nonzero spectral sup across smoothing levels
    sups = report["spectral_sup_vs_W"]
    assert len(sups) == 3 and all("max_nonzero_spectral_value" in e for e in sups)
    # mass and normalized nonzero restriction norm across doubling N
    norms = report["restriction_norm_trend"]
    assert [e["N"] for e in norms] == sorted(e["N"] for e in norms)
    assert all(0 < e["restriction_nonzero"] < 1 for e in norms)
    # minor-arc decay ratio
    decay = report["minor_arc_decay"]
    assert 0 <= decay["ratio"] < 1
    # the smoothed measure's pointwise maximum against (1+2kappa)/N
    sp = report["smoothed_pointwise"]["measure"]
    assert sp["measured"] > 0
    assert sp["bound"] == pytest.approx((1 + 2 * 1 / 20000) / int(report["context_N"]))
    assert sp["holds"] == (sp["measured"] <= sp["bound"])
    write_report(report, tmp_path / "diag.json")
    assert (tmp_path / "diag.json").exists()
    _report(
        "11",
        f"sup-vs-W {len(sups)} pts, norm trend {len(norms)} pts, "
        f"decay ratio {decay['ratio']:.4f}, pointwise bound present",
    )
