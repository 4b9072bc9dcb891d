import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lambda_weight
from polyprimelab.numtheory import (
    ap_primes,
    crt,
    euler_phi,
    is_prime,
    p_adic_valuation,
    prime_in_interval,
    sieve_primes,
)


def trial_division_is_prime(n: int) -> bool:
    """Independent oracle: plain trial division."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class TestSieve:
    def test_small(self):
        assert sieve_primes(20).tolist() == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_boundary(self):
        assert sieve_primes(2).tolist() == [2]

    def test_count_to_a_million(self):
        # 78498 computed with the trial-division oracle; re-derived here at 1e4
        assert sum(1 for n in range(2, 10**4 + 1) if trial_division_is_prime(n)) == 1229
        assert len(sieve_primes(10**4)) == 1229
        assert len(sieve_primes(10**6)) == 78498

    def test_below_two_empty(self):
        for limit in (0, 1):
            primes = sieve_primes(limit)
            assert primes.size == 0 and primes.dtype == np.int64 and not primes.flags.writeable

    def test_membership_vs_list(self):
        primes = sieve_primes(500)
        assert primes.dtype == np.int64 and not primes.flags.writeable
        assert (np.diff(primes) > 0).all()
        listed = set(primes.tolist())
        for n in range(501):
            assert (n in listed) == trial_division_is_prime(n)

    def test_segmented_matches_trial_division(self, monkeypatch):
        # 1000-integer segments: limits at, just off and well past segment ends,
        # and every limit up to 11^2, around each base-prime square
        import polyprimelab.numtheory as nt

        monkeypatch.setattr(nt, "_SEGMENT", 1000)
        for limit in (*range(0, 122), 999, 1000, 1001, 2999, 3000, 25_000):
            assert sieve_primes(limit).tolist() == [
                n for n in range(limit + 1) if trial_division_is_prime(n)
            ]

    def test_odd_only_sieve_matches_miller_rabin(self):
        for limit in range(2, 201):
            assert sieve_primes(limit).tolist() == [n for n in range(limit + 1) if is_prime(n)]

    def test_agrees_with_miller_rabin(self):
        samples = np.random.default_rng(7).integers(2, 10**6 + 1, size=1000)
        listed = np.isin(samples, sieve_primes(10**6))
        for n, hit in zip(samples.tolist(), listed.tolist()):
            assert hit == is_prime(n)


class TestIsPrimeRange:
    # psi_12 and psi_13: the smallest strong pseudoprimes to the first 12 and
    # 13 prime bases (Sorenson & Webster, Math. Comp. 86, 2017)
    PSI12 = 318665857834031151167461
    PSI13 = 3317044064679887385961981

    def test_psi12_is_composite(self):
        assert self.PSI12 == 399165290221 * 798330580441
        assert not is_prime(self.PSI12)

    def test_psi13_outside_exact_range(self):
        assert self.PSI13 == 1287836182261 * 2575672364521
        with pytest.raises(ValueError, match="exact only below"):
            is_prime(self.PSI13)

    def test_large_primes_below_range(self):
        assert is_prime(2**61 - 1) and not is_prime(2**67 - 1)


class TestEulerPhi:
    @pytest.mark.parametrize("n,expected", [(1, 1), (97, 96), (12, 4)])
    def test_examples(self, n, expected):
        assert euler_phi(n) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            euler_phi(0)

    def test_against_direct_count(self):
        for n in range(1, 200):
            assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


class TestValuation:
    @pytest.mark.parametrize("p,x,expected", [(2, 48, 4), (3, 10, 0), (5, -250, 3)])
    def test_examples(self, p, x, expected):
        assert p_adic_valuation(p, x) == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            p_adic_valuation(3, 0)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            p_adic_valuation(6, 12)


class TestCrt:
    def test_examples(self):
        assert crt([(1, 2), (2, 3)]) == (5, 6)
        assert crt([(0, 4), (0, 9)]) == (0, 36)

    def test_conflict(self):
        with pytest.raises(ValueError, match="conflict"):
            crt([(1, 2), (0, 2)])

    def test_consistent_noncoprime_rejected(self):
        with pytest.raises(ValueError, match="coprime"):
            crt([(1, 2), (1, 2)])

    def test_random_systems_reduce_correctly(self):
        rng = np.random.default_rng(11)
        moduli = [3, 4, 5, 7, 11]
        for _ in range(200):
            rs = [int(rng.integers(0, m)) for m in moduli]
            r, mod = crt(list(zip(rs, moduli)))
            assert mod == 3 * 4 * 5 * 7 * 11
            assert 0 <= r < mod
            for ri, mi in zip(rs, moduli):
                assert r % mi == ri

    @settings(max_examples=200, deadline=None)
    @given(candidates=st.lists(st.integers(1, 10**6), min_size=1, max_size=8), data=st.data())
    def test_pairwise_coprime_systems_property(self, candidates, data):
        moduli = []
        for m in candidates:
            if all(math.gcd(m, k) == 1 for k in moduli):
                moduli.append(m)
        residues = [data.draw(st.integers(-(10**12), 10**12)) for _ in moduli]
        r, mod = crt(list(zip(residues, moduli)))
        assert mod == math.prod(moduli)
        assert 0 <= r < mod
        assert all((r - ri) % mi == 0 for ri, mi in zip(residues, moduli))


class TestPrimeInInterval:
    @pytest.mark.parametrize("lo,hi,expected", [(8, 12, 11), (24, 28, None), (90, 98, 97)])
    def test_examples(self, lo, hi, expected):
        assert prime_in_interval(lo, hi) == expected

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            prime_in_interval(5, 5)


class TestLambdaWeight:
    def test_examples(self):
        assert lambda_weight(1, 2, 1) == pytest.approx(0.5 * math.log(3), abs=1e-12)
        assert lambda_weight(1, 2, 4) == 0.0
        assert lambda_weight(1, 1, 6) == pytest.approx(math.log(7), abs=1e-12)

    def test_noncoprime_rejected(self):
        with pytest.raises(ValueError):
            lambda_weight(2, 4, 3)


class TestApPrimes:
    def test_support_example(self):
        assert ap_primes(1, 4, 10)[0].tolist() == [1, 3, 4, 7, 9, 10]

    def test_small_progression(self):
        assert ap_primes(1, 2, 3)[0].tolist() == [1, 2, 3]

    def test_noncoprime_rejected(self):
        with pytest.raises(ValueError):
            ap_primes(2, 4, 10)

    def test_weight_sum_matches_direct_primality(self):
        # cross-check the sieved progression against point-by-point testing
        for b, w in [(1, 2), (1, 4), (3, 4), (1, 1), (7, 10)]:
            total = float(ap_primes(b, w, 10**4)[1].sum())
            direct = sum(lambda_weight(b, w, x) for x in range(1, 10**4 + 1))
            assert total == pytest.approx(direct, rel=1e-13)
            phi_ratio = euler_phi(w) / w
            expect = phi_ratio * sum(
                math.log(w * x + b)
                for x in range(1, 10**4 + 1)
                if trial_division_is_prime(w * x + b)
            )
            assert total == pytest.approx(expect, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(w=st.integers(1, 60), b=st.integers(-200, 200), limit=st.integers(0, 3000))
    def test_any_coprime_offset_property(self, w, b, limit):
        if math.gcd(b, w) != 1:
            with pytest.raises(ValueError, match="gcd"):
                ap_primes(b, w, limit)
            return
        support, weights = ap_primes(b, w, limit)
        # values below 2, negative ones included, are not prime
        assert support.tolist() == [
            x for x in range(1, limit + 1) if is_prime(w * x + b)
        ]
        phi_ratio = euler_phi(w) / w
        for x, weight in zip(support.tolist(), weights.tolist()):
            want = phi_ratio * math.log(w * x + b)
            assert abs(weight - want) <= 1e-15 * want

    def test_weight_at(self):
        support, weights = ap_primes(1, 4, 10)
        weight_at = dict(zip(support.tolist(), weights.tolist()))
        assert weight_at[3] == pytest.approx(0.5 * math.log(13))
        assert 2 not in weight_at
