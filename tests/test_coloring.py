import numpy as np
import pytest

from polyprimelab.coloring import (
    ConstructionInapplicableError,
    blocking_partition,
    dense_class,
    dense_prime_class,
    load_coloring,
    make_coloring,
    save_coloring,
)
from polyprimelab.numtheory import sieve_primes
from polyprimelab.polynomials import IntPolynomial
from polyprimelab.wtrick import ScaleError

SIX_X2 = IntPolynomial((6, 0, 0))


def members_admissible(dens, coloring) -> bool:
    """Recheck the defining conditions of a transferred class: each member
    x' maps back to x = W x' + psi(b)/2 in [psi(W), n], x = psi(b)/2 mod KW,
    with color the class's."""
    ctx = dens.context
    half = ctx.half_psi_b
    xs = ctx.W * dens.members + half
    admissible = (
        (xs >= ctx.psi(ctx.W))
        & (xs <= min(ctx.n, coloring.n))
        & ((xs - half) % (ctx.K * ctx.W) == 0)
    )
    return bool(admissible.all() and (coloring.color_at[xs] == dens.color_index).all())


class TestMakeColoring:
    def test_residue_rule(self):
        c = make_coloring("integers", 6, 2, "residue:2")
        assert c.color_at[1:7].tolist() == [1, 2, 1, 2, 1, 2]

    def test_monochrome(self):
        c = make_coloring("integers", 10, 1, "random", 3)
        assert set(c.colors.tolist()) == {1}

    def test_random_primes_reproducible(self):
        a = make_coloring("primes", 20, 3, "random", 42)
        b = make_coloring("primes", 20, 3, "random", 42)
        assert np.array_equal(a.colors, b.colors)
        assert len(a.elements) == 8  # primes up to 20
        assert a.color_at[4] == 0 and a.color_at[19] in (1, 2, 3)

    def test_interval_rule(self):
        c = make_coloring("integers", 10, 2, "interval:4,8")
        assert c.color_at[3] == 1 and c.color_at[5] == 2 and c.color_at[9] == 1

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            make_coloring("integers", 10, 0, "random")
        with pytest.raises(ValueError):
            make_coloring("integers", 0, 2, "random")
        with pytest.raises(ValueError):
            make_coloring("integers", 10, 2, "nonsense")


class TestColorTable:
    @pytest.mark.parametrize(
        "m,dtype", [(1, np.uint8), (255, np.uint8), (256, np.uint16), (70_000, np.uint32)]
    )
    def test_smallest_unsigned_dtype(self, m, dtype):
        assert make_coloring("integers", 10, m, "residue:7").color_at.dtype == dtype

    def test_zero_marks_outside_domain(self):
        col = make_coloring("primes", 30, 2, "random", 4)
        primes = set(sieve_primes(30).tolist())
        assert len(col.color_at) == 31
        assert np.flatnonzero(col.color_at == 0).tolist() == [
            x for x in range(31) if x not in primes
        ]
        ints = make_coloring("integers", 30, 2, "random", 4)
        assert ints.color_at[0] == 0 and np.all(ints.color_at[1:] > 0)

    def test_random_stream_is_int64_draw(self):
        col = make_coloring("integers", 50, 3, "random", 5)
        want = np.random.default_rng(5).integers(1, 4, size=50, dtype=np.int64)
        assert np.array_equal(col.colors, want)


class TestBlockingPartition:
    def test_class_memberships(self):
        part = blocking_partition(SIX_X2, 1, 1, 3, 100)
        # T = psi(2) = 24; low range <= 12, high > 24, middle otherwise
        assert part.color_at[11] == 2
        assert part.color_at[29] == 3 + 2
        assert part.color_at[13] == 6 + 1
        assert part.num_colors == 9

    def test_degenerate_low_range(self):
        part = blocking_partition(IntPolynomial((1, 1, 0)), 1, 2, 3, 50)
        # T = psi(1) = 2: no prime is <= 1, so low classes are empty
        counts = part.class_counts()
        assert counts[1:4].sum() == 0

    def test_inapplicable_when_cp_exists(self):
        with pytest.raises(ConstructionInapplicableError):
            blocking_partition(IntPolynomial((2, 0, 0)), 1, 1, 5, 100)

    def test_genuine_partition(self):
        part = blocking_partition(SIX_X2, 1, 1, 3, 10**4)
        primes = sieve_primes(10**4)
        assert np.array_equal(part.elements, primes)
        assert int(part.class_counts()[1:].sum()) == len(primes)
        assert np.all((part.colors >= 1) & (part.colors <= 9))


class TestDenseClass:
    def test_monochrome_holds_all(self, ctx_w6):
        col = make_coloring("integers", ctx_w6.n, 2, "interval:0")  # everything color 1
        col.color_at[col.elements] = 1
        dens = dense_class(col, ctx_w6)
        kw = ctx_w6.K * ctx_w6.W
        half = ctx_w6.half_psi_b
        lo = max(ctx_w6.psi(ctx_w6.W), half)
        expect = len([x for x in range(lo, ctx_w6.n + 1) if (x - half) % kw == 0])
        assert dens.color_index == 1 and len(dens.members) == expect

    def test_residue_coloring_concentrates(self, ctx_w6):
        # psi(b)/2 and KW share parity structure: one class takes everything
        col = make_coloring("integers", ctx_w6.n, 2, "residue:2")
        dens = dense_class(col, ctx_w6)
        cand = len(dens.members)
        assert cand > 0
        other = 1 + dens.color_index % 2
        assert not any(
            col.color_at[ctx_w6.W * m + ctx_w6.half_psi_b] == other
            for m in dens.members[:50]
        )

    def test_random_meets_pigeonhole(self, ctx_w6):
        col = make_coloring("integers", ctx_w6.n, 2, "random", 99)
        dens = dense_class(col, ctx_w6)
        assert 4 * 2 * ctx_w6.K * int(dens.meta["count"]) >= ctx_w6.N
        assert members_admissible(dens, col)
        assert int(dens.members.max()) < ctx_w6.N and int(dens.members.min()) >= 0

    def test_scale_error(self, ctx_w6):
        col = make_coloring("integers", 100, 2, "random", 1)
        import dataclasses

        tiny = dataclasses.replace(ctx_w6, n=100)
        with pytest.raises(ScaleError):
            dense_class(col, tiny)

    def test_pigeonhole_exact_arithmetic(self, ctx_w6):
        col = make_coloring("integers", ctx_w6.n, 3, "random", 5)
        import dataclasses

        ctx3 = dataclasses.replace(ctx_w6, num_colors=3)
        dens = dense_class(col, ctx3)
        kw = ctx3.K * ctx3.W
        half = ctx3.half_psi_b
        lo = max(ctx3.psi(ctx3.W), half)
        cand = [x for x in range(lo + (half - lo) % kw, ctx3.n + 1, kw)]
        counts = [0, 0, 0, 0]
        for x in cand:
            counts[col.color_at[x]] += 1
        assert sum(counts) == len(cand)
        assert int(dens.meta["count"]) == max(counts)
        assert max(counts) * 3 >= len(cand)


class TestDensePrimeClass:
    def test_monochrome(self, ctx_prime):
        col = make_coloring("primes", ctx_prime.n, 2, "random", 12)
        col.color_at[col.elements] = 1
        dens = dense_prime_class(col, ctx_prime)
        assert dens.color_index == 1
        assert dens.meta["weighted_sum"] > 0

    def test_threshold_reported_not_enforced(self, ctx_prime):
        col = make_coloring("primes", ctx_prime.n, 2, "random", 13)
        dens = dense_prime_class(col, ctx_prime)
        assert "threshold" in dens.meta and "threshold_met" in dens.meta
        assert len(dens.members) > 0
        assert all(m % ctx_prime.K == 0 for m in dens.members[:20].tolist())

    def test_deterministic_tie_break(self, ctx_prime):
        col = make_coloring("primes", ctx_prime.n, 4, "residue:2", 0)
        import dataclasses

        ctx4 = dataclasses.replace(ctx_prime, num_colors=4)
        a = dense_prime_class(col, ctx4)
        b = dense_prime_class(col, ctx4)
        assert a.color_index == b.color_index


class TestColoringFiles:
    def test_round_trip(self, tmp_path):
        col = make_coloring("primes", 50, 3, "random", 8)
        path = tmp_path / "c.txt"
        save_coloring(col, path)
        back = load_coloring(path)
        assert back.domain == col.domain and back.n == col.n
        assert np.array_equal(back.colors, col.colors)
        assert back.color_at.dtype == col.color_at.dtype

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("integers 3 2 rule\n1 1\n2 oops\n3 2\n")
        with pytest.raises(ValueError, match="line 3"):
            load_coloring(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("integers 3\n")
        with pytest.raises(ValueError, match="line 1"):
            load_coloring(path)

    def test_partial_coloring_rejected(self, tmp_path):
        path = tmp_path / "partial.txt"
        path.write_text("integers 3 2 rule\n1 1\n3 2\n")
        with pytest.raises(ValueError, match="total"):
            load_coloring(path)
