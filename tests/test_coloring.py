import csv
import io
import os
import tempfile
import threading
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polyprimelab import coloring
from polyprimelab.coloring import (
    ConstructionInapplicableError,
    blocking_partition,
    dense_class,
    dense_prime_class,
    load_coloring,
    make_coloring,
    parse_coloring_rule,
    save_coloring,
    write_int_rows,
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

    @pytest.mark.parametrize(
        "rule,parsed",
        [("random", ("random", ())), ("residue:7", ("residue", (7,))),
         ("interval:8,,4", ("interval", (4, 8))), ("interval:", ("interval", ())),
         (f"residue:{2**63 - 1}", ("residue", (2**63 - 1,)))],
    )
    def test_rule_parsed(self, rule, parsed):
        assert parse_coloring_rule(rule) == parsed

    @pytest.mark.parametrize(
        "rule",
        ["residue", "residue:x", "residue:-2", f"residue:{2**63}", "interval:1,b", "Random"],
    )
    def test_malformed_rule_rejected_before_the_domain(self, monkeypatch, rule):
        def never(*args):
            pytest.fail("the domain was built for a malformed rule")

        monkeypatch.setattr(coloring, "_domain_elements", never)
        with pytest.raises(ValueError):
            parse_coloring_rule(rule)
        with pytest.raises(ValueError):
            make_coloring("integers", 10, 2, rule)


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
        # the class's log weight against (1 - kappa) n / (m phi(KW)) is a
        # link of the transference chain: recorded, and nothing raises
        from polyprimelab.counting import transference_report
        from polyprimelab.spectral import build_poly_prime_measure

        col = make_coloring("primes", ctx_prime.n, 2, "random", 13)
        dens = dense_prime_class(col, ctx_prime)
        rep = transference_report(
            dens, build_poly_prime_measure(ctx_prime), Fraction(1, 20), Fraction(1, 8)
        )
        link = rep["chain"]["class_weight"]
        assert link["measured"] == dens.meta["weighted_sum"]
        assert link["holds"] is (link["measured"] >= link["bound"])
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

    def test_element_above_int64_under_a_huge_header(self, tmp_path):
        # the pair count rules the file out before any element is converted
        path = tmp_path / "big.txt"
        path.write_text(f"integers {10**23} 2 rule\n{10**23 - 1} 1\n")
        with pytest.raises(ValueError, match="not total"):
            load_coloring(path)


# field spellings that int() and np.loadtxt may read differently, or not at all
ODD_FIELDS = [
    "+3", "1_0", "4.0", "-0", "007", "0x1", "1e0", "\u0663", "\u00b3",
    str(2**63 - 1), str(2**63), str(10**20), "#", "",
]


@st.composite
def coloring_bodies(draw):
    """(header, body) of a small coloring file: a total coloring in varied
    whitespace, or lines of 1-3 fields drawn from valid, out-of-range and odd
    spellings; blank, whitespace-only and CRLF lines throughout."""
    domain = draw(st.sampled_from(["integers", "primes"]))
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 3))
    elements = [x for x in sieve_primes(n + 1).tolist() if x <= n] if domain == "primes" else list(range(1, n + 1))
    field_ = st.one_of(st.integers(-1, n + 1).map(str), st.sampled_from(ODD_FIELDS))
    if draw(st.booleans()):
        rows = [[str(x), str(draw(st.integers(1, m)))] for x in draw(st.permutations(elements))]
        if rows and draw(st.booleans()):
            rows[draw(st.integers(0, len(rows) - 1))] = draw(st.lists(field_, min_size=1, max_size=3))
    else:
        rows = draw(st.lists(st.lists(field_, min_size=1, max_size=3), max_size=6))
    lines = []
    for row in rows:
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", " ", "\t", " \t "])))
        sep = draw(st.sampled_from([" ", "\t", "  ", " \t"]))
        pad = draw(st.sampled_from(["", " ", "\t"]))
        lines.append(pad + sep.join(row) + pad)
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    body = "".join(line + end for line, end in zip(lines, ends))
    if body and draw(st.booleans()):
        body = body.rstrip("\r\n")  # no line end on the last line
    return f"{domain} {n} {m} rule\n", body


def _load_outcome(path):
    try:
        inst = load_coloring(path)
    except ValueError as e:
        return "error", str(e)
    return inst.domain, inst.n, inst.num_colors, inst.provenance, inst.color_at.dtype, inst.color_at.tolist()


class TestColoringParser:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(coloring_bodies())
    def test_fast_path_matches_line_scan(self, text):
        header, body = text
        n, m = (int(v) for v in header.split()[1:3])
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.txt")
            with open(path, "wb") as fh:
                fh.write((header + body).encode())
            with open(path) as fh:
                fh.readline()
                start = fh.tell()
                fast = coloring._parse_pairs(fh, n, m)
                if fast is not None:
                    fh.seek(start)
                    assert [a.tolist() for a in fast] == list(coloring._scan_pairs(fh, n, m))
            outcome = _load_outcome(path)
            with mock.patch.object(coloring, "_parse_pairs", lambda *args: None):
                assert _load_outcome(path) == outcome

    def test_fast_path_takes_plain_files(self, tmp_path):
        col = make_coloring("integers", 1000, 3, "random", 4)
        path = tmp_path / "c.txt"
        save_coloring(col, path)
        with open(path) as fh:
            fh.readline()
            pairs = coloring._parse_pairs(fh, 1000, 3)
        assert pairs is not None and np.array_equal(pairs[1], col.colors)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes need POSIX")
    def test_unseekable_file_takes_the_line_scan(self, tmp_path):
        path = tmp_path / "fifo"
        os.mkfifo(path)
        col = make_coloring("primes", 30, 2, "random", 1)
        with mock.patch.object(coloring, "_parse_pairs", side_effect=AssertionError):
            writer = threading.Thread(target=save_coloring, args=(col, path))
            writer.start()
            back = load_coloring(path)
            writer.join()
        assert np.array_equal(back.color_at, col.color_at)

    def test_empty_body_warns_nothing(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("integers 2 1 rule\n\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="not total"):
                load_coloring(path)
        assert caught == []

    def test_bad_line_found_on_the_fallback(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("integers 3 2 rule\n1 1\n\n2 1 2\n3 2\n")
        with pytest.raises(ValueError, match="^line 4: expected 'element color', got '2 1 2'$"):
            load_coloring(path)


def _csv_writer_text(rows) -> str:
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _write_rows(columns, sep, end) -> str:
    buf = io.StringIO(newline="")
    write_int_rows(buf, columns, sep, end)
    return buf.getvalue()


class TestIntRows:
    @pytest.mark.parametrize(
        "rows",
        [
            np.zeros((0, 3), dtype=np.int64),
            np.zeros((1, 3), dtype=np.int64),
            np.array([[9, 10, 99], [100, 0, 1], [99, 100, 9]], dtype=np.int64),
            np.array([[2**63 - 1, 0, 10**18], [1, 10**18 - 1, 2**63 - 1]], dtype=np.int64),
            np.random.default_rng(5).integers(0, 10**6, size=(2 * coloring._ROW_BLOCK + 1, 3)),
        ],
        ids=["empty", "zeros", "digit-boundaries", "int64-max", "across-blocks"],
    )
    def test_matches_csv_writer(self, rows):
        assert _write_rows(rows.T, ",", "\r\n") == _csv_writer_text(rows.tolist())

    def test_unsigned_up_to_uint64_max(self):
        values = np.array([0, 9, 2**63, 2**64 - 1], dtype=np.uint64)
        assert _write_rows((values, values[::-1]), " ", "\n") == "".join(
            f"{a} {b}\n" for a, b in zip(values.tolist(), values[::-1].tolist())
        )

    @pytest.mark.parametrize("bad", [np.array([3, -1]), np.array([1.0, 2.0])])
    def test_negative_or_float_raises_before_writing(self, bad):
        buf = io.StringIO()
        with pytest.raises(ValueError):
            write_int_rows(buf, (np.arange(2), bad), ",", "\r\n")
        assert buf.getvalue() == ""

    @pytest.mark.parametrize(
        "domain,n,m", [("integers", 1, 1), ("integers", 2 * coloring._ROW_BLOCK + 7, 3), ("primes", 50000, 300)]
    )
    def test_save_matches_the_line_writer(self, tmp_path, domain, n, m):
        col = make_coloring(domain, n, m, "random", n)
        save_coloring(col, tmp_path / "new.txt")
        with open(tmp_path / "old.txt", "w") as fh:
            fh.write(f"{col.domain} {col.n} {col.num_colors} {col.provenance}\n")
            for x, c in zip(col.elements.tolist(), col.colors.tolist()):
                fh.write(f"{x} {c}\n")
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()
