import math
import sys
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from tsinorm.core import (
    BlockPartition,
    FinVec,
    IntervalScalar,
    SEXPR_MAX_DEPTH,
    TsinormError,
    VectorParseError,
    as_scalar,
    ell1_norm,
    enumerate_partitions,
    format_scalar,
    format_vector,
    pairing,
    parse_number,
    parse_sexpr,
    parse_vector,
    restrict,
    scalar_to_decimal,
    sup_norm,
)

rationals = st.fractions(max_denominator=64)


def fv(d):
    return FinVec.from_items(d)


class TestScalars:
    def test_as_scalar(self):
        assert as_scalar("3/4") == Q(3, 4)
        assert as_scalar(5) == Q(5)
        assert as_scalar(Q(1, 3)) == Q(1, 3)
        with pytest.raises(VectorParseError):
            as_scalar("1/0")
        with pytest.raises(TypeError):
            as_scalar(0.5)

    def test_format(self):
        assert format_scalar(Q(3, 2)) == "3/2"
        assert format_scalar(Q(-4, 2)) == "-2"
        assert format_scalar(Q(0)) == "0"

    def test_decimal_rendering(self):
        assert scalar_to_decimal(Q(1, 2)) == "0.5"
        assert scalar_to_decimal(Q(0)) == "0"
        third = scalar_to_decimal(Q(1, 3))
        assert third.startswith("0.3333333333333333333")


class TestInterval:
    def test_point_arithmetic_matches_exact(self):
        # rational inputs as point intervals: all four ops stay points
        a, b = Q(3, 4), Q(-2, 5)
        for op in ("__add__", "__sub__", "__mul__"):
            got = getattr(IntervalScalar.point(a), op)(IntervalScalar.point(b))
            want = getattr(a, op)(b)
            assert got.is_point and got.lo == want
        r = IntervalScalar.point(a).reciprocal()
        assert r.is_point and r.lo == 1 / a

    def test_outward_multiplication(self):
        i = IntervalScalar(Q(-1), Q(2)) * IntervalScalar(Q(-3), Q(1, 2))
        assert i.lo == Q(-6) and i.hi == Q(3)

    def test_certified_comparison(self):
        a = IntervalScalar(Q(0), Q(1))
        b = IntervalScalar(Q(2), Q(3))
        assert a.certified_lt(b) is True
        assert b.certified_lt(a) is False
        assert a.certified_lt(IntervalScalar(Q(1, 2), Q(3))) is None
        # equal points: not less, certified
        p = IntervalScalar.point(Q(1))
        assert p.certified_lt(p) is False
        assert p.certified_le(p) is True

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            IntervalScalar(Q(1), Q(0))

    def test_hull_and_contains(self):
        h = IntervalScalar.point(1).hull(IntervalScalar.point(Q(3)))
        assert h.contains(2) and h.width == 2


class TestFinVec:
    def test_zero_and_basis(self):
        assert FinVec.zero().is_zero
        e3 = FinVec.basis(3)
        assert e3.support == (3,) and e3.coeff(3) == 1 and e3.coeff(4) == 0

    def test_merge_and_cancel(self):
        x = fv({1: Q(1), 2: Q(-1)}) + fv({2: Q(1), 5: Q(1, 2)})
        assert x.support == (1, 5)
        assert (x - x).is_zero

    def test_from_items_sums_repeats_and_drops_zeros(self):
        x = FinVec.from_items([(4, Q(1, 2)), (2, 3), (4, "1/2"), (7, 0), (2, Q(-3)), (9, -1)])
        assert x.entries == ((4, Q(1)), (9, Q(-1)))
        assert all(type(c) is Q for _, c in x.entries)
        assert FinVec.from_items([(5, Q(1)), (5, Q(-1))]).is_zero
        assert FinVec.from_items({3: Q(2), 1: Q(0)}).entries == ((3, Q(2)),)

    def test_scale(self):
        x = fv({2: Q(3)})
        assert (x * Q(1, 3)).coeff(2) == 1
        assert x.scale(0).is_zero

    def test_restrict(self):
        x = fv({1: Q(1), 2: Q(2), 5: Q(1)})
        assert restrict(x, {2, 5}).support == (2, 5)
        assert restrict(x, ()).is_zero
        assert restrict(restrict(x, {2}), {2}) == restrict(x, {2})

    @given(st.dictionaries(st.integers(1, 9), rationals, max_size=5),
           st.dictionaries(st.integers(1, 9), rationals, max_size=5),
           st.sets(st.integers(1, 9)))
    @settings(deadline=None, max_examples=60)
    def test_restrict_linear(self, a, b, E):
        x, y = fv(a), fv(b)
        assert restrict(x + y, E) == restrict(x, E) + restrict(y, E)

    def test_norms(self):
        x = fv({1: Q(1), 2: Q(-1)})
        assert ell1_norm(x) == 2 and sup_norm(x) == 1
        assert ell1_norm(FinVec.zero()) == 0 and sup_norm(FinVec.zero()) == 0
        y = fv({3: Q(1, 2), 7: Q(2)})
        assert ell1_norm(y) == Q(5, 2) and sup_norm(y) == 2

    def test_pairing(self):
        x = fv({3: Q(1), 4: Q(1), 5: Q(1)})
        assert pairing(x, x) == 3
        assert pairing(x, FinVec.zero()) == 0
        assert pairing(fv({1: Q(2)}), fv({2: Q(5)})) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            FinVec(((0, Q(1)),))
        with pytest.raises(ValueError):
            FinVec(((2, Q(0)),))
        with pytest.raises(ValueError):
            FinVec(((2, Q(1)), (1, Q(1))))


class TestVectorGrammar:
    def test_parse(self):
        x = parse_vector("3:1 4:1 5:-1/2")
        assert x.coeff(5) == Q(-1, 2) and x.support == (3, 4, 5)

    def test_zero_is_empty(self):
        assert parse_vector("").is_zero
        assert format_vector(FinVec.zero()) == ""

    def test_round_trip(self):
        x = fv({2: Q(-7, 3), 11: Q(4)})
        assert parse_vector(format_vector(x)) == x

    @given(st.dictionaries(st.integers(1, 40),
                           st.fractions(max_denominator=30), max_size=6))
    @settings(deadline=None, max_examples=60)
    def test_round_trip_random(self, d):
        x = fv(d)
        assert parse_vector(format_vector(x)) == x

    @pytest.mark.parametrize("bad", ["3", "3:", ":1", "0:1", "-1:2", "3:1 3:2", "3:x", "a:1"])
    def test_rejects(self, bad):
        with pytest.raises(VectorParseError):
            parse_vector(bad)


class TestTreeGrammar:
    def test_parse(self):
        assert parse_sexpr("e3") == "e3"
        assert parse_sexpr(" (1/2 -e3(leaf 4) ()) ") == ["1/2", "-e3", ["leaf", "4"], []]

    def test_nesting_cap(self):
        depth = SEXPR_MAX_DEPTH
        tree = parse_sexpr("(" * depth + "e1" + ")" * depth)
        for _ in range(depth):
            tree, = tree
        assert tree == "e1"
        with pytest.raises(TsinormError, match="nested deeper"):
            parse_sexpr("(" * (depth + 1) + "e1" + ")" * (depth + 1))

    @pytest.mark.parametrize("bad", ["", " ", "(", ")", "(e1", "e1)", "(e1))", "e1 e2",
                                     "(e1) e2", "(e1) (e2)"])
    def test_rejects(self, bad):
        with pytest.raises(TsinormError):
            parse_sexpr(bad)

    @pytest.mark.parametrize("kind, token", [(int, "x"), (int, "\u00b2"), (int, ["3"]),
                                             (Q, "1/0"), (Q, "x"), (Q, ["1"])])
    def test_number_rejects(self, kind, token):
        with pytest.raises(TsinormError, match="bad leaf index"):
            parse_number(kind, token, "leaf index")


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no int-to-str digit limit")
class TestNumberDigitLimit:
    """Every rational token reader refuses a numerator or denominator
    longer than the interpreter can print, without building it first."""

    TOO_LONG = [f"1e{DIGIT_LIMIT}", f"1e-{DIGIT_LIMIT}", "1e999999999", "-7.5E-999999999",
                "0e999999999", "1" * (DIGIT_LIMIT - 10) + "." + "3" * (DIGIT_LIMIT - 10)]

    @pytest.mark.parametrize("token", TOO_LONG)
    def test_rejected_by_every_reader(self, token):
        with pytest.raises(TsinormError):
            parse_number(Q, token, "value")
        with pytest.raises(VectorParseError):
            as_scalar(token)
        with pytest.raises(VectorParseError):
            parse_vector(f"3:{token}")

    def test_limit_itself_is_read(self):
        big = f"1e{DIGIT_LIMIT - 1}"
        assert parse_number(Q, big, "value") == 10 ** (DIGIT_LIMIT - 1)
        assert as_scalar(f"1e-{DIGIT_LIMIT - 1}") == Q(1, 10 ** (DIGIT_LIMIT - 1))
        assert format_vector(parse_vector(f"2:{big}")) == "2:1" + "0" * (DIGIT_LIMIT - 1)
        assert parse_number(Q, "25e-2", "value") == Q(1, 4)


class TestPartitions:
    def test_spec_cases(self):
        got = {p.blocks for p in enumerate_partitions((3, 4, 5), 2)}
        assert got == {((3,), (4, 5)), ((3, 4), (5,))}
        assert [p.blocks for p in enumerate_partitions((7,), 1)] == [((7,),)]
        assert [p.blocks for p in enumerate_partitions((2, 5, 9), 3)] == [((2,), (5,), (9,))]

    def test_empty_stream_when_k_too_large(self):
        assert list(enumerate_partitions((1, 2), 3)) == []

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            list(enumerate_partitions((), 1))
        with pytest.raises(ValueError):
            list(enumerate_partitions((1, 2), 0))
        with pytest.raises(ValueError):
            list(enumerate_partitions((2, 1), 1))

    @given(st.sets(st.integers(1, 12), min_size=1, max_size=7), st.integers(1, 7))
    @settings(deadline=None, max_examples=120)
    def test_count_cover_successive_distinct(self, S, k):
        S = tuple(sorted(S))
        parts = list(enumerate_partitions(S, k))
        if k > len(S):
            assert parts == []
            return
        assert len(parts) == math.comb(len(S) - 1, k - 1)
        seen = set()
        for p in parts:
            assert p.k == k
            assert p.covered() == S
            assert p.blocks not in seen
            seen.add(p.blocks)

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            BlockPartition.of((1, 5), (3,))
        with pytest.raises(ValueError):
            BlockPartition.of((1,), ())
        with pytest.raises(ValueError):
            BlockPartition(())
