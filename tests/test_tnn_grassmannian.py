"""Positivity tests, matroid extraction, cell membership, sampling."""

import dataclasses
import tracemalloc
from fractions import Fraction
from math import comb, gcd
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tnngrass import exact_linalg
from tnngrass import (
    DegeneracyError,
    DimensionError,
    DomainError,
    IndexSubset,
    PositroidCellSpec,
    RationalMatrix,
    TNNPoint,
    UnsupportedParameterError,
    all_maximal_minors,
    check_tnn,
    in_closed_cell,
    matroid_of,
    sample_top_cell,
    zero_columns,
)
from tnngrass.cli import canonical_json
from tnngrass.exact_linalg import capped_comb, rational_to_string
from helpers import (
    cofactor_det,
    count_back_substitutions,
    count_computed_tables,
    count_eliminations,
    count_ladder_levels,
    draw_nodes,
    identity,
    minors_of,
    random_positive_det,
    tnn_report_by_table,
    vandermonde_det,
)


def vandermonde_rows(k, nodes):
    return [[x ** i for x in nodes] for i in range(k)]


def negate_column(rows, col):
    """The rows with 1-based column ``col`` negated."""
    return [[-v if j + 1 == col else v for j, v in enumerate(row)] for row in rows]


def chart_rows(b):
    """[I | F] with F[k-1-i][j] = (-1)^i b[i][j]: its minors are those of b (Postnikov)."""
    k = len(b)
    f = [[(-1) ** i * x for x in row] for i, row in enumerate(b)][::-1]
    return [[int(r == c) for c in range(k)] + f[r] for r in range(k)]


def corner_lowered_pascal(s):
    """(2s - 1) times the s x s Pascal matrix, its corner lowered by 2.

    Every proper minor is positive and the determinant negative (checked
    for s <= 5).  The Pascal matrix P is totally positive, and its j x j
    leading minor minus t times the cofactor of the corner is 1 - t j, so
    lowering the corner of P by t = 2 / (2s - 1), past 1/s and short of
    1/(s - 1), makes the determinant alone negative.
    """
    a = [[(2 * s - 1) * comb(i + j, i) for j in range(s)] for i in range(s)]
    a[0][0] -= 2
    return a


def violated_at_level(k, n, s):
    """A k x n matrix [I | F] whose one negative maximal minor is on 1..k-s, k+1..k+s.

    Its minors are those of b, the s x s ``corner_lowered_pascal`` in the
    top left corner of k x (n - k) zeros (``chart_rows``), so only det b
    is negative, and it holds s free columns.  Every colex-earlier subset
    holds fewer, so the ladder decides it at level s.  At s = 0 the first
    row of [I | 0] is negated instead: its one nonzero minor is -1 on 1..k.
    """
    b = [[0] * (n - k) for _ in range(k)]
    if s == 0:
        rows = chart_rows(b)
        return [[-x for x in rows[0]]] + rows[1:]
    for i, row in enumerate(corner_lowered_pascal(s)):
        b[i][:s] = row
    return chart_rows(b)


V6 = vandermonde_rows(6, range(1, 11))
V6_16 = vandermonde_rows(6, range(1, 17))
# Examples of the positivity test's branches; ``test_the_examples_reach_their_branch`` checks each.
LEADING_ZERO_COLUMNS = [[0, 0] + row for row in vandermonde_rows(6, range(1, 9))]
ZERO_MINORS = vandermonde_rows(6, [1, 2, 3, 4, 5, 6, 7, 8, 9, 9])
DELTA_NEGATIVE = [V6[1], V6[0]] + V6[2:]
# rows (M_1 - M_0, -M_0, M_2, ...) = g V6 with det g = 1: every minor stays
# positive, but the first entry is 0, so elimination swaps rows and d < 0
D_NEGATIVE = [[b - a for a, b in zip(V6[0], V6[1])], [-a for a in V6[0]]] + V6[2:]
RANK_DEFICIENT = V6[:5] + [[a + b for a, b in zip(V6[0], V6[1])]]
NEGATED_IN_PIVOTS = negate_column(V6_16, 3)
NEGATED_OUTSIDE = negate_column(V6_16, 14)
# b = the 6 x 3 Vandermonde at nodes 1, 2, 3 but for b[5][0] = -1: only
# an initial minor starting below the first row of b sees the sign
ROW_CORNER = chart_rows([[-1 if (i, j) == (5, 0) else x ** i for j, x in enumerate((1, 2, 3))] for i in range(6)])
# b at nodes 1, 2, 5 with b[0][2] = 0: the other initial minors stay
# positive, so only the size-1 check sees the zero minor
COLUMN_CORNER_ZERO = chart_rows([[0 if (i, j) == (0, 2) else x ** i for j, x in enumerate((1, 2, 5))] for i in range(6)])
# 1 x n: the entries are the minors, and the pivot is the first nonzero one
ROW_NEGATIVE = [[2, 3, -1, 4, 5]]
ROW_LEADING_ZEROS = [[0, 0, 3, 1, 2]]
ROW_ZERO = [[0, 0, 0, 0]]
WIDE_ITEM = [[Fraction(j % 5 + 1, j % 3 + 1) * x ** i for j, x in enumerate(range(2, 60, 4))] for i in range(12)]


@st.composite
def positivity_rows_st(draw):
    """Scaled Vandermonde rows, totally positive, or changed by one of the ways a test can fail.

    k runs to 7 and n to k + 7, with both k > n - k and k < n - k; every
    shape takes the positivity test.
    """
    k = draw(st.integers(1, 7))
    n = draw(st.integers(k, k + 7))
    nodes = sorted(draw(st.lists(st.integers(1, 25), min_size=n, max_size=n, unique=True)))
    scales = draw(st.lists(
        st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6), min_size=n, max_size=n
    ))
    rows = [[s * x ** i for s, x in zip(scales, nodes)] for i in range(k)]
    change = draw(st.sampled_from(["none", "negate", "zero", "repeat", "swap", "shear", "perturb", "chart"]))
    j = draw(st.integers(0, n - 1))
    if change == "chart" and n > k:
        # [I | F] for a totally positive b, k x (n - k), with one entry redrawn
        b = [[x ** i for x in nodes[:n - k]] for i in range(k)]
        b[draw(st.integers(0, k - 1))][j % (n - k)] = draw(st.integers(-2, 3))
        return chart_rows(b)
    if change == "negate":
        rows = negate_column(rows, j + 1)
    elif change == "zero":
        rows = [[0 if c == j else v for c, v in enumerate(row)] for row in rows]
    elif change == "repeat":
        rows = [row[:j] + [row[(j + 1) % n]] + row[j + 1:] for row in rows]
    elif change == "swap" and k >= 2:
        rows = [rows[1], rows[0]] + rows[2:]
    elif change == "shear" and k >= 2:
        # row 0 += t row 1: the same span, so the same positivity
        t = draw(st.integers(-30, 30))
        rows = [[a + t * b for a, b in zip(rows[0], rows[1])]] + rows[1:]
    elif change == "perturb":
        i = draw(st.integers(0, k - 1))
        rows[i][j] += draw(st.sampled_from([-1, 1]))
    return rows


class TestCheckTnn:
    def test_identity(self):
        assert check_tnn(identity(2)).is_tnn

    def test_single_negative_determinant(self):
        report = check_tnn(RationalMatrix([[1, 0], [0, -1]]))
        assert not report.is_tnn
        subset, value = report.first_violation
        assert tuple(subset.members) == (1, 2)
        assert value == -1

    def test_vandermonde_all_minors(self):
        m = RationalMatrix([[1, 1, 1], [1, 2, 3]])
        minors = all_maximal_minors(m)
        assert all(v >= 0 for v in minors_of(minors).values())
        assert check_tnn(m).is_tnn

    def test_rank_deficient_not_tnn(self):
        report = check_tnn(RationalMatrix([[1, 1], [1, 1]]))
        assert not report.is_tnn
        assert not report.rank_ok
        assert report.first_violation is None

    def test_first_violation_is_colex_least(self):
        # minors: {1,2} = -1, {1,3} = -3, {2,3} = -2; colex least is {1,2}
        m = RationalMatrix([[1, 1, 1], [2, 1, -1]])
        report = check_tnn(m)
        assert tuple(report.first_violation[0].members) == (1, 2)

    @pytest.mark.parametrize(
        "rows, expected",
        [
            ([[1, 2]], '{"firstViolation":null,"isTNN":true,"rankOK":true}'),
            ([[1, -2]], '{"firstViolation":{"cols":[2],"minor":"-2"},"isTNN":false,"rankOK":true}'),
            ([[0, 0]], '{"firstViolation":null,"isTNN":false,"rankOK":false}'),
        ],
    )
    def test_is_tnn_is_full_rank_without_violation(self, rows, expected):
        report = check_tnn(RationalMatrix(rows))
        assert report.is_tnn == (report.rank_ok and report.first_violation is None)
        assert canonical_json(report.to_json_dict()).strip() == expected

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            check_tnn(RationalMatrix([[1], [2]]))


class TestPositivityTest:
    """check_tnn's total-positivity test against the full table, its oracle."""

    @settings(max_examples=120, deadline=None)
    @given(positivity_rows_st())
    @example(LEADING_ZERO_COLUMNS)
    @example(ZERO_MINORS)
    @example(DELTA_NEGATIVE)
    @example(D_NEGATIVE)
    @example(RANK_DEFICIENT)
    @example(V6_16)
    @example(vandermonde_rows(5, range(1, 21)))  # k < n - k
    @example(vandermonde_rows(8, range(1, 12)))  # k > n - k
    @example(WIDE_ITEM)
    @example(NEGATED_IN_PIVOTS)
    @example(NEGATED_OUTSIDE)
    @example(ROW_CORNER)
    @example(COLUMN_CORNER_ZERO)
    @example(vandermonde_rows(6, range(1, 7)))  # square: no free column
    @example(ROW_NEGATIVE)
    @example(ROW_LEADING_ZEROS)
    @example(ROW_ZERO)
    def test_the_report_is_the_tables(self, rows):
        m = RationalMatrix(rows)
        oracle = tnn_report_by_table(m)
        with pytest.MonkeyPatch.context() as patch:
            eliminations = count_eliminations(patch)
            tables = count_computed_tables(patch)
            assert check_tnn(m).to_json_dict() == oracle.to_json_dict()
        # every shape is decided by one elimination, passed or failed, and
        # no table is computed or kept
        assert eliminations == [m.rows] and tables == []
        assert not hasattr(m, "_minors")
        # a later table is the one a fresh copy computes
        assert all_maximal_minors(m) == exact_linalg._minor_table(RationalMatrix(rows))

    @pytest.mark.parametrize(
        "rows, pivots, sign, d_positive, passes",
        [
            (LEADING_ZERO_COLUMNS, [2, 3, 4, 5, 6, 7], 1, True, False),
            (ZERO_MINORS, [0, 1, 2, 3, 4, 5], 1, True, False),
            (DELTA_NEGATIVE, [0, 1, 2, 3, 4, 5], 1, False, False),
            (D_NEGATIVE, [0, 1, 2, 3, 4, 5], -1, False, True),
            (RANK_DEFICIENT, [0, 1, 2, 3, 4], 1, True, False),
            (V6_16, [0, 1, 2, 3, 4, 5], 1, True, True),
            (NEGATED_IN_PIVOTS, [0, 1, 2, 3, 4, 5], 1, False, False),
            (NEGATED_OUTSIDE, [0, 1, 2, 3, 4, 5], 1, True, False),
            (ROW_CORNER, [0, 1, 2, 3, 4, 5], 1, True, False),
            (COLUMN_CORNER_ZERO, [0, 1, 2, 3, 4, 5], 1, True, False),
            (chart_rows(vandermonde_rows(6, (1, 2, 3))), [0, 1, 2, 3, 4, 5], 1, True, True),
            (ROW_NEGATIVE, [0], 1, True, False),
            (ROW_LEADING_ZEROS, [2], 1, True, False),
            (ROW_ZERO, [], 1, True, False),
        ],
    )
    def test_the_examples_reach_their_branch(self, monkeypatch, rows, pivots, sign, d_positive, passes):
        m = RationalMatrix(rows)
        int_rows, _ = exact_linalg._int_rows_and_scale(m)
        echelon = exact_linalg._echelon(int_rows)
        assert (echelon.pivots, echelon.sign, echelon.d > 0) == (pivots, sign, d_positive)
        table = exact_linalg._minor_table(RationalMatrix(rows))
        assert all(v > 0 for v in table.ints) == passes
        oracle = tnn_report_by_table(m)
        eliminations = count_eliminations(monkeypatch)
        climbs = count_ladder_levels(monkeypatch)
        assert check_tnn(m) == oracle
        # one elimination, and a ladder only when the test fails at full
        # rank with the minor on 1..k not already negative
        assert eliminations == [m.rows]
        leading_negative = pivots[-1:] == [m.rows - 1] and echelon.sign * echelon.d < 0
        assert (climbs == []) == (passes or len(pivots) < m.rows or leading_negative)
        assert not hasattr(m, "_minors")

    def test_a_totally_positive_matrix_eliminates_once_and_keeps_no_table(self, monkeypatch):
        eliminations = count_eliminations(monkeypatch)
        m = RationalMatrix(V6_16)
        assert check_tnn(m).to_json_dict() == {"isTNN": True, "rankOK": True, "firstViolation": None}
        assert eliminations == [6]
        assert not hasattr(m, "_minors")

    def test_a_failed_test_eliminates_once_and_keeps_no_table(self, monkeypatch):
        eliminations = count_eliminations(monkeypatch)
        tables = count_computed_tables(monkeypatch)
        m = RationalMatrix(NEGATED_OUTSIDE)
        report = check_tnn(m)
        assert eliminations == [6]
        # the minors were read off the test's echelon form: no table computed or kept
        assert tables == []
        assert not hasattr(m, "_minors")
        # the colex-first subset holding column 14, with its Vandermonde minor negated
        nodes = [1, 2, 3, 4, 5, 14]
        assert report.first_violation == (IndexSubset(tuple(nodes)), -vandermonde_det(nodes))
        # a later table is computed then, and is the one a fresh copy computes
        assert all_maximal_minors(m) == exact_linalg._minor_table(RationalMatrix(NEGATED_OUTSIDE))

    @pytest.mark.parametrize(
        "k, n, level",
        [(k, n, s) for k, n in ((4, 9), (6, 9), (12, 15)) for s in range(min(k, n - k) + 1)],
    )
    def test_a_violation_is_decided_at_its_level(self, monkeypatch, k, n, level):
        # 4 x 9 ladders its 4 x 5 block, 6 x 9 and 12 x 15 the transposed one
        m = RationalMatrix(violated_at_level(k, n, level))
        oracle = tnn_report_by_table(m)
        cols = (*range(1, k - level + 1), *range(k + 1, k + level + 1))
        assert oracle.first_violation[0] == IndexSubset(cols)
        climbs = count_ladder_levels(monkeypatch)
        back_substitutions = count_back_substitutions(monkeypatch)
        assert check_tnn(m) == oracle
        # levels 0..level climbed, the top one only for a violation there;
        # a negative minor on 1..k is read off the elimination alone
        assert climbs == ([] if level == 0 else [level])
        assert len(back_substitutions) == (level > 0)
        assert not hasattr(m, "_minors")

    @pytest.mark.parametrize(
        "rows, climbed",
        [
            (LEADING_ZERO_COLUMNS, 4),  # pivots off the first k columns
            (ZERO_MINORS, 4),  # a zero minor fails the test
            (RANK_DEFICIENT, None),
            (V6_16, None),
        ],
    )
    def test_a_nonnegative_matrix_climbs_every_level(self, monkeypatch, rows, climbed):
        m = RationalMatrix(rows)
        oracle = tnn_report_by_table(m)
        assert oracle.first_violation is None
        climbs = count_ladder_levels(monkeypatch)
        assert check_tnn(m) == oracle
        # every level when the test fails at full rank; none at a pass or below rank k
        assert climbs == ([] if climbed is None else [climbed])

    def test_a_wide_false_item_climbs_at_most_two_levels(self, monkeypatch):
        matrices = [RationalMatrix(negate_column(WIDE_ITEM, col)) for col in range(1, 16)]
        oracles = [tnn_report_by_table(m) for m in matrices]
        climbs = count_ladder_levels(monkeypatch)
        back_substitutions = count_back_substitutions(monkeypatch)
        assert [check_tnn(m) for m in matrices] == oracles
        # the colex-first subset holding column j is 1..12 for j <= 12, read
        # off the elimination alone, and 1..11, j for j = 13 to 15; before
        # 1..11, 15 comes 1..10, 13, 14
        assert climbs == [1, 1, 2]
        assert len(back_substitutions) == 3

    def test_a_matrix_holding_its_table_makes_no_elimination(self, monkeypatch):
        for rows in (V6_16, NEGATED_OUTSIDE):
            m = RationalMatrix(rows)
            oracle = tnn_report_by_table(m)
            all_maximal_minors(m)
            with monkeypatch.context() as patch:
                eliminations = count_eliminations(patch)
                assert check_tnn(m) == oracle
            assert eliminations == []

    def test_a_refused_table_is_refused_before_the_test(self, monkeypatch):
        eliminations = count_eliminations(monkeypatch)
        # C(40, 20) minors, above MAX_SUBSETS
        m = RationalMatrix(vandermonde_rows(20, range(1, 41)))
        with pytest.raises(UnsupportedParameterError):
            check_tnn(m)
        assert eliminations == []

    def test_a_large_passing_test_builds_no_subsets(self):
        # C(20, 10) = 184756 subsets, above CACHED_SUBSETS: the passing test
        # reads 100 initial minors and names nothing, so it holds no subset
        m = RationalMatrix(vandermonde_rows(10, range(1, 21)))
        tracemalloc.start()
        try:
            report = check_tnn(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.is_tnn
        assert peak < 1_000_000
        assert not hasattr(m, "_minors")

    def test_a_large_violation_is_named_by_its_rank(self):
        # the colex-first subset holding column 20 is 1..9, 20, after every
        # subset of 1..19; no subset tuple of this shape is cached to read it from
        nodes = [*range(1, 10), 20]
        m = RationalMatrix(negate_column(vandermonde_rows(10, range(1, 21)), 20))
        report = check_tnn(m)
        assert report.first_violation == (IndexSubset(tuple(nodes)), -vandermonde_det(nodes))
        assert report.to_json_dict()["firstViolation"] == {
            "cols": nodes, "minor": "-169507484299610711654400000"
        }


@st.composite
def column_scaled_rows_st(draw):
    """k x n rows, k <= 5 and n <= 9, times positive column scales, some columns zeroed or negated.

    The rows are a Vandermonde matrix at increasing positive nodes,
    totally positive, or integer or p/q entries in -9..9; a row may be
    replaced by a combination of two others, so rank can fall below k.
    The scales carry common factors up to 10^12, so the integer columns
    hold large contents.  Entries are Fractions or their "p/q" strings.
    """
    k = draw(st.integers(1, 5))
    n = draw(st.integers(k, 9))
    if draw(st.booleans()):
        nodes = sorted(draw(st.sets(st.fractions(Fraction(1, 4), 12, max_denominator=4), min_size=n, max_size=n)))
        rows = [[x ** i for x in nodes] for i in range(k)]
    else:
        entry = st.integers(-9, 9).map(Fraction) | st.fractions(-9, 9, max_denominator=6)
        rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    if k >= 2 and draw(st.integers(0, 4)) == 0:
        rows[-1] = [a - 3 * b for a, b in zip(rows[0], rows[k // 2])]
    scale = st.builds(
        lambda p, q, common: Fraction(p * common, q),
        st.integers(1, 12), st.integers(1, 12), st.sampled_from([1, 6, 2 ** 40, 10 ** 12]),
    )
    scales = draw(st.lists(scale, min_size=n, max_size=n))
    changes = draw(st.lists(st.sampled_from([1, 1, 1, 1, 0, -1]), min_size=n, max_size=n))
    rows = [[x * s * c for x, s, c in zip(row, scales, changes)] for row in rows]
    if draw(st.booleans()):
        return [[rational_to_string(x) for x in row] for row in rows]
    return rows


class TestColumnContents:
    """The decision on column contents divided out, against the full table and cofactor minors."""

    @staticmethod
    def _scaled_vandermonde(k, n, negated):
        # column j scaled by (j + 1) 2^40 / (j % 4 + 1), so every integer column has a large content
        scales = [Fraction((j + 1) * 2 ** 40, j % 4 + 1) for j in range(n)]
        rows = [[s * x ** i for s, x in zip(scales, range(1, n + 1))] for i in range(k)]
        return negate_column(rows, negated)

    @settings(max_examples=300, deadline=None)
    @given(column_scaled_rows_st())
    @example([["6", "-12", "18/5", "24"], ["6", "-24", "54/5", "96"]])  # negative minor on 1..k
    @example([["6", "12", "-18/5", "24"], ["6", "24", "-54/5", "96"]])  # the ladder's first violation
    @example([["0", "4", "8"], ["0", "4", "16"]])  # a zero first column: pivots off 1..k
    @example([["0", "4", "8"], ["0", "6", "12"]])  # rank below k
    def test_the_report_is_the_tables(self, rows):
        m = RationalMatrix(rows)
        oracle = tnn_report_by_table(m)
        report = check_tnn(m)
        assert report.to_json_dict() == oracle.to_json_dict()
        assert report == oracle
        if oracle.first_violation is not None:
            subset, value = report.first_violation
            assert value == oracle.first_violation[1]
            # the minor scaled back, recomputed by cofactors from the entries
            assert value == cofactor_det([[m.entry(i, j - 1) for j in subset] for i in range(m.rows)])

    @pytest.mark.parametrize("negated, cols", [(3, (1, 2, 3, 4, 5, 6)), (8, (1, 2, 3, 4, 5, 8))])
    def test_the_elimination_reads_content_free_columns(self, monkeypatch, negated, cols):
        rows = self._scaled_vandermonde(6, 9, negated)
        rows = [[0 if j == 6 else x for j, x in enumerate(row)] for row in rows]  # column 7 zero
        m = RationalMatrix(rows)
        stored = list(zip(*(ints for ints, _ in m.int_rows)))
        assert all(gcd(*col) > 1 for j, col in enumerate(stored) if j != 6)
        seen = []
        bareiss = exact_linalg._bareiss

        def recorded(a):
            seen.append([row[:] for row in a])
            return bareiss(a)

        monkeypatch.setattr(exact_linalg, "_bareiss", recorded)
        report = check_tnn(m)
        [eliminated] = seen
        for col, before in zip(zip(*eliminated), stored):
            if any(before):
                # each column divided by its content, a positive integer
                assert gcd(*col) == 1
                content = gcd(*before)
                assert [x * content for x in col] == list(before)
            else:
                assert not any(col)
        # column 7 is zero: the minor on 1..6 is the colex-first violation when
        # a pivot column is negated; otherwise the ladder's first minor holding column 8
        subset, value = report.first_violation
        assert subset == IndexSubset(cols)
        assert value == cofactor_det([[m.entry(i, j - 1) for j in cols] for i in range(6)])

    def test_a_refused_shape_divides_nothing(self, monkeypatch):
        calls = []
        content_free_rows = exact_linalg._content_free_rows

        def recorded(m):
            calls.append(m)
            return content_free_rows(m)

        monkeypatch.setattr(exact_linalg, "_content_free_rows", recorded)
        # C(40, 20) minors, above MAX_SUBSETS
        with pytest.raises(UnsupportedParameterError):
            check_tnn(RationalMatrix(vandermonde_rows(20, range(1, 41))))
        assert calls == []


class TestTnnPoint:
    def test_the_matrix_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(TNNPoint)] == ["matrix"]

    def test_minors_are_the_table_the_matrix_keeps(self, monkeypatch):
        tables = count_computed_tables(monkeypatch)
        point = TNNPoint.from_matrix(RationalMatrix([[1, 1, 0], [1, 2, 0]]))
        assert point.minors is all_maximal_minors(point.matrix)
        matroid_of(point)
        zero_columns(point, IndexSubset((3,)))
        assert in_closed_cell(point.matrix, matroid_of(point))
        assert tables == [point.matrix]


class TestMatroidOf:
    def test_identity_has_no_nonbases(self):
        point = TNNPoint.from_matrix(identity(2))
        assert matroid_of(point).nonbases == frozenset()

    def test_vandermonde_has_no_nonbases(self):
        point = sample_top_cell(2, 3, [1, 2, 3])
        assert matroid_of(point).nonbases == frozenset()

    def test_zero_column_nonbases(self):
        point = TNNPoint.from_matrix(RationalMatrix([[1, 1, 0], [1, 2, 0]]))
        nonbases = {tuple(s.members) for s in matroid_of(point).nonbases}
        assert nonbases == {(1, 3), (2, 3)}

    def test_a_table_above_the_shape_cache_is_read_by_position(self):
        # C(20, 10) = 184756 minors, more than CACHED_SUBSETS: matroid_of zips
        # the table with member tuples built for the call, and zero_columns
        # reads no minor, only the rank of the zeroed matrix
        point = TNNPoint.from_matrix(RationalMatrix(vandermonde_rows(10, range(1, 21))))
        assert capped_comb(20, 10, exact_linalg.CACHED_SUBSETS) > exact_linalg.CACHED_SUBSETS
        assert matroid_of(point).nonbases == frozenset()
        # the minors on columns 1..19 survive, so the rank stays 10
        zeroed = zero_columns(point, IndexSubset((20,)))
        assert zeroed == point.matrix.scale_columns([1] * 19 + [0])
        # 9 columns are left: every minor vanishes
        with pytest.raises(DegeneracyError, match=r"drops the rank below 10"):
            zero_columns(point, IndexSubset(range(10, 21)))


class TestInClosedCell:
    def test_top_cell_equals_tnn_check(self):
        cell = PositroidCellSpec.top_cell(2, 3)
        good = RationalMatrix([[1, 1, 1], [1, 2, 3]])
        bad = RationalMatrix([[1, 0, 0], [0, 0, -1]])
        assert in_closed_cell(good, cell) == check_tnn(good).is_tnn is True
        assert in_closed_cell(bad, cell) == check_tnn(bad).is_tnn is False

    def test_zero_column_cell_membership(self):
        cell = PositroidCellSpec(
            k=2, n=3, nonbases=frozenset({IndexSubset((1, 3)), IndexSubset((2, 3))})
        )
        assert in_closed_cell(RationalMatrix([[1, 1, 0], [1, 2, 0]]), cell)

    def test_nonvanishing_nonbasis_minor(self):
        cell = PositroidCellSpec(k=2, n=3, nonbases=frozenset({IndexSubset((1, 2))}))
        assert not in_closed_cell(RationalMatrix([[1, 1, 1], [1, 2, 3]]), cell)

    def test_dimension_mismatch(self):
        cell = PositroidCellSpec.top_cell(2, 4)
        with pytest.raises(DimensionError):
            in_closed_cell(RationalMatrix([[1, 1, 1], [1, 2, 3]]), cell)

    def test_own_cell_membership(self):
        # a point always lies in the closure of its own cell
        rng = Random(7)
        for _ in range(20):
            point = sample_top_cell(2, 4, draw_nodes(rng, 4))
            zeroed = TNNPoint.from_matrix(zero_columns(point, IndexSubset((2,))))
            for p in (point, zeroed):
                assert in_closed_cell(p.matrix, matroid_of(p))


class TestCellSpec:
    def test_all_subsets_dependent_rejected(self):
        with pytest.raises(DomainError):
            PositroidCellSpec(
                k=1, n=2, nonbases=frozenset({IndexSubset((1,)), IndexSubset((2,))})
            )

    def test_wrong_size_nonbasis_rejected(self):
        with pytest.raises(DimensionError):
            PositroidCellSpec(k=2, n=3, nonbases=frozenset({IndexSubset((1,))}))

    def test_huge_declared_size_is_accepted_quickly(self):
        cell = PositroidCellSpec(k=2_000_000, n=4_000_000, nonbases=frozenset())
        assert cell.is_top

    @given(st.integers(0, 40), st.integers(-2, 42), st.integers(0, 10**6))
    def test_capped_comb_matches_comb(self, n, k, cap):
        exact = comb(n, k) if k >= 0 else 0
        assert capped_comb(n, k, cap) == (exact if exact <= cap else cap + 1)

    def test_json_round_trip(self):
        cell = PositroidCellSpec(
            k=2, n=4, nonbases=frozenset({IndexSubset((1, 4)), IndexSubset((2, 4))})
        )
        assert PositroidCellSpec.from_json_dict(cell.to_json_dict()) == cell


class TestSampleTopCell:
    def test_k1_zeroth_powers(self):
        point = sample_top_cell(1, 3, [1, 2, 3])
        assert point.matrix == RationalMatrix([[1, 1, 1]])
        assert all(v == 1 for v in minors_of(point.minors).values())

    def test_k2_vandermonde(self):
        point = sample_top_cell(2, 3, [1, 2, 3])
        assert point.matrix == RationalMatrix([[1, 1, 1], [1, 2, 3]])
        assert list(minors_of(point.minors).values()) == [1, 2, 1]

    def test_k3_determinant_product_oracle(self):
        nodes = [Fraction(1), Fraction(2), Fraction(3)]
        point = sample_top_cell(3, 3, nodes)
        assert list(minors_of(point.minors).values()) == [vandermonde_det(nodes)] == [2]

    def test_minor_positivity_exhaustive(self):
        # every maximal minor of every sample is a positive product of differences
        rng = Random(17)
        for k in (1, 2, 3):
            for n in range(k, 9):
                nodes = draw_nodes(rng, n)
                point = sample_top_cell(k, n, nodes)
                for subset, value in minors_of(point.minors).items():
                    chosen = [nodes[j - 1] for j in subset]
                    assert value == vandermonde_det(chosen) > 0

    def test_node_validation(self):
        with pytest.raises(DomainError):
            sample_top_cell(2, 3, [3, 2, 1])
        with pytest.raises(DomainError):
            sample_top_cell(2, 3, [0, 1, 2])
        with pytest.raises(DimensionError):
            sample_top_cell(2, 3, [1, 2])


class TestZeroColumns:
    def test_zero_nothing(self):
        point = sample_top_cell(2, 3, [1, 2, 3])
        assert zero_columns(point, IndexSubset(())) == point.matrix

    def test_zero_one_column_stays_tnn(self):
        point = sample_top_cell(2, 3, [1, 2, 3])
        zeroed = zero_columns(point, IndexSubset((3,)))
        assert zeroed == RationalMatrix([[1, 1, 0], [1, 2, 0]])
        assert check_tnn(zeroed).is_tnn

    def test_rank_drop_rejected(self):
        point = sample_top_cell(2, 3, [1, 2, 3])
        with pytest.raises(DegeneracyError, match=r"zeroing columns \[2, 3\] drops the rank below 2"):
            zero_columns(point, IndexSubset((2, 3)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_refused_iff_no_nonzero_minor_avoids_the_columns(self, seed):
        # the oracle reads the table: some nonzero minor on columns none of which is zeroed
        rng = Random(seed)
        k = rng.randint(1, 3)
        n = rng.randint(k, k + 4)
        point = sample_top_cell(k, n, draw_nodes(rng, n))
        if n > k and rng.random() < 0.5:  # a lower cell, with zero minors of its own
            point = TNNPoint.from_matrix(zero_columns(point, IndexSubset((rng.randint(1, n),))))
        dead = set(rng.sample(range(1, n + 1), rng.randint(0, n)))
        survives = any(
            value != 0 and dead.isdisjoint(subset.members)
            for subset, value in minors_of(point.minors).items()
        )
        if survives:
            zeroed = zero_columns(point, IndexSubset(sorted(dead)))
            assert zeroed == point.matrix.scale_columns([int(j not in dead) for j in range(1, n + 1)])
        else:
            with pytest.raises(DegeneracyError):
                zero_columns(point, IndexSubset(sorted(dead)))

    def test_closure_order_monotone(self):
        rng = Random(23)
        for _ in range(20):
            point = sample_top_cell(2, 5, draw_nodes(rng, 5))
            zeroed = TNNPoint.from_matrix(zero_columns(point, IndexSubset((4,))))
            assert matroid_of(point).nonbases <= matroid_of(zeroed).nonbases


class TestGlPlusInvariance:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_tnn_invariant_under_positive_det_action(self, seed):
        rng = Random(seed)
        k = rng.randint(1, 3)
        n = rng.randint(k, k + 3)
        matrix = sample_top_cell(k, n, draw_nodes(rng, n)).matrix
        if rng.random() < 0.5 and n >= k + 1:
            # also exercise boundary points
            matrix = zero_columns(TNNPoint.from_matrix(matrix), IndexSubset((n,)))
        g = random_positive_det(rng, k)
        assert check_tnn(g @ matrix).is_tnn == check_tnn(matrix).is_tnn
