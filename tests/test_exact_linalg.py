"""Core exact linear algebra: determinants, minors, kernels, solves."""

import itertools
import sys
from collections.abc import Mapping
from fractions import Fraction
from math import comb, gcd, prod
from random import Random

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from tnngrass import (
    DimensionError,
    InconsistentSystemError,
    IndexSubset,
    RankError,
    RationalMatrix,
    UnsupportedParameterError,
    all_maximal_minors,
    as_rational,
    check_tnn,
    det,
    invert,
    kernel_basis,
    outer_product,
    rank,
    rational_to_string,
    solve_for_left_factor,
    subsets_colex,
)
from tnngrass import exact_linalg
from tnngrass.cli import canonical_json
from tnngrass.exact_linalg import MAX_SUBSETS, MinorTable
from helpers import (
    HOSTILE_ENTRIES,
    cofactor_det,
    common_denominator_left_factor,
    count_computed_tables,
    count_eliminations,
    count_ladder_levels,
    det2,
    fraction_matmul,
    fraction_rref,
    full_back_substitute,
    identity,
    initial_minors_positive,
    least_nonpositive_solid_column,
    minor,
    minors_of,
    parse_row_by_entry,
    random_invertible,
    random_matrix,
    rref_inverse,
    rref_kernel,
    rref_left_factor,
    row_back_substitute,
    submatrix,
    subset_minor_table,
    vandermonde_det,
    zeros,
)

REJECTED_STRINGS = ["0.5", "1e3", "1e400", " 1", "2.5", "1/0", "1/-2", "", "1/", "/2", "1 / 2", "٣"]

fractions_st = st.fractions(min_value=-6, max_value=6, max_denominator=4)


# About half the entries are zero, so whole zero columns and rows are common.
sparse_entry_st = st.one_of(st.just(Fraction(0)), fractions_st)


@st.composite
def deficient_rows_st(draw, square=False):
    """Up to 6 x 8 rows, some replaced by integer combinations of the rows above."""
    nrows = draw(st.integers(1, 6))
    ncols = nrows if square else draw(st.integers(1, 8))
    row_st = st.lists(sparse_entry_st, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row_st, min_size=nrows, max_size=nrows))
    for i in range(1, nrows):
        if draw(st.booleans()):
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=i, max_size=i))
            rows[i] = [sum(c * rows[t][j] for t, c in enumerate(coeffs)) for j in range(ncols)]
    return rows


@st.composite
def two_path_rows_st(draw):
    """Rows of ``minor_table_rows_st`` for k <= 6 and n <= k + 7, made more degenerate and larger.

    A row may be zeroed, entries may be large negative integers, and each
    row may be divided by its own denominator up to 2^60.
    """
    rows = draw(minor_table_rows_st(max_k=6, max_extra=7))
    n = len(rows[0])
    if draw(st.integers(0, 4)) == 0:
        rows[draw(st.integers(0, len(rows) - 1))] = [Fraction(0)] * n
    if draw(st.booleans()):
        big_st = st.integers(-(2 ** 70), 2 ** 20)
        for row in rows:
            row[draw(st.integers(0, n - 1))] = Fraction(draw(big_st))
    if draw(st.booleans()):
        dens = draw(st.lists(st.integers(1, 2 ** 60), min_size=len(rows), max_size=len(rows)))
        rows = [[x / den for x in row] for row, den in zip(rows, dens)]
    return rows


@st.composite
def inner_singular_rows_st(draw):
    """Square, at least 4 x 4, with a column before the last that depends on earlier ones.

    That column has no pivot, so elimination must skip it and go on.
    """
    n = draw(st.integers(4, 6))
    row_st = st.lists(sparse_entry_st, min_size=n, max_size=n)
    rows = draw(st.lists(row_st, min_size=n, max_size=n))
    j = draw(st.integers(0, n - 2))
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=j, max_size=j))
    for row in rows:
        row[j] = sum((c * row[t] for t, c in enumerate(coeffs)), Fraction(0))
    return rows


@st.composite
def minor_table_rows_st(draw, max_k=8, max_extra=5):
    """k x n rows, 1 <= k <= max_k and k <= n <= k + max_extra, with the degenerate shapes mixed in.

    Entries are signed and often zero; rows may be combinations of the
    rows above (rank deficiency), and columns may be zeroed or copied
    from another column.
    """
    k = draw(st.integers(1, max_k))
    n = draw(st.integers(k, k + max_extra))
    row_st = st.lists(sparse_entry_st, min_size=n, max_size=n)
    rows = draw(st.lists(row_st, min_size=k, max_size=k))
    for i in range(1, k):
        if draw(st.integers(0, 9)) == 0:
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=i, max_size=i))
            rows[i] = [sum((c * rows[t][j] for t, c in enumerate(coeffs)), Fraction(0))
                       for j in range(n)]
    for j in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        for row in rows:
            row[j] = Fraction(0)
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=2)):
        for row in rows:
            row[dst] = row[src]
    return rows


def square_matrix_st(max_size=4):
    return st.integers(min_value=1, max_value=max_size).flatmap(
        lambda n: st.lists(
            st.lists(fractions_st, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


class TestDet:
    def test_identity(self):
        assert det(identity(3)) == 1

    def test_diagonal(self):
        assert det(RationalMatrix.diagonal([2, 3])) == 6

    def test_vandermonde(self):
        rows = [[Fraction(1), Fraction(1), Fraction(1)],
                [Fraction(1), Fraction(2), Fraction(3)],
                [Fraction(1), Fraction(4), Fraction(9)]]
        expected = cofactor_det(rows)
        assert expected == 2
        assert det(RationalMatrix(rows)) == expected

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            det(RationalMatrix([[1, 2, 3], [4, 5, 6]]))

    @settings(max_examples=150, deadline=None)
    @given(square_matrix_st())
    def test_matches_cofactor_expansion(self, rows):
        assert det(RationalMatrix(rows)) == cofactor_det(rows)

    @settings(max_examples=100, deadline=None)
    @given(square_matrix_st(), st.data())
    def test_row_swap_negates(self, rows, data):
        n = len(rows)
        if n < 2:
            return
        i = data.draw(st.integers(0, n - 2))
        j = data.draw(st.integers(i + 1, n - 1))
        swapped = list(rows)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert det(RationalMatrix(swapped)) == -det(RationalMatrix(rows))


class TestMinor:
    def test_identity_block(self):
        m = RationalMatrix([[1, 0, 0], [0, 1, 0]])
        assert minor(m, IndexSubset((1, 2)), IndexSubset((1, 2))) == 1

    def test_two_by_two_oracles(self):
        m = RationalMatrix([[1, 1, 1], [1, 2, 3]])
        rows = IndexSubset((1, 2))
        assert minor(m, rows, IndexSubset((1, 3))) == det2(
            Fraction(1), Fraction(1), Fraction(1), Fraction(3)
        ) == 2
        assert minor(m, rows, IndexSubset((2, 3))) == det2(
            Fraction(1), Fraction(1), Fraction(2), Fraction(3)
        ) == 1

    def test_mismatched_sizes(self):
        m = RationalMatrix([[1, 1, 1], [1, 2, 3]])
        with pytest.raises(DimensionError):
            minor(m, IndexSubset((1,)), IndexSubset((1, 2)))

    def test_out_of_range(self):
        m = RationalMatrix([[1, 1, 1], [1, 2, 3]])
        with pytest.raises(DimensionError):
            minor(m, IndexSubset((1, 2)), IndexSubset((3, 4)))


class TestAllMaximalMinors:
    def test_identity(self):
        out = all_maximal_minors(RationalMatrix([[1, 0], [0, 1]]))
        assert minors_of(out) == {IndexSubset((1, 2)): Fraction(1)}

    def test_row_vector(self):
        out = all_maximal_minors(RationalMatrix([[1, 1, 1]]))
        assert {tuple(s.members): v for s, v in minors_of(out).items()} == {
            (1,): 1, (2,): 1, (3,): 1
        }

    def test_per_subset_oracle(self):
        m = RationalMatrix([[1, 1, 1], [1, 2, 3]])
        out = all_maximal_minors(m)
        expected = {
            (1, 2): det2(Fraction(1), Fraction(1), Fraction(1), Fraction(2)),
            (1, 3): det2(Fraction(1), Fraction(1), Fraction(1), Fraction(3)),
            (2, 3): det2(Fraction(1), Fraction(1), Fraction(2), Fraction(3)),
        }
        assert {tuple(s.members): v for s, v in minors_of(out).items()} == expected

    def test_colex_iteration_order(self):
        m = RationalMatrix([[1, 1, 1, 1], [1, 2, 3, 4]])
        table = all_maximal_minors(m)
        order = [tuple(s.members) for s in subsets_colex(table.n, table.k)]
        assert order == [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]

    def test_count(self):
        m = random_matrix(Random(5), 3, 6)
        table = all_maximal_minors(m)
        assert len(subsets_colex(table.n, table.k)) == len(table.ints) == 20

    def test_tall_matrix_rejected(self):
        with pytest.raises(DimensionError):
            all_maximal_minors(RationalMatrix([[1], [2]]))

    # no shrink phase: shrinking 8 x 13 matrices through the per-subset oracle
    # took minutes to report a failure, and the fixed-input tests give small repros
    @settings(max_examples=150, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(minor_table_rows_st())
    def test_matches_per_subset_oracle(self, rows):
        m = RationalMatrix(rows)
        assert list(minors_of(all_maximal_minors(m)).items()) == list(subset_minor_table(m).items())

    def test_rank_deficient_table_is_zero(self):
        m = RationalMatrix([[1, 2, 3, 4, 5], [2, 4, 6, 8, 10], [0, 1, 0, 1, 0], [1, 0, 0, 0, 1]])
        assert set(minors_of(all_maximal_minors(m)).values()) == {Fraction(0)}
        rng = Random(76)
        for k, n in ((1, 3), (2, 5), (3, 6), (3, 8)):
            rows = [list(row) for row in random_matrix(rng, k, n).row_tuples()]
            # the last row is 2 r_0 - r_1, 2 r_0 or, for k = 1, zero
            coeffs = (2, -1)[: k - 1]
            rows[-1] = [sum((c * row[j] for c, row in zip(coeffs, rows)), Fraction(0)) for j in range(n)]
            table = all_maximal_minors(RationalMatrix(rows))
            assert set(table.ints) == {0}
            assert minors_of(table) == subset_minor_table(RationalMatrix(rows))

    def test_wide_vandermonde_against_product_oracle(self):
        nodes = [Fraction(i, 3) for i in range(1, 16)]
        m = RationalMatrix([[x ** i for x in nodes] for i in range(12)])
        for subset, value in minors_of(all_maximal_minors(m)).items():
            assert value == vandermonde_det([nodes[j - 1] for j in subset.members])

    def test_echelon_plan_follows_the_pivot_columns(self):
        # Same shape, pivots (0, 1, ..., k-1) against a zero column first, in
        # the middle or last: a ladder plan keyed on (n, k) alone would read
        # the later tables with the first one's steps, positions and signs.
        # 5 x 7 runs the ladder on the transposed block.
        rng = Random(77)
        for k, n in ((1, 4), (2, 6), (3, 7), (4, 8), (5, 7)):
            generic = random_matrix(rng, k, n, max_den=3)
            tables = [generic]
            for zero in (0, k // 2, n - 1):
                rows = [list(row) for row in random_matrix(rng, k, n).row_tuples()]
                for row in rows:
                    row[zero] = Fraction(0)
                tables.append(RationalMatrix(rows))
            for m in tables + tables:
                assert list(minors_of(all_maximal_minors(m)).items()) == list(subset_minor_table(m).items())

    def test_table_is_an_immutable_mapping_over_a_positive_scale(self):
        m = random_matrix(Random(78), 5, 7, max_den=5)
        table = all_maximal_minors(m)
        oracle = subset_minor_table(m)
        assert isinstance(table, MinorTable) and not isinstance(table, Mapping)
        assert list(minors_of(table).items()) == list(oracle.items())
        assert table.scale > 0
        assert [Fraction(v, table.scale) for v in table.ints] == list(oracle.values())
        subsets = subsets_colex(table.n, table.k)
        assert [table.int_at(s) for s in subsets] == list(table.ints)
        first = subsets[0]
        with pytest.raises(TypeError):
            table[first] = Fraction(0)
        with pytest.raises(TypeError):
            table.ints[0] = 0
        for name in ("ints", "scale", "n", "k"):
            with pytest.raises(AttributeError):
                setattr(table, name, None)
            with pytest.raises(AttributeError):
                delattr(table, name)
        # a slotted frozen dataclass raises TypeError, not AttributeError, on
        # Python 3.11 for a name that is not a field
        with pytest.raises((AttributeError, TypeError)):
            table.subsets = ()
        assert not hasattr(table, "subsets")
        assert not hasattr(table, "index")
        # a subset of the wrong size, or with a member above n, has no minor
        for subset in (IndexSubset((1, 2)), IndexSubset((1, 2, 3, 4, 5, 6)), IndexSubset((1, 2, 3, 4, 8))):
            with pytest.raises(KeyError):
                table.int_at(subset)

    def test_construction_checks_lengths_and_a_positive_scale(self):
        table = all_maximal_minors(RationalMatrix([[1, 1, 1], [1, 2, 3]]))
        assert MinorTable(table.n, table.k, table.ints, table.scale) == table
        for ints in (table.ints[:-1], table.ints + (1,), ()):
            with pytest.raises(DimensionError):
                MinorTable(table.n, table.k, ints, table.scale)
        for scale in (0, -1, -table.scale):
            with pytest.raises(ValueError) as exc:
                MinorTable(table.n, table.k, table.ints, scale)
            # DimensionError is a ValueError too; the scale check raises the plain one
            assert type(exc.value) is ValueError

    @pytest.mark.parametrize("k, n", [(2, 3), (4, 6), (5, 7)])
    def test_scale_columns_matches_the_scaled_matrix(self, k, n):
        # the minor of M D on I is the minor of M on I times the product of
        # the factors over I, for factors of any sign; the transport check
        # scans V's own table for V D when every factor is positive
        rng = Random(79 + k)
        m = random_matrix(rng, k, n, max_den=4)
        for factors in (
            [Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(n)],
            [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n)],
            [Fraction(0)] + [Fraction(-1)] * (n - 1),
        ):
            scaled = all_maximal_minors(m.scale_columns(factors))
            assert minors_of(scaled) == {
                s: v * prod(factors[j - 1] for j in s.members)
                for s, v in minors_of(all_maximal_minors(m)).items()
            }
            assert scaled.scale > 0
        with pytest.raises(DimensionError):
            m.scale_columns([Fraction(1)] * (n + 1))

    def test_huge_table_refused_before_enumerating(self):
        m = RationalMatrix([[Fraction(int(i == j)) for j in range(40)] for i in range(20)])
        with pytest.raises(UnsupportedParameterError):
            all_maximal_minors(m)
        with pytest.raises(UnsupportedParameterError):
            subsets_colex(40, 20)
        assert MAX_SUBSETS >= 100 * len(subsets_colex(15, 12))

    def test_shape_cache_holds_a_bounded_number_of_subsets(self, monkeypatch):
        # Entries are weighed by C(n, k); the least recently used go first
        # and a shape above the budget is rebuilt on every call.
        monkeypatch.setattr(exact_linalg, "CACHED_SUBSETS", 10)
        builds = []
        lookup = exact_linalg._shape_cache(lambda n, k: builds.append((n, k)) or [n, k])
        for n, k in [(5, 2), (5, 2), (4, 2), (5, 2), (6, 3), (6, 3), (5, 2)]:
            assert lookup(n, k) == [n, k]
        # C(5, 2) = 10 fills the budget, C(4, 2) = 6 pushes it out, and
        # C(6, 3) = 20 is never kept.
        assert builds == [(5, 2), (4, 2), (5, 2), (6, 3), (6, 3)]


class TestTwoTablePaths:
    """k <= 4 expands the stored rows, k >= 5 eliminates: both give the same tables."""

    @staticmethod
    def _both_paths(rows):
        tables = []
        for plan in (exact_linalg._colex_terms, lambda n, k: None):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(exact_linalg, "_expansion_plan", plan)
                tables.append(all_maximal_minors(RationalMatrix(rows)))
        return tables

    # no shrink phase, as for the per-subset oracle test above
    @settings(max_examples=150, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(two_path_rows_st())
    @example([[Fraction(0)] * 7, [Fraction(1)] * 7])
    @example([[Fraction(j - 3, 2 ** 60) for j in range(8)]] * 3)
    # [I | F]: the ladder's d is 1 and nothing is divided
    @example([
        [Fraction(int(r == c)) for c in range(4)] + [Fraction((r - j) ** 3 + j) for j in range(4)]
        for r in range(4)
    ])
    # a pivot block of determinant -1: the ladder divides by d = -1
    @example([
        [Fraction(int(r == c) - 2 * (r == c == 3)) for c in range(4)] + [Fraction(r * j - 3) for j in range(4)]
        for r in range(4)
    ])
    # 1 x n: level 1 is the table, with no level step
    @example([[Fraction(j - 2, j + 1) for j in range(6)]])
    def test_both_paths_give_the_same_table(self, rows):
        direct, eliminated = self._both_paths(rows)
        # dataclass equality: n, subsets, ints and scale
        assert direct == eliminated
        assert list(minors_of(direct).items()) == list(subset_minor_table(RationalMatrix(rows)).items())

    def test_the_benchmark_shapes_take_their_paths(self, monkeypatch):
        eliminations = count_eliminations(monkeypatch)
        tables = count_computed_tables(monkeypatch)
        rng = Random(81)
        # check_tnn on a fresh matrix eliminates once and computes no table,
        # whatever its shape: image's 2 x 7, campaign's 3 x 8, wide's 12 x 15
        for k, n in ((2, 7), (3, 8), (12, 15)):
            m = random_matrix(rng, k, n)
            check_tnn(m)
            assert not hasattr(m, "_minors")
        assert eliminations == [2, 3, 12] and tables == []
        # tables of k <= 4 rows expand directly, 4 x n included ...
        for k, n in ((2, 7), (3, 8), (4, 6), (4, 29)):
            all_maximal_minors(random_matrix(rng, k, n))
        assert eliminations == [2, 3, 12]
        # ... and k >= 5 eliminates once: 5 x 5, the image setups' 6 x 7 and
        # 7 x 8, and wide's 12 x 15
        for k, n in ((5, 5), (6, 7), (7, 8), (12, 15)):
            all_maximal_minors(random_matrix(rng, k, n))
        assert eliminations == [2, 3, 12, 5, 6, 7, 12]
        assert len(tables) == 8

    @pytest.mark.parametrize("k, n", [(k, n) for k in (4, 5) for n in range(k, k + 26)])
    def test_four_rows_expand_and_five_eliminate(self, k, n):
        assert (exact_linalg._expansion_plan(n, k) is None) == (k == 5)

    def test_direct_plans_are_held_in_the_bounded_shape_cache(self, monkeypatch):
        builds = []
        build = exact_linalg._colex_terms
        monkeypatch.setattr(exact_linalg, "_colex_terms", lambda n, k: builds.append((n, k)) or build(n, k))
        monkeypatch.setattr(exact_linalg, "CACHED_SUBSETS", 50)
        rng = Random(82)
        # C(8, 2) = 28 subsets fit the budget: every 2 x 8 table reads one plan
        plan = exact_linalg._expansion_plan(8, 2)
        for _ in range(3):
            all_maximal_minors(random_matrix(rng, 2, 8))
        assert exact_linalg._expansion_plan(8, 2) is plan
        assert builds.count((8, 2)) <= 1
        # C(60, 1) = 60 do not: each table rebuilds its plan
        for _ in range(3):
            all_maximal_minors(random_matrix(rng, 1, 60))
        assert builds.count((60, 1)) == 3

    def test_a_table_above_the_limit_is_refused_before_any_plan(self, monkeypatch):
        calls = []
        for name in ("_expansion_plan", "_colex_terms", "_ladder_plan", "_bareiss"):
            original = getattr(exact_linalg, name)
            monkeypatch.setattr(
                exact_linalg, name, lambda *args, name=name, original=original: calls.append(name) or original(*args)
            )
        # C(700, 2) = 244650 > MAX_SUBSETS, and 2 x 700 would expand directly
        m = RationalMatrix([[1] * 700, list(range(700))])
        with pytest.raises(UnsupportedParameterError):
            all_maximal_minors(m)
        assert calls == []


class TestLadderPlan:
    """Every pivot pattern of every k x n ladder, 1 <= k <= n <= 7, against direct expansion."""

    @staticmethod
    def _reduced_rows(rng, n, pivots):
        # unit columns at the pivots, zeros left of each pivot, seeded entries elsewhere
        return [
            [int(j == c) if j <= c or j in pivots else rng.randint(-9, 9) for j in range(n)]
            for c in pivots
        ]

    @pytest.mark.parametrize("k, n", [(k, n) for n in range(1, 8) for k in range(1, n + 1)])
    def test_every_pivot_pattern(self, monkeypatch, k, n):
        rng = Random(f"ladder:{k}:{n}")
        count = comb(n, k)
        climbs = count_ladder_levels(monkeypatch)
        for pivots in itertools.combinations(range(n), k):
            rows = self._reduced_rows(rng, n, pivots)
            direct = exact_linalg._expanded_minors([row[:] for row in rows], exact_linalg._colex_terms(n, k))
            echelon = exact_linalg._echelon([row[:] for row in rows])
            assert echelon.pivots == list(pivots)
            assert exact_linalg._ladder_minors(echelon, n, k) == direct
            plan = exact_linalg._ladder_plan(n, k, pivots)
            # k > n - k ladders the transposed block
            assert plan.transposed == (k > n - k)
            assert sorted(p if p >= 0 else ~p for p in plan.positions) == list(range(count))
            # a subset's level is the number of free columns it holds
            free_held = [len(set(subset.members) - {c + 1 for c in pivots}) for subset in subsets_colex(n, k)]
            for start in range(count):
                scanned = []
                for i, value in enumerate(exact_linalg._ladder_scan(echelon, n, k, start), start):
                    # minors start..i read: levels 0..s climbed, s the highest level among them
                    assert climbs[-1] == max(free_held[start:i + 1])
                    scanned.append(value)
                assert scanned == direct[start:]


def _totally_positive(b):
    """Whether every minor of an integer matrix, of every size, is positive: the brute-force oracle."""
    rows, cols = len(b), len(b[0])
    return all(
        cofactor_det([[b[i][j] for j in col_subset] for i in row_subset]) > 0
        for s in range(1, min(rows, cols) + 1)
        for row_subset in itertools.combinations(range(rows), s)
        for col_subset in itertools.combinations(range(cols), s)
    )


@st.composite
def vandermonde_like_st(draw, rows=st.integers(1, 4), cols=st.integers(1, 5)):
    """A totally positive integer matrix: column-scaled powers of increasing positive nodes."""
    rows, cols = draw(rows), draw(cols)
    nodes = sorted(draw(st.sets(st.integers(1, 9), min_size=cols, max_size=cols)))
    scales = draw(st.lists(st.integers(1, 3), min_size=cols, max_size=cols))
    return [[s * x ** i for x, s in zip(nodes, scales)] for i in range(rows)]


@st.composite
def late_block_broken_st(draw, rows=st.integers(2, 4), cols=st.integers(3, 5), sizes=(2, 3)):
    """A Vandermonde-like matrix with one initial minor made 0 or negative.

    The minor has a size in ``sizes`` and a corner other than b[0][0].
    Its last entry is lowered: the minor is linear in it, with the
    positive minor of its other rows and columns as the slope.
    """
    b = draw(vandermonde_like_st(rows=rows, cols=cols))
    rows, cols = len(b), len(b[0])
    corners = [(0, c) for c in range(1, cols)] + [(r, 0) for r in range(1, rows)]
    r0, c0, s = draw(st.sampled_from([
        (r, c, s) for r, c in corners for s in sizes if s <= min(rows - r, cols - c)
    ]))
    block = [row[c0:c0 + s] for row in b[r0:r0 + s]]
    slope = int(cofactor_det([row[:-1] for row in block[:-1]]))
    value = int(cofactor_det(block))
    b[r0 + s - 1][c0 + s - 1] -= -(-value // slope) + draw(st.integers(0, 1))
    assert cofactor_det([row[c0:c0 + s] for row in b[r0:r0 + s]]) <= 0
    return b


def _integer_matrices_st(rows, cols):
    """Integer matrices of the drawn shape, entries -1..30: most fail on a small minor."""
    return st.tuples(rows, cols).flatmap(
        lambda shape: st.lists(
            st.lists(st.integers(-1, 30), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        )
    )


class TestInitialMinors:
    """``_solid_minors_positive`` against every minor of every size, and against the initial-minors oracle.

    The column it names is checked against each solid minor expanded by
    cofactors (``least_nonpositive_solid_column``).

    Total positivity holds iff every solid minor is positive (Fekete), iff
    every initial minor is (Fomin and Zelevinsky); ``initial_minors_positive``
    is the block-by-block elimination the solid-minor test replaced.
    """

    @settings(max_examples=300, deadline=None)
    @given(b=_integer_matrices_st(st.integers(1, 4), st.integers(1, 5))
           | vandermonde_like_st()
           | late_block_broken_st())
    # zero width: an n = k matrix has no free column, so B has no minor
    @example(b=[[]])
    @example(b=[[], [], []])
    # one row or one column: the solid minors are its entries
    @example(b=[[3, 1, 4, 1, 5]])
    @example(b=[[3, 1, 4, 0, 5]])
    @example(b=[[2], [7], [1], [8]])
    @example(b=[[2], [7], [-1], [8]])
    # every entry positive, det -2; the 3 x 3 Pascal matrix, TP; its corner lowered by 1, det 0
    @example(b=[[1, 2], [3, 4]])
    @example(b=[[1, 1, 1], [1, 2, 3], [1, 3, 6]])
    @example(b=[[1, 1, 1], [1, 2, 3], [1, 3, 5]])
    # a 2 x 2 minor ending in column 1 found after the zero entry in column 3, wide and tall
    @example(b=[[1, 2, 1, 5], [1, 1, 3, 0]])
    @example(b=[[1, 2, 0], [1, 1, 1], [1, 1, 1], [1, 1, 1]])
    def test_the_verdict_is_total_positivity(self, b):
        copy = [row[:] for row in b]
        least = exact_linalg._solid_minors_positive(b, 1)
        assert (least is None) == _totally_positive(b) == initial_minors_positive(b)
        assert b == copy
        # the column named is the least last column of a nonpositive solid minor
        assert least == least_nonpositive_solid_column(b)
        # on the scale of the condensation in ``_tnn_witness``: the rows and the empty minor times one unit
        for unit in (2, 3 ** 40):
            assert exact_linalg._solid_minors_positive([[unit * x for x in row] for row in b], unit) == least

    @settings(max_examples=150, deadline=None)
    @given(b=_integer_matrices_st(st.just(6), st.just(6))
           | vandermonde_like_st(rows=st.just(6), cols=st.just(6))
           | late_block_broken_st(rows=st.just(6), cols=st.just(6), sizes=(2, 3, 4, 5)))
    def test_six_by_six_against_the_oracle(self, b):
        # 923 minors per matrix: brute force is too slow here, the oracle alone decides
        copy = [row[:] for row in b]
        least = exact_linalg._solid_minors_positive(b, 1)
        assert (least is None) == initial_minors_positive(b)
        assert b == copy
        # the 91 solid minors alone are few enough to expand
        assert least == least_nonpositive_solid_column(b)

    @pytest.mark.parametrize("k, nodes, negated", [
        (3, [2, 3, 5, 7, 11, 13, 17], None),  # B 3 x 4, TP
        (3, [2, 3, 5, 7, 11, 13, 17], 6),  # column 6 negated: B fails in its column 2
        (4, [2, 3, 4, 6, 9, 10], None),  # B 4 x 2, taller than wide
        (2, [3, 5, 6, 9, 12, 18], 5),  # B 2 x 4, failing in its column 2
    ])
    def test_the_witness_condenses_on_the_scale_of_maximal_minors(self, monkeypatch, k, nodes, negated):
        # each value unit^(1-s) det of an s x s solid block is, up to sign, the
        # maximal minor of the eliminated rows on the columns that block stands for
        calls = []
        condense = exact_linalg._solid_minors_positive

        def recorded(rows, unit):
            calls.append(([row[:] for row in rows], unit))
            return condense(rows, unit)

        monkeypatch.setattr(exact_linalg, "_solid_minors_positive", recorded)
        # a column scaled by 6 is divided by its content before the elimination
        rows = [[(-1) ** (j + 1 == negated) * (6 if j == 1 else 1) * x ** i for j, x in enumerate(nodes)]
                for i in range(k)]
        exact_linalg._tnn_witness(RationalMatrix(rows))
        [(b, unit)] = calls
        eliminated, _, _ = exact_linalg._content_free_rows(RationalMatrix(rows))
        assert unit == abs(cofactor_det([row[:k] for row in eliminated])) > 1
        width = len(b[0])
        for s in range(1, min(k, width) + 1):
            for i, j in itertools.product(range(k - s + 1), range(width - s + 1)):
                block = cofactor_det([row[j:j + s] for row in b[i:i + s]])
                # row r of B is pivot row k-1-r; free column c is column k + c
                columns = sorted({*range(k)} - {k - 1 - r for r in range(i, i + s)} | {k + c for c in range(j, j + s)})
                minor = cofactor_det([[row[c] for c in columns] for row in eliminated])
                assert abs(block) == unit ** (s - 1) * abs(minor)


class TestMinorTableMemo:
    def test_a_matrix_keeps_its_table(self):
        m = RationalMatrix([[1, 2, 3, 4], [0, 1, 5, Fraction(1, 2)]])
        assert all_maximal_minors(m) is all_maximal_minors(m)

    def test_computed_once_per_matrix(self, monkeypatch):
        tables = count_computed_tables(monkeypatch)
        m, copy = RationalMatrix([[1, 2, 3]]), RationalMatrix([[1, 2, 3]])
        for _ in range(3):
            all_maximal_minors(m)
        assert tables == [m]
        all_maximal_minors(copy)
        assert tables == [m, copy] and tables[0] is m and tables[1] is copy

    def test_the_table_takes_no_part_in_equality_or_hash(self):
        rows = [[1, Fraction(2, 3), 5], [Fraction(-1, 4), 0, 7]]
        with_table, without = RationalMatrix(rows), RationalMatrix(rows)
        all_maximal_minors(with_table)
        assert with_table == without and hash(with_table) == hash(without)
        assert {with_table: 1}[without] == 1
        assert with_table != RationalMatrix([[1, 2, 5], [0, 0, 7]])

    def test_the_slot_cannot_be_assigned(self):
        m = RationalMatrix([[1, 2]])
        with pytest.raises(AttributeError):
            m._minors = all_maximal_minors(RationalMatrix([[3, 4]]))
        assert minors_of(all_maximal_minors(m)) == {IndexSubset((1,)): 1, IndexSubset((2,)): 2}

    def test_refused_tables_are_not_kept(self, monkeypatch):
        tables = count_computed_tables(monkeypatch)
        tall = RationalMatrix([[1], [2]])
        for _ in range(2):
            with pytest.raises(DimensionError):
                all_maximal_minors(tall)
        assert tables == [tall, tall]


class TestRank:
    def test_zero(self):
        assert rank(zeros(2, 3)) == 0

    def test_identity(self):
        assert rank(identity(3)) == 3

    def test_dependent_rows(self):
        assert rank(RationalMatrix([[1, 2], [2, 4]])) == 1

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(fractions_st, min_size=3, max_size=3), min_size=2, max_size=4))
    def test_rank_transpose_invariant(self, rows):
        m = RationalMatrix(rows)
        assert rank(m) == rank(m.transpose())


class TestKernelBasis:
    def test_injective(self):
        assert kernel_basis(identity(3)) == []

    def test_forced_up_to_scale(self):
        assert kernel_basis(RationalMatrix([[1, 1]])) == [(Fraction(1), Fraction(-1))]

    def test_alternating_generator(self):
        m = RationalMatrix([[1, 1, 1, 1], [1, 0, -1, 0], [0, 1, 0, -1]])
        assert kernel_basis(m) == [
            (Fraction(1), Fraction(-1), Fraction(1), Fraction(-1))
        ]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(fractions_st, min_size=4, max_size=4), min_size=1, max_size=3))
    def test_kernel_property(self, rows):
        m = RationalMatrix(rows)
        basis = kernel_basis(m)
        assert len(basis) == m.cols - rank(m)
        mt = m.transpose()
        for v in basis:
            product = RationalMatrix([v]) @ mt
            assert all(x == 0 for x in product.row_tuples()[0])
            lead = next(x for x in v if x != 0)
            assert lead == 1


class TestSolveForLeftFactor:
    def test_identity_factor(self):
        w = random_matrix(Random(1), 2, 4)
        while rank(w) < 2:
            w = random_matrix(Random(2), 2, 4)
        assert solve_for_left_factor(w, w) == identity(2)

    def test_scaling_factor(self):
        w = RationalMatrix([[1, 0, 1], [0, 1, 1]])
        assert solve_for_left_factor(w.scale(2), w) == identity(2).scale(2)

    def test_multiply_then_solve_round_trip(self):
        w = RationalMatrix([[1, 0, 1], [0, 1, 1]])
        g = RationalMatrix([[0, 1], [1, 0]])
        assert solve_for_left_factor(g @ w, w) == g

    def test_degenerate_target(self):
        w = RationalMatrix([[1, 1, 1], [2, 2, 2]])
        with pytest.raises(RankError):
            solve_for_left_factor(w, w)

    def test_inconsistent_system(self):
        w = RationalMatrix([[1, 0, 0], [0, 1, 0]])
        k_image = RationalMatrix([[0, 0, 1], [0, 1, 0]])
        with pytest.raises(InconsistentSystemError):
            solve_for_left_factor(k_image, w)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_round_trip(self, seed):
        rng = Random(seed)
        k = rng.randint(1, 3)
        w = random_matrix(rng, k, k + rng.randint(0, 2))
        if rank(w) < k:
            return
        g = random_invertible(rng, k)
        assert solve_for_left_factor(g @ w, w) == g


# primes just below 2^31 and powers of two up to 2^60
LARGE_DENOMINATORS = [2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549] + [
    2 ** e for e in (1, 7, 19, 31, 32, 45, 53, 60)
]


def draw_left_factor_target(data, w_rows):
    """K rows for the system K = C W: arbitrary, or G W for a drawn (maybe singular) G."""
    r, n = len(w_rows), len(w_rows[0])
    row_st = st.lists(sparse_entry_st, min_size=n, max_size=n)
    if data.draw(st.booleans()):
        return data.draw(st.lists(row_st, min_size=r, max_size=r))
    g_row_st = st.lists(sparse_entry_st, min_size=r, max_size=r)
    g = RationalMatrix(data.draw(st.lists(g_row_st, min_size=r, max_size=r)))
    return [list(row) for row in (g @ RationalMatrix(w_rows)).row_tuples()]


def assert_left_factor_agrees(k_rows, w_rows):
    """The solve gives the C, or raises the error, of both the Fraction and the common-denominator oracles."""
    expected = rref_left_factor(k_rows, w_rows)
    k_image, w = RationalMatrix(k_rows), RationalMatrix(w_rows)
    if isinstance(expected, type):
        for solve in (solve_for_left_factor, common_denominator_left_factor):
            with pytest.raises(expected):
                solve(k_image, w)
    else:
        got = solve_for_left_factor(k_image, w)
        assert got == RationalMatrix(expected) == common_denominator_left_factor(k_image, w)
        assert_canonical(got)


class TestAgainstFractionRref:
    """The integer kernel agrees with Fraction Gauss-Jordan on degenerate inputs."""

    @settings(max_examples=200, deadline=None)
    @given(deficient_rows_st())
    def test_rank_and_kernel(self, rows):
        m = RationalMatrix(rows)
        assert rank(m) == len(fraction_rref([list(r) for r in rows])[1])
        assert kernel_basis(m) == rref_kernel(rows)

    @settings(max_examples=200, deadline=None)
    @given(deficient_rows_st(square=True))
    def test_det_and_invert(self, rows):
        m = RationalMatrix(rows)
        assert det(m) == cofactor_det(rows)
        expected = rref_inverse(rows)
        if expected is None:
            assert det(m) == 0
            with pytest.raises(RankError):
                invert(m)
        else:
            assert invert(m) == RationalMatrix(expected)

    @settings(max_examples=100, deadline=None)
    @given(inner_singular_rows_st())
    def test_singular_with_inner_pivot_free_column(self, rows):
        m = RationalMatrix(rows)
        assert det(m) == 0
        assert rank(m) == len(fraction_rref([list(r) for r in rows])[1]) < len(rows)
        assert kernel_basis(m) == rref_kernel(rows)
        with pytest.raises(RankError):
            invert(m)

    @settings(max_examples=200, deadline=None)
    @given(deficient_rows_st(), st.data())
    def test_left_factor(self, w_rows, data):
        assert_left_factor_agrees(draw_left_factor_target(data, w_rows), w_rows)

    @settings(max_examples=100, deadline=None)
    @given(deficient_rows_st(), st.data())
    def test_left_factor_with_large_row_denominators(self, w_rows, data):
        # every row of W and of K over its own denominator, so the blocks'
        # integer rows differ from their rows over a common one
        k_rows = draw_left_factor_target(data, w_rows)
        r = len(w_rows)
        den_st = st.sampled_from(LARGE_DENOMINATORS)
        dens = data.draw(st.lists(den_st, min_size=2 * r, max_size=2 * r, unique=True))
        w_rows = [[x / den for x in row] for row, den in zip(w_rows, dens)]
        k_rows = [[x / den for x in row] for row, den in zip(k_rows, dens[r:])]
        assert_left_factor_agrees(k_rows, w_rows)


class TestBackSubstitution:
    """The non-pivot block agrees with the row-by-row routine it replaced and with the full-row oracle."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(deficient_rows_st(), minor_table_rows_st()))
    @example([[-1, 1]])  # a negative last pivot
    @example([[0, 0, 0], [0, 0, 0]])  # no pivot at all
    @example([[0, 1, 2, 3], [0, 2, 4, 5]])  # a zero column, a skipped column, a negative d
    @example([[1, 2], [2, 4], [3, 6]])  # tall and rank deficient
    @example([[1, 0], [0, 1]])  # no free column
    @example([[2, 1, 3], [1, 4, 5], [3, 2, 7], [1, 1, 1]])  # one free column
    @example([[1, 3, 0, 2], [2, 5, 0, 7], [0, 0, 0, 0]])  # one free column past a zero one, rank deficient
    # r x 2r, [M | I] as ``invert`` reduces it, and with a pivot off the leading columns
    @example([[2, 1, 1, 0], [1, 3, 0, 1]])
    @example([[1, 2, 3, 1, 0, 0], [0, 1, 4, 0, 1, 0], [5, 6, 0, 0, 0, 1]])
    @example([[0, 2, 1, 5, 3, 1], [0, 4, 2, 7, 1, 2], [1, 1, 1, 1, 1, 1]])
    # non-leading pivots with several rows above the last pivot, and a row of two others
    @example([[0, 1, 2, 0, 3], [0, 2, 5, 1, 1], [0, 3, 7, 1, 4], [0, 1, 3, 1, -2]])
    def test_free_block_of_the_full_rows(self, rows):
        a, _ = exact_linalg._int_rows_and_scale(RationalMatrix(rows))
        pivots, _ = exact_linalg._bareiss(a)
        block, d = exact_linalg._back_substitute(a, pivots)
        assert (block, d) == row_back_substitute(a, pivots)
        full, full_d = full_back_substitute(a, pivots)
        free = [c for c in range(len(a[0])) if c not in pivots]
        assert d == full_d
        assert block == [[row[c] for c in free] for row in full]
        # the columns that are not built: d times the unit vectors
        r = len(pivots)
        assert [[row[c] for c in pivots] for row in full] == [[d * (i == j) for j in range(r)] for i in range(r)]

    @pytest.mark.parametrize("r", [1, 2, 5, 8])
    def test_r_by_2r(self, r):
        rng = Random(f"back-substitution:{r}")
        rows = [[rng.randint(-2 ** 40, 2 ** 40) for _ in range(2 * r)] for _ in range(r)]
        a, _ = exact_linalg._int_rows_and_scale(RationalMatrix(rows))
        pivots, _ = exact_linalg._bareiss(a)
        assert pivots == list(range(r))
        assert exact_linalg._back_substitute(a, pivots) == row_back_substitute(a, pivots)


class TestCauchyBinet:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000))
    def test_identity_holds(self, seed):
        rng = Random(seed)
        # every k takes the same ladder; n - k up to 4 reaches ladder level 4
        k = rng.randint(1, 6)
        n = rng.randint(k, k + 4)
        a = random_matrix(rng, k, n, lo=-5, hi=5, max_den=3)
        b = random_matrix(rng, n, k, lo=-5, hi=5, max_den=3)
        rows_all = IndexSubset(tuple(range(1, k + 1)))
        rhs = sum(
            value * det(submatrix(b, subset, rows_all))
            for subset, value in minors_of(all_maximal_minors(a)).items()
        )
        assert det(a @ b) == rhs


class TestInvert:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_inverse_via_adjugate_oracle(self, seed):
        rng = Random(seed)
        n = rng.randint(1, 4)
        m = random_invertible(rng, n)
        inv = invert(m)
        assert m @ inv == identity(n)
        # adjugate oracle: inverse entry (i, j) = cofactor(j, i) / det
        d = det(m)
        rows = [list(r) for r in m.row_tuples()]
        for i in range(n):
            for j in range(n):
                sub = [r[:i] + r[i + 1:] for idx, r in enumerate(rows) if idx != j]
                cof = cofactor_det(sub) if sub else Fraction(1)
                assert inv.entry(i, j) == (-1) ** (i + j) * cof / d

    def test_singular_rejected(self):
        with pytest.raises(RankError):
            invert(RationalMatrix([[1, 2], [2, 4]]))


# Signed, zero-heavy entries; large denominators next to small ones whose
# products and sums often reduce to integers.
product_entry_st = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 6])),
    st.builds(
        Fraction,
        st.integers(-(10**30), 10**30),
        st.sampled_from([7, 2**61 - 1, 10**24 + 7, 3**40]),
    ),
)


def product_grid_st(rows, cols):
    row_st = st.lists(product_entry_st, min_size=cols, max_size=cols)
    return st.lists(row_st, min_size=rows, max_size=rows)


@st.composite
def product_pair_st(draw):
    """A (1-6) x (1-8) matrix and a conforming (1-8) x (1-8) one."""
    r, s, t = draw(st.integers(1, 6)), draw(st.integers(1, 8)), draw(st.integers(1, 8))
    return draw(product_grid_st(r, s)), draw(product_grid_st(s, t))


class TestMatmul:
    @settings(max_examples=200, deadline=None)
    @given(product_pair_st())
    def test_against_fraction_products(self, pair):
        a, b = pair
        product = RationalMatrix(a) @ RationalMatrix(b)
        expected = fraction_matmul(a, b)
        assert [list(row) for row in product.row_tuples()] == expected
        # the same canonical Fractions, so the same JSON bytes
        assert all(type(x) is Fraction for row in product.row_tuples() for x in row)
        assert product.to_json_dict() == RationalMatrix(expected).to_json_dict()

    def test_entries_that_reduce_to_integers(self):
        a = RationalMatrix([[Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 6), Fraction(-1, 6)]])
        b = RationalMatrix([[3, Fraction(3, 2)], [Fraction(3, 2), 0]])
        product = a @ b
        assert product == RationalMatrix([[2, Fraction(1, 2)], [Fraction(1, 4), Fraction(1, 4)]])
        assert product.entry(0, 0).denominator == 1
        assert product.to_json_dict()["entries"] == [["2", "1/2"], ["1/4", "1/4"]]

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            RationalMatrix([[1, 2]]) @ RationalMatrix([[1, 2]])


@st.composite
def rank_one_update_st(draw):
    """A (1-5) x (1-8) matrix with a conforming column and row of product entries."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    matrix = draw(product_grid_st(rows, cols))
    col = draw(st.lists(product_entry_st, min_size=rows, max_size=rows))
    row = draw(st.lists(product_entry_st, min_size=cols, max_size=cols))
    return matrix, col, row


class TestAddOuter:
    @settings(max_examples=200, deadline=None)
    @given(rank_one_update_st())
    def test_against_sum_with_outer_product(self, update):
        matrix, col, row = update
        m = RationalMatrix(matrix)
        result = m.add_outer(col, row)
        expected = m + outer_product(col, row)
        assert result == expected
        # the same canonical Fractions, so the same JSON bytes
        assert all(type(x) is Fraction for r in result.row_tuples() for x in r)
        assert result.to_json_dict() == expected.to_json_dict()

    def test_zero_column_entry_keeps_the_row(self):
        m = RationalMatrix([[Fraction(1, 3), 2], [Fraction(-5, 7), Fraction(1, 2)]])
        result = m.add_outer((Fraction(0), Fraction(1, 2)), (Fraction(2), Fraction(-1, 3)))
        assert result.row_tuples()[0] == m.row_tuples()[0]
        assert result.row_tuples()[1] == (Fraction(2, 7), Fraction(1, 3))

    def test_built_by_the_constructor(self, monkeypatch):
        built = []
        init = RationalMatrix.__init__

        def counted(matrix, rows):
            built.append(matrix)
            init(matrix, rows)

        monkeypatch.setattr(RationalMatrix, "__init__", counted)
        m = RationalMatrix([[1, 2, 3]])
        result = m.add_outer((Fraction(1, 2),), (Fraction(1), Fraction(0), Fraction(-1)))
        assert built == [m, result]

    @pytest.mark.parametrize("col, row", [(2, 3), (1, 2), (1, 4), (0, 3)])
    def test_length_mismatch(self, col, row):
        with pytest.raises(DimensionError):
            RationalMatrix([[1, 2, 3]]).add_outer([Fraction(1)] * col, [Fraction(1)] * row)

    def test_zero_column_returns_the_matrix_and_its_table(self, monkeypatch):
        m = RationalMatrix([[1, 2, 3], [Fraction(1, 2), 0, -1]])
        table = all_maximal_minors(m)
        tables = count_computed_tables(monkeypatch)
        result = m.add_outer((Fraction(0), Fraction(0)), (Fraction(1, 3), Fraction(-2), Fraction(5)))
        assert result is m
        assert all_maximal_minors(result) is table
        assert tables == []
        # the shapes are still checked first
        for col, row in [(1, 3), (3, 3), (2, 2), (2, 4)]:
            with pytest.raises(DimensionError):
                m.add_outer([Fraction(0)] * col, [Fraction(1)] * row)


class TestDiagonal:
    """``diagonal`` builds the rows the generic constructor parses from a dense diagonal."""

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.one_of(st.integers(-50, 50), fractions_st, fractions_st.map(str)), min_size=1, max_size=7))
    @example([0])
    @example([Fraction(-2, 5), "4/6", "-0/3", "+5", 0, -7])
    @example(["-12/8", Fraction(0), 1, "0", Fraction(9, 3), "-5"])
    def test_equals_generic_constructor(self, entries):
        n = len(entries)
        generic = RationalMatrix([[x if i == j else 0 for j in range(n)] for i, x in enumerate(entries)])
        diagonal = RationalMatrix.diagonal(entries)
        assert diagonal.int_rows == generic.int_rows
        assert_canonical(diagonal)

    @pytest.mark.parametrize(
        "bad, error", [(0.5, TypeError), (True, TypeError), ("1/0", ValueError), ("1.5", ValueError)]
    )
    def test_rejects_what_the_generic_constructor_rejects(self, bad, error):
        with pytest.raises(error):
            RationalMatrix.diagonal([1, bad])
        with pytest.raises(error):
            RationalMatrix([[1, 0], [0, bad]])


class TestScaleColumns:
    def test_equals_diagonal_product(self):
        rng = Random(283)
        for _ in range(20):
            m = random_matrix(rng, 3, 5)
            factors = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(5)]
            assert m.scale_columns(factors) == m @ RationalMatrix.diagonal(factors)

    @pytest.mark.parametrize("count", [2, 4])
    def test_wrong_factor_count(self, count):
        with pytest.raises(DimensionError):
            RationalMatrix([[1, 2, 3]]).scale_columns([Fraction(1)] * count)


def assert_canonical(m: RationalMatrix) -> None:
    """Every stored row is primitive over a positive denominator."""
    for ints, den in m.int_rows:
        assert den > 0 and gcd(*ints, den) == 1


@st.composite
def every_operation_st(draw):
    """Operands for every operation that returns a matrix, around an r x c matrix."""
    r, c, t = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    return {
        "a": draw(product_grid_st(r, c)),
        "b": draw(product_grid_st(r, c)),
        "right": draw(product_grid_st(c, t)),
        "square": draw(product_grid_st(r, r)),
        "scalar": draw(product_entry_st),
        "factors": draw(st.lists(product_entry_st, min_size=c, max_size=c)),
        "col": draw(st.lists(product_entry_st, min_size=r, max_size=r)),
        "row": draw(st.lists(product_entry_st, min_size=c, max_size=c)),
    }


class TestCanonicalStorage:
    @settings(max_examples=150, deadline=None)
    @given(every_operation_st())
    def test_every_operation_against_fraction_oracles(self, ops):
        a, b, right, square = ops["a"], ops["b"], ops["right"], ops["square"]
        m = RationalMatrix(a)
        factors, col, row, scalar = ops["factors"], ops["col"], ops["row"], ops["scalar"]
        results = [
            (m @ RationalMatrix(right), fraction_matmul(a, right)),
            (m.transpose(), [list(c) for c in zip(*a)]),
            (m + RationalMatrix(b), [[x + y for x, y in zip(p, q)] for p, q in zip(a, b)]),
            (m - RationalMatrix(b), [[x - y for x, y in zip(p, q)] for p, q in zip(a, b)]),
            (-m, [[-x for x in p] for p in a]),
            (m.scale(scalar), [[scalar * x for x in p] for p in a]),
            (m.scale_columns(factors), [[x * f for x, f in zip(p, factors)] for p in a]),
            (m.add_outer(col, row), [[x + c * y for x, y in zip(p, row)] for p, c in zip(a, col)]),
        ]
        inverse = rref_inverse([list(p) for p in square])
        if inverse is not None:
            results.append((invert(RationalMatrix(square)), inverse))
            # K = S M has a left factor S over M whenever M has full row rank
            k_rows = fraction_matmul(square, a)
            expected = rref_left_factor(k_rows, a)
            if not isinstance(expected, type):
                results.append((solve_for_left_factor(RationalMatrix(k_rows), m), expected))
        for result, expected in results:
            assert [list(p) for p in result.row_tuples()] == expected
            assert result == RationalMatrix(expected)
            assert hash(result) == hash(RationalMatrix(expected))
            assert_canonical(result)

    @pytest.mark.parametrize(
        "rows",
        [[[-1]], [[0, 1], [1, 0]], [[1, 2], [3, 4]], [[Fraction(-1, 2), 3], [5, Fraction(7, 3)]]],
    )
    def test_inverse_with_a_negative_elimination_scale(self, rows):
        m = RationalMatrix(rows)
        inverse = invert(m)
        assert_canonical(inverse)
        assert inverse == RationalMatrix(rref_inverse([[Fraction(x) for x in r] for r in rows]))
        assert m @ inverse == identity(len(rows)) == inverse @ m

    def test_negative_scale_cases_reach_a_negative_d(self):
        # invert and solve divide by the last Bareiss pivot d, which is negative here
        assert exact_linalg._echelon([[-1, 1]]).d < 0
        assert exact_linalg._echelon([[1, 2, 1, 0], [3, 4, 0, 1]]).d < 0
        assert exact_linalg._echelon([[1, 3, 0, 0], [2, 4, 0, 0], [0, 1, 0, 0]]).d < 0

    def test_left_factor_with_a_negative_pivot_block(self):
        # W^T = [[1, 3], [2, 4], [0, 1]]: its leading block has determinant -2
        w = RationalMatrix([[1, 2, 0], [3, 4, 1]])
        c = RationalMatrix([[2, Fraction(-1, 3)], [1, 1]])
        solved = solve_for_left_factor(c @ w, w)
        assert solved == c
        assert_canonical(solved)


class TestConcurrency:
    def test_observational_determinism_under_threads(self):
        from concurrent.futures import ThreadPoolExecutor

        rng = Random(271)
        matrices = [random_matrix(rng, 3, 6) for _ in range(4)]
        matrices += [random_matrix(rng, 5, 8) for _ in range(4)]
        sequential = [all_maximal_minors(m) for m in matrices]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for _ in range(4):
                    # fresh copies without a table, each listed twice, so threads
                    # compute tables and may race to keep one on the same matrix
                    fresh = [RationalMatrix(m.row_tuples()) for m in matrices] * 2
                    threaded = list(pool.map(all_maximal_minors, fresh, timeout=120))
                    assert threaded == sequential * 2
                    assert [all_maximal_minors(m) for m in fresh] == sequential * 2
        finally:
            sys.setswitchinterval(interval)


class TestSubsetsAndSerialization:
    def test_colex_enumeration(self):
        subsets = [tuple(s.members) for s in subsets_colex(4, 2)]
        assert subsets == [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]

    def test_colex_lists_are_fresh(self):
        first = subsets_colex(5, 3)
        first.clear()
        again = subsets_colex(5, 3)
        assert len(again) == 10 and again is not first
        assert [s.members for s in again] == [s.members for s in subsets_colex(5, 3)]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 12))
    @example(0)
    @example(12)
    def test_rank_and_unrank_follow_the_enumeration(self, n):
        # every k <= n: position i of the enumeration has rank i and unranks to it
        for k in range(n + 1):
            members = exact_linalg._colex_members(n, k)
            assert [exact_linalg._colex_rank(c) for c in members] == list(range(len(members)))
            assert [exact_linalg._colex_unrank(i, k) for i in range(len(members))] == list(map(IndexSubset, members))

    def test_index_subset_validation(self):
        with pytest.raises(DimensionError):
            IndexSubset((2, 1))
        with pytest.raises(DimensionError):
            IndexSubset((0, 1))

    def test_rational_strings(self):
        assert rational_to_string(Fraction(3, 4)) == "3/4"
        assert rational_to_string(Fraction(-5)) == "-5"
        assert Fraction("3/4") == Fraction(3, 4)

    def test_matrix_json_round_trip(self):
        m = RationalMatrix([[Fraction(1, 3), 2], [Fraction(-7, 2), 0]])
        assert RationalMatrix.from_json_dict(m.to_json_dict()) == m

    def test_vandermonde_product_oracle(self):
        nodes = [Fraction(1), Fraction(2), Fraction(3)]
        m = RationalMatrix([[x ** i for x in nodes] for i in range(3)])
        assert det(m) == vandermonde_det(nodes) == 2

    def test_float_entries_rejected(self):
        with pytest.raises(TypeError):
            RationalMatrix([[0.5]])

    @pytest.mark.parametrize("rows", ["12", ["12"], [[1, 2], "34"]])
    def test_strings_as_rows_rejected(self, rows):
        # a string would otherwise be iterated as rows, or as a row of digits
        with pytest.raises(TypeError, match="string"):
            RationalMatrix(rows)

    def test_a_string_entry_is_one_entry(self):
        assert RationalMatrix([["12"]]) == RationalMatrix([[12]])
        assert RationalMatrix([["12", "3/4"]]).row_tuples()[0] == (12, Fraction(3, 4))

    @pytest.mark.parametrize("text", ["7", "-7", "+7", "3/4", "-6/8", "0/5"])
    def test_p_over_q_strings_parse(self, text):
        assert as_rational(text) == Fraction(text)

    @pytest.mark.parametrize("text", REJECTED_STRINGS)
    def test_other_strings_rejected(self, text):
        with pytest.raises(ValueError):
            as_rational(text)

    @pytest.mark.parametrize("value", [*REJECTED_STRINGS, True, 0.5])
    def test_matrix_parsers_reject_as_as_rational_does(self, value):
        with pytest.raises((TypeError, ValueError)) as expected:
            as_rational(value)
        builders = [
            lambda: RationalMatrix([[value]]),
            lambda: RationalMatrix.from_json_dict({"rows": 1, "cols": 1, "entries": [[value]]}),
        ]
        for build in builders:
            with pytest.raises((TypeError, ValueError)) as got:
                build()
            assert type(got.value) is type(expected.value)

    @pytest.mark.parametrize(
        "spelled, reduced",
        [("2/4", "1/2"), ("-6/8", "-3/4"), ("+7", "7"), ("0/5", "0"), (Fraction(2, 4), Fraction(1, 2))],
    )
    def test_unreduced_spellings_give_the_reduced_matrix(self, spelled, reduced):
        a = RationalMatrix([[spelled, "1/3"], ["-4/6", spelled]])
        b = RationalMatrix([[reduced, "1/3"], ["-2/3", reduced]])
        assert a == b and hash(a) == hash(b)
        assert canonical_json(a.to_json_dict()) == canonical_json(b.to_json_dict())
        assert a.int_rows == b.int_rows
        assert_canonical(a)


digits_st = st.builds(lambda zeros, p: "0" * zeros + str(p), st.integers(0, 3), st.integers(0, 10 ** 30))
string_entry_st = st.builds(
    lambda sign, p, q: sign + p + q,
    st.sampled_from(["", "+", "-"]),
    digits_st,
    st.just("") | st.builds(lambda zeros, q: "/" + "0" * zeros + str(q), st.integers(0, 2), st.integers(1, 10 ** 20)),
)
scalar_entry_st = string_entry_st | st.integers(-10 ** 30, 10 ** 30) | st.fractions(max_denominator=10 ** 6)


class TestParseRow:
    """``_parse_row`` reads a row at once, and agrees with the entry-by-entry parse."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(string_entry_st, min_size=1, max_size=12) | st.lists(scalar_entry_st, min_size=1, max_size=12))
    @example(["007", "+0/05", "-0", "-12/0008"])
    @example(["1", 2, Fraction(3, 4), "-5/6"])
    def test_a_valid_row_parses_as_its_entries(self, row):
        expected = parse_row_by_entry(row)
        assert exact_linalg._parse_row(row) == expected
        assert exact_linalg._parse_row(tuple(row)) == expected
        assert RationalMatrix([row]).int_rows == (expected,)

    @pytest.mark.parametrize("entry", HOSTILE_ENTRIES, ids=range(len(HOSTILE_ENTRIES)))
    @pytest.mark.parametrize("place", ["alone", "between", "last"])
    def test_a_hostile_entry_is_refused_as_by_entry(self, entry, place):
        row = {"alone": [entry], "between": ["1", entry, "2/3"], "last": ["-4/5", "6", entry]}[place]
        with pytest.raises((TypeError, ValueError)) as expected:
            parse_row_by_entry(row)
        with pytest.raises((TypeError, ValueError)) as got:
            RationalMatrix.from_json_dict({"rows": 1, "cols": len(row), "entries": [row]})
        assert type(got.value) is type(expected.value)
