"""Positivity tests, matroid extraction, cell membership, sampling."""

import dataclasses
from fractions import Fraction
from math import comb
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnngrass import (
    DegeneracyError,
    DimensionError,
    DomainError,
    IndexSubset,
    PositroidCellSpec,
    RationalMatrix,
    TNNPoint,
    all_maximal_minors,
    check_tnn,
    in_closed_cell,
    matroid_of,
    sample_top_cell,
    zero_columns,
)
from tnngrass.cli import canonical_json
from tnngrass.exact_linalg import capped_comb
from helpers import (
    count_computed_tables,
    draw_nodes,
    identity,
    minors_of,
    random_positive_det,
    vandermonde_det,
)


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
        with pytest.raises(DegeneracyError):
            zero_columns(point, IndexSubset((2, 3)))

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
