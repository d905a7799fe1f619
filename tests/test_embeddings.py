"""Minor-coordinate vectors and projection-matrix embeddings."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnngrass import (
    DomainError,
    RankError,
    RationalMatrix,
    WellDefinednessError,
    build_setup,
    det,
    embed_point,
    pluecker,
    rank,
    sample_top_cell,
    veronese,
)
from helpers import identity, random_invertible, random_matrix, vandermonde_setup

nonzero_vector_st = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=4), min_size=1, max_size=6
).filter(lambda v: any(x != 0 for x in v))


class TestPluecker:
    def test_square_case_single_coordinate(self):
        m = RationalMatrix([[1, 2], [3, 4]])
        vec = pluecker(m)
        assert vec.d == 1
        assert vec.coords == (det(m),)

    def test_unit_block(self):
        vec = pluecker(RationalMatrix([[1, 0, 0], [0, 1, 0]]))
        assert vec.coords == (Fraction(1), Fraction(0), Fraction(0))

    def test_two_by_two_minors(self):
        vec = pluecker(RationalMatrix([[1, 1, 1], [1, 2, 3]]))
        assert vec.coords == (Fraction(1), Fraction(2), Fraction(1))

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankError):
            pluecker(RationalMatrix([[1, 2, 3], [2, 4, 6]]))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_left_action_scales_by_det(self, seed):
        rng = Random(seed)
        k = rng.randint(1, 3)
        m = random_matrix(rng, k, k + rng.randint(0, 2))
        if rank(m) < k:
            return
        g = random_invertible(rng, k)
        scaled = pluecker(g @ m)
        base = pluecker(m)
        factor = det(g)
        assert scaled.coords == tuple(factor * x for x in base.coords)


class TestVeronese:
    def test_coordinate_axis(self):
        out = veronese([1, 0])
        assert out.entries == RationalMatrix([[1, 0], [0, 0]])

    def test_diagonal_direction(self):
        out = veronese([1, 1])
        half = Fraction(1, 2)
        assert out.entries == RationalMatrix([[half, half], [half, half]])

    def test_direct_substitution(self):
        out = veronese([1, 2, 1])
        assert out.entries == RationalMatrix(
            [[Fraction(1, 6), Fraction(1, 3), Fraction(1, 6)],
             [Fraction(1, 3), Fraction(2, 3), Fraction(1, 3)],
             [Fraction(1, 6), Fraction(1, 3), Fraction(1, 6)]]
        )

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            veronese([0, 0, 0])

    @settings(max_examples=80, deadline=None)
    @given(nonzero_vector_st)
    def test_projection_invariants(self, vec):
        out = veronese(vec).entries
        d = len(vec)
        assert out == out.transpose()
        assert sum(out.entry(i, i) for i in range(d)) == 1
        assert out @ out == out
        assert rank(out) == 1

    @settings(max_examples=80, deadline=None)
    @given(nonzero_vector_st)
    def test_antipodal_identification(self, vec):
        assert veronese([-x for x in vec]).entries == veronese(vec).entries

    @settings(max_examples=50, deadline=None)
    @given(nonzero_vector_st, st.fractions(min_value=-4, max_value=4, max_denominator=3))
    def test_scale_invariance(self, vec, c):
        if c == 0:
            return
        assert veronese([c * x for x in vec]).entries == veronese(vec).entries


class TestEmbedPoint:
    def test_square_identity_case(self):
        setup = build_setup(2, 0, identity(2))
        out = embed_point(setup, RationalMatrix([[1, 0], [0, 1]]))
        assert out.entries == RationalMatrix([[1]])

    def test_representative_independence(self):
        rng = Random(113)
        setup = vandermonde_setup(2, 1, [Fraction(i) for i in (1, 2, 3, 4)])
        v = sample_top_cell(2, 4, [1, 2, 3, 4])
        base = embed_point(setup, v.matrix)
        for _ in range(10):
            g = random_invertible(rng, 2)
            assert embed_point(setup, g @ v.matrix).entries == base.entries

    def test_composition_oracle(self):
        # unit vector -> first column of Z -> minor coords (1,1,1) -> all 1/3
        setup = vandermonde_setup(1, 2, [Fraction(i) for i in (1, 2, 3, 4)])
        out = embed_point(setup, RationalMatrix([[1, 0, 0, 0]]))
        third = Fraction(1, 3)
        assert out.entries == RationalMatrix([[third] * 3] * 3)

    def test_antipodal_at_sample_level(self):
        # a representative and its negation embed identically
        setup = vandermonde_setup(1, 2, [Fraction(i) for i in (1, 2, 3, 4)])
        v = RationalMatrix([[2, 1, 1, 3]])
        assert embed_point(setup, v).entries == embed_point(setup, -v).entries

    def test_rank_drop_rejected(self):
        z = RationalMatrix([[1, 0, -1], [0, 1, -1]])
        setup = build_setup(1, 1, z)
        with pytest.raises(WellDefinednessError):
            embed_point(setup, RationalMatrix([[1, 1, 1]]))
