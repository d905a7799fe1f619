"""Setup validation, the map on representatives, and the cyclic matrix."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import tnngrass.amplituhedron_map as map_mod
from tnngrass import (
    ConstructionError,
    DimensionError,
    InternalConsistencyError,
    RankError,
    RationalMatrix,
    UnsupportedParameterError,
    build_setup,
    build_z0,
    check_tnn,
    hat_map,
    kernel_basis,
    outer_product,
    rank,
    signs_alternate,
    IndexSubset,
)
from helpers import (
    count_eliminations,
    draw_nodes,
    identity,
    minor,
    mpmath_trig_rows,
    random_fraction,
    random_corank_one_setup,
    random_matrix,
    scaled_vandermonde_point,
    vandermonde_setup,
    zeros,
)


class TestBuildSetup:
    def test_minimal_corank_one(self):
        setup = build_setup(1, 0, RationalMatrix([[1, 1]]))
        assert setup.kernel_gen == (Fraction(1), Fraction(-1))
        assert setup.kernel_alternating

    def test_kernel_generator_must_be_annihilated(self, monkeypatch):
        # a one-dimensional "kernel" that Z does not kill would make the
        # fiber module's same-fiber test unsound
        z = RationalMatrix([[1, 1, 1], [1, 2, 3]])
        assert build_setup(1, 1, z).kernel_gen == (Fraction(1), Fraction(-2), Fraction(1))
        monkeypatch.setattr(
            map_mod, "_kernel_from_table", lambda minors: (Fraction(1), Fraction(-1), Fraction(1))
        )
        with pytest.raises(InternalConsistencyError, match="not annihilated"):
            build_setup(1, 1, z)

    def test_vandermonde_positive_and_alternating(self):
        setup = vandermonde_setup(1, 2, [Fraction(i) for i in (1, 2, 3, 4)])
        assert setup.all_minors_positive
        assert check_tnn(setup.Z).is_tnn
        assert signs_alternate(setup.kernel_gen)

    def test_repeated_columns_give_zero_kernel_entry(self):
        z = RationalMatrix([[1, 1, 0], [0, 0, 1]])
        setup = build_setup(1, 1, z)
        assert not setup.all_minors_positive
        assert any(x == 0 for x in setup.kernel_gen)
        assert setup.kernel_alternating is False

    def test_rank_error(self):
        with pytest.raises(RankError):
            build_setup(1, 1, RationalMatrix([[1, 2, 3], [2, 4, 6]]))

    def test_no_kernel_without_corank_one(self):
        setup = build_setup(1, 1, identity(2))
        assert setup.kernel_gen is None
        assert setup.kernel_alternating is None

    def test_kernel_canonical_leading_sign(self):
        setup = vandermonde_setup(2, 1, [Fraction(i) for i in (1, 2, 3, 5)])
        assert setup.kernel_gen[0] > 0


class TestKernelFromTable:
    """The generator read off Z's table against an elimination of Z."""

    @pytest.mark.parametrize("k, m", [(1, 2), (2, 2), (2, 4), (3, 2)])
    def test_matches_kernel_basis(self, k, m):
        rng = Random(211 + 10 * k + m)
        checked = 0
        while checked < 10:
            # entries in [-2, 2] leave some matrices with zero or repeated columns
            z = random_matrix(rng, k + m, k + m + 1, lo=-2, hi=2, max_den=2)
            if rank(z) < k + m:
                continue
            setup = build_setup(k, m, z)
            assert setup.kernel_gen == kernel_basis(z)[0]
            checked += 1

    @pytest.mark.parametrize(
        "rows, expected",
        [
            ([[1, 1, 0], [0, 0, 1]], (1, -1, 0)),
            ([[1, 0, 2], [3, 0, 4]], (0, 1, 0)),
            ([[0, 1, 0], [0, 0, 1]], (1, 0, 0)),
            ([[1, 2, 3], [-1, 0, 5]], (1, Fraction(-4, 5), Fraction(1, 5))),
        ],
    )
    def test_non_positive_setups(self, rows, expected):
        z = RationalMatrix(rows)
        setup = build_setup(1, 1, z)
        assert setup.kernel_gen == kernel_basis(z)[0] == tuple(map(Fraction, expected))

    def test_positive_setups(self):
        rng = Random(223)
        for k, m in [(1, 2), (2, 2), (2, 4), (3, 2)]:
            for setup in (random_corank_one_setup(rng, k, m), build_z0(k, m)):
                assert setup.kernel_gen == kernel_basis(setup.Z)[0]

    def test_build_setup_makes_no_kernel_elimination(self, monkeypatch):
        eliminations = count_eliminations(monkeypatch)
        z = RationalMatrix([[1, 1, 1, 1], [1, 2, 3, 4], [1, 4, 9, 16]])
        setup = build_setup(1, 2, z)
        # a 3 x 4 table is expanded directly, so nothing is eliminated
        assert eliminations == []
        assert setup.kernel_gen == (1, -3, 3, -1)
        # the image setups' 6 x 7 table eliminates once, and that is the only elimination
        z = RationalMatrix([[x ** i for x in range(1, 8)] for i in range(6)])
        setup = build_setup(2, 4, z)
        assert eliminations == [6]
        assert setup.kernel_gen == (1, -6, 15, -20, 15, -6, 1)


class TestHatMap:
    def test_identity_z_is_identity_on_representatives(self):
        setup = build_setup(2, 1, identity(3))
        v = RationalMatrix([[1, 2, 3], [0, 1, 1]])
        mapped = hat_map(setup, v)
        assert mapped.image == v
        assert mapped.image_rank == rank(v)

    def test_kernel_vector_maps_to_zero(self):
        setup = build_setup(1, 0, RationalMatrix([[1, 1]]))
        mapped = hat_map(setup, RationalMatrix([[1, -1]]))
        assert mapped.image == RationalMatrix([[0]])
        assert mapped.image_rank == 0

    def test_unit_vector_selects_column(self):
        setup = vandermonde_setup(1, 2, [Fraction(i) for i in (1, 2, 3, 4)])
        mapped = hat_map(setup, RationalMatrix([[1, 0, 0, 0]]))
        assert mapped.image == RationalMatrix([[1, 1, 1]])

    def test_linearity(self):
        rng = Random(31)
        setup = vandermonde_setup(2, 1, draw_nodes(rng, 4))
        for _ in range(20):
            u = random_matrix(rng, 2, 4)
            v = random_matrix(rng, 2, 4)
            alpha, beta = random_fraction(rng), random_fraction(rng)
            combo = u.scale(alpha) + v.scale(beta)
            lhs = hat_map(setup, combo).image
            rhs = hat_map(setup, u).image.scale(alpha) + hat_map(setup, v).image.scale(beta)
            assert lhs == rhs

    def test_equivariance(self):
        rng = Random(37)
        setup = vandermonde_setup(2, 2, draw_nodes(rng, 5))
        for _ in range(20):
            v = random_matrix(rng, 2, 5)
            g = random_matrix(rng, 2, 2)
            assert hat_map(setup, g @ v).image == g @ hat_map(setup, v).image

    def test_kernel_direction_annihilated(self):
        rng = Random(41)
        setup = vandermonde_setup(2, 1, draw_nodes(rng, 4))
        a = setup.kernel_gen
        for _ in range(20):
            x = tuple(random_fraction(rng) for _ in range(2))
            mapped = hat_map(setup, outer_product(x, a))
            assert mapped.image == zeros(2, 3)

    def test_dimension_mismatch(self):
        setup = build_setup(1, 0, RationalMatrix([[1, 1]]))
        with pytest.raises(DimensionError):
            hat_map(setup, RationalMatrix([[1, 2, 3]]))


class TestWellDefinedness:
    """The map on spans is defined where the image keeps rank k."""

    def test_positive_z_never_fails(self):
        rng = Random(43)
        setup = vandermonde_setup(2, 2, draw_nodes(rng, 5))
        for _ in range(100):
            point = scaled_vandermonde_point(rng, 2, 5)
            assert hat_map(setup, point.matrix).image_rank == 2

    def test_adversarial_z_found_by_brute_force(self):
        # columns (1,0), (0,1), (-1,-1): the all-ones TNN row maps to zero
        z = RationalMatrix([[1, 0, -1], [0, 1, -1]])
        setup = build_setup(1, 1, z)
        assert not setup.all_minors_positive
        ranks = {
            (a, b, c): hat_map(setup, RationalMatrix([[a, b, c]])).image_rank
            for a in range(3)
            for b in range(3)
            for c in range(3)
            if (a, b, c) != (0, 0, 0)
        }
        assert min(ranks.values()) == 0
        assert [row for row, r in ranks.items() if r == 0] == [(1, 1, 1), (2, 2, 2)]


class TestBuildZ0:
    def test_k1_m2_exact_rows(self):
        setup = build_z0(1, 2)
        assert setup.Z == RationalMatrix(
            [[1, 1, 1, 1], [1, 0, -1, 0], [0, 1, 0, -1]]
        )
        assert minor(setup.Z, IndexSubset((1, 2, 3)), IndexSubset((1, 2, 3))) == 2

    def test_k1_m2_kernel(self):
        setup = build_z0(1, 2)
        assert setup.kernel_gen == (
            Fraction(1), Fraction(-1), Fraction(1), Fraction(-1)
        )

    def test_twisted_shift_case_positive(self):
        setup = build_z0(2, 2)
        assert setup.all_minors_positive
        assert setup.kernel_alternating
        assert setup.n == 5

    @pytest.mark.parametrize("k,m", [(1, 2), (2, 2), (3, 2), (2, 4)])
    def test_all_configs_verified(self, k, m):
        setup = build_z0(k, m)
        assert setup.all_minors_positive
        assert setup.kernel_alternating
        assert setup.n == k + m + 1

    def test_odd_m_rejected(self):
        with pytest.raises(UnsupportedParameterError):
            build_z0(1, 1)

    def test_low_precision_rejected(self):
        with pytest.raises(UnsupportedParameterError):
            build_z0(1, 2, precision_digits=4)

    @pytest.mark.parametrize("k,m", [(2, 62), (1, 64), (64, 0)])
    def test_more_than_64_columns_refused_before_any_entry(self, monkeypatch, k, m):
        monkeypatch.setattr(map_mod, "_trig_rows", lambda *args: pytest.fail("entries built"))
        with pytest.raises(UnsupportedParameterError, match="exceed the z0 limit of 64"):
            build_z0(k, m)

    def test_higher_precision_also_verifies(self):
        setup = build_z0(2, 2, precision_digits=20)
        assert setup.all_minors_positive


class TestBuildZ0Retries:
    """``build_z0``'s retries, on (k, m) = (1, 2) rows that stand in for ``_trig_rows``'s estimates."""

    Z0_ROWS = [[1, 1, 1, 1], [1, 0, -1, 0], [0, 1, 0, -1]]

    @staticmethod
    def _estimates(monkeypatch, rows_at):
        """Replace the estimates by ``rows_at(digits)``; the precisions asked for, in order."""
        asked = []

        def estimates(k, m, n, digits):
            asked.append(digits)
            return [[Fraction(x) for x in row] for row in rows_at(digits)]

        monkeypatch.setattr(map_mod, "_trig_rows", estimates)
        return asked

    def test_rank_deficient_candidate_is_retried_at_doubled_precision(self, monkeypatch):
        # rank 2 at 12 digits, the last row the sum of the others: every minor vanishes
        deficient = [[1, 1, 1, 1], [1, 0, -1, 0], [2, 1, 0, 1]]
        asked = self._estimates(monkeypatch, lambda digits: deficient if digits == 12 else self.Z0_ROWS)
        setup = build_z0(1, 2)
        assert asked == [12, 24]
        assert setup.Z == RationalMatrix(self.Z0_ROWS) and setup.all_minors_positive

    def test_negatively_oriented_candidate_is_flipped(self, monkeypatch):
        negated = [[-x for x in self.Z0_ROWS[0]], *self.Z0_ROWS[1:]]
        asked = self._estimates(monkeypatch, lambda digits: negated)
        setup = build_z0(1, 2)
        assert asked == [12]
        assert setup.Z == RationalMatrix(self.Z0_ROWS) and setup.kernel_alternating

    def test_candidate_that_never_verifies_raises(self, monkeypatch):
        # Vandermonde rows at nodes 1, 2, 4, 3: the leading minor is positive,
        # the one on columns 1, 3, 4 negative, at every precision
        mixed = [[x ** i for x in (1, 2, 4, 3)] for i in range(3)]
        asked = self._estimates(monkeypatch, lambda digits: mixed)
        with pytest.raises(ConstructionError, match="no rationalization up to 640 digits"):
            build_z0(1, 2)
        assert asked == [12, 24, 48, 96, 192, 384]


class TestTrigRows:
    """The integer entry estimates equal mpmath's, value for value."""

    @pytest.mark.parametrize("digits", [8, 12, 24, 48, 96, 192, 384, 640])
    def test_matches_mpmath_on_grid(self, digits):
        for k in range(1, 9):
            for m in range(0, 11, 2):
                n = k + m + 1
                assert map_mod._trig_rows(k, m, n, digits) == mpmath_trig_rows(k, m, n, digits), (k, m)

    # The rows depend on n only through the angles p*pi/n with p < k+m, so n
    # is drawn apart from k+m, which keeps the oracle's cost small.
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 60),
        k=st.integers(1, 5),
        m=st.sampled_from([0, 2, 4]),
        digits=st.integers(8, 640),
    )
    def test_matches_mpmath(self, n, k, m, digits):
        k = min(k, n - 1)
        m = min(m, (n - 1 - k) // 2 * 2)
        assert map_mod._trig_rows(k, m, n, digits) == mpmath_trig_rows(k, m, n, digits)
