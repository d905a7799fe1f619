"""Fiber displacement, convexity certificates, and the section witness."""

import dataclasses
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tnngrass.fiber as fiber_mod
from tnngrass import (
    FiberMismatchError,
    IndexSubset,
    InternalConsistencyError,
    NotInCellError,
    PositroidCellSpec,
    RankError,
    RationalMatrix,
    TNNPoint,
    UnsupportedParameterError,
    WellDefinednessError,
    all_maximal_minors,
    build_setup,
    check_tnn,
    convexity_certificate,
    fiber_displacement,
    in_closed_cell,
    matroid_of,
    outer_product,
    rank,
    rational_to_string,
    sample_fiber_partner,
    sample_top_cell,
    section_witness,
    subsets_colex,
    zero_columns,
)
from helpers import (
    count_computed_tables,
    fraction_certificate,
    fraction_fiber_partner,
    identity,
    make_fiber_pair,
    minor,
    minor_affine_coeffs,
    minors_of,
    random_corank_one_setup,
    random_fraction,
    random_positive_det,
    scaled_vandermonde_point,
    stack_below,
    vandermonde_setup,
    zeros,
)


def assert_certificate_matches(cert, per_minor):
    """Coefficients and written minors of ``cert`` against the oracle's (subset, alpha, beta)."""
    table = cert.u_minors
    assert [(s, *cert.coefficients(s)) for s in subsets_colex(table.n, table.k)] == per_minor
    assert cert.to_json_dict()["minors"] == [
        {"cols": list(s.members), "alpha": rational_to_string(alpha), "beta": rational_to_string(beta)}
        for s, alpha, beta in per_minor
    ]


def minor_at_lambda(u, x, a, lam, cols):
    """Direct evaluation oracle: build the matrix at lambda, take the minor."""
    step = outer_product(tuple(lam * xi for xi in x), a)
    rows_all = IndexSubset(tuple(range(1, u.rows + 1)))
    return minor(u + step, rows_all, cols)


class TestFiberDisplacement:
    def test_zero_for_equal_points(self):
        setup = vandermonde_setup(1, 2, [Fraction(i) for i in (1, 2, 3, 4)])
        u = RationalMatrix([[1, 1, 1, 1]])
        assert fiber_displacement(setup, u, u) == (Fraction(0),)

    def test_inverts_definition(self):
        setup = vandermonde_setup(2, 1, [Fraction(i) for i in (1, 2, 3, 4)])
        u = sample_top_cell(2, 4, [1, 2, 3, 4]).matrix
        a = setup.kernel_gen
        v = u + outer_product((Fraction(1), Fraction(0)), a)
        assert fiber_displacement(setup, u, v) == (Fraction(1), Fraction(0))

    def test_random_round_trip(self):
        rng = Random(51)
        for _ in range(25):
            k, m = rng.choice([(1, 2), (2, 1), (2, 2)])
            setup = random_corank_one_setup(rng, k, m)
            u = scaled_vandermonde_point(rng, k, setup.n).matrix
            x0 = tuple(random_fraction(rng) for _ in range(k))
            v = u + outer_product(x0, setup.kernel_gen)
            assert fiber_displacement(setup, u, v) == x0

    def test_fiber_mismatch(self):
        setup = vandermonde_setup(1, 2, [Fraction(i) for i in (1, 2, 3, 4)])
        u = RationalMatrix([[1, 1, 1, 1]])
        v = RationalMatrix([[1, 1, 1, 2]])
        with pytest.raises(FiberMismatchError):
            fiber_displacement(setup, u, v)

    def test_unsupported_corank(self):
        setup = build_setup(1, 1, identity(2))
        with pytest.raises(UnsupportedParameterError):
            fiber_displacement(setup, RationalMatrix([[1, 0]]), RationalMatrix([[1, 0]]))

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        k=st.integers(1, 3),
        m=st.integers(0, 2),
        perturb=st.booleans(),
    )
    def test_mismatch_exactly_when_images_differ(self, seed, k, m, perturb):
        # oracle: the two images under v -> v Z^T, compared entrywise
        rng = Random(seed)
        setup = random_corank_one_setup(rng, k, m)
        u = scaled_vandermonde_point(rng, k, setup.n).matrix
        x0 = tuple(random_fraction(rng) for _ in range(k))
        v = u + outer_product(x0, setup.kernel_gen)
        if perturb:
            i, j = rng.randrange(k), rng.randrange(setup.n)
            rows = [list(row) for row in v.row_tuples()]
            rows[i][j] += random_fraction(rng, 1, 9)
            v = RationalMatrix(rows)
        zt = setup.Z.transpose()
        if u @ zt == v @ zt:
            x = fiber_displacement(setup, u, v)
            assert u + outer_product(x, setup.kernel_gen) == v
        else:
            with pytest.raises(FiberMismatchError):
                fiber_displacement(setup, u, v)


class TestMinorAffineCoeffs:
    def test_zero_displacement(self):
        u = RationalMatrix([[1, 1, 1], [1, 2, 3]])
        a = (Fraction(1), Fraction(-2), Fraction(1))
        x = (Fraction(0), Fraction(0))
        cols = IndexSubset((1, 2))
        alpha, beta = minor_affine_coeffs(u, x, a, cols)
        assert beta == 0
        assert alpha == minor(u, IndexSubset((1, 2)), cols)

    def test_k1_worked_example(self):
        u = RationalMatrix([[1, 0]])
        a = (Fraction(1), Fraction(-1))
        x = (Fraction(1),)
        alpha, beta = minor_affine_coeffs(u, x, a, IndexSubset((2,)))
        assert (alpha, beta) == (Fraction(0), Fraction(-1))

    def test_k2_three_point_fit_oracle(self):
        setup = vandermonde_setup(2, 0, [Fraction(i) for i in (1, 2, 3)])
        a = setup.kernel_gen
        u = RationalMatrix([[1, 1, 1], [1, 2, 3]])
        x = (Fraction(1, 2), Fraction(-1, 3))
        for cols in (IndexSubset((1, 2)), IndexSubset((1, 3)), IndexSubset((2, 3))):
            alpha, beta = minor_affine_coeffs(u, x, a, cols)
            m0 = minor_at_lambda(u, x, a, Fraction(0), cols)
            m1 = minor_at_lambda(u, x, a, Fraction(1), cols)
            m2 = minor_at_lambda(u, x, a, Fraction(2), cols)
            assert (alpha, beta) == (m0, m1 - m0)
            assert m2 == alpha + 2 * beta

    def test_fresh_point_affinity(self):
        # the fitted line predicts a point never used in the fit
        rng = Random(61)
        for _ in range(20):
            setup = random_corank_one_setup(rng, 2, 2)
            u = scaled_vandermonde_point(rng, 2, 5).matrix
            x = tuple(random_fraction(rng) for _ in range(2))
            a = setup.kernel_gen
            cols = IndexSubset((2, 4))
            alpha, beta = minor_affine_coeffs(u, x, a, cols)
            assert minor_at_lambda(u, x, a, Fraction(3), cols) == alpha + 3 * beta


class TestConvexityCertificate:
    def test_equal_endpoints(self):
        setup = vandermonde_setup(1, 2, [Fraction(i) for i in (1, 2, 3, 4)])
        cell = PositroidCellSpec.top_cell(1, 4)
        u = RationalMatrix([[1, 1, 1, 1]])
        cert = convexity_certificate(setup, cell, u, u)
        assert cert.verdict
        assert all(cert.coefficients(s)[1] == 0 for s in subsets_colex(4, 1))

    def test_top_cell_random_pairs_with_grid_spot_check(self):
        rng = Random(71)
        setup = vandermonde_setup(1, 2, [Fraction(i) for i in (1, 2, 3, 4)])
        cell = PositroidCellSpec.top_cell(1, 4)
        for _ in range(10):
            point = scaled_vandermonde_point(rng, 1, 4)
            pair = sample_fiber_partner(setup, cell, point, rng)
            cert = convexity_certificate(setup, cell, pair.u, pair.v)
            assert cert.verdict
            # direct evaluation at the 11-point grid, no reuse of (alpha, beta)
            for i in range(11):
                lam = Fraction(i, 10)
                blend = pair.u.scale(1 - lam) + pair.v.scale(lam)
                assert check_tnn(blend).is_tnn

    def test_proper_cell_nonbasis_minors_vanish(self):
        rng = Random(73)
        setup = vandermonde_setup(2, 1, [Fraction(i) for i in (1, 2, 3, 4)])
        point = sample_top_cell(2, 4, [1, 2, 3, 4])
        zeroed = TNNPoint.from_matrix(zero_columns(point, IndexSubset((2,))))
        cell = matroid_of(zeroed)
        assert not cell.is_top
        pair = sample_fiber_partner(setup, cell, zeroed, rng)
        cert = convexity_certificate(setup, cell, pair.u, pair.v)
        assert cert.verdict
        for subset in cell.nonbases:
            alpha, beta = cert.coefficients(subset)
            assert alpha == 0 and beta == 0
            # direct midpoint evaluation
            assert minor_at_lambda(pair.u, pair.x, setup.kernel_gen, Fraction(1, 2), subset) == 0

    def test_not_in_cell_reported_distinctly(self):
        setup = vandermonde_setup(1, 2, [Fraction(i) for i in (1, 2, 3, 4)])
        cell = PositroidCellSpec(k=1, n=4, nonbases=frozenset({IndexSubset((4,))}))
        u = RationalMatrix([[1, 1, 1, 1]])
        with pytest.raises(NotInCellError):
            convexity_certificate(setup, cell, u, u)

    def test_no_matrix_product(self, monkeypatch):
        rng = Random(131)
        setup = random_corank_one_setup(rng, 2, 2)
        cell = PositroidCellSpec.top_cell(2, 5)
        pair = sample_fiber_partner(setup, cell, scaled_vandermonde_point(rng, 2, 5), rng)
        products = []
        matmul = RationalMatrix.__matmul__

        def counted(left, right):
            products.append((left, right))
            return matmul(left, right)

        monkeypatch.setattr(RationalMatrix, "__matmul__", counted)
        convexity_certificate(setup, cell, pair.u, pair.v)
        assert products == []

    @pytest.mark.parametrize("alpha", [-1, 0, 1])
    @pytest.mark.parametrize("beta", [-2, -1, 0, 1])
    @pytest.mark.parametrize("nonbasis", [False, True])
    def test_segment_rule(self, alpha, beta, nonbasis):
        # the rule as first written: nonnegative at both ends, and a
        # nonbasis minor identically zero
        expected = alpha >= 0 and alpha + beta >= 0 and not (nonbasis and (alpha or beta))
        assert fiber_mod.segment_in_cell(Fraction(alpha), Fraction(beta), nonbasis) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        k=st.integers(1, 3),
        m=st.integers(0, 2),
        zeroed=st.booleans(),
    )
    def test_verdict_is_the_segment_rule_over_every_minor(self, seed, k, m, zeroed):
        # the verdict is set from the ends' membership; the rule that report
        # applies to each written (alpha, beta) must agree with it
        rng = Random(seed)
        setup = random_corank_one_setup(rng, k, m)
        point = scaled_vandermonde_point(rng, k, setup.n)
        if zeroed:
            point = TNNPoint.from_matrix(zero_columns(point, IndexSubset((rng.randint(1, setup.n),))))
            cell = matroid_of(point)
        else:
            cell = PositroidCellSpec.top_cell(k, setup.n)
        sampled = sample_fiber_partner(setup, cell, point, rng).v
        x = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 40)) for _ in range(k))
        for v in (sampled, point.matrix.add_outer(x, setup.kernel_gen)):
            try:
                cert = convexity_certificate(setup, cell, point.matrix, v)
            except NotInCellError:
                assert not in_closed_cell(v, cell)
                continue
            rule = all(
                fiber_mod.segment_in_cell(*cert.coefficients(s), s in cell.nonbases)
                for s in subsets_colex(cert.u_minors.n, cert.u_minors.k)
            )
            assert cert.verdict is rule is True

    def test_not_same_fiber_reported_distinctly(self):
        setup = vandermonde_setup(1, 2, [Fraction(i) for i in (1, 2, 3, 4)])
        cell = PositroidCellSpec.top_cell(1, 4)
        u = RationalMatrix([[1, 1, 1, 1]])
        v = RationalMatrix([[2, 1, 1, 1]])
        with pytest.raises(FiberMismatchError):
            convexity_certificate(setup, cell, u, v)

    def test_certificate_soundness_101_grid(self):
        # independent re-check of the certified segment on a fine grid
        rng = Random(79)
        setup = random_corank_one_setup(rng, 2, 2)
        cell = PositroidCellSpec.top_cell(2, 5)
        point = scaled_vandermonde_point(rng, 2, 5)
        pair = sample_fiber_partner(setup, cell, point, rng)
        cert = convexity_certificate(setup, cell, pair.u, pair.v)
        assert cert.verdict
        for i in range(101):
            lam = Fraction(i, 100)
            blend = pair.u.scale(1 - lam) + pair.v.scale(lam)
            assert in_closed_cell(blend, cell)

    def test_segment_convexity_at_sample_level(self):
        rng = Random(83)
        for _ in range(15):
            k, m = rng.choice([(1, 2), (2, 1), (2, 2)])
            setup = random_corank_one_setup(rng, k, m)
            cell = PositroidCellSpec.top_cell(k, setup.n)
            point = scaled_vandermonde_point(rng, k, setup.n)
            pair = sample_fiber_partner(setup, cell, point, rng)
            lam = Fraction(rng.randint(0, 64), 64)
            blend = pair.u.scale(1 - lam) + pair.v.scale(lam)
            assert check_tnn(blend).is_tnn

    @pytest.mark.parametrize("position", [0, 7, -1])
    @pytest.mark.parametrize("delta", [1, -1])
    def test_lambda_two_table_off_by_one(self, monkeypatch, position, delta):
        rng = Random(137)
        setup = random_corank_one_setup(rng, 3, 2)
        cell = PositroidCellSpec.top_cell(3, 6)
        pair = sample_fiber_partner(setup, cell, scaled_vandermonde_point(rng, 3, 6), rng)
        matrices, tables = [], []

        def tampered(matrix):
            table = all_maximal_minors(matrix)
            matrices.append(matrix)
            tables.append(table)
            if len(tables) < 3:
                return table
            # the third table is the independent one at lambda = 2
            ints = list(table.ints)
            ints[position] += delta
            return dataclasses.replace(table, ints=tuple(ints))

        monkeypatch.setattr(fiber_mod, "all_maximal_minors", tampered)
        with pytest.raises(InternalConsistencyError, match="not affine") as raised:
            convexity_certificate(setup, cell, pair.u, pair.v)
        # the message names the tampered minor's subset, unranked from its position
        assert f"columns {list(subsets_colex(6, 3)[position].members)} " in str(raised.value)
        assert len(tables) == 3
        # the tampered copy was returned, never kept: each matrix holds its own table
        for matrix, table in zip(matrices, tables):
            assert all_maximal_minors(matrix) is table
            assert table == all_maximal_minors(RationalMatrix(matrix.row_tuples()))
        monkeypatch.undo()
        assert convexity_certificate(setup, cell, pair.u, pair.v).verdict

    def test_json_shape(self):
        setup = vandermonde_setup(1, 2, [Fraction(i) for i in (1, 2, 3, 4)])
        cell = PositroidCellSpec.top_cell(1, 4)
        u = RationalMatrix([[1, 1, 1, 1]])
        payload = convexity_certificate(setup, cell, u, u).to_json_dict()
        assert payload["verdict"] is True
        assert len(payload["minors"]) == 4
        assert set(payload["minors"][0]) == {"cols", "alpha", "beta"}


class TestSectionWitness:
    def test_already_matching_representative(self):
        setup = vandermonde_setup(2, 1, [Fraction(i) for i in (1, 2, 3, 4)])
        k_rep = sample_top_cell(2, 4, [1, 2, 3, 4]).matrix
        w = k_rep @ setup.Z.transpose()
        witness = section_witness(setup, k_rep, w)
        assert witness.c == identity(2)
        assert witness.result == k_rep
        assert witness.det_c == 1

    def test_representative_independence(self):
        # psi is well defined on the span: G K gives the same section value
        rng = Random(89)
        setup = random_corank_one_setup(rng, 2, 2)
        k_rep = scaled_vandermonde_point(rng, 2, 5).matrix
        w = (k_rep + outer_product((Fraction(1, 9), Fraction(0)), setup.kernel_gen)) @ setup.Z.transpose()
        base = section_witness(setup, k_rep, w)
        for _ in range(10):
            g = random_positive_det(rng, 2)
            again = section_witness(setup, g @ k_rep, w)
            assert again.result == base.result

    def test_target_scaling(self):
        rng = Random(97)
        setup = random_corank_one_setup(rng, 2, 1)
        k_rep = scaled_vandermonde_point(rng, 2, 4).matrix
        w = k_rep @ setup.Z.transpose()
        base = section_witness(setup, k_rep, w)
        c = Fraction(3, 2)
        scaled = section_witness(setup, k_rep, w.scale(c))
        assert scaled.result == base.result.scale(c)
        assert scaled.det_c > 0

    def test_round_trip_phi_psi(self):
        # span(section(...)) recovers the original span
        rng = Random(101)
        setup = random_corank_one_setup(rng, 2, 2)
        k_rep = scaled_vandermonde_point(rng, 2, 5).matrix
        w = k_rep @ setup.Z.transpose()
        witness = section_witness(setup, k_rep, w)
        stacked = stack_below(witness.result, k_rep)
        assert rank(stacked) == 2

    def test_round_trip_psi_phi_exact(self):
        rng = Random(103)
        for _ in range(15):
            k, m = rng.choice([(1, 2), (2, 1), (2, 2)])
            setup = random_corank_one_setup(rng, k, m)
            u = scaled_vandermonde_point(rng, k, setup.n).matrix
            witness = section_witness(setup, u, u @ setup.Z.transpose())
            assert witness.result == u
            assert witness.det_c > 0

    def test_span_mismatch(self):
        setup = vandermonde_setup(2, 1, [Fraction(i) for i in (1, 2, 3, 4)])
        k_rep = sample_top_cell(2, 4, [1, 2, 3, 4]).matrix
        w = RationalMatrix([[1, 0, 0], [0, 0, 1]])
        with pytest.raises(FiberMismatchError):
            section_witness(setup, k_rep, w)

    def test_degenerate_target(self):
        setup = vandermonde_setup(2, 1, [Fraction(i) for i in (1, 2, 3, 4)])
        k_rep = sample_top_cell(2, 4, [1, 2, 3, 4]).matrix
        with pytest.raises(RankError):
            section_witness(setup, k_rep, zeros(2, 3))

    def test_degenerate_target_off_span(self):
        # rank 1 and outside span(K Z^T): the rank failure is reported
        setup = vandermonde_setup(2, 1, [Fraction(i) for i in (1, 2, 3, 4)])
        k_rep = sample_top_cell(2, 4, [1, 2, 3, 4]).matrix
        w = RationalMatrix([[1, 0, 0], [2, 0, 0]])
        assert rank(w) == 1
        assert rank(stack_below(k_rep @ setup.Z.transpose(), w)) == 3
        with pytest.raises(RankError):
            section_witness(setup, k_rep, w)

    def test_full_rank_representative_with_a_lower_rank_image(self):
        # K = [a; e_1] has rank 2, but a spans ker Z, so K Z^T has rank 1:
        # C is singular, and span(K) maps to no point of the image
        setup = vandermonde_setup(2, 1, [Fraction(i) for i in (1, 2, 3, 4)])
        k_rep = RationalMatrix([setup.kernel_gen, [1, 0, 0, 0]])
        w = RationalMatrix([[1, 1, 1], [0, 0, 1]])
        assert rank(k_rep) == 2 and rank(k_rep @ setup.Z.transpose()) == 1
        with pytest.raises(WellDefinednessError):
            section_witness(setup, k_rep, w)

    def test_one_rank_call(self, monkeypatch):
        rng = Random(137)
        setup = random_corank_one_setup(rng, 2, 2)
        k_rep = scaled_vandermonde_point(rng, 2, 5).matrix
        w = k_rep @ setup.Z.transpose()
        calls = []

        def counted(matrix):
            calls.append(matrix)
            return rank(matrix)

        monkeypatch.setattr(fiber_mod, "rank", counted)
        section_witness(setup, k_rep, w)
        assert calls == [k_rep]


class FirstDraw(Random):
    """Makes the sampler draw d = (-3/8, ...): the first choice, the smallest integer."""

    def choice(self, seq):
        return seq[0]

    def randint(self, a, b):
        return a


class TestFiberPairSampling:
    def test_pair_validates(self):
        rng = Random(107)
        setup = random_corank_one_setup(rng, 2, 2)
        cell = PositroidCellSpec.top_cell(2, 5)
        point = scaled_vandermonde_point(rng, 2, 5)
        pair = sample_fiber_partner(setup, cell, point, rng)
        rebuilt = make_fiber_pair(setup, pair.u, pair.v)
        assert rebuilt.x == pair.x
        assert in_closed_cell(pair.v, cell)

    def test_zero_column_cell_forces_trivial_pair(self):
        # the kernel generator has no zero entries, so no nonzero multiple
        # of it can preserve a zeroed column
        rng = Random(109)
        setup = vandermonde_setup(2, 1, [Fraction(i) for i in (1, 2, 3, 4)])
        point = sample_top_cell(2, 4, [1, 2, 3, 4])
        zeroed = TNNPoint.from_matrix(zero_columns(point, IndexSubset((1,))))
        cell = matroid_of(zeroed)
        pair = sample_fiber_partner(setup, cell, zeroed, rng)
        assert pair.u == pair.v
        assert all(entry == 0 for entry in pair.x)

    @pytest.mark.parametrize("zeroed", [False, True], ids=["top-cell", "zeroed-column"])
    def test_one_minor_table_per_call(self, monkeypatch, zeroed):
        rng = Random(113)
        setup = random_corank_one_setup(rng, 3, 2)
        point = scaled_vandermonde_point(rng, 3, 6)
        if zeroed:
            point = TNNPoint.from_matrix(zero_columns(point, IndexSubset((4,))))
        cell = matroid_of(point)
        # the point's own table is already computed; only U + d^T a's is new
        tables = count_computed_tables(monkeypatch)
        for _ in range(5):
            tables.clear()
            sample_fiber_partner(setup, cell, point, rng)
            assert len(tables) == 1

    @pytest.mark.parametrize("zeroed", [False, True], ids=["top-cell", "zeroed-column"])
    def test_certificate_reuses_the_sampled_tables(self, monkeypatch, zeroed):
        rng = Random(127)
        setup = random_corank_one_setup(rng, 3, 2)
        point = scaled_vandermonde_point(rng, 3, 6)
        if zeroed:
            point = TNNPoint.from_matrix(zero_columns(point, IndexSubset((4,))))
        cell = matroid_of(point)
        tables = count_computed_tables(monkeypatch)
        pair = sample_fiber_partner(setup, cell, point, rng)
        assert len(tables) == 1  # U + d^T a
        assert pair.u is point.matrix and (pair.v is pair.u) == zeroed
        convexity_certificate(setup, cell, pair.u, pair.v)
        if zeroed:
            # x = 0: V + x^T a is V itself, whose table is memoized
            assert not any(pair.x)
            assert len(tables) == 1
        else:
            # V and the independent table at lambda = 2
            assert len(tables) == 3
            assert tables[-1] == pair.v.add_outer(pair.x, setup.kernel_gen)

    def test_partner_stops_short_of_a_vanishing_minor(self):
        setup = vandermonde_setup(1, 2, [Fraction(i) for i in (1, 2, 3, 4)])
        a = setup.kernel_gen
        # at lambda = 1 every entry with a_j > 0 lands exactly on 0, so the
        # largest admissible lambda is 1/2
        u = RationalMatrix([[Fraction(3, 8) * aj if aj > 0 else 1 for aj in a]])
        point = TNNPoint.from_matrix(u)
        pair = sample_fiber_partner(setup, PositroidCellSpec.top_cell(1, 4), point, FirstDraw(1))
        assert pair.x == (Fraction(-3, 16),)
        assert all(pair.v.entry(0, j) > 0 for j in range(4))

    @pytest.mark.parametrize("halvings", [0, 2, 10, 40])
    def test_ratio_at_a_power_of_two(self, halvings):
        # U = (3/8) 2^-t a on the columns with a_j > 0 reaches 0 exactly at
        # lambda = 2^-t, so lambda is 2^-(t+1), t + 1 halvings from 1
        setup = vandermonde_setup(1, 2, [Fraction(i) for i in (1, 2, 3, 4)])
        a = setup.kernel_gen
        u = RationalMatrix([[Fraction(3, 8 << halvings) * aj if aj > 0 else 1 for aj in a]])
        point = TNNPoint.from_matrix(u)
        cell = PositroidCellSpec.top_cell(1, 4)
        stats = {}
        pair = sample_fiber_partner(setup, cell, point, FirstDraw(1), stats=stats)
        assert pair.x == (Fraction(-3, 16 << halvings),)
        assert stats["lambda_halvings"] == halvings + 1
        assert fraction_fiber_partner(setup, cell, point, FirstDraw(1)) == (
            pair.v, pair.x, halvings + 1
        )

    @pytest.mark.parametrize("zeroed, x", [(1, Fraction(0)), (2, Fraction(-3, 16))])
    def test_lower_cell_point_in_top_cell(self, zeroed, x):
        # a = (1, -3, 3, -1) and d = (-3/8): the zero entry falls in
        # column 1, so only V = U stays in the cell, and rises in column 2
        setup = vandermonde_setup(1, 2, [Fraction(i) for i in (1, 2, 3, 4)])
        u = RationalMatrix([[0 if j == zeroed else 1 for j in range(1, 5)]])
        cell = PositroidCellSpec.top_cell(1, 4)
        pair = sample_fiber_partner(setup, cell, TNNPoint.from_matrix(u), FirstDraw(1))
        assert pair.x == (x,)
        assert in_closed_cell(pair.v, cell)

    def test_stats_count_calls(self):
        rng = Random(127)
        setup = random_corank_one_setup(rng, 2, 2)
        cell = PositroidCellSpec.top_cell(2, 5)
        stats = {"accepted": 0, "rejected": 0}
        for _ in range(3):
            sample_fiber_partner(setup, cell, scaled_vandermonde_point(rng, 2, 5), rng, stats=stats)
        assert stats == {"accepted": 3, "rejected": 0, "lambda_halvings": 18}

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        k=st.integers(1, 4),
        m=st.integers(0, 2),
        zeroed=st.booleans(),
    )
    def test_partner_keeps_positive_minors_and_nonbases(self, seed, k, m, zeroed):
        rng = Random(seed)
        setup = random_corank_one_setup(rng, k, m)
        n = setup.n
        point = scaled_vandermonde_point(rng, k, n)
        if zeroed:
            point = TNNPoint.from_matrix(zero_columns(point, IndexSubset((rng.randint(1, n),))))
            cell = matroid_of(point)
        else:
            cell = PositroidCellSpec.top_cell(k, n)
        pair = sample_fiber_partner(setup, cell, point, rng)
        assert pair.u == point.matrix
        assert make_fiber_pair(setup, pair.u, pair.v).x == pair.x
        after = minors_of(all_maximal_minors(pair.v))
        for subset, value in minors_of(point.minors).items():
            if value > 0:
                assert after[subset] > 0
        for subset in cell.nonbases:
            assert after[subset] == 0
        # interior points always move; zeroed columns pin the partner to U,
        # since the kernel vector has no zero entry
        assert any(entry != 0 for entry in pair.x) != zeroed


class TestIntegerFiberLine:
    """The integer sampler and certificate against their Fraction oracles."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        k=st.integers(1, 4),
        m=st.integers(0, 2),
        zeroed=st.booleans(),
    )
    def test_same_partner_and_certificate(self, seed, k, m, zeroed):
        rng = Random(seed)
        setup = random_corank_one_setup(rng, k, m)
        n = setup.n
        point = scaled_vandermonde_point(rng, k, n)
        if zeroed:
            point = TNNPoint.from_matrix(zero_columns(point, IndexSubset((rng.randint(1, n),))))
            cell = matroid_of(point)
        else:
            cell = PositroidCellSpec.top_cell(k, n)
        oracle_rng = Random()
        oracle_rng.setstate(rng.getstate())
        stats = {}
        pair = sample_fiber_partner(setup, cell, point, rng, stats=stats)
        v, x, halvings = fraction_fiber_partner(setup, cell, point, oracle_rng)
        assert (pair.v, pair.x, stats["lambda_halvings"]) == (v, x, halvings)
        cert = convexity_certificate(setup, cell, pair.u, pair.v)
        per_minor, verdict = fraction_certificate(setup, cell, pair.u, pair.v)
        assert_certificate_matches(cert, per_minor)
        assert cert.verdict is verdict is True

        # a same-fiber partner with large denominators, in the cell or not
        x2 = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 10**12)) for _ in range(k))
        v2 = pair.u + outer_product(x2, setup.kernel_gen)
        try:
            per_minor2, verdict2 = fraction_certificate(setup, cell, pair.u, v2)
        except NotInCellError:
            with pytest.raises(NotInCellError):
                convexity_certificate(setup, cell, pair.u, v2)
        else:
            cert2 = convexity_certificate(setup, cell, pair.u, v2)
            assert_certificate_matches(cert2, per_minor2)
            assert cert2.verdict is verdict2
