"""Projective equivalence certificates, transport checks, vertex extraction."""

import dataclasses
import functools
from fractions import Fraction
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tnngrass.equivalence as equivalence_mod
from tnngrass import (
    DimensionError,
    DomainError,
    InternalConsistencyError,
    RationalMatrix,
    TNNPoint,
    UnsupportedParameterError,
    EquivalenceCertificate,
    build_setup,
    build_z0,
    check_tnn,
    construct_equivalence,
    cyclic_polytope_vertices,
    det,
    equivalence_transport_check,
    hat_map,
    pluecker,
    all_maximal_minors,
    subsets_colex,
)
from helpers import (
    count_computed_tables,
    count_eliminations,
    four_product_transport,
    fraction_det,
    identity,
    random_corank_one_setup,
    random_positive_det,
    rref_left_factor,
    scaled_vandermonde_point,
    vandermonde_setup,
)


class TestConstructEquivalence:
    def test_self_equivalence_is_identity(self):
        setup = vandermonde_setup(1, 2, [Fraction(i) for i in (1, 2, 3, 4)])
        cert = construct_equivalence(setup, setup)
        assert cert.d_diag == (1, 1, 1, 1)
        assert cert.c == identity(3)
        assert cert.det_c == 1

    def test_scaled_setup(self):
        setup = vandermonde_setup(1, 2, [Fraction(i) for i in (1, 2, 3, 4)])
        doubled = build_setup(1, 2, setup.Z.scale(2))
        cert = construct_equivalence(setup, doubled)
        assert cert.d_diag == (1, 1, 1, 1)
        assert cert.c == identity(3).scale(2)
        assert cert.det_c == 8

    def test_vandermonde_to_cyclic(self):
        setup = vandermonde_setup(1, 2, [Fraction(i) for i in (1, 2, 3, 4)])
        target = build_z0(1, 2)
        cert = construct_equivalence(setup, target)
        assert cert.z_prime == cert.c @ cert.z @ cert.d_matrix
        assert cert.det_c > 0
        assert all(x > 0 for x in cert.d_diag)

    def test_kernel_transport(self):
        # D^{-1} carries the source kernel onto the target kernel exactly
        rng = Random(127)
        for _ in range(10):
            a_setup = random_corank_one_setup(rng, 2, 2)
            b_setup = random_corank_one_setup(rng, 2, 2)
            cert = construct_equivalence(a_setup, b_setup)
            a = a_setup.kernel_gen
            transported = tuple(ai / di for ai, di in zip(a, cert.d_diag))
            assert transported == b_setup.kernel_gen

    def test_composability(self):
        rng = Random(131)
        s1 = random_corank_one_setup(rng, 1, 2)
        s2 = random_corank_one_setup(rng, 1, 2)
        s3 = random_corank_one_setup(rng, 1, 2)
        c12 = construct_equivalence(s1, s2)
        c23 = construct_equivalence(s2, s3)
        composed_c = c23.c @ c12.c
        composed_d = tuple(d1 * d2 for d1, d2 in zip(c12.d_diag, c23.d_diag))
        lhs = composed_c @ s1.Z @ RationalMatrix.diagonal(composed_d)
        assert lhs == s3.Z
        assert det(composed_c) > 0

    def test_nonpositive_setup_rejected(self):
        positive = vandermonde_setup(1, 1, [Fraction(i) for i in (1, 2, 3)])
        degenerate = build_setup(1, 1, RationalMatrix([[1, 1, 0], [0, 0, 1]]))
        with pytest.raises(DomainError):
            construct_equivalence(positive, degenerate)

    def test_parameter_mismatch_rejected(self):
        a_setup = vandermonde_setup(1, 2, [Fraction(i) for i in (1, 2, 3, 4)])
        b_setup = vandermonde_setup(2, 1, [Fraction(i) for i in (1, 2, 3, 4)])
        with pytest.raises(DimensionError):
            construct_equivalence(a_setup, b_setup)

    def test_wrong_corank_rejected(self):
        a_setup = vandermonde_setup(1, 2, [Fraction(i) for i in (1, 2, 3, 4)])
        b_setup = vandermonde_setup(1, 2, [Fraction(i) for i in (1, 2, 3, 4, 5)])
        with pytest.raises((UnsupportedParameterError, DimensionError)):
            construct_equivalence(a_setup, b_setup)


@functools.cache
def z0_of(k, m):
    return build_z0(k, m)


@st.composite
def vandermonde_to_z0_st(draw):
    """A Vandermonde setup with k <= 2 and even m <= 4 at distinct positive nodes, and z0 of its shape."""
    k, m = draw(st.integers(1, 2)), draw(st.sampled_from([0, 2, 4]))
    node_st = st.fractions(min_value=Fraction(1, 8), max_value=12, max_denominator=8)
    nodes = draw(st.lists(node_st, min_size=k + m + 1, max_size=k + m + 1, unique=True))
    return vandermonde_setup(k, m, sorted(nodes)), z0_of(k, m)


class TestLeftFactorOrientation:
    """C solved from C Z = Z' D^-1 is the C of Z' = C (Z D), solved by the Fraction oracle."""

    @settings(max_examples=60, deadline=None)
    @given(vandermonde_to_z0_st())
    def test_same_c_as_the_old_orientation(self, setups):
        setup, target = setups
        cert = construct_equivalence(setup, target)
        zd_rows = [list(row) for row in setup.Z.scale_columns(cert.d_diag).row_tuples()]
        expected = rref_left_factor([list(row) for row in target.Z.row_tuples()], zd_rows)
        assert cert.c == RationalMatrix(expected)


class TestProjectiveMap:
    def test_scalar_action_scales_pluecker_by_power(self):
        c = Fraction(3)
        p = RationalMatrix([[1, 2, 3], [0, 1, 1]])
        image = p @ identity(3).scale(c).transpose()
        assert pluecker(image).coords == tuple(
            c ** 2 * x for x in pluecker(p).coords
        )


class TestTransportCheck:
    def test_identity_certificate(self):
        setup = vandermonde_setup(1, 2, [Fraction(i) for i in (1, 2, 3, 4)])
        cert = construct_equivalence(setup, setup)
        point = TNNPoint.from_matrix(RationalMatrix([[1, 2, 1, 3]]))
        assert equivalence_transport_check(cert, point)

    def test_scaling_certificate(self):
        setup = vandermonde_setup(1, 2, [Fraction(i) for i in (1, 2, 3, 4)])
        cert = construct_equivalence(setup, build_setup(1, 2, setup.Z.scale(2)))
        point = TNNPoint.from_matrix(RationalMatrix([[1, 2, 1, 3]]))
        assert equivalence_transport_check(cert, point)

    def test_vandermonde_to_cyclic_on_random_points(self):
        rng = Random(139)
        setup = vandermonde_setup(1, 2, [Fraction(i) for i in (1, 2, 3, 4)])
        cert = construct_equivalence(setup, build_z0(1, 2))
        for _ in range(100):
            point = scaled_vandermonde_point(rng, 1, 4)
            assert equivalence_transport_check(cert, point)

    def test_positive_column_scaling_preserves_tnn(self):
        rng = Random(149)
        a_setup = random_corank_one_setup(rng, 2, 2)
        b_setup = random_corank_one_setup(rng, 2, 2)
        cert = construct_equivalence(a_setup, b_setup)
        for _ in range(20):
            point = scaled_vandermonde_point(rng, 2, 5)
            assert check_tnn(point.matrix @ cert.d_matrix).is_tnn

    def test_pluecker_level_transport(self):
        # V Z_B^T equals the C-transported image of V D under Z_A, exactly
        rng = Random(151)
        a_setup = random_corank_one_setup(rng, 2, 2)
        b_setup = random_corank_one_setup(rng, 2, 2)
        cert = construct_equivalence(a_setup, b_setup)
        for _ in range(10):
            point = scaled_vandermonde_point(rng, 2, 5)
            direct = hat_map(b_setup, point.matrix).image
            transported = (
                hat_map(a_setup, point.matrix @ cert.d_matrix).image @ cert.c.transpose()
            )
            assert direct == transported
            assert pluecker(direct).coords == pluecker(transported).coords


def _bump_entry(m: RationalMatrix, i: int, j: int, delta: Fraction) -> RationalMatrix:
    rows = [list(row) for row in m.row_tuples()]
    rows[i][j] += delta
    return RationalMatrix(rows)


def _tampered(cert, rng: Random):
    """The certificate with one entry of C, Z' or D moved."""
    delta = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 5))
    target = rng.choice(("c", "z_prime", "d_diag"))
    if target == "d_diag":
        d = list(cert.d_diag)
        d[rng.randrange(len(d))] += delta
        return dataclasses.replace(cert, d_diag=tuple(d))
    m = getattr(cert, target)
    moved = _bump_entry(m, rng.randrange(m.rows), rng.randrange(m.cols), delta)
    return dataclasses.replace(cert, **{target: moved})


def _count_calls(monkeypatch, name: str) -> list:
    """Record the shapes of every ``RationalMatrix.<name>`` call."""
    calls = []
    original = getattr(RationalMatrix, name)

    def counted(a, *rest):
        calls.append((a.rows, a.cols))
        return original(a, *rest)

    monkeypatch.setattr(RationalMatrix, name, counted)
    return calls


class TestResidual:
    def test_construct_makes_one_product(self, monkeypatch):
        rng = Random(157)
        a_setup = random_corank_one_setup(rng, 2, 2)
        b_setup = random_corank_one_setup(rng, 2, 2)
        points = [scaled_vandermonde_point(rng, 2, 5) for _ in range(5)]
        calls = _count_calls(monkeypatch, "__matmul__")
        tables = count_computed_tables(monkeypatch)
        cert = construct_equivalence(a_setup, b_setup)
        assert len(calls) == 1
        for point in points:
            assert equivalence_transport_check(cert, point)
        assert cert.exact
        # C (Z D) once; R = 0, so no spot check makes a product or a table
        assert len(calls) == 1
        assert tables == []

    def test_tampered_certificate_makes_one_product_per_check(self, monkeypatch):
        rng = Random(159)
        cert = construct_equivalence(
            random_corank_one_setup(rng, 2, 2), random_corank_one_setup(rng, 2, 2)
        )
        bad = dataclasses.replace(cert, c=_bump_entry(cert.c, 1, 2, Fraction(1, 3)))
        points = [scaled_vandermonde_point(rng, 2, 5) for _ in range(5)]
        products = _count_calls(monkeypatch, "__matmul__")
        transposes = _count_calls(monkeypatch, "transpose")
        verdicts = [equivalence_transport_check(bad, point) for point in points]
        assert verdicts == [four_product_transport(bad, point) for point in points]
        assert not any(verdicts)
        # C (Z D) for the residual, then V R^T per spot check, with R^T formed once
        assert len(products) == 1 + len(points)
        assert len(transposes) == 1

    def test_genuine_residual_is_zero(self):
        rng = Random(163)
        cert = construct_equivalence(
            random_corank_one_setup(rng, 1, 2), random_corank_one_setup(rng, 1, 2)
        )
        assert cert.residual == cert.c @ cert.z @ cert.d_matrix - cert.z_prime
        assert cert.exact

    def test_tampered_certificate_is_not_exact(self):
        rng = Random(167)
        cert = construct_equivalence(
            random_corank_one_setup(rng, 2, 2), random_corank_one_setup(rng, 2, 2)
        )
        for _ in range(10):
            bad = _tampered(cert, rng)
            assert not bad.exact
            assert bad.residual == bad.c @ bad.z @ bad.d_matrix - bad.z_prime

    def test_construct_rejects_a_wrong_left_factor(self, monkeypatch):
        import tnngrass.equivalence as equivalence

        setup = vandermonde_setup(1, 2, [Fraction(i) for i in (1, 2, 3, 4)])
        target = build_z0(1, 2)
        solve = equivalence.solve_for_left_factor

        def off_by_one(k_image, w):
            return _bump_entry(solve(k_image, w), 0, 1, Fraction(1, 7))

        monkeypatch.setattr(equivalence, "solve_for_left_factor", off_by_one)
        with pytest.raises(InternalConsistencyError, match="Z' = C Z D"):
            construct_equivalence(setup, target)


class TestDeterminantFromTables:
    """det C read off the setups' tables agrees with an elimination of C."""

    @pytest.mark.parametrize("k, m", [(1, 2), (2, 2), (2, 4), (3, 2)])
    def test_matches_det_of_c(self, k, m):
        rng = Random(193 + 10 * k + m)
        for _ in range(4):
            cert = construct_equivalence(
                random_corank_one_setup(rng, k, m), random_corank_one_setup(rng, k, m)
            )
            assert cert.det_c == det(cert.c) == fraction_det(
                [list(row) for row in cert.c.row_tuples()]
            )

    def test_z0_targets_match(self):
        for k, m in [(1, 2), (2, 2), (2, 4)]:
            setup = vandermonde_setup(k, m, [Fraction(i) for i in range(1, k + m + 2)])
            target = build_z0(k, m)
            for a, b in [(setup, target), (target, setup), (target, target)]:
                cert = construct_equivalence(a, b)
                assert cert.det_c == det(cert.c)

    def test_construct_eliminates_once(self, monkeypatch):
        rng = Random(197)
        a_setup, b_setup = random_corank_one_setup(rng, 2, 2), random_corank_one_setup(rng, 2, 2)
        eliminations = count_eliminations(monkeypatch)
        tables = count_computed_tables(monkeypatch)
        cert = construct_equivalence(a_setup, b_setup)
        # the left-factor solve is the one elimination; both setups' tables
        # were computed by build_setup and are only read here
        assert eliminations == [5] and tables == []
        assert cert.det_c == det(cert.c)


class TestAgainstFourProducts:
    """``equivalence_transport_check`` gives the verdicts of the four-product check."""

    @pytest.mark.parametrize("k, m", [(1, 2), (2, 2), (2, 4), (3, 2)])
    def test_genuine_and_tampered_certificates(self, k, m):
        rng = Random(173 + 10 * k + m)
        verdicts = []
        for _ in range(3):
            cert = construct_equivalence(
                random_corank_one_setup(rng, k, m), random_corank_one_setup(rng, k, m)
            )
            tampered = [_tampered(cert, rng) for _ in range(3)]
            # C and D both negated keep Z' = C Z D; V D then flips its minors' sign iff k is odd
            flipped = dataclasses.replace(
                cert, c=-cert.c, d_diag=tuple(-x for x in cert.d_diag)
            )
            # a zero in D: once with Z' left as it was, once with Z' := C Z D kept exact
            zero_d = (Fraction(0),) + cert.d_diag[1:]
            zeroed = dataclasses.replace(cert, d_diag=zero_d)
            zeroed_exact = dataclasses.replace(
                zeroed, z_prime=cert.c @ cert.z.scale_columns(zero_d)
            )
            assert cert.exact and flipped.exact and zeroed_exact.exact and not zeroed.exact
            for candidate in [cert, flipped, zeroed, zeroed_exact, *tampered]:
                for _ in range(2):
                    point = scaled_vandermonde_point(rng, k, k + m + 1)
                    verdict = equivalence_transport_check(candidate, point)
                    assert verdict == four_product_transport(candidate, point)
                    verdicts.append(verdict)
        assert True in verdicts and False in verdicts

    def test_negated_pair_splits_by_parity(self):
        rng = Random(179)
        for k, m in [(1, 2), (2, 2)]:
            cert = construct_equivalence(
                random_corank_one_setup(rng, k, m), random_corank_one_setup(rng, k, m)
            )
            flipped = dataclasses.replace(
                cert, c=-cert.c, d_diag=tuple(-x for x in cert.d_diag)
            )
            point = scaled_vandermonde_point(rng, k, k + m + 1)
            assert flipped.exact
            assert equivalence_transport_check(flipped, point) == (k % 2 == 0)


class TestTransportTable:
    """V D's verdict: V's own table for positive D, else V D's, with check_tnn(V D) as the oracle."""

    @staticmethod
    def _exact_certificate(z: RationalMatrix, d: list[Fraction]) -> EquivalenceCertificate:
        # Z' := C Z D with C = I, so the square commutes for any d and the
        # verdict is the total nonnegativity of V D alone
        c = identity(z.rows)
        return EquivalenceCertificate(
            z=z, z_prime=c @ z.scale_columns(d), d_diag=tuple(d), c=c, det_c=Fraction(1)
        )

    @pytest.mark.parametrize("k, m", [(1, 2), (2, 2), (2, 4), (4, 1)])
    def test_verdicts_match_check_tnn_of_the_scaled_matrix(self, k, m):
        rng = Random(181 + 10 * k + m)
        n = k + m + 1
        genuine = construct_equivalence(
            random_corank_one_setup(rng, k, m), random_corank_one_setup(rng, k, m)
        )
        z = genuine.z
        diagonals = [
            [Fraction(0)] + [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n - 1)],
            [Fraction(0)] * (n - k + 1) + [Fraction(1)] * (k - 1),
            [Fraction(-2)] + [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n - 1)],
            [Fraction(-rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)],
            [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)],
        ]
        verdicts = []
        for cert in [genuine] + [self._exact_certificate(z, d) for d in diagonals]:
            assert cert.exact
            for _ in range(2):
                point = scaled_vandermonde_point(rng, k, n)
                verdict = equivalence_transport_check(cert, point)
                assert verdict == check_tnn(point.matrix.scale_columns(cert.d_diag)).is_tnn
                verdicts.append(verdict)
        assert True in verdicts and False in verdicts

    def test_transport_builds_no_minor_table(self, monkeypatch):
        rng = Random(191)
        cert = construct_equivalence(
            random_corank_one_setup(rng, 2, 2), random_corank_one_setup(rng, 2, 2)
        )
        points = [scaled_vandermonde_point(rng, 2, 5) for _ in range(5)]
        tables = count_computed_tables(monkeypatch)
        assert all(equivalence_transport_check(cert, point) for point in points)
        assert tables == []
        # the identity was decided as C Z = Z' D^-1 in the construction: no residual is formed
        assert "residual" not in vars(cert) and "residual_transpose" not in vars(cert)
        copied = dataclasses.replace(cert)
        assert copied.exact and copied.residual == cert.z_prime - cert.z_prime


class TestDiagonalLength:
    def test_short_or_long_diagonal_rejected(self):
        setup = vandermonde_setup(2, 2, [Fraction(i) for i in (1, 2, 3, 4, 5)])
        cert = construct_equivalence(setup, build_z0(2, 2))
        point = scaled_vandermonde_point(Random(181), 2, 5)
        for d_diag in (cert.d_diag[:-1], cert.d_diag + (Fraction(1),)):
            with pytest.raises(DimensionError):
                equivalence_transport_check(dataclasses.replace(cert, d_diag=d_diag), point)

    def test_diagonal_matching_the_point_but_not_z_rejected(self):
        # the point agrees with D, so only Z's column count can tell
        setup = vandermonde_setup(2, 2, [Fraction(i) for i in (1, 2, 3, 4, 5)])
        cert = construct_equivalence(setup, build_z0(2, 2))
        long_cert = dataclasses.replace(cert, d_diag=cert.d_diag + (Fraction(1),))
        point = scaled_vandermonde_point(Random(191), 2, 6)
        with pytest.raises(DimensionError):
            equivalence_transport_check(long_cert, point)


class TestCyclicPolytopeVertices:
    def test_simplex_case(self):
        setup = vandermonde_setup(1, 2, [Fraction(i) for i in (1, 2, 3)])
        vertices = cyclic_polytope_vertices(setup)
        assert len(vertices) == 3
        assert vertices[0] == (1, 1, 1)

    def test_moment_curve_orientation(self):
        setup = vandermonde_setup(1, 2, [Fraction(i) for i in (1, 2, 3, 4)])
        vertices = cyclic_polytope_vertices(setup)
        assert vertices == [
            (1, t, t * t) for t in (Fraction(1), Fraction(2), Fraction(3), Fraction(4))
        ]
        # exact orientation oracle over all C(4,3) triples
        for i in range(4):
            for j in range(i + 1, 4):
                for l in range(j + 1, 4):
                    triple = RationalMatrix([vertices[i], vertices[j], vertices[l]])
                    assert det(triple) > 0

    def test_m0_single_point(self):
        setup = build_setup(1, 0, RationalMatrix([[1, 2, 3]]))
        vertices = cyclic_polytope_vertices(setup)
        assert all(len(v) == 1 and v[0] > 0 for v in vertices)

    def test_m1_sorted_chart(self):
        setup = vandermonde_setup(1, 1, [Fraction(i) for i in (1, 2, 4)])
        vertices = cyclic_polytope_vertices(setup)
        charted = [v[1] / v[0] for v in vertices]
        assert charted == sorted(charted)

    def test_cyclic_setup_vertices(self):
        setup = build_z0(1, 2)
        vertices = cyclic_polytope_vertices(setup)
        assert len(vertices) == 4

    def test_k_not_one_rejected(self):
        setup = vandermonde_setup(2, 1, [Fraction(i) for i in (1, 2, 3, 4)])
        with pytest.raises(UnsupportedParameterError):
            cyclic_polytope_vertices(setup)

    def test_nonpositive_rejected(self):
        setup = build_setup(1, 1, RationalMatrix([[1, 1, 0], [0, 0, 1]]))
        with pytest.raises(DomainError):
            cyclic_polytope_vertices(setup)

    @pytest.mark.parametrize(
        "rows",
        [
            # the first row changes sign, so the chart x_0 = 1 flips the last column
            [[3, 1, -1], [1, 2, 3]],
            # neither row has one sign
            [[1, -1, -6, -6], [6, 6, 1, -1]],
        ],
    )
    def test_columns_of_any_sign_are_charted(self, rows):
        z = RationalMatrix(rows)
        setup = build_setup(1, 1, z)
        assert setup.all_minors_positive
        assert cyclic_polytope_vertices(setup) == [z.column(j) for j in range(z.cols)]

    def test_nonpositive_chart_functional_is_a_falsification(self):
        # a setup that claims positive minors but has a column on which the
        # chart functional det(z, z_3 - z_1) vanishes
        z = RationalMatrix([[1, 0, -1], [0, 1, 0]])
        setup = SimpleNamespace(k=1, m=1, n=3, Z=z, all_minors_positive=True)
        with pytest.raises(InternalConsistencyError, match="on column 1, not positive"):
            cyclic_polytope_vertices(setup)


def chart_value(columns, z):
    """The chart functional of ``cyclic_polytope_vertices``, as a sum of determinants."""
    first, last = columns[0], columns[-1]
    if len(z) == 2:
        return fraction_det([z, last]) + fraction_det([first, z])
    return (
        fraction_det([z, columns[-2], last])
        + fraction_det([first, z, last])
        + fraction_det([first, columns[1], z])
    )


class TestVertexTable:
    """The orientation determinants are one minor table of the charted columns."""

    @staticmethod
    def _tamper(monkeypatch, changes):
        """Make the table's integer at each position p read changes[p](integer)."""
        real = equivalence_mod.all_maximal_minors

        def tampered(m):
            table = real(m)
            ints = [changes.get(p, lambda v: v)(v) for p, v in enumerate(table.ints)]
            return dataclasses.replace(table, ints=tuple(ints))

        monkeypatch.setattr(equivalence_mod, "all_maximal_minors", tampered)

    def test_a_tampered_table_is_not_kept(self, monkeypatch):
        setup = vandermonde_setup(1, 1, [Fraction(i) for i in (1, 2, 3, 4)])
        self._tamper(monkeypatch, {3: lambda v: -v})
        tampered, charted = equivalence_mod.all_maximal_minors, []

        def recorded(matrix):
            charted.append(matrix)
            return tampered(matrix)

        monkeypatch.setattr(equivalence_mod, "all_maximal_minors", recorded)
        with pytest.raises(InternalConsistencyError, match="changed sign"):
            cyclic_polytope_vertices(setup)
        monkeypatch.undo()
        # the charted matrix keeps the genuine table, every orientation positive
        (matrix,) = charted
        kept = all_maximal_minors(matrix)
        assert kept == all_maximal_minors(RationalMatrix(matrix.row_tuples()))
        assert min(kept.ints) > 0

    def test_zero_orientation_names_the_first_zero_subset(self, monkeypatch):
        setup = vandermonde_setup(1, 2, [Fraction(i) for i in (1, 2, 3, 4, 5)])
        # colex 3-subsets of {1..5}: [1,2,3], [1,2,4], [1,3,4], [2,3,4], [1,2,5], ...
        self._tamper(monkeypatch, {2: lambda v: 0, 4: lambda v: 0})
        with pytest.raises(InternalConsistencyError, match=r"columns \[1, 3, 4\] are affinely dependent"):
            cyclic_polytope_vertices(setup)

    def test_flipped_orientation_is_a_sign_change(self, monkeypatch):
        setup = vandermonde_setup(1, 1, [Fraction(i) for i in (1, 2, 3, 4)])
        self._tamper(monkeypatch, {3: lambda v: -v})
        with pytest.raises(InternalConsistencyError, match="changed sign"):
            cyclic_polytope_vertices(setup)

    def test_every_orientation_flipped_is_a_sign_change(self, monkeypatch):
        # in a chart positive on every column, every orientation is positive
        setup = vandermonde_setup(1, 2, [Fraction(i) for i in (1, 2, 3, 4)])
        self._tamper(monkeypatch, {p: (lambda v: -v) for p in range(4)})
        with pytest.raises(InternalConsistencyError, match=r"columns \[1, 2, 3\] changed sign"):
            cyclic_polytope_vertices(setup)

    @pytest.mark.parametrize("m", [1, 2])
    def test_signs_match_the_determinant_oracle(self, monkeypatch, m):
        rng = Random(211 + m)
        tables = []
        real = equivalence_mod.all_maximal_minors

        def spy(matrix):
            tables.append(real(matrix))
            return tables[-1]

        monkeypatch.setattr(equivalence_mod, "all_maximal_minors", spy)
        for n in range(m + 1, 9):
            for flip in (False, True, "mixed"):
                rows = [list(row) for row in scaled_vandermonde_point(rng, m + 1, n).matrix.row_tuples()]
                if flip:
                    # det diag(-1, -1, 1, ...) = 1 keeps every minor positive and
                    # makes every first coordinate negative
                    rows[:2] = [[-x for x in row] for row in rows[:2]]
                z = RationalMatrix(rows)
                if flip == "mixed":
                    # so does G with det G > 0, which mixes the signs within rows
                    z = random_positive_det(rng, m + 1) @ z
                setup = build_setup(1, m, z)
                vertices = cyclic_polytope_vertices(setup)
                assert vertices == [z.column(j) for j in range(n)]
                charted = [[x / chart_value(vertices, v) for x in v] for v in vertices]
                table = tables[-1]
                subsets = subsets_colex(table.n, table.k)
                assert len(table.ints) == len(subsets) > 0
                for subset, value in zip(subsets, table.ints):
                    oracle = fraction_det([charted[j - 1] for j in subset])
                    assert (value > 0) - (value < 0) == (oracle > 0) - (oracle < 0) != 0


class TestCertificateShape:
    def test_json_round_trip_fields(self):
        setup = vandermonde_setup(1, 2, [Fraction(i) for i in (1, 2, 3, 4)])
        cert = construct_equivalence(setup, build_z0(1, 2))
        payload = cert.to_json_dict()
        assert set(payload) == {"Z", "Zprime", "D_diag", "C", "detC"}
        rebuilt = RationalMatrix.from_json_dict(payload["C"])
        assert rebuilt == cert.c
