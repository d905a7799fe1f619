"""Acceptance suite: every criterion at its stated count, exact arithmetic.

All checks are equality or strict-sign assertions over rationals; there
are no tolerances anywhere.  Each test prints one summary line so a
full run (pytest -s tests/test_acceptance.py) reads as a checklist.
"""

import time
from fractions import Fraction
from random import Random

from tnngrass import (
    IndexSubset,
    PositroidCellSpec,
    RationalMatrix,
    TNNPoint,
    all_maximal_minors,
    build_setup,
    build_z0,
    convexity_certificate,
    cyclic_polytope_vertices,
    construct_equivalence,
    det,
    equivalence_transport_check,
    hat_map,
    matroid_of,
    outer_product,
    pluecker,
    rank,
    sample_fiber_partner,
    section_witness,
    signs_alternate,
    veronese,
    zero_columns,
)
from helpers import (
    FIBER_CONFIGS,
    Z0_CONFIGS,
    cofactor_det,
    draw_nodes,
    identity,
    minor_affine_coeffs,
    minors_of,
    random_corank_one_setup,
    random_fraction,
    random_invertible,
    random_matrix,
    scaled_vandermonde_point,
    vandermonde_setup,
)


def report(criterion: int, message: str) -> None:
    print(f"\nPASS criterion {criterion}: {message}")


def test_criterion_01_fiber_convexity():
    started = time.time()
    total = 0
    nontrivial = 0
    for k, m in FIBER_CONFIGS:
        n = k + m + 1
        rng = Random(1000 + 10 * k + m)
        cell = PositroidCellSpec.top_cell(k, n)
        setup = random_corank_one_setup(rng, k, m)
        for trial in range(1000):
            if trial % 100 == 0:
                setup = random_corank_one_setup(rng, k, m)
            point = scaled_vandermonde_point(rng, k, n)
            pair = sample_fiber_partner(setup, cell, point, rng)
            cert = convexity_certificate(setup, cell, pair.u, pair.v)
            assert cert.verdict, f"(k,m)=({k},{m}) trial {trial}: verdict false"
            total += 1
            if any(entry != 0 for entry in pair.x):
                nontrivial += 1
    elapsed = time.time() - started
    assert total == 4000
    # top-cell points are interior, so every sampled partner is distinct
    assert nontrivial == 4000, f"sampler degraded: only {nontrivial}/4000 nontrivial"
    assert elapsed < 300, f"runtime budget exceeded: {elapsed:.1f}s"
    report(1, f"{total} fiber convexity certificates all true ({nontrivial} nontrivial pairs) in {elapsed:.1f}s")


def test_criterion_02_minor_affinity():
    checks = 0
    for k, m in FIBER_CONFIGS:
        n = k + m + 1
        rng = Random(2000 + 10 * k + m)
        setup = random_corank_one_setup(rng, k, m)
        a = setup.kernel_gen
        for trial in range(1000):
            u = scaled_vandermonde_point(rng, k, n).matrix
            x = tuple(random_fraction(rng) for _ in range(k))
            fresh = u + outer_product(tuple(3 * xi for xi in x), a)
            fresh_minors = all_maximal_minors(fresh)
            for subset, value3 in minors_of(fresh_minors).items():
                alpha, beta = minor_affine_coeffs(u, x, a, subset)
                assert value3 == alpha + 3 * beta
                checks += 1
    report(2, f"{checks} fresh-point affinity checks, zero failures")


def test_criterion_03_cell_restricted_fibers():
    pairs = 0
    zero_coefficient_checks = 0
    for k, m in FIBER_CONFIGS:
        n = k + m + 1
        rng = Random(3000 + 10 * k + m)
        setup = random_corank_one_setup(rng, k, m)
        for _ in range(50):
            point = scaled_vandermonde_point(rng, k, n)
            column = IndexSubset((rng.randint(1, n),))
            degenerate = TNNPoint.from_matrix(zero_columns(point, column))
            cell = matroid_of(degenerate)
            assert not cell.is_top
            pair = sample_fiber_partner(setup, cell, degenerate, rng)
            cert = convexity_certificate(setup, cell, pair.u, pair.v)
            assert cert.verdict
            for subset in cell.nonbases:
                alpha, beta = cert.coefficients(subset)
                assert alpha == 0 and beta == 0
                zero_coefficient_checks += 1
            pairs += 1
    assert pairs == 200
    report(3, f"200 proper-cell pairs; {zero_coefficient_checks} nonbasis minors identically zero")


def test_criterion_04_section_round_trips():
    trips = 0
    for k, m in FIBER_CONFIGS:
        n = k + m + 1
        rng = Random(4000 + 10 * k + m)
        setup = random_corank_one_setup(rng, k, m)
        for _ in range(125):
            u = scaled_vandermonde_point(rng, k, n).matrix
            witness = section_witness(setup, u, u @ setup.Z.transpose())
            assert witness.result == u
            assert witness.det_c > 0
            trips += 1
    assert trips == 500
    report(4, "500 section round trips exact; det(C) > 0 in 100% of cases")


def test_criterion_05_cyclic_setup_construction():
    for k, m in Z0_CONFIGS:
        started = time.time()
        setup = build_z0(k, m)
        elapsed = time.time() - started
        assert setup.all_minors_positive
        assert setup.kernel_alternating
        assert elapsed < 60, f"(k,m)=({k},{m}) took {elapsed:.1f}s"
        if (k, m) == (1, 2):
            gen = setup.kernel_gen
            scale = gen[0]
            assert scale > 0
            assert tuple(x / scale for x in gen) == (
                Fraction(1), Fraction(-1), Fraction(1), Fraction(-1)
            )
    report(5, f"cyclic setups verified exactly for {Z0_CONFIGS}")


def test_criterion_06_projective_equivalence():
    certificates = 0
    transports = 0
    for k, m in Z0_CONFIGS:
        n = k + m + 1
        rng = Random(6000 + 10 * k + m)
        for _ in range(50):
            setup_a = random_corank_one_setup(rng, k, m)
            setup_b = random_corank_one_setup(rng, k, m)
            cert = construct_equivalence(setup_a, setup_b)
            assert cert.z_prime == cert.c @ cert.z @ cert.d_matrix
            assert cert.det_c > 0
            assert all(x > 0 for x in cert.d_diag)
            certificates += 1
            for _ in range(100):
                point = scaled_vandermonde_point(rng, k, n)
                assert equivalence_transport_check(cert, point)
                transports += 1
    assert certificates == 200 and transports == 20_000
    report(6, "200 equivalence certificates exact; 20000 transport checks true")


def test_criterion_07_kernel_sign_alternation():
    configs = FIBER_CONFIGS + [(2, 4)]
    count = 0
    for k, m in configs:
        rng = Random(7000 + 10 * k + m)
        for _ in range(40):
            setup = random_corank_one_setup(rng, k, m)
            assert setup.all_minors_positive
            gen = setup.kernel_gen
            assert all(x != 0 for x in gen)
            assert signs_alternate(gen)
            count += 1
    assert count == 200
    report(7, "200 positive corank-one setups; kernels alternate with no zero entry")


def test_criterion_08_embedding_invariants():
    rng = Random(8000)
    for _ in range(250):
        d = rng.randint(1, 6)
        vec = [random_fraction(rng, lo=-6, hi=6) for _ in range(d)]
        if all(x == 0 for x in vec):
            vec[0] = Fraction(1)
        proj = veronese(vec).entries
        # symmetry, trace, idempotency, rank are validated exactly inside
        # veronese(); antipodal identification checked here
        assert veronese([-x for x in vec]).entries == proj
    scalings = 0
    for _ in range(250):
        k = rng.randint(1, 3)
        width = k + rng.randint(0, 2)
        matrix = random_matrix(rng, k, width)
        if rank(matrix) < k:
            continue
        g = random_invertible(rng, k)
        factor = det(g)
        assert pluecker(g @ matrix).coords == tuple(
            factor * x for x in pluecker(matrix).coords
        )
        scalings += 1
    assert scalings >= 200
    report(8, f"500 embedding draws: projection invariants exact, {scalings} minor-vector scalings exact")


def test_criterion_09_boundary_cases():
    # m = 0: every totally nonnegative point maps to the unique point of
    # the target (full image span, a single minor coordinate)
    rng = Random(9000)
    setup_m0 = vandermonde_setup(2, 0, draw_nodes(rng, 4))
    for _ in range(50):
        point = scaled_vandermonde_point(rng, 2, 4)
        mapped = hat_map(setup_m0, point.matrix)
        assert mapped.image_rank == 2
        vec = pluecker(mapped.image)
        assert vec.d == 1 and vec.coords[0] != 0

    # n = k+m with the identity matrix: the map is the identity on
    # representatives
    setup_id = build_setup(2, 1, identity(3))
    for _ in range(50):
        matrix = random_matrix(rng, 2, 3)
        assert hat_map(setup_id, matrix).image == matrix

    # k = 1, m = 2 Vandermonde vertices in convex position: library check
    # plus the direct orientation oracle over all triples
    setup = vandermonde_setup(1, 2, [Fraction(i) for i in (1, 2, 3, 4)])
    vertices = cyclic_polytope_vertices(setup)
    for i in range(4):
        for j in range(i + 1, 4):
            for l in range(j + 1, 4):
                triple = RationalMatrix([vertices[i], vertices[j], vertices[l]])
                assert det(triple) > 0
    report(9, "boundary cases: m=0 point target, identity map at n=k+m, cyclic vertex orientation")


def test_criterion_10_oracle_equivalence():
    rng = Random(10_000)
    for _ in range(10_000):
        size = rng.randint(1, 5)
        if rng.random() < 0.5:
            rows = [[Fraction(rng.randint(-9, 9)) for _ in range(size)] for _ in range(size)]
        else:
            rows = [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(size)]
                for _ in range(size)
            ]
        assert det(RationalMatrix(rows)) == cofactor_det(rows)

    def cauchy_binet_holds(a: RationalMatrix, b: RationalMatrix) -> bool:
        rows_all = IndexSubset(tuple(range(1, a.rows + 1)))
        rhs = sum(
            value * det(b.submatrix(subset, rows_all))
            for subset, value in minors_of(all_maximal_minors(a)).items()
        )
        return det(a @ b) == rhs

    for _ in range(1000):
        k = rng.randint(1, 3)
        n = rng.randint(k, 6)
        a = random_matrix(rng, k, n, lo=-5, hi=5, max_den=3)
        b = random_matrix(rng, n, k, lo=-5, hi=5, max_den=3)
        assert cauchy_binet_holds(a, b)

    # k = 4..6 runs the echelon path of all_maximal_minors; a separate
    # generator leaves the draws above unchanged.  A zeroed column of A
    # moves its pivot columns.
    echelon_rng = Random(10_010)
    for _ in range(400):
        k = echelon_rng.randint(4, 6)
        n = echelon_rng.randint(k, k + 3)
        a = random_matrix(echelon_rng, k, n, lo=-5, hi=5, max_den=3)
        if echelon_rng.random() < 0.5:
            dead = echelon_rng.randrange(n)
            a = RationalMatrix(
                [Fraction(0) if j == dead else x for j, x in enumerate(row)] for row in a.row_tuples()
            )
        b = random_matrix(echelon_rng, n, k, lo=-5, hi=5, max_den=3)
        assert cauchy_binet_holds(a, b)
    report(
        10,
        "10000 dual-path determinants and 1400 product-of-minors identities exact (400 with k = 4..6)",
    )
