"""Shared test oracles and generators.

The oracles here are deliberately primitive (cofactor expansion, direct
products of differences, brute-force grids) and independent of the
library's computation paths, so agreement between the two is evidence,
not tautology.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from random import Random

import pytest

from tnngrass import (
    AmplituhedronSetup,
    DimensionError,
    EquivalenceCertificate,
    FiberMismatchError,
    FiberPair,
    InconsistentSystemError,
    IndexSubset,
    InternalConsistencyError,
    NotInCellError,
    PositroidCellSpec,
    RankError,
    RationalMatrix,
    TNNPoint,
    all_maximal_minors,
    build_setup,
    check_tnn,
    det,
    fiber_displacement,
    in_closed_cell,
    outer_product,
)
from tnngrass import exact_linalg
from tnngrass.exact_linalg import MinorTable
from tnngrass.tnn_grassmannian import TNNWitnessReport

# (k, m) pairs exercised by the fiber acceptance criteria.
FIBER_CONFIGS = [(1, 2), (2, 2), (2, 1), (3, 2)]
Z0_CONFIGS = [(1, 2), (2, 2), (3, 2), (2, 4)]


def count_computed_tables(monkeypatch) -> list[RationalMatrix]:
    """Record each matrix whose minor table is computed, not read from its memo.

    Patches the computing step inside ``exact_linalg``, which every
    ``all_maximal_minors`` call reaches on a matrix without a table, under
    whatever name a module imported the function.
    """
    computed = []
    compute = exact_linalg._minor_table

    def counted(matrix):
        computed.append(matrix)
        return compute(matrix)

    monkeypatch.setattr(exact_linalg, "_minor_table", counted)
    return computed


def count_eliminations(monkeypatch) -> list[int]:
    """Record the row count of each integer elimination, whatever called it.

    Patches ``exact_linalg._bareiss``, which ``det``, ``rank``, kernels,
    solves, inverses and minor tables all reach.
    """
    rows = []
    bareiss = exact_linalg._bareiss

    def counted(a):
        rows.append(len(a))
        return bareiss(a)

    monkeypatch.setattr(exact_linalg, "_bareiss", counted)
    return rows


def count_back_substitutions(monkeypatch) -> list[int]:
    """Record the pivot count of each ``exact_linalg._back_substitute`` call."""
    calls = []
    back_substitute = exact_linalg._back_substitute

    def counted(a, pivots):
        calls.append(len(pivots))
        return back_substitute(a, pivots)

    monkeypatch.setattr(exact_linalg, "_back_substitute", counted)
    return calls


def count_ladder_levels(monkeypatch) -> list[int]:
    """Record, per ladder climbed, the highest level it reached (0 for the level of d alone).

    Patches ``exact_linalg._ladder_levels``, which the minor tables and
    ``check_tnn``'s failure path read their levels from.
    """
    climbs = []
    ladder = exact_linalg._ladder_levels

    def counted(*args):
        climbs.append(-1)
        for level in ladder(*args):
            climbs[-1] += 1
            yield level

    monkeypatch.setattr(exact_linalg, "_ladder_levels", counted)
    return climbs


def tnn_report_by_table(m: RationalMatrix) -> TNNWitnessReport:
    """``check_tnn`` by the minor table alone, read on a fresh copy of m.

    The oracle for the positivity test that ``check_tnn`` takes first on
    eliminated shapes: the copy holds no table, so every minor is built
    and scanned here in colex order, as ``check_tnn`` did before the test.
    """
    table = all_maximal_minors(RationalMatrix.from_int_rows(m.int_rows))
    for subset, value in zip(table.subsets, table.ints):
        if value < 0:
            return TNNWitnessReport(rank_ok=True, first_violation=(subset, Fraction(value, table.scale)))
    return TNNWitnessReport(rank_ok=any(table.ints))


def cofactor_det(rows: list[list[Fraction]]) -> Fraction:
    """Naive Laplace expansion along the first row."""
    n = len(rows)
    assert all(len(r) == n for r in rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    sign = 1
    for j in range(n):
        if rows[0][j] != 0:
            sub = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += sign * rows[0][j] * cofactor_det(sub)
        sign = -sign
    return total


def fraction_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by Fraction Gauss-Jordan; returns (rows, pivot columns).

    Plain Fraction arithmetic, independent of the library's integer
    Bareiss kernel, and the reference that kernel is compared against.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((j for j in range(r, nrows) if rows[j][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for j in range(nrows):
            if j != r and rows[j][c] != 0:
                f = rows[j][c]
                rows[j] = [x - f * y for x, y in zip(rows[j], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def full_back_substitute(a: list[list[int]], pivots: list[int]) -> tuple[list[list[int]], int]:
    """Reduced rows of a ``_bareiss`` echelon form, all times one integer d.

    Returns the nonzero rows of the reduced row echelon form multiplied
    by d, and d itself.  d is the last Bareiss pivot, the determinant of
    the pivot block, so by Cramer's rule the scaled rows are integral and
    back-substitution from the bottom divides exactly.

    The oracle for ``exact_linalg._back_substitute``, which builds only
    the non-pivot columns: this one builds every column, pivots included.
    """
    if not pivots:
        return [], 1
    r = len(pivots)
    d = a[r - 1][pivots[-1]]
    reduced: list[list[int]] = [[]] * r
    for i in reversed(range(r)):
        acc = [d * x for x in a[i]]
        for j in range(i + 1, r):
            f = a[i][pivots[j]]
            if f != 0:
                acc = [x - f * y for x, y in zip(acc, reduced[j])]
        piv = a[i][pivots[i]]
        reduced[i] = [x // piv for x in acc]
    return reduced, d


def identity(n: int) -> RationalMatrix:
    return RationalMatrix([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])


def zeros(rows: int, cols: int) -> RationalMatrix:
    return RationalMatrix([[Fraction(0)] * cols for _ in range(rows)])


def stack_below(top: RationalMatrix, bottom: RationalMatrix) -> RationalMatrix:
    """The rows of ``top`` followed by the rows of ``bottom``."""
    assert top.cols == bottom.cols
    return RationalMatrix(top.row_tuples() + bottom.row_tuples())


def fraction_det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by Fraction Gaussian elimination with row swaps.

    Divides by each pivot as it goes, unlike the library's fraction-free
    Bareiss kernel, with which it shares no code.
    """
    a = [list(row) for row in rows]
    n = len(a)
    value = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            value = -value
        piv = a[c][c]
        value *= piv
        for r in range(c + 1, n):
            f = a[r][c] / piv
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return value


def submatrix(m: RationalMatrix, row_subset: IndexSubset, col_subset: IndexSubset) -> RationalMatrix:
    """The submatrix of m on 1-based row and column subsets."""
    row_subset.check_bounds(m.rows)
    col_subset.check_bounds(m.cols)
    return RationalMatrix([m.entry(i - 1, j - 1) for j in col_subset] for i in row_subset)


def minor(m: RationalMatrix, row_subset: IndexSubset, col_subset: IndexSubset) -> Fraction:
    """Determinant of the submatrix selected by 1-based index subsets, one at a time."""
    if len(row_subset) != len(col_subset):
        raise DimensionError(
            f"subset sizes differ: {len(row_subset)} rows vs {len(col_subset)} cols"
        )
    if len(row_subset) == 0:
        return Fraction(1)
    return det(submatrix(m, row_subset, col_subset))


def minors_of(table: MinorTable) -> dict[IndexSubset, Fraction]:
    """A minor table as column subset -> ``Fraction``, in colexicographic order."""
    return {s: Fraction(v, table.scale) for s, v in zip(table.subsets, table.ints)}


def subset_minor_table(m: RationalMatrix) -> dict[IndexSubset, Fraction]:
    """Every maximal minor as its own determinant, in colexicographic order.

    One ``fraction_det`` per column subset, with subsets enumerated here
    rather than by the library: the per-subset path that the ladder of
    ``all_maximal_minors`` is compared against.
    """
    rows = m.row_tuples()
    combos = itertools.combinations(range(1, m.cols + 1), m.rows)
    table = {}
    for combo in sorted(combos, key=lambda c: tuple(reversed(c))):
        table[IndexSubset(combo)] = fraction_det([[row[j - 1] for j in combo] for row in rows])
    return table


def rref_kernel(rows: list[list[Fraction]]) -> list[tuple[Fraction, ...]]:
    """Right null space from ``fraction_rref``, first nonzero entry +1, by free column."""
    n = len(rows[0])
    reduced, pivots = fraction_rref([list(r) for r in rows])
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for r_idx, p_col in enumerate(pivots):
            v[p_col] = -reduced[r_idx][free]
        lead = next(x for x in v if x != 0)
        basis.append(tuple(x / lead for x in v))
    return basis


def rref_inverse(rows: list[list[Fraction]]) -> list[list[Fraction]] | None:
    """Inverse from ``fraction_rref`` of [A | I], or None when A is singular."""
    n = len(rows)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    reduced, pivots = fraction_rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in reduced]


def rref_left_factor(k_rows: list[list[Fraction]], w_rows: list[list[Fraction]]):
    """C with K = C W from ``fraction_rref`` of [W^T | K^T], or the error the library raises."""
    r = len(w_rows)
    if len(fraction_rref([list(row) for row in w_rows])[1]) < r:
        return RankError
    aug = [list(a) + list(b) for a, b in zip(zip(*w_rows), zip(*k_rows))]
    reduced, pivots = fraction_rref(aug)
    if any(p >= r for p in pivots):
        return InconsistentSystemError
    return [list(col) for col in zip(*(row[r:] for row in reduced[:r]))]


def common_denominator_left_factor(k_image: RationalMatrix, w: RationalMatrix) -> RationalMatrix:
    """C with K = C W from the integer rows of [W^T | K^T] over one common denominator.

    Every row of W and K is lifted to the lcm of all their denominators
    before the transpose is reduced, so C^T is the reduced block over d
    with no rescaling.  The oracle for ``solve_for_left_factor``, which
    reduces each block's own integer rows and rescales C afterwards;
    raises the library's RankError and InconsistentSystemError.
    """
    if k_image.rows != w.rows or k_image.cols != w.cols:
        raise DimensionError("left-factor solve needs equally shaped matrices")
    r = w.rows
    stacked = RationalMatrix.from_int_rows(w.int_rows + k_image.int_rows).transpose()
    aug, _ = exact_linalg._int_rows_and_scale(stacked)
    pivots, _, reduced, d = exact_linalg._echelon(aug)
    if pivots[:r] != list(range(r)):
        raise RankError(f"target has row rank < {r}; left factor is not determined")
    if len(pivots) > r:
        raise InconsistentSystemError("no exact left factor exists")
    return RationalMatrix.from_int_rows((col, d) for col in zip(*reduced))


def fraction_matmul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    """The product by a Fraction sum over each row-column pair, term by term.

    The reference that the integer dot products of ``RationalMatrix.__matmul__``
    are compared against.
    """
    assert len(a[0]) == len(b)
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


def four_product_transport(cert: EquivalenceCertificate, point: TNNPoint) -> bool:
    """The transport square by four dense products: (V D) Z^T C^T == V Z'^T, V D TNN.

    D is the dense diagonal matrix and every product is a ``fraction_matmul``,
    independent of the certificate's residual.
    """
    v = [list(row) for row in point.matrix.row_tuples()]
    n = len(cert.d_diag)
    d = [[cert.d_diag[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    z_t = [list(col) for col in zip(*cert.z.row_tuples())]
    c_t = [list(col) for col in zip(*cert.c.row_tuples())]
    z_prime_t = [list(col) for col in zip(*cert.z_prime.row_tuples())]
    vd = fraction_matmul(v, d)
    lhs = fraction_matmul(fraction_matmul(vd, z_t), c_t)
    rhs = fraction_matmul(v, z_prime_t)
    return lhs == rhs and check_tnn(RationalMatrix(vd)).is_tnn


def fraction_fiber_partner(
    setup: AmplituhedronSetup, cell: PositroidCellSpec, point: TNNPoint, rng: Random
) -> tuple[RationalMatrix, tuple[Fraction, ...], int]:
    """The sampler on Fractions: (V, x, halvings), lambda found by halving from 1.

    Draws d exactly as ``sample_fiber_partner`` does, reads alpha and beta
    as Fractions through ``minors_of``, and halves lambda while some
    falling minor alpha + lambda beta is <= 0.  The reference that the
    one-pass integer choice of lambda is compared against.
    """
    a = setup.kernel_gen
    u = point.matrix
    if not in_closed_cell(u, cell):
        raise NotInCellError("sample point is not in the closed cell")
    d = tuple(
        Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), 8 * rng.randint(1, 4))
        for _ in range(setup.k)
    )
    alpha = minors_of(point.minors)
    moved = minors_of(all_maximal_minors(u + outer_product(d, a)))
    beta = {s: moved[s] - value for s, value in alpha.items()}
    lam = Fraction(1)
    if any(beta[s] != 0 for s in cell.nonbases) or any(
        value == 0 and beta[s] < 0 for s, value in alpha.items()
    ):
        lam = Fraction(0)
    falling = [(alpha[s], b) for s, b in beta.items() if b < 0]
    halvings = 0
    while lam and any(value + lam * b <= 0 for value, b in falling):
        lam /= 2
        halvings += 1
    x = tuple(lam * entry for entry in d)
    return u + outer_product(x, a), x, halvings


def fraction_certificate(
    setup: AmplituhedronSetup, cell: PositroidCellSpec, u: RationalMatrix, v: RationalMatrix
) -> tuple[list[tuple[IndexSubset, Fraction, Fraction]], bool]:
    """(per_minor, verdict) of the convexity certificate, every minor read as a Fraction.

    alpha = p(U), beta = p(V) - p(U), and p(V + x^T a) == alpha + 2 beta is
    checked on Fractions, with the matrices built by ``outer_product``, ``+``
    and ``-`` and the segment rule written out: the reference for the
    integer path of ``convexity_certificate``.
    """
    for name, mat in (("U", u), ("V", v)):
        if not in_closed_cell(mat, cell):
            raise NotInCellError(f"{name} is not in the closed cell")
    a = setup.kernel_gen
    delta = v - u
    pivot = next(j for j, entry in enumerate(a) if entry != 0)
    x = tuple(delta.entry(i, pivot) / a[pivot] for i in range(u.rows))
    if delta != outer_product(x, a):
        raise FiberMismatchError("U and V have different images under V -> V Z^T")
    minors0, minors1 = minors_of(all_maximal_minors(u)), minors_of(all_maximal_minors(v))
    minors2 = minors_of(all_maximal_minors(v + outer_product(x, a)))
    entries = []
    for subset in minors0:
        alpha = minors0[subset]
        beta = minors1[subset] - alpha
        if minors2[subset] != alpha + 2 * beta:
            raise InternalConsistencyError(
                f"minor on columns {list(subset.members)} is not affine along the fiber line"
            )
        entries.append((subset, alpha, beta))
    verdict = all(
        alpha == beta == 0 if s in cell.nonbases else alpha >= 0 and alpha + beta >= 0
        for s, alpha, beta in entries
    )
    return entries, verdict


def make_fiber_pair(
    setup: AmplituhedronSetup, u: RationalMatrix, v: RationalMatrix
) -> FiberPair:
    """Validate a pair and record its displacement."""
    return FiberPair(u=u, v=v, x=fiber_displacement(setup, u, v))


def minor_affine_coeffs(
    u: RationalMatrix,
    x: tuple[Fraction, ...],
    a: tuple[Fraction, ...],
    cols: IndexSubset,
) -> tuple[Fraction, Fraction]:
    """Coefficients (alpha, beta) with minor(U + lambda x^T a, cols) = alpha + beta*lambda.

    One minor at a time, fitted from lambda = 0 and 1; the value at
    lambda = 2 is computed independently and must land on the same line,
    which rules out any higher-degree behavior.
    """
    if len(x) != u.rows or len(a) != u.cols:
        raise DimensionError("displacement and kernel vector sizes must match the matrix")
    step = outer_product(tuple(x), tuple(a))
    rows_all = IndexSubset(tuple(range(1, u.rows + 1)))
    m0 = minor(u, rows_all, cols)
    m1 = minor(u + step, rows_all, cols)
    m2 = minor(u + step + step, rows_all, cols)
    alpha, beta = m0, m1 - m0
    if m2 != alpha + 2 * beta:
        raise InternalConsistencyError(
            f"minor on columns {list(cols.members)} is not affine along the fiber line"
        )
    return alpha, beta


def mpmath_trig_rows(k: int, m: int, n: int, digits: int) -> list[list[Fraction]]:
    """The z0 entry estimates from mpmath's pi, cos and sin at digits + 15 places.

    The cosine/sine rows at angles 2*pi*t/n (odd k, after an all-ones
    row) or (2t+1)*pi/n (even k), each value rounded half to even
    (``mpmath.nint``) to 10^-digits.  Skips the calling test when mpmath
    is not installed.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits + 15):
        scale = mpmath.mpf(10) ** digits

        def rounded(x) -> Fraction:
            return Fraction(int(mpmath.nint(x * scale)), 10 ** digits)

        rows: list[list[Fraction]] = []
        if k % 2 == 1:
            rows.append([Fraction(1)] * n)
            pair_count = (k + m - 1) // 2
            angles = [2 * mpmath.pi * t / n for t in range(1, pair_count + 1)]
        else:
            pair_count = (k + m) // 2
            angles = [(2 * t + 1) * mpmath.pi / n for t in range(pair_count)]
        for theta in angles:
            rows.append([rounded(mpmath.cos(theta * i)) for i in range(n)])
            rows.append([rounded(mpmath.sin(theta * i)) for i in range(n)])
    return rows


def det2(a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> Fraction:
    """The ad - bc oracle for 2 x 2 blocks."""
    return a * d - b * c


def vandermonde_det(nodes: list[Fraction]) -> Fraction:
    """Product of differences: determinant of the square Vandermonde matrix."""
    total = Fraction(1)
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            total *= nodes[j] - nodes[i]
    return total


def random_fraction(rng: Random, lo: int = -9, hi: int = 9, max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_matrix(rng: Random, rows: int, cols: int, **kw) -> RationalMatrix:
    return RationalMatrix(
        [[random_fraction(rng, **kw) for _ in range(cols)] for _ in range(rows)]
    )


def random_invertible(rng: Random, n: int) -> RationalMatrix:
    while True:
        m = random_matrix(rng, n, n)
        if det(m) != 0:
            return m


def random_positive_det(rng: Random, n: int) -> RationalMatrix:
    while True:
        m = random_matrix(rng, n, n)
        if det(m) > 0:
            return m


def draw_nodes(rng: Random, count: int, lo: int = 1, hi: int = 12) -> list[Fraction]:
    """Distinct increasing positive rationals on a coarse grid."""
    picks: set[Fraction] = set()
    while len(picks) < count:
        picks.add(Fraction(rng.randint(4 * lo, 4 * hi), 4))
    return sorted(picks)


def power_draw_nodes(rng: Random, count: int, lo: Fraction, hi: Fraction) -> list[Fraction]:
    """The CLI's grid sampler as a set of Fraction nodes, each built per draw.

    The reference that ``tnngrass.cli.draw_nodes`` (distinct grid indices
    first, one node per index) is compared against.
    """
    span = hi - lo
    picks: set[Fraction] = set()
    while len(picks) < count:
        picks.add(lo + span * Fraction(rng.randint(0, 64), 64))
    return sorted(picks)


def power_top_cell_point(rng: Random, k: int, n: int, lo: Fraction, hi: Fraction) -> RationalMatrix:
    """The CLI's scaled Vandermonde point with every entry s * x**i built by a power."""
    nodes = power_draw_nodes(rng, n, lo, hi)
    scales = [Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(n)]
    return RationalMatrix([[s * (x ** i) for s, x in zip(scales, nodes)] for i in range(k)])


def vandermonde_setup(k: int, m: int, nodes: list[Fraction]) -> AmplituhedronSetup:
    """Totally positive setup built from a Vandermonde matrix."""
    z = RationalMatrix([[x ** i for x in nodes] for i in range(k + m)])
    return build_setup(k, m, z)


def random_corank_one_setup(rng: Random, k: int, m: int) -> AmplituhedronSetup:
    return vandermonde_setup(k, m, draw_nodes(rng, k + m + 1))


def scaled_vandermonde_point(rng: Random, k: int, n: int) -> TNNPoint:
    """Totally positive point: Vandermonde with positive column scales."""
    nodes = draw_nodes(rng, n)
    scales = [Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(n)]
    matrix = RationalMatrix(
        [[s * (x ** i) for s, x in zip(scales, nodes)] for i in range(k)]
    )
    return TNNPoint.from_matrix(matrix)
