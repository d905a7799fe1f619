"""Projective equivalence certificates between corank-one positive setups.

For two setups with n = k+m+1 whose maximal minors are all positive,
the kernels of Z and Z' are spanned by sign-alternating vectors a and b
normalized to the same leading sign.  The diagonal matrix
D = diag(a_i / b_i) then has positive diagonal, Z D and Z' share their
kernel and hence their row span, and the unique C with Z' = C Z D has
positive determinant.  C is solved from C Z = Z' D^-1, so the elimination
pivots on Z's own integer rows.  The triple (C, D, det C) is an exact
certificate that the two image bodies are projectively equivalent.

Every identity is decided once per certificate or once per setup.  As
every d_j > 0, Z' = C Z D holds iff C Z = Z' D^-1, so a constructed
certificate is decided on the solve's own system: one product of Z's
own rows, compared with the right side the solve was given.  det C is
then read off the two setups' memoized minor tables: C (Z D)_S = Z'_S
on the first k+m columns S, so det C = p_S(Z') / (p_S(Z) prod_{j in S}
d_j).  Only a certificate built otherwise forms the residual
R = C (Z D) - Z', once, and is exact iff R = 0.  A transport spot check
on V tests V R^T = 0, the square
(V D) Z^T C^T = V Z'^T moved to one side (D is diagonal, so D^T = D);
an exact certificate passes it for every V without a product.  V D is
totally nonnegative iff V is when every d_j > 0, since each minor of V D
is V's minor times a positive product, so the check is one sign scan of
V's own memoized table; only a D with a zero or negative entry, which
no constructed certificate has, computes the table of V D.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod

from .amplituhedron_map import AmplituhedronSetup
from .errors import (
    DimensionError,
    DomainError,
    InconsistentSystemError,
    InternalConsistencyError,
    RankError,
    UnsupportedParameterError,
)
from .exact_linalg import (
    RationalMatrix,
    RowVector,
    all_maximal_minors,
    _colex_unrank,
    rational_to_string,
    solve_for_left_factor,
)
from .tnn_grassmannian import TNNPoint, check_tnn

__all__ = [
    "EquivalenceCertificate",
    "construct_equivalence",
    "equivalence_transport_check",
    "cyclic_polytope_vertices",
]


@dataclass(frozen=True)
class EquivalenceCertificate:
    """Matrices with Z' = C Z D exactly, positive D diagonal and det C > 0."""

    z: RationalMatrix
    z_prime: RationalMatrix
    d_diag: RowVector
    c: RationalMatrix
    det_c: Fraction

    @property
    def d_matrix(self) -> RationalMatrix:
        return RationalMatrix.diagonal(self.d_diag)

    @cached_property
    def residual(self) -> RationalMatrix:
        """C Z D - Z', computed on first use and kept; zero iff the identity holds."""
        return self.c @ self.z.scale_columns(self.d_diag) - self.z_prime

    @cached_property
    def exact(self) -> bool:
        """Whether Z' = C Z D holds entrywise, decided once.

        ``construct_equivalence`` stores the verdict it decided as
        C Z = Z' D^-1; any other certificate, such as one copied with
        ``dataclasses.replace``, forms the residual.
        """
        return _is_zero(self.residual)

    @cached_property
    def residual_transpose(self) -> RationalMatrix:
        """R^T, formed once; only a certificate that is not exact needs it."""
        return self.residual.transpose()

    @cached_property
    def d_positive(self) -> bool:
        """Whether every d_j > 0, so that V D has the minor signs of V."""
        return all(x > 0 for x in self.d_diag)

    def to_json_dict(self) -> dict:
        return {
            "Z": self.z.to_json_dict(),
            "Zprime": self.z_prime.to_json_dict(),
            "D_diag": [rational_to_string(x) for x in self.d_diag],
            "C": self.c.to_json_dict(),
            "detC": rational_to_string(self.det_c),
        }


def construct_equivalence(
    setup_a: AmplituhedronSetup, setup_b: AmplituhedronSetup
) -> EquivalenceCertificate:
    """Exact certificate carrying setup A's matrix onto setup B's.

    Both setups must have n = k+m+1 and strictly positive maximal
    minors, which makes the kernel generators sign-alternating with no
    zero entries.  C is solved from C Z = Z' D^-1, with Z's own rows as
    the pivot block; the identity Z' = C Z D is then decided once, as
    C Z = Z' D^-1 (every d_j > 0), and det C read off the setups'
    memoized tables as
    p_S(Z') / (p_S(Z) prod_{j in S} d_j) for S = {1..k+m}, with no
    second elimination.
    """
    if (setup_a.k, setup_a.m) != (setup_b.k, setup_b.m):
        raise DimensionError(
            f"setups have different parameters: ({setup_a.k},{setup_a.m}) vs ({setup_b.k},{setup_b.m})"
        )
    for name, setup in (("A", setup_a), ("B", setup_b)):
        if setup.n != setup.k + setup.m + 1:
            raise UnsupportedParameterError(f"setup {name} needs n = k+m+1, got n={setup.n}")
        if not setup.all_minors_positive:
            raise DomainError(f"setup {name} does not have all maximal minors positive")
        if not setup.kernel_alternating:
            raise DomainError(f"setup {name} has a kernel with zero or non-alternating entries")
    a = setup_a.kernel_gen
    b = setup_b.kernel_gen
    assert a is not None and b is not None
    # Both generators lead with +1, so entries agree in sign position by
    # position and the ratios are positive.
    d_diag = tuple(ai / bi for ai, bi in zip(a, b))
    if any(x <= 0 for x in d_diag):
        raise InternalConsistencyError("diagonal ratio of aligned alternating kernels is not positive")
    k_image = setup_b.Z.scale_columns([1 / x for x in d_diag])
    try:
        c = solve_for_left_factor(k_image, setup_a.Z)
    except (RankError, InconsistentSystemError) as exc:
        # Equal kernels force equal row spans, so the solve cannot fail.
        raise InternalConsistencyError(
            f"no exact left factor although kernels agree: {exc}"
        ) from exc
    # D is invertible, so Z' = C Z D iff C Z = Z' D^-1: no Z D and no residual
    if c @ setup_a.Z != k_image:
        raise InternalConsistencyError("certificate identity Z' = C Z D failed entrywise")
    # Once Z' = C Z D holds, C (Z D)_S = Z'_S on the first k+m columns S,
    # the first colex entry of both memoized tables, so det C is a ratio
    # of leading minors and C needs no elimination of its own.
    r = setup_a.Z.rows
    lead_a, lead_b = all_maximal_minors(setup_a.Z), all_maximal_minors(setup_b.Z)
    p_a = Fraction(lead_a.ints[0], lead_a.scale)
    det_c = Fraction(lead_b.ints[0], lead_b.scale) / (p_a * prod(d_diag[:r]))
    if det_c <= 0:
        raise InternalConsistencyError(f"det(C) = {rational_to_string(det_c)} is not positive")
    cert = EquivalenceCertificate(
        z=setup_a.Z, z_prime=setup_b.Z, d_diag=d_diag, c=c, det_c=det_c
    )
    # the cached ``exact``, decided above
    vars(cert)["exact"] = True
    return cert


def equivalence_transport_check(cert: EquivalenceCertificate, point: TNNPoint) -> bool:
    """Exact commutativity of the transport square on one representative.

    The square (V D) Z^T C^T = V Z'^T holds entrywise iff V R^T = 0 for
    the certificate's residual R = C Z D - Z'.  An exact certificate
    (R = 0) passes it for every V, so only a certificate that is not
    exact makes a product, with the R^T it forms once.  Also checks that
    V D is still totally nonnegative: when every d_j > 0 each minor of
    V D is V's minor times a positive product, so this is one sign scan
    of V's memoized table.  A D with a zero or negative entry, as only a
    hand-built certificate has, scans the table of V D instead.
    """
    v = point.matrix
    n = len(cert.d_diag)
    if v.cols != n:
        raise DimensionError(f"representative must have {n} columns")
    if cert.z.cols != n:
        raise DimensionError(f"{n} diagonal entries for the {cert.z.cols} columns of Z")
    if not (cert.exact or _is_zero(v @ cert.residual_transpose)):
        return False
    return check_tnn(v if cert.d_positive else v.scale_columns(cert.d_diag)).is_tnn


def _is_zero(m: RationalMatrix) -> bool:
    return not any(any(ints) for ints, _ in m.int_rows)


def cyclic_polytope_vertices(setup: AmplituhedronSetup) -> list[RowVector]:
    """Vertex representatives for a k = 1 positive setup: the columns of Z.

    For m <= 2 the convex position of the vertices is verified exactly in
    the affine chart f = 1 of a linear functional f that is positive on
    every column: after dividing each column by its value under f, every
    (m+1)-subset of points in column order must have a strictly positive
    orientation determinant.  With z_1, ..., z_n the columns,

        m = 1:  f(z) = det(z, z_n) + det(z_1, z),
        m = 2:  f(z) = det(z, z_{n-1}, z_n) + det(z_1, z, z_n) + det(z_1, z_2, z).

    When every maximal minor is positive, each column makes one term
    positive and none negative, so f <= 0 on a column is a falsified
    identity.  The determinants are the maximal minors of the (m+1) x n
    matrix of charted columns, read as integers over the table's positive
    scale, so each has the sign of its integer.
    """
    if setup.k != 1:
        raise UnsupportedParameterError(f"vertex extraction needs k = 1, got k={setup.k}")
    if not setup.all_minors_positive:
        raise DomainError("setup does not have all maximal minors positive")
    m, n = setup.m, setup.n
    columns = [setup.Z.column(j) for j in range(n)]
    if m > 2:
        return columns

    if m >= 1:
        first, last = columns[0], columns[-1]
        if m == 1:
            y = (last[1] - first[1], first[0] - last[0])  # f(z) = det(z, z_n - z_1)
        else:
            # det(a, b, c) = c . (a x b), so y = z_{n-1} x z_n + z_n x z_1 + z_1 x z_2
            terms = (_cross(columns[-2], last), _cross(last, first), _cross(first, columns[1]))
            y = tuple(map(sum, zip(*terms)))
        charted = []
        for j, col in enumerate(columns):
            f = sum(map(operator.mul, y, col))
            if f <= 0:
                raise InternalConsistencyError(
                    f"chart functional is {rational_to_string(f)} on column {j + 1}, not positive"
                )
            charted.append(tuple(x / f for x in col))
        orientations = all_maximal_minors(RationalMatrix(zip(*charted)))
        for i, value in enumerate(orientations.ints):  # colex order
            if value <= 0:
                problem = "are affinely dependent" if value == 0 else "changed sign: not in convex position"
                cols = list(_colex_unrank(i, orientations.k))
                raise InternalConsistencyError(f"charted columns {cols} {problem}")
    return columns


def _cross(a: RowVector, b: RowVector) -> RowVector:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
