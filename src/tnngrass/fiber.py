"""Fiber convexity certificates and the section witness for the map on spans.

With n = k+m+1 the kernel of v -> v Z^T is exactly span(a) for a single
vector a (``build_setup`` checks Z a^T = 0), so V lies in U's fiber iff
V - U = x^T a for a row vector x, the one same-fiber test.  Along that
segment U + lambda x^T a every maximal minor is affine in lambda; a
certificate keeps the minor tables of U and V, the coefficients at
lambda = 0 and 1 (independently confirmed at lambda = 2), from which
``segment_in_cell`` proves that every convex combination stays inside
the closed cell.  The same affinity lets the sampler decide a point's
admissible partners exactly, from its own table and one more.  Every
decision along the line is a sign test, read on the integer minors of
the tables over their positive scales, and the certificate writes its
coefficients from those integers; no Fraction is built unless asked for.

The section witness realizes the inverse direction: given a spanning
representative K of a fiber point and the target image W, the unique C
with K Z^T = C W (one exact solve, which also decides that the spans
agree) has positive determinant and C^{-1} K is the canonical
representative mapping exactly onto W.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .amplituhedron_map import AmplituhedronSetup
from .errors import (
    DimensionError,
    FiberMismatchError,
    InconsistentSystemError,
    InternalConsistencyError,
    NotInCellError,
    RankError,
    UnsupportedParameterError,
    WellDefinednessError,
)
from .exact_linalg import (
    IndexSubset,
    MinorTable,
    RationalMatrix,
    RowVector,
    all_maximal_minors,
    _colex_members,
    _colex_unrank,
    det,
    invert,
    rank,
    _ratio_string,
    rational_to_string,
    solve_for_left_factor,
)
from .tnn_grassmannian import (
    PositroidCellSpec,
    TNNPoint,
    check_tnn,
    in_closed_cell,
)

__all__ = [
    "FiberPair",
    "FiberConvexityCertificate",
    "SectionWitness",
    "fiber_displacement",
    "convexity_certificate",
    "section_witness",
    "sample_fiber_partner",
    "segment_in_cell",
]


def _require_corank_one(setup: AmplituhedronSetup) -> RowVector:
    if setup.n != setup.k + setup.m + 1 or setup.kernel_gen is None:
        raise UnsupportedParameterError(
            f"fiber operations need n = k+m+1, got n={setup.n}, k+m={setup.k + setup.m}"
        )
    return setup.kernel_gen


def fiber_displacement(
    setup: AmplituhedronSetup, u: RationalMatrix, v: RationalMatrix
) -> RowVector:
    """The unique row vector x with V - U = x^T a; FiberMismatchError if there is none."""
    a = _require_corank_one(setup)
    if u.rows != setup.k or u.cols != setup.n or v.rows != setup.k or v.cols != setup.n:
        raise DimensionError(f"representatives must be {setup.k}x{setup.n}")
    pivot = next(j for j, entry in enumerate(a) if entry != 0)
    x = tuple((v.entry(i, pivot) - u.entry(i, pivot)) / a[pivot] for i in range(setup.k))
    if v != u.add_outer(x, a):
        raise FiberMismatchError("U and V have different images under V -> V Z^T")
    return x


@dataclass(frozen=True)
class FiberPair:
    """Two same-fiber representatives with their displacement vector."""

    u: RationalMatrix
    v: RationalMatrix
    x: RowVector


def segment_in_cell(alpha: Fraction | int, beta: Fraction | int, nonbasis: bool) -> bool:
    """Whether the minor alpha + lambda beta stays in its cell for 0 <= lambda <= 1.

    Being affine in lambda, it does iff it is nonnegative at both ends, or
    on a nonbasis iff it is the zero polynomial.  Only signs are compared,
    so alpha and beta may be given times any common positive scale, such
    as integer numerators over a positive common denominator.
    """
    if nonbasis:
        return alpha == 0 and beta == 0
    return alpha >= 0 and alpha + beta >= 0


@dataclass(frozen=True)
class FiberConvexityCertificate:
    """The minor tables of a fiber segment's ends, proving it stays in a cell.

    With u / s and v / t a minor of U and of V, its affine coefficients
    are alpha = u / s and beta = v / t - u / s = (v s - u t) / (s t).  The
    verdict is true iff ``segment_in_cell`` holds for every minor; by
    affineness in lambda this covers all convex combinations at once.
    ``convexity_certificate`` builds one only when both ends lie in the
    cell, which makes it true.
    """

    cell: PositroidCellSpec
    u_minors: MinorTable
    v_minors: MinorTable
    verdict: bool

    def coefficients(self, cols: IndexSubset) -> tuple[Fraction, Fraction]:
        """(alpha, beta) of the minor on ``cols``; KeyError for a subset not in the tables."""
        alpha = Fraction(self.u_minors.int_at(cols), self.u_minors.scale)
        return alpha, Fraction(self.v_minors.int_at(cols), self.v_minors.scale) - alpha

    def to_json_dict(self) -> dict:
        u, v = self.u_minors, self.v_minors
        s, t = u.scale, v.scale
        return {
            "cell": self.cell.to_json_dict(),
            "minors": [
                {
                    "cols": list(cols),
                    "alpha": _ratio_string(m_u, s),
                    "beta": _ratio_string(m_v * s - m_u * t, s * t),
                }
                for cols, m_u, m_v in zip(_colex_members(u.n, u.k), u.ints, v.ints)
            ],
            "verdict": self.verdict,
        }


def convexity_certificate(
    setup: AmplituhedronSetup,
    cell: PositroidCellSpec,
    u: RationalMatrix,
    v: RationalMatrix,
) -> FiberConvexityCertificate:
    """Certificate that the segment from U to V stays in the closed cell.

    Preconditions are reported distinctly: both endpoints must lie in
    the cell, and both must have the same image.
    """
    a = _require_corank_one(setup)
    if (cell.k, cell.n) != (setup.k, setup.n):
        raise DimensionError(
            f"cell is for {cell.k}x{cell.n}, setup is {setup.k}x{setup.n}"
        )
    for name, mat in (("U", u), ("V", v)):
        if not in_closed_cell(mat, cell):
            raise NotInCellError(f"{name} is not in the closed cell")
    x = fiber_displacement(setup, u, v)

    # in_closed_cell left both tables on their matrices; fiber_displacement
    # checked V = U + x^T a exactly, so V's gives the minors at lambda = 1.
    # lambda = 2 is computed independently as the affinity check, read on
    # integers over positive scales, with m_l / s_l the minor at lambda = l.
    minors0, minors1 = all_maximal_minors(u), all_maximal_minors(v)
    minors2 = all_maximal_minors(v.add_outer(x, a))
    s0, s1, s2 = minors0.scale, minors1.scale, minors2.scale
    s01, s02, s12 = s0 * s1, s0 * s2, s1 * s2
    for i, (m0, m1, m2) in enumerate(zip(minors0.ints, minors1.ints, minors2.ints)):
        if m2 * s01 != 2 * m1 * s02 - m0 * s12:
            raise InternalConsistencyError(
                f"minor on columns {list(_colex_unrank(i, minors0.k))} is not affine along the fiber line"
            )
    # Both ends are in the closed cell, so every minor is nonnegative at
    # both, and zero at both on a nonbasis; being affine, it satisfies
    # segment_in_cell, and the verdict is the ends' membership.
    return FiberConvexityCertificate(cell=cell, u_minors=minors0, v_minors=minors1, verdict=True)


@dataclass(frozen=True)
class SectionWitness:
    """Exact data of the section: K, the factor C, and C^{-1} K."""

    k_rep: RationalMatrix
    c: RationalMatrix
    result: RationalMatrix
    det_c: Fraction


def section_witness(
    setup: AmplituhedronSetup, k_rep: RationalMatrix, w: RationalMatrix
) -> SectionWitness:
    """Solve K Z^T = C W and return the section value C^{-1} K.

    W must be the image of a totally nonnegative representative of the
    same fiber point (the hypothesis under which det(C) > 0 is a proved
    fact; it is not independently decidable here).  A nonpositive det(C)
    with totally nonnegative K is therefore reported as an internal
    inconsistency.  The solve raises RankError for a W of deficient rank
    and FiberMismatchError when span(W) differs from span(K Z^T), and
    WellDefinednessError when det(C) = 0, that is, rank(K Z^T) < k.
    """
    if k_rep.rows != setup.k or k_rep.cols != setup.n:
        raise DimensionError(f"K must be {setup.k}x{setup.n}")
    if w.rows != setup.k or w.cols != setup.k + setup.m:
        raise DimensionError(f"W must be {setup.k}x{setup.k + setup.m}")
    if rank(k_rep) < setup.k:
        raise RankError("K must have full row rank")
    k_image = k_rep @ setup.Z.transpose()
    try:
        c = solve_for_left_factor(k_image, w)
    except InconsistentSystemError as exc:
        raise FiberMismatchError("span(K Z^T) differs from span(W)") from exc
    det_c = det(c)
    if det_c == 0:
        raise WellDefinednessError(f"K Z^T has rank below {setup.k}; the span is not a valid point")
    if det_c < 0 and check_tnn(k_rep).is_tnn:
        raise InternalConsistencyError(
            f"det(C) = {rational_to_string(det_c)} <= 0 for a TNN representative"
        )
    result = invert(c) @ k_rep
    if result @ setup.Z.transpose() != w:
        raise InternalConsistencyError("section value does not map exactly onto W")
    return SectionWitness(k_rep=k_rep, c=c, result=result, det_c=det_c)


def sample_fiber_partner(
    setup: AmplituhedronSetup,
    cell: PositroidCellSpec,
    point: TNNPoint,
    rng: Random,
    stats: dict[str, int] | None = None,
) -> FiberPair:
    """Draw V = U + lambda d^T a with V still in the closed cell.

    Along the line every minor is alpha + lambda beta: alpha is the
    point's own table, beta comes from one table at lambda = 1 for a
    drawn d with no zero entry.  lambda = 0 (V = U) when a nonbasis minor
    moves or a vanishing one falls, as on cells cut out by zeroed
    columns; otherwise lambda is the largest of 1, 1/2, 1/4, ... below
    min(-alpha / beta) over the falling minors, which keeps every moving
    minor positive.  ``stats["accepted"]`` counts calls and
    ``stats["lambda_halvings"]`` adds up the t of each lambda = 2^-t
    (0 when lambda is 0).

    Both tables are read as integers: with alpha = a_I / s_a and the moved
    minor m_I / s_m, beta = b_I / (s_a s_m) for b_I = m_I s_a - a_I s_m,
    so beta has the sign of b_I and -alpha / beta = a_I s_m / (-b_I).
    """
    a = _require_corank_one(setup)
    u = point.matrix
    if not in_closed_cell(u, cell):
        raise NotInCellError("sample point is not in the closed cell")
    if stats is not None:
        stats["accepted"] = stats.get("accepted", 0) + 1
    d = tuple(
        Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), 8 * rng.randint(1, 4))
        for _ in range(setup.k)
    )
    alpha = all_maximal_minors(u)
    moved = all_maximal_minors(u.add_outer(d, a))
    s_alpha, s_moved = alpha.scale, moved.scale
    stuck = any(moved.int_at(s) * s_alpha != alpha.int_at(s) * s_moved for s in cell.nonbases)
    # the least ratio p / q of a_I s_m / (-b_I) over the falling minors,
    # compared by cross-multiplication; q = 0 stands for none yet
    p, q = 1, 0
    for value, m in zip(alpha.ints, moved.ints):
        if stuck:
            break
        b = m * s_alpha - value * s_moved
        if b < 0:
            # a vanishing minor that falls leaves only V = U
            stuck = value == 0
            num = value * s_moved
            if num * q < p * -b:
                p, q = num, -b
    halvings = 0
    if stuck:
        lam = Fraction(0)
    else:
        # the least t >= 0 with 2^t p > q, so lambda = 2^-t < p / q
        if q:
            halvings = max(0, q.bit_length() - p.bit_length())
            if p << halvings <= q:
                halvings += 1
        lam = Fraction(1, 1 << halvings)
    if stats is not None:
        stats["lambda_halvings"] = stats.get("lambda_halvings", 0) + halvings
    x = tuple(lam * entry for entry in d)
    return FiberPair(u=u, v=u.add_outer(x, a) if lam else u, x=x)
