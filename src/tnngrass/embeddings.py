"""Minor-coordinate and projection-matrix embeddings of mapped points.

A rank-k matrix with k+m columns embeds into R^d, d = C(k+m, k), via
the vector of its k x k minors; a nonzero vector of R^d embeds into
d x d matrices as the orthogonal projection onto its span.  Composing
the two after the map on representatives gives an exact Euclidean
embedding of image points that identifies antipodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .amplituhedron_map import AmplituhedronSetup, hat_map
from .errors import (
    DomainError,
    InternalConsistencyError,
    RankError,
    UnsupportedParameterError,
    WellDefinednessError,
)
from .exact_linalg import (
    MAX_SUBSETS,
    RationalMatrix,
    RowVector,
    _cleared,
    all_maximal_minors,
    as_rational,
    capped_comb,
)

__all__ = [
    "PlueckerVector",
    "VeroneseMatrix",
    "pluecker",
    "veronese",
    "embed_point",
]


@dataclass(frozen=True)
class PlueckerVector:
    """All k x k minors of a k x (k+m) matrix, in colexicographic order."""

    coords: RowVector

    @property
    def d(self) -> int:
        return len(self.coords)


def pluecker(matrix: RationalMatrix) -> PlueckerVector:
    """Minor-coordinate vector of a full-row-rank matrix.

    Full rank guarantees the image avoids zero.
    """
    if matrix.rows > matrix.cols:
        raise RankError(f"wide matrix required, got {matrix.rows}x{matrix.cols}")
    table = all_maximal_minors(matrix)
    if not any(table.ints):
        raise RankError(f"matrix has rank below {matrix.rows}; minor vector is zero")
    coords = tuple(Fraction(v, table.scale) for v in table.ints)
    return PlueckerVector(coords)


@dataclass(frozen=True)
class VeroneseMatrix:
    """Rank-one orthogonal projection matrix x^T x / |x|^2."""

    entries: RationalMatrix


def veronese(x: Sequence[int | str | Fraction]) -> VeroneseMatrix:
    """Projection matrix of the line through x; invariant under scaling x.

    Built on integers: with x cleared to integers a (``_cleared``), row i
    is a_i a / |a|^2, so P = x w^T with w = x / |x|^2.  The output is
    validated exactly in O(d^2), as P = P^T and P x = x.  That suffices:
    a symmetric x w^T has w = c x, since x (w^T x) = w |x|^2, and P x = x
    gives w^T x = 1, so c = 1 / |x|^2.  Then P^2 = x (w^T x) w^T = P, P
    has rank one (x and w are nonzero) and trace w^T x = 1.  A failure
    here means broken arithmetic, not bad input.
    """
    vals = tuple(as_rational(v) for v in x)
    if not vals:
        raise DomainError("empty vector")
    a, _ = _cleared(vals)
    norm2 = sum(v * v for v in a)
    if norm2 == 0:
        raise DomainError("zero vector has no span")
    entries = RationalMatrix.from_int_rows(([ai * aj for aj in a], norm2) for ai in a)
    if entries != entries.transpose():
        raise InternalConsistencyError("projection matrix is not symmetric")
    column = RationalMatrix([v] for v in vals)
    if entries @ column != column:
        raise InternalConsistencyError("projection matrix does not fix x")
    return VeroneseMatrix(entries=entries)


def embed_point(setup: AmplituhedronSetup, matrix: RationalMatrix) -> VeroneseMatrix:
    """Projection-matrix embedding of the image of a representative.

    Independent of the representative: left multiplication by an
    invertible G rescales every minor coordinate by det(G), which the
    projection formula cancels.  A d x d projection, d = C(k+m, k), of
    more than ``MAX_SUBSETS`` entries is refused from the shape alone,
    before the map runs.
    """
    k, m = setup.k, setup.m
    d = capped_comb(k + m, k, MAX_SUBSETS)
    if d * d > MAX_SUBSETS:
        raise UnsupportedParameterError(
            f"a C({k + m}, {k}) x C({k + m}, {k}) projection matrix would exceed "
            f"the limit of {MAX_SUBSETS} entries"
        )
    mapped = hat_map(setup, matrix)
    if mapped.image_rank < setup.k:
        raise WellDefinednessError(
            f"image rank dropped to {mapped.image_rank}; the span is not a valid point"
        )
    return veronese(pluecker(mapped.image).coords)
