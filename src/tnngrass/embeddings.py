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
from .errors import DomainError, InternalConsistencyError, RankError, WellDefinednessError
from .exact_linalg import (
    RationalMatrix,
    RowVector,
    all_maximal_minors,
    as_rational,
    rank,
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

    The output is validated exactly: symmetric, trace one, idempotent,
    rank one.  All four follow algebraically from the formula, so a
    failure here means broken arithmetic, not bad input.
    """
    vals = tuple(as_rational(v) for v in x)
    if not vals:
        raise DomainError("empty vector")
    norm2 = sum(v * v for v in vals)
    if norm2 == 0:
        raise DomainError("zero vector has no span")
    entries = RationalMatrix(
        tuple(vi * vj / norm2 for vj in vals) for vi in vals
    )
    d = len(vals)
    if entries != entries.transpose():
        raise InternalConsistencyError("projection matrix is not symmetric")
    if sum(entries.entry(i, i) for i in range(d)) != 1:
        raise InternalConsistencyError("projection matrix trace is not 1")
    if entries @ entries != entries:
        raise InternalConsistencyError("projection matrix is not idempotent")
    if rank(entries) != 1:
        raise InternalConsistencyError("projection matrix does not have rank one")
    return VeroneseMatrix(entries=entries)


def embed_point(setup: AmplituhedronSetup, matrix: RationalMatrix) -> VeroneseMatrix:
    """Projection-matrix embedding of the image of a representative.

    Independent of the representative: left multiplication by an
    invertible G rescales every minor coordinate by det(G), which the
    projection formula cancels.
    """
    mapped = hat_map(setup, matrix)
    if mapped.image_rank < setup.k:
        raise WellDefinednessError(
            f"image rank dropped to {mapped.image_rank}; the span is not a valid point"
        )
    return veronese(pluecker(mapped.image).coords)
