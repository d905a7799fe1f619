"""Totally nonnegative points, positivity tests, and positroid cell specs.

A k x n matrix of rank k represents a point of the nonnegative part of
the Grassmannian when all of its maximal minors are nonnegative.  Cells
are specified by the k-subsets whose minors are required to vanish
(nonbases); the top cell has an empty nonbasis set.

``check_tnn``, ``TNNPoint.from_matrix`` and ``in_closed_cell`` take
their verdicts from one decision in ``exact_linalg``, whose module
docstring says which shapes read a minor table and which are decided by
one elimination and a positivity test.  ``TNNPoint`` and
``in_closed_cell`` build the table first, because their callers read it
next.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import exact_linalg
from .errors import DegeneracyError, DimensionError, DomainError, UnsupportedParameterError
from .exact_linalg import (
    MAX_SUBSETS,
    IndexSubset,
    MinorTable,
    RationalMatrix,
    all_maximal_minors,
    as_int,
    as_list,
    as_rational,
    capped_comb,
    rational_to_string,
)

__all__ = [
    "TNNWitnessReport",
    "TNNPoint",
    "PositroidCellSpec",
    "check_tnn",
    "matroid_of",
    "in_closed_cell",
    "sample_top_cell",
    "zero_columns",
]


@dataclass(frozen=True)
class TNNWitnessReport:
    """Outcome of a total-nonnegativity check, with a witness on failure.

    ``first_violation`` is the colexicographically least column subset
    whose minor is negative, together with that minor.
    """

    rank_ok: bool
    first_violation: tuple[IndexSubset, Fraction] | None = None

    @property
    def is_tnn(self) -> bool:
        """Full rank and no violation."""
        return self.rank_ok and self.first_violation is None

    def to_json_dict(self) -> dict:
        violation = None
        if self.first_violation is not None:
            subset, value = self.first_violation
            violation = {"cols": list(subset.members), "minor": rational_to_string(value)}
        return {"isTNN": self.is_tnn, "rankOK": self.rank_ok, "firstViolation": violation}


def check_tnn(matrix: RationalMatrix) -> TNNWitnessReport:
    """Full-rank plus all-maximal-minors-nonnegative test for a wide matrix.

    Rank fullness is equivalent to some maximal minor being nonzero.  How
    the minors are read, from a table or from one elimination that keeps
    none, is chosen in ``exact_linalg`` (see its module docstring); the
    report is the same either way.
    """
    return TNNWitnessReport(*exact_linalg._tnn_witness(matrix))


@dataclass(frozen=True)
class TNNPoint:
    """A validated representative of a totally nonnegative point.

    ``minors`` is the table ``from_matrix`` validated, kept by the matrix.
    """

    matrix: RationalMatrix

    @classmethod
    def from_matrix(cls, matrix: RationalMatrix) -> "TNNPoint":
        # the table, not the positivity test: callers read it next
        rank_ok, violation = exact_linalg._tnn_witness(all_maximal_minors(matrix))
        if not rank_ok:
            raise DegeneracyError(f"matrix has rank below {matrix.rows}")
        if violation is not None:
            subset, value = violation
            raise DomainError(
                f"minor on columns {list(subset.members)} is negative: {rational_to_string(value)}"
            )
        return cls(matrix=matrix)

    @property
    def minors(self) -> MinorTable:
        return all_maximal_minors(self.matrix)

    @property
    def k(self) -> int:
        return self.matrix.rows

    @property
    def n(self) -> int:
        return self.matrix.cols


@dataclass(frozen=True)
class PositroidCellSpec:
    """A closed cell given by the k-subsets whose minors must vanish."""

    k: int
    n: int
    nonbases: frozenset[IndexSubset]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nonbases", frozenset(self.nonbases))
        if self.k < 1 or self.n < self.k:
            raise DimensionError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        for subset in self.nonbases:
            if len(subset) != self.k:
                raise DimensionError(f"nonbasis {list(subset.members)} does not have size {self.k}")
            subset.check_bounds(self.n)
        if capped_comb(self.n, self.k, len(self.nonbases)) <= len(self.nonbases):
            raise DomainError("every subset declared dependent; no bases remain")

    @classmethod
    def top_cell(cls, k: int, n: int) -> "PositroidCellSpec":
        return cls(k=k, n=n, nonbases=frozenset())

    @property
    def is_top(self) -> bool:
        return not self.nonbases

    def to_json_dict(self) -> dict:
        subsets = sorted(self.nonbases, key=lambda s: tuple(reversed(s.members)))
        return {"k": self.k, "n": self.n, "nonbases": [list(s.members) for s in subsets]}

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "PositroidCellSpec":
        nonbases = frozenset(IndexSubset(tuple(as_list(s))) for s in as_list(obj["nonbases"]))
        return cls(k=as_int(obj["k"]), n=as_int(obj["n"]), nonbases=nonbases)


def matroid_of(point: TNNPoint) -> PositroidCellSpec:
    """Cell spec of the unique open cell containing the point's span.

    Nonbases are exactly the column subsets with vanishing minor.
    """
    minors = point.minors
    nonbases = frozenset(s for s, v in zip(minors.subsets, minors.ints) if v == 0)
    return PositroidCellSpec(k=point.k, n=point.n, nonbases=nonbases)


def in_closed_cell(matrix: RationalMatrix, cell: PositroidCellSpec) -> bool:
    """Membership of a representative in the closed cell.

    True iff the matrix is totally nonnegative of full rank and every
    declared nonbasis minor vanishes exactly.
    """
    if (matrix.rows, matrix.cols) != (cell.k, cell.n):
        raise DimensionError(f"matrix is {matrix.rows}x{matrix.cols} but cell expects {cell.k}x{cell.n}")
    minors = all_maximal_minors(matrix)
    if not TNNWitnessReport(*exact_linalg._tnn_witness(minors)).is_tnn:
        return False
    return all(minors.int_at(s) == 0 for s in cell.nonbases)


def sample_top_cell(
    k: int, n: int, nodes: Sequence[int | str | Fraction]
) -> TNNPoint:
    """Vandermonde representative with all maximal minors strictly positive.

    Row i holds the (i-1)-th powers of the nodes; any k columns then form
    a Vandermonde matrix in distinct positive nodes, whose determinant is
    a product of positive differences.
    """
    if k < 1 or n < k:
        raise DimensionError(f"need 1 <= k <= n, got k={k}, n={n}")
    # refused before any node or entry is built, so nodes may be a lazy range
    if k * n > MAX_SUBSETS or capped_comb(n, k, MAX_SUBSETS) > MAX_SUBSETS:
        raise UnsupportedParameterError(
            f"a {k}x{n} matrix or its C({n}, {k}) minors would exceed the limit of {MAX_SUBSETS}"
        )
    vals = [as_rational(x) for x in nodes]
    if len(vals) != n:
        raise DimensionError(f"expected {n} nodes, got {len(vals)}")
    if any(x <= 0 for x in vals):
        raise DomainError("nodes must be strictly positive")
    if any(a >= b for a, b in zip(vals, vals[1:])):
        raise DomainError("nodes must be strictly increasing")
    matrix = RationalMatrix([[x ** i for x in vals] for i in range(k)])
    return TNNPoint.from_matrix(matrix)


def zero_columns(point: TNNPoint, cols: IndexSubset) -> RationalMatrix:
    """Copy of the representative with the given columns zeroed.

    Minors avoiding the zeroed columns are unchanged and all others
    vanish, so the result stays totally nonnegative; it is rejected when
    the rank would drop below k.
    """
    cols.check_bounds(point.n)
    dead = set(cols)
    result = point.matrix.scale_columns([int(j not in dead) for j in range(1, point.n + 1)])
    minors = point.minors
    survives = any(
        value != 0
        for subset, value in zip(minors.subsets, minors.ints)
        if not dead.intersection(subset.members)
    )
    if not survives:
        raise DegeneracyError(
            f"zeroing columns {sorted(dead)} drops the rank below {point.k}"
        )
    return result
