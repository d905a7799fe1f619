"""Independent plain-``Fraction`` arithmetic that checks the benchmark's outputs.

Nothing here imports tnngrass: each check recomputes its answer from the
generated inputs or from the written artifact with textbook elimination
and products, so a defect in the library cannot hide in its own check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def to_string(q: Fraction) -> str:
    """The documented ``"p/q"`` (or ``"p"``) file format."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def matrix_json(rows: list[list[Fraction]]) -> dict:
    return {
        "rows": len(rows),
        "cols": len(rows[0]),
        "entries": [[to_string(x) for x in row] for row in rows],
    }


def parse_matrix(obj: dict) -> list[list[Fraction]]:
    return [[Fraction(s) for s in row] for row in obj["entries"]]


def matmul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    return [
        [sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def det(rows: list[list[Fraction]]) -> Fraction:
    """Gaussian elimination over ``Fraction`` with row swaps."""
    a = [list(r) for r in rows]
    n = len(a)
    result = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            result = -result
        result *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return result


def kernel_vector(rows: list[list[Fraction]]) -> list[Fraction]:
    """Generator of the one-dimensional null space of a corank-one wide matrix.

    Scaled so its first nonzero entry is +1, the convention of the setup
    file's ``"kernel"`` field.
    """
    a = [list(r) for r in rows]
    nrows, ncols = len(a), len(a[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((j for j in range(r, nrows) if a[j][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for j in range(nrows):
            if j != r and a[j][c] != 0:
                f = a[j][c]
                a[j] = [x - f * y for x, y in zip(a[j], a[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    if len(free) != 1:
        raise ValueError(f"expected a one-dimensional kernel, got {len(free)}")
    v = [Fraction(0)] * ncols
    v[free[0]] = Fraction(1)
    for row, p in zip(a, pivots):
        v[p] = -row[free[0]]
    lead = next(x for x in v if x != 0)
    return [x / lead for x in v]


def colex_subsets(n: int, k: int) -> list[tuple[int, ...]]:
    """All k-subsets of 1..n, compared largest member first."""
    return sorted(itertools.combinations(range(1, n + 1), k), key=lambda c: c[::-1])


def vandermonde_minor(nodes: list[Fraction], scales: list[Fraction], cols: tuple[int, ...]) -> Fraction:
    """Maximal minor of the column-scaled Vandermonde matrix on 1-based ``cols``.

    Rows hold the powers 0..k-1, so the minor is the product of the column
    scales times the product of node differences.
    """
    value = Fraction(1)
    for j in cols:
        value *= scales[j - 1]
    for a, b in itertools.combinations(cols, 2):
        value *= nodes[b - 1] - nodes[a - 1]
    return value
