"""Validated map setups, the induced linear maps, and the cyclic matrix.

A setup bundles counts (k, m, n) with a full-rank (k+m) x n matrix Z.
Representatives V map to V Z^T; when n = k+m+1 the kernel of v -> v Z^T
is one-dimensional and its canonical generator is cached, since the
fiber and equivalence machinery is built on it.  The generator is read
off Z's minor table, a_j = (-1)^j p_{[n]-j}(Z) (Cramer's rule), so the
setup eliminates Z once.

The cyclically symmetric matrix is constructed from the closed-form
trigonometric eigenbasis of S + S^T, where S is the cyclic shift that
twists the wrap-around entry by (-1)^(k-1).  Its entries are estimated
on integers alone (pi by Machin's formula, cosines and sines by a Taylor
series and integer complex products) and rounded to decimals; the
rationalized matrix must then pass exact positivity and sign-alternation
verification, with the precision doubled on failure.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    ConstructionError,
    DimensionError,
    InternalConsistencyError,
    RankError,
    UnsupportedParameterError,
)
from .exact_linalg import (
    MinorTable,
    RationalMatrix,
    RowVector,
    _cleared,
    all_maximal_minors,
    rank,
    rational_to_string,
)

__all__ = [
    "AmplituhedronSetup",
    "MappedPoint",
    "signs_alternate",
    "build_setup",
    "hat_map",
    "build_z0",
]

_PRECISION_CEILING = 640
# z0 eliminates its (k+m) x n matrix at least once, at a cost that grows
# about as n^4 (build_z0(1, 100) took 2.5 s on a 2-core x86-64 VM), so n
# is refused above this before any entry is built.  It also keeps the
# matrix far below MAX_SUBSETS entries.
_MAX_Z0_COLUMNS = 64


def signs_alternate(vec: Sequence[Fraction]) -> bool:
    """True iff all entries are nonzero and adjacent entries have opposite sign."""
    if any(x == 0 for x in vec):
        return False
    return all(a * b < 0 for a, b in zip(vec, vec[1:]))


@dataclass(frozen=True)
class AmplituhedronSetup:
    """A validated (k, m, n, Z) bundle.

    ``kernel_gen`` is populated exactly when n = k+m+1; it spans the
    kernel of v -> v Z^T and is scaled so its first nonzero entry is +1.
    ``kernel_alternating`` records the exact sign pattern check; for a Z
    with all maximal minors positive it is guaranteed true and a failure
    is reported as an internal inconsistency at build time.
    """

    k: int
    m: int
    n: int
    Z: RationalMatrix
    kernel_gen: RowVector | None
    all_minors_positive: bool
    kernel_alternating: bool | None

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "m": self.m,
            "n": self.n,
            "Z": self.Z.to_json_dict(),
            "kernel": None
            if self.kernel_gen is None
            else [rational_to_string(x) for x in self.kernel_gen],
            "allMinorsPositive": self.all_minors_positive,
        }


def _kernel_from_table(minors: MinorTable) -> RowVector:
    """The kernel generator of a full-rank (n-1) x n matrix from its minor table.

    a_j = (-1)^j p_{[n]-j}, scaled so the first nonzero entry is +1: each
    entry of Z a^T is the Laplace expansion of a determinant with a
    repeated row.  Colex entry i omits column n - i, so column j's
    complement is entry n - j; the table's scale cancels.
    """
    n = minors.n
    signed = [(-1) ** j * minors.ints[n - j] for j in range(1, n + 1)]
    lead = next(x for x in signed if x)
    return tuple(Fraction(x, lead) for x in signed)


def build_setup(k: int, m: int, Z: RationalMatrix) -> AmplituhedronSetup:
    """Validate Z and cache its positivity flag and kernel generator.

    Both come from Z's one minor table.  For n = k+m+1 the generator is
    read off it by ``_kernel_from_table``; full rank makes the kernel
    one-dimensional, and Z a^T = 0 and the sign alternation are still
    checked exactly.  Raises RankError when Z does not have full row
    rank k+m.
    """
    if k < 1 or m < 0:
        raise UnsupportedParameterError(f"need k >= 1 and m >= 0, got k={k}, m={m}")
    if Z.rows != k + m:
        raise DimensionError(f"Z must have {k + m} rows, got {Z.rows}")
    n = Z.cols
    if n < k + m:
        raise DimensionError(f"Z must have at least {k + m} columns, got {n}")
    minors = all_maximal_minors(Z)
    if not any(minors.ints):
        raise RankError(f"Z has rank below {k + m}")
    all_positive = min(minors.ints) > 0

    kernel_gen: RowVector | None = None
    alternating: bool | None = None
    if n == k + m + 1:
        kernel_gen = _kernel_from_table(minors)
        # with full rank, the kernel is exactly span(a), as fiber needs;
        # Z's rows and a are integers over positive denominators, so
        # Z a^T = 0 iff every integer dot product vanishes
        a, _ = _cleared(kernel_gen)
        if any(sum(map(operator.mul, ints, a)) for ints, _ in Z.int_rows):
            raise InternalConsistencyError("kernel generator is not annihilated by Z")
        alternating = signs_alternate(kernel_gen)
        if all_positive and not alternating:
            raise InternalConsistencyError(
                "kernel of a positive-minor Z failed strict sign alternation: "
                f"{[rational_to_string(x) for x in kernel_gen]}"
            )
    return AmplituhedronSetup(
        k=k,
        m=m,
        n=n,
        Z=Z,
        kernel_gen=kernel_gen,
        all_minors_positive=all_positive,
        kernel_alternating=alternating,
    )


@dataclass(frozen=True)
class MappedPoint:
    """Image V Z^T of a representative, with source and image ranks."""

    image: RationalMatrix
    source_rank: int
    image_rank: int

    def to_json_dict(self) -> dict:
        return {
            "image": self.image.to_json_dict(),
            "sourceRank": self.source_rank,
            "imageRank": self.image_rank,
        }


def hat_map(setup: AmplituhedronSetup, matrix: RationalMatrix) -> MappedPoint:
    """The linear map V -> V Z^T on representatives."""
    if matrix.cols != setup.n:
        raise DimensionError(f"representative must have {setup.n} columns, got {matrix.cols}")
    if matrix.rows != setup.k:
        raise DimensionError(f"representative must have {setup.k} rows, got {matrix.rows}")
    image = matrix @ setup.Z.transpose()
    return MappedPoint(
        image=image,
        source_rank=rank(matrix),
        image_rank=rank(image),
    )


# -- cyclically symmetric construction ---------------------------------------


def _atan_inv(x: int, scale: int) -> int:
    """atan(1/x) at ``scale``, for an integer x > 1, by its alternating series."""
    total = 0
    power = scale // x
    x2 = x * x
    divisor = 1
    while power:
        term = power // divisor
        total += term if divisor % 4 == 1 else -term
        power //= x2
        divisor += 2
    return total


def _cos_sin(x: int, scale: int) -> tuple[int, int]:
    """(cos x, sin x) at ``scale`` for x (also at ``scale``) in [0, pi], from one
    Taylor series of exp(ix): terms x^j / j! land on cos or sin by j mod 4."""
    parts = [0, 0, 0, 0]
    term = scale
    j = 0
    while term:
        parts[j % 4] += term
        j += 1
        term = term * x // (scale * j)
    return parts[0] - parts[2], parts[1] - parts[3]


def _trig_rows(k: int, m: int, n: int, digits: int) -> list[list[Fraction]]:
    """Entry estimates for the top eigenvectors of the twisted shift sum.

    The twisted circulant S + S^T has eigenvector (w^0, ..., w^(n-1)) with
    eigenvalue 2 cos(arg w) for every w with w^n = (-1)^(k-1).  Sorting
    eigenvalues descending and taking the real cosine/sine pair for each
    frequency yields: for odd k the all-ones row plus pairs at angles
    2*pi*t/n, and for even k pairs at angles (2t+1)*pi/n.  The lowest
    eigenvalue is always the alternating vector, which is why it spans
    the kernel of the result.

    Every angle is p*pi/n, so every entry is a power of w = exp(i*pi/n):
    the pair at p holds the real and imaginary parts of w^(p*i mod 2n).
    All of it is integer arithmetic at a scale of 15 guard digits: pi by
    Machin's formula, w by one Taylor series, its powers by integer
    complex products.  Each value is rounded half to even to 10^-digits.
    """
    guard = 10 ** 15
    scale = 10 ** digits * guard
    pi = 16 * _atan_inv(5, scale) - 4 * _atan_inv(239, scale)
    c, s = _cos_sin(pi // n, scale)
    powers = [(scale, 0)]
    for _ in range(2 * n - 1):
        re, im = powers[-1]
        powers.append(((re * c - im * s) // scale, (re * s + im * c) // scale))

    def rounded(x: int) -> Fraction:
        q, r = divmod(x, guard)
        if 2 * r > guard or (2 * r == guard and q % 2):
            q += 1
        return Fraction(q, 10 ** digits)

    rows: list[list[Fraction]] = []
    if k % 2 == 1:
        rows.append([Fraction(1)] * n)
        multiples = range(2, k + m, 2)
    else:
        multiples = range(1, k + m, 2)
    for p in multiples:
        entries = [powers[p * i % (2 * n)] for i in range(n)]
        rows.append([rounded(re) for re, _ in entries])
        rows.append([rounded(im) for _, im in entries])
    return rows


def build_z0(k: int, m: int, precision_digits: int = 12) -> AmplituhedronSetup:
    """Rationalized cyclically symmetric setup with n = k+m+1, verified exactly.

    The construction retries with doubled precision until the rational
    matrix passes strict minor positivity and kernel sign alternation;
    positivity is an open condition, so sufficient precision always
    succeeds.  Only even m is supported.
    """
    if m < 0 or m % 2 != 0:
        raise UnsupportedParameterError(f"m must be an even nonnegative integer, got {m}")
    if k < 1:
        raise UnsupportedParameterError(f"k must be positive, got {k}")
    if not 8 <= precision_digits <= _PRECISION_CEILING:
        raise UnsupportedParameterError(
            f"precision_digits must be between 8 and {_PRECISION_CEILING}, got {precision_digits}"
        )
    n = k + m + 1
    if n > _MAX_Z0_COLUMNS:
        raise UnsupportedParameterError(
            f"n = k + m + 1 = {n} columns exceed the z0 limit of {_MAX_Z0_COLUMNS}"
        )
    digits = precision_digits
    while digits <= _PRECISION_CEILING:
        rows = _trig_rows(k, m, n, digits)
        candidate = RationalMatrix(rows)
        # Any row basis of the eigenspace has uniformly signed maximal
        # minors; flip one row if the leading minor says we built the
        # negatively oriented basis: the first minor of the table, on columns
        # 1..k+m, which build_setup reuses when no row is flipped.
        lead = all_maximal_minors(candidate).ints[0]
        if lead < 0:
            flipped = [[-x for x in rows[0]]] + rows[1:]
            candidate = RationalMatrix(flipped)
        elif lead == 0:
            digits *= 2
            continue
        # a nonzero minor means full rank, and build_setup raises for a
        # positive Z whose kernel does not alternate
        setup = build_setup(k, m, candidate)
        if setup.all_minors_positive:
            return setup
        digits *= 2
    raise ConstructionError(
        f"no rationalization up to {_PRECISION_CEILING} digits passed verification"
    )
