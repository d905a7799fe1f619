"""Exact rational linear algebra: matrices, determinants, minors, kernels.

Nothing here rounds.  A ``RationalMatrix`` stores each row as integers
over one positive denominator, primitive (their gcd with it is 1), so
the storage is canonical and ``==`` and ``hash`` compare integers.  The
kernels work on those integers and reduce each output row with one gcd:
``A @ B`` takes integer dot products with the columns of B over B's
common denominator, and transposes, sums, column scalings and the
rank-one update ``U.add_outer(x, a)`` = U + x^T a do the same.
``Fraction`` entries are built only on request (``entry``, ``column``,
``row_tuples``).

Elimination runs one integer routine on the stored rows, ``_bareiss``:
column-skipping fraction-free elimination (Bareiss, "Sylvester's identity
and multistep integer-preserving Gaussian elimination", Math. Comp. 22,
1968), whose intermediate entries are all minors, so they never blow up.
Rank and determinants (its last pivot) come from its output; kernels,
solves, inverses and minor tables from the reduced row echelon form R,
after a back-substitution that solves the non-pivot columns of d R one
at a time and returns only those: the pivot columns are d e_i and are
never built.

A table of all maximal minors of a k x n matrix takes one of two paths,
chosen by k alone.  Both climb one Laplace recurrence on integer rows A
(``_level_step``): level s holds the s x s minors on row subsets S and
colex column subsets C = (c_0 < c_1 < ...), and expanding along the
first row r0 of S,

    v(S, C) = ( sum_t (-1)^t A[r0][c_t] v(S - r0, C - c_t) ) / d,

with the terms of every level from one builder (``_colex_terms``) and no
division when d == 1.  k <= 4 expands directly: the recurrence runs on
the stored rows, with d = 1 and one row subset per level, the last s
rows: no elimination, no division, and zeros at rank below k.  Every
k >= 5 eliminates once and runs it on the reduced form R, whose levels
hold C(k, s) C(n - k, s) minors instead of C(n, s): each minor is, up
to a sign fixed by the pivots, d times the minor of R on the pivot rows
it misses and the free columns it holds, d the determinant of the pivot
columns (Postnikov, "Total positivity, Grassmannians, and networks",
arXiv math/0609764, section 3).  This ladder computes the C(n, k) minors
and nothing more, from one plan per pivot pattern, cached because
generic matrices of one shape share it.  Its row and column subsets
are colex, like every subset here.  The plan holds each minor's place
in the levels concatenated, bitwise negated where the sign flips: a
table reads every minor off the levels, and a scan reads them in colex
order, climbing to the next level only when a minor needs it.  The
table is a ``MinorTable``: integer minors over one positive scale, the
product of the row denominators, so sign tests read integers; a matrix
computes it once.

Total nonnegativity and the colex-first violation are one decision,
``_tnn_witness``, behind ``check_tnn``, ``TNNPoint.from_matrix`` and
``in_closed_cell``.  A table held by the matrix is scanned.  A matrix
with no table is eliminated and tested, whatever its shape, and keeps no
table.  It is eliminated with each integer column divided by its
content g_j, the gcd of its entries: scaling columns by positive numbers
preserves Gr>=0(k, n) and each of its cells (the positive torus;
Postnikov, arXiv math/0609764, section 3), so every minor keeps its
sign, and only the one violation reported is multiplied back, by the
product of g_j over its columns.  Rank below k, and a negative minor on
columns 1..k, are read off the pivots; otherwise the solid minors of
the signed free block, on consecutive rows and columns, test total
positivity (Fekete; Fomin and Zelevinsky).  They come from one 2 x 2
recurrence (Dodgson condensation, by the Desnanot-Jacobi identity), on
the scale of the maximal minors, so ``_bareiss`` is the only elimination
loop.  A failed test names j, the least last column (0-based) of a
nonpositive solid minor; every maximal minor on columns 1..k + j is
then positive, and colex order lists those C(k + j, k) subsets first.
So only a failed test reads minors in colex order off the same
elimination's ladder, from that index on and as far as the first
violation needs; when k > n - k the ladder builds no value that only
those first C(k + j, k) minors need.  Held or laddered, the minors are
read by one loop.

Column subsets are 1-based throughout and ordered colexicographically
(compare largest member first); every subset-keyed result in the
package shares that convention.  A subset's place in that order is its
colex rank, sum_i C(c_i - 1, i) over its members c_1 < ... < c_k
(Knuth, TAOCP 4A, section 7.2.1.3), so a table is read by position:
``MinorTable.int_at`` reads one subset's minor by its rank, a reader
that scans every minor zips ``ints`` with the cached member tuples of
``_colex_members``, and a violation is named by unranking its place
(``_colex_unrank``).  No decision builds the C(n, k) subsets, and no
reader of a table builds an ``IndexSubset`` per minor.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm, prod
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import (
    DimensionError,
    InconsistentSystemError,
    RankError,
    UnsupportedParameterError,
)

RowVector = tuple[Fraction, ...]
IntRow = tuple[tuple[int, ...], int]

__all__ = [
    "RowVector",
    "IndexSubset",
    "MinorTable",
    "RationalMatrix",
    "MAX_SUBSETS",
    "capped_comb",
    "as_int",
    "as_list",
    "as_rational",
    "rational_to_string",
    "subsets_colex",
    "det",
    "all_maximal_minors",
    "rank",
    "kernel_basis",
    "solve_for_left_factor",
    "invert",
    "outer_product",
]

# The documented scalar format: an integer or "p/q", no spaces, decimals or
# exponents, so an entry's size is bounded by its length.
_RATIONAL_STRING = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
# A row of such entries joined by commas, the same grammar without groups.
_RATIONAL_ROW = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?(?:,[+-]?[0-9]+(?:/[0-9]+)?)*")


def _parse(value: int | str | Fraction) -> tuple[int, int]:
    """A scalar as integers (p, q), q > 0, for ``as_rational`` and the matrix constructor.

    Floats are rejected, not rounded.  Strings must read ``p`` or ``p/q``
    with decimal digits, an optional sign and a nonzero denominator;
    anything else raises ValueError.
    """
    if isinstance(value, str):
        match = _RATIONAL_STRING.fullmatch(value)
        if match is None:
            raise ValueError(f"not an integer or p/q rational: {value[:40]!r}")
        numerator, denominator = match.groups()
        q = 1 if denominator is None else int(denominator)
        if q == 0:
            raise ValueError(f"zero denominator in {value[:40]!r}")
        return int(numerator), q
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"exact rational expected, got {type(value).__name__}")


def as_rational(value: int | str | Fraction) -> Fraction:
    """Coerce to an exact rational, as ``_parse`` reads it."""
    return value if isinstance(value, Fraction) else Fraction(*_parse(value))


def as_int(value: object) -> int:
    """An integer field as read from input: bool, float and str are refused, not converted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"integer expected, got {type(value).__name__} {value!r:.40}")
    return value


def as_list(value: object) -> list:
    """A list field as read from input: a JSON array, never a string or object iterated as one."""
    if not isinstance(value, list):
        raise TypeError(f"list expected, got {type(value).__name__} {value!r:.40}")
    return value


def rational_to_string(q: Fraction) -> str:
    """Render as ``p/q``, or just ``p`` for integers."""
    return _ratio_string(q.numerator, q.denominator)


@dataclass(frozen=True, order=False)
class IndexSubset:
    """A strictly increasing tuple of 1-based column (or row) indices."""

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        mem = tuple(as_int(i) for i in self.members)
        object.__setattr__(self, "members", mem)
        if any(i < 1 for i in mem):
            raise DimensionError(f"indices must be >= 1, got {mem}")
        if any(a >= b for a, b in zip(mem, mem[1:])):
            raise DimensionError(f"indices must be strictly increasing, got {mem}")

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, item: int) -> bool:
        return item in self.members

    def __repr__(self) -> str:
        return f"IndexSubset({list(self.members)})"

    def check_bounds(self, n: int) -> None:
        if self.members and self.members[-1] > n:
            raise DimensionError(f"index {self.members[-1]} out of range 1..{n}")

    @classmethod
    def _trusted(cls, members: tuple[int, ...]) -> "IndexSubset":
        """A subset from members the library built increasing and >= 1, unchecked."""
        subset = object.__new__(cls)
        object.__setattr__(subset, "members", members)
        return subset


# The most k-subsets any enumeration (and so any minor table) may have.
# C(20, 10) = 184756 fits; C(40, 20), about 1.4e11, from a matrix file of a
# few KB, is refused before a single subset is built.
MAX_SUBSETS = 200_000


def capped_comb(n: int, k: int, cap: int) -> int:
    """C(n, k) when it is at most ``cap``, otherwise ``cap + 1``.

    The product runs term by term through C(n, 1), C(n, 2), ..., which
    never decrease up to min(k, n - k), and stops once it passes the cap.
    A size read from a file, such as n in the millions, therefore costs
    a few multiplications instead of an integer of millions of digits.
    """
    k = min(k, n - k)
    if k < 0:
        return 0
    value = 1
    for i in range(k):
        value = value * (n - i) // (i + 1)
        if value > cap:
            return cap + 1
    return value


def subsets_colex(n: int, k: int) -> list[IndexSubset]:
    """All k-subsets of {1..n} in colexicographic order, as a fresh list.

    More than ``MAX_SUBSETS`` of them raise UnsupportedParameterError.
    """
    if k < 0 or n < 0:
        raise DimensionError("subset parameters must be nonnegative")
    return list(map(IndexSubset._trusted, _colex_members(n, k)))


# Shape data is cached in three caches of at most this many subsets' worth
# of entries each, least recently used first out: the member tuples of
# ``_colex_members`` and the plans of ``_expansion_plan`` and
# ``_ladder_plan``.  On CPython 3.11 tracemalloc measured 85-160 bytes per
# member tuple for k <= 8 on 56 to 125970 subsets (a k-tuple is 40 + 8k
# bytes and a slot of the outer tuple; ints below 257 are shared), and at
# most 240 bytes per plan entry on plans of 1000 subsets or more (a ladder
# plan also holds a fixed 1-2 KB; expansion plans of 3 x 40, 3 x 80 and
# 2 x 400 took 216, 200 and 166 bytes per subset), so about 65 MB in all.
# Larger shapes rebuild their shape data once per call, and no decision
# builds subsets.
CACHED_SUBSETS = 100_000


def _shape_cache(build):
    """Cache ``build(n, k, *key)``, data of the C(n, k) subsets of {1..n},
    holding at most ``CACHED_SUBSETS`` subsets' worth of entries."""
    entries: OrderedDict = OrderedDict()
    held = 0

    @functools.wraps(build)
    def lookup(n: int, k: int, *key):
        nonlocal held
        full_key = (n, k, *key)
        if full_key in entries:
            entries.move_to_end(full_key)
            return entries[full_key][0]
        value = build(n, k, *key)
        size = capped_comb(n, k, CACHED_SUBSETS)
        if size <= CACHED_SUBSETS:
            entries[full_key] = (value, size)
            held += size
            while held > CACHED_SUBSETS:
                held -= entries.popitem(last=False)[1][1]
        return value

    return lookup


def _subset_count(n: int, k: int) -> int:
    """C(n, k), the number of k-subsets of {1..n}, or UnsupportedParameterError above ``MAX_SUBSETS``.

    Every enumeration, table and decision on k x n matrices asks this
    first, so a refused shape builds and eliminates nothing.
    """
    count = capped_comb(n, k, MAX_SUBSETS)
    if count > MAX_SUBSETS:
        raise UnsupportedParameterError(
            f"C({n}, {k}) column subsets exceed the limit of {MAX_SUBSETS}"
        )
    return count


@_shape_cache
def _colex_members(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The k-subsets of {1..n} as increasing tuples in colexicographic order.

    Colex order is the lexicographic order of the decreasing tuples over
    the alphabet n, n-1, ..., 1, read backwards.  More than ``MAX_SUBSETS``
    subsets raise UnsupportedParameterError before any is built.  Position
    i holds the subset of colex rank i, so a reader that scans a table
    zips ``ints`` with these tuples.
    """
    _subset_count(n, k)
    # a list first: tuple() of a generator took 0.083 s against 0.058 s at
    # C(20, 10) on CPython 3.11, its growing result rescanned by the collector
    return tuple([c[::-1] for c in reversed(list(itertools.combinations(range(n, 0, -1), k)))])


def _colex_rank(members: Sequence[int]) -> int:
    """The position of increasing 1-based members c_1 < ... < c_k in colex order.

    It is sum_i C(c_i - 1, i) (Knuth, TAOCP 4A, section 7.2.1.3): the
    subsets before it are, for each i, those that agree with it above
    c_i and hold i members below c_i.
    """
    return sum(map(comb, [c - 1 for c in members], itertools.count(1)))


def _colex_unrank(rank: int, k: int) -> IndexSubset:
    """The k-subset at position ``rank`` in colex order, the inverse of ``_colex_rank``.

    Greedy from the largest member down: c_i is the largest c with
    C(c - 1, i) <= what remains of the rank, the least c >= i with
    C(c, i) above it.
    """
    members = []
    for i in range(k, 0, -1):
        c = next(c for c in itertools.count(i) if comb(c, i) > rank)
        rank -= comb(c - 1, i)
        members.append(c)
    return IndexSubset._trusted(tuple(reversed(members)))


@dataclass(frozen=True, slots=True)
class MinorTable:
    """All maximal minors of a k x n matrix as integers over one positive scale.

    ``ints[i] / scale`` is the minor on the column subset of colex rank
    i, sum_j C(c_j - 1, j) for its members c_1 < ... < c_k
    (``_colex_rank``).  ``int_at`` reads a subset's minor by that rank;
    a reader of every minor zips ``ints`` with the members of those
    subsets in the same order, ``_colex_members(n, k)``.  The scale is
    positive, so the sign of a minor is the sign of its integer and sign
    tests never build a Fraction.  Built only by ``all_maximal_minors``,
    once per matrix, and kept on it.
    """

    n: int
    k: int
    ints: tuple[int, ...]
    scale: int

    def __post_init__(self) -> None:
        if len(self.ints) != comb(self.n, self.k):
            raise DimensionError(f"{len(self.ints)} minors for C({self.n}, {self.k}) column subsets")
        if self.scale <= 0:
            raise ValueError(f"minor table scale must be positive, got {self.scale}")

    def int_at(self, subset: IndexSubset) -> int:
        """The minor on ``subset`` times ``scale``: an integer of the same sign.

        KeyError for a subset of another size or with a member above n.
        """
        members = subset.members
        if len(members) != self.k or (members and members[-1] > self.n):
            raise KeyError(subset)
        return self.ints[_colex_rank(members)]


class _IntRows(tuple):
    """Primitive (integers, denominator) rows: the kernels' results, stored by ``__init__`` as they are."""


def _primitive(ints: Sequence[int], den: int) -> IntRow:
    """The row ints / den as primitive integers over a positive denominator, one gcd."""
    g = -gcd(*ints, den) if den < 0 else gcd(*ints, den)
    return (tuple(ints), den) if g == 1 else (tuple(x // g for x in ints), den // g)


def _parse_row(row: Iterable[int | str | Fraction]) -> IntRow:
    """A row of scalars as one primitive (integers, denominator) row.

    A row of strings is read at once: one pattern, ``_RATIONAL_ROW``,
    the grammar of ``_RATIONAL_STRING`` for each entry, validates the
    comma-joined row, whose comma count must then be one less than the
    entry count, so no entry holds a comma; ``int`` converts the
    validated digits.  Any other row, and a row with a zero denominator,
    goes entry by entry through ``_parse``, which accepts and refuses
    exactly the same strings and raises as it always has.
    """
    # refused, not iterated: a string of rows is also a sequence of strings
    if isinstance(row, str):
        raise TypeError(f"a row of entries expected, got the string {row[:40]!r}")
    entries = list(row)
    try:
        joined = ",".join(entries)
    except TypeError:  # an entry that is no string
        joined = ""
    if _RATIONAL_ROW.fullmatch(joined) and joined.count(",") == len(entries) - 1:
        pairs = [(int(p), int(q) if q else 1) for p, _, q in (x.partition("/") for x in entries)]
    else:
        pairs = [_parse(x) for x in entries]
    den = lcm(*(q for _, q in pairs))
    if den == 0:  # a "p/0" entry: ``_parse`` raises at the first one
        pairs = [_parse(x) for x in entries]
    return _primitive([p * (den // q) for p, q in pairs], den)


def _over_common(rows: Sequence[IntRow]) -> tuple[list[Sequence[int]], int]:
    """The integers of every row over one common denominator, the lcm of theirs."""
    common = lcm(*(den for _, den in rows))
    return [ints if den == common else [x * (common // den) for x in ints] for ints, den in rows], common


def _ratio_string(p: int, q: int) -> str:
    """p / q for q > 0 in lowest terms, as ``p/q`` or just ``p``."""
    g = gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


class RationalMatrix:
    """Immutable dense matrix of exact rationals.

    ``int_rows[i]`` is row i as (integers, denominator), primitive over a
    positive denominator, so equal matrices have equal storage and
    equality is entrywise exact equality.  All arithmetic returns new
    matrices; instances are safe to share between threads.  The slot
    ``_minors`` is unset until ``all_maximal_minors`` keeps the table
    there; ``_tnn_witness`` builds none.
    """

    __slots__ = ("int_rows", "_hash", "_minors")

    def __init__(self, rows: Iterable[Iterable[int | str | Fraction]]):
        data = rows if type(rows) is _IntRows else _IntRows(map(_parse_row, rows))
        if not data:
            raise DimensionError("matrix must have at least one row")
        width = len(data[0][0])
        if any(len(r) != width for r, _ in data):
            raise DimensionError("ragged rows")
        if width == 0:
            raise DimensionError("rows must be nonempty")
        object.__setattr__(self, "int_rows", data)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("RationalMatrix is immutable")

    # -- shape and access -------------------------------------------------

    @property
    def rows(self) -> int:
        return len(self.int_rows)

    @property
    def cols(self) -> int:
        return len(self.int_rows[0][0])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int) -> Fraction:
        """Entry in row i, column j (0-based)."""
        ints, den = self.int_rows[i]
        return Fraction(ints[j], den)

    def column(self, j: int) -> RowVector:
        return tuple(Fraction(ints[j], den) for ints, den in self.int_rows)

    def row_tuples(self) -> tuple[RowVector, ...]:
        return tuple(tuple(Fraction(x, den) for x in ints) for ints, den in self.int_rows)

    # -- constructors ------------------------------------------------------

    @classmethod
    def diagonal(cls, entries: Sequence[int | str | Fraction]) -> "RationalMatrix":
        n = len(entries)
        pairs = enumerate(map(_parse, entries))
        return cls(_IntRows(_primitive([p if i == j else 0 for j in range(n)], q) for i, (p, q) in pairs))

    @classmethod
    def from_int_rows(cls, rows: Iterable[tuple[Sequence[int], int]]) -> "RationalMatrix":
        """The matrix whose rows are ints / den, for pairs (ints, den) with den nonzero."""
        return cls(_IntRows(_primitive(ints, den) for ints, den in rows))

    # -- arithmetic --------------------------------------------------------

    def transpose(self) -> "RationalMatrix":
        scaled, common = _over_common(self.int_rows)
        return RationalMatrix(_IntRows(_primitive(col, common) for col in zip(*scaled)))

    def _combine(self, other: "RationalMatrix", op) -> "RationalMatrix":
        """Rows a / d and b / e combined over lcm(d, e) = d f, f = e / gcd(d, e), by ``op``."""
        self._require_same_shape(other)
        rows = []
        for (a, d), (b, e) in zip(self.int_rows, other.int_rows):
            g = gcd(d, e)
            f, h = e // g, d // g
            rows.append(_primitive([op(x * f, y * h) for x, y in zip(a, b)], d * f))
        return RationalMatrix(_IntRows(rows))

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._combine(other, operator.add)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._combine(other, operator.sub)

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix(_IntRows((tuple(-x for x in ints), den) for ints, den in self.int_rows))

    def scale(self, c: int | str | Fraction) -> "RationalMatrix":
        p, q = _parse(c)
        rows = self.int_rows
        return RationalMatrix(_IntRows(_primitive([p * x for x in ints], den * q) for ints, den in rows))

    def scale_columns(self, factors: Sequence[Fraction]) -> "RationalMatrix":
        """M D for D = diag(factors), without forming D."""
        if len(factors) != self.cols:
            raise DimensionError(f"{len(factors)} column factors for {self.cols} columns")
        e_ints, e = _cleared(factors)
        return RationalMatrix(_IntRows(
            _primitive(list(map(operator.mul, ints, e_ints)), den * e) for ints, den in self.int_rows
        ))

    def add_outer(self, col: Sequence[Fraction], row: Sequence[Fraction]) -> "RationalMatrix":
        """self + col^T row, the rank-one update, on integers.

        With row i of self as u / d, ``row`` as a / e and col[i] = p / q,
        row i of the result is (e q u + p d a) / (d e q), reduced by one gcd.
        A zero ``col`` returns self, so its memoized minor table is reused.
        """
        if len(col) != self.rows or len(row) != self.cols:
            raise DimensionError(
                f"cannot add a {len(col)}x{len(row)} outer product to a {self.rows}x{self.cols} matrix"
            )
        if not any(col):
            return self
        a, e = _cleared(row)
        rows = []
        for (u, d), c in zip(self.int_rows, col):
            p, q = c.numerator, c.denominator
            u_factor, a_factor = e * q, p * d
            rows.append(_primitive([u_factor * x + a_factor * y for x, y in zip(u, a)], d * e * q))
        return RationalMatrix(_IntRows(rows))

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        """Integer dot products, one gcd per output row.

        Row i of self is a_i / d_i and column j of other b_j / e, e the common
        denominator of other's rows, so entry (i, j) is a_i . b_j / (d_i e).
        """
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        scaled, e = _over_common(other.int_rows)
        right = list(zip(*scaled))
        return RationalMatrix(_IntRows(
            _primitive([sum(map(operator.mul, a, b)) for b in right], d * e) for a, d in self.int_rows
        ))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.int_rows == other.int_rows

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.int_rows))
        return self._hash

    def __repr__(self) -> str:
        body = "; ".join(" ".join(_ratio_string(x, den) for x in ints) for ints, den in self.int_rows)
        return f"RationalMatrix[{self.rows}x{self.cols}: {body}]"

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[_ratio_string(x, den) for x in ints] for ints, den in self.int_rows],
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "RationalMatrix":
        mat = cls(as_list(row) for row in as_list(obj["entries"]))
        if mat.rows != as_int(obj["rows"]) or mat.cols != as_int(obj["cols"]):
            raise DimensionError("declared shape does not match entries")
        return mat

    # -- internal ----------------------------------------------------------

    def _require_same_shape(self, other: "RationalMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )


def outer_product(col: Sequence[Fraction], row: Sequence[Fraction]) -> RationalMatrix:
    """Rank-one matrix col^T * row (col indexes rows of the result)."""
    return RationalMatrix(tuple(c * r for r in row) for c in col)


# -- integer elimination ----------------------------------------------------


def _cleared(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers over one denominator: values[i] == ints[i] / d, d the lcm."""
    d = lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values], d


def _int_rows_and_scale(m: RationalMatrix) -> tuple[list[list[int]], int]:
    """m's integer rows as fresh lists, and the product of its row denominators.

    Every maximal minor of m is the integer minor over that product.
    Scaling rows changes neither the rank nor the reduced echelon form.
    """
    return [list(ints) for ints, _ in m.int_rows], prod(den for _, den in m.int_rows)


def _content_free_rows(m: RationalMatrix) -> tuple[list[list[int]], list[int], int]:
    """m's integer rows as fresh lists with each column divided by its content.

    Returns those rows, the contents g_j, each the gcd of column j's
    integers (1 for a zero column), and the scale of ``_int_rows_and_scale``.
    Every g_j is positive, so each maximal minor of m on columns I is
    prod_{j in I} g_j / scale times the same integer minor of the rows.
    """
    rows = [ints for ints, _ in m.int_rows]
    contents = [g or 1 for g in map(gcd, *rows)]
    if contents.count(1) < len(contents):
        rows = [map(operator.floordiv, ints, contents) for ints in rows]
    return list(map(list, rows)), contents, prod(den for _, den in m.int_rows)


def _bareiss(a: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free row echelon form of an integer matrix, in place.

    Column-skipping Bareiss elimination: rows are swapped to bring a
    nonzero entry into pivot position, and columns without one are
    skipped.  Afterwards row r holds, at column ``pivots[r]``, the minor
    of the row-swapped input on its first r+1 rows and first r+1 pivot
    columns; rows from ``len(pivots)`` on are zero.  Every division is
    exact (Sylvester's identity), and none is made while the previous
    pivot is 1.  Returns the pivot columns and the sign of the row
    permutation.
    """
    nrows, ncols = len(a), len(a[0])
    pivots: list[int] = []
    sign = 1
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if a[r][c] == 0:
            for j in range(r + 1, nrows):
                if a[j][c] != 0:
                    a[r], a[j] = a[j], a[r]
                    sign = -sign
                    break
            else:
                continue
        row_r = a[r]
        piv = row_r[c]
        for j in range(r + 1, nrows):
            row_j = a[j]
            ajc = row_j[c]
            if prev == 1:
                for cc in range(c + 1, ncols):
                    row_j[cc] = row_j[cc] * piv - ajc * row_r[cc]
            else:
                for cc in range(c + 1, ncols):
                    row_j[cc] = (row_j[cc] * piv - ajc * row_r[cc]) // prev
            row_j[c] = 0
        prev = piv
        pivots.append(c)
        if r + 1 == nrows:
            break
    return pivots, sign


def _back_substitute(a: list[list[int]], pivots: list[int]) -> tuple[list[list[int]], int]:
    """Reduced rows of a ``_bareiss`` echelon form, all times one integer d.

    Returns the nonzero rows of d R on the non-pivot columns, in column
    order (the pivot columns, d e_i, are never built), and d itself.  d
    is the last Bareiss pivot, the determinant of the pivot block, so by
    Cramer's rule the scaled rows are integral.  They are solved one free
    column c at a time, from the last pivot row up,

        x_i = (d a[i][c] - sum_{j > i} a[i][p_j] x_j) / a[i][p_i],

    every division exact, and x_{r-1} = a[r-1][c] since that row's pivot
    is d.  Row i's entries at the later pivots are read once, last pivot
    first, so each sum is one dot product with the column's solution so
    far, which grows from its last row up.
    """
    if not pivots:
        return [], 1
    r = len(pivots)
    last = a[r - 1]
    d = last[pivots[-1]]
    pivot_set = set(pivots)
    later = pivots[::-1]
    # the rows above the last, bottom up: each with its pivot and its entries at the later pivots
    steps = [(a[i], a[i][pivots[i]], [a[i][p] for p in later[:r - 1 - i]]) for i in range(r - 2, -1, -1)]
    columns = []
    for c in range(len(last)):
        if c not in pivot_set:
            x = [last[c]]
            for row, piv, coeffs in steps:
                x.append((d * row[c] - sum(map(operator.mul, coeffs, x))) // piv)
            columns.append(x)
    if not columns:
        return [[] for _ in pivots], d
    return [list(row) for row in reversed(list(zip(*columns)))], d


class _Echelon(NamedTuple):
    pivots: list[int]
    sign: int
    reduced: list[list[int]]
    d: int


def _echelon(a: list[list[int]]) -> _Echelon:
    """Reduced row echelon form of an integer matrix (destroys ``a``).

    Returns the pivot columns, the sign of the row swaps, the nonzero
    reduced rows on the non-pivot columns multiplied by a common integer
    d, and d itself (see ``_back_substitute``); the pivot columns, d e_i,
    are never built.
    """
    pivots, sign = _bareiss(a)
    reduced, d = _back_substitute(a, pivots)
    return _Echelon(pivots, sign, reduced, d)


# -- public operations -------------------------------------------------------


def det(m: RationalMatrix) -> Fraction:
    """Exact determinant: the last Bareiss pivot of the stored integer rows."""
    if not m.is_square:
        raise DimensionError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    int_rows, scale = _int_rows_and_scale(m)
    pivots, sign = _bareiss(int_rows)
    return Fraction(sign * int_rows[-1][-1] if len(pivots) == m.rows else 0, scale)


def all_maximal_minors(m: RationalMatrix) -> MinorTable:
    """Every k x k minor of a k x n matrix, in colexicographic order.

    The result is a ``MinorTable``: the integer minors of the stored
    integer rows in colexicographic order, over the product of the row
    denominators.  Tables with more than ``MAX_SUBSETS`` minors raise
    UnsupportedParameterError before any is computed.  ``_minor_table``
    computes it once per matrix, into the matrix's ``_minors`` slot; two
    threads may both compute it, and store equal tables.
    """
    try:
        return m._minors
    except AttributeError:
        table = _minor_table(m)
        object.__setattr__(m, "_minors", table)
        return table


def _minor_table(m: RationalMatrix) -> MinorTable:
    """The table ``all_maximal_minors`` returns, expanded directly or eliminated as the shape's plan says."""
    k, n = m.rows, m.cols
    if k > n:
        raise DimensionError(f"wide matrix required, got {k}x{n}")
    _subset_count(n, k)
    int_rows, scale = _int_rows_and_scale(m)
    plan = _expansion_plan(n, k)
    if plan is None:
        ints = _ladder_minors(_echelon(int_rows), n, k)
    else:
        ints = _expanded_minors(int_rows, plan)
    return MinorTable(n, k, tuple(ints), scale)


def _level_step(coeffs: list[int], below: list[int], col_terms: tuple, d: int) -> list[int]:
    """One row subset's values on level s of the recurrence in the module docstring.

    ``coeffs`` is its first row r0 followed by that row negated, so a
    shifted c_t reads (-1)^t A[r0][c_t]; ``below`` holds the values of
    its other rows on level s - 1 over the colex column subsets, and
    ``col_terms`` is level s of ``_colex_terms``, two terms per pass.
    Sums are divided exactly by d unless d == 1.
    """
    first, pairs, lone = col_terms
    acc = [coeffs[c0] * below[j0] + coeffs[c1] * below[j1] for c0, j0, c1, j1 in first]
    for terms in pairs:
        acc = [a + coeffs[c0] * below[j0] + coeffs[c1] * below[j1] for a, (c0, j0, c1, j1) in zip(acc, terms)]
    if lone:
        acc = [a + coeffs[c] * below[j] for a, (c, j) in zip(acc, lone)]
    return acc if d == 1 else [a // d for a in acc]


def _expanded_minors(int_rows: list[list[int]], levels: tuple) -> list[int]:
    """The maximal minors of integer rows in colex order, by Laplace expansion.

    Level s holds the s x s minors of the last s rows, its one row
    subset, level 1 the last row itself; each step expands along the row
    above them with d = 1.  ``levels`` are the shape's ``_colex_terms``.
    """
    level = int_rows[-1]
    for row, col_terms in zip(int_rows[-2::-1], levels):
        level = _level_step(row + [-x for x in row], level, col_terms, 1)
    return level


@_shape_cache
def _expansion_plan(n: int, k: int) -> tuple | None:
    """The levels of ``_expanded_minors`` for k x n tables, or None to eliminate.

    k <= 4 expands directly and k >= 5 eliminates, as timed on random
    integer matrices (entries in -9..9, 16-bit and 64-bit; best of 7):
    direct took 0.19-0.98x the eliminated time on every k <= 4 shape
    tried up to 4 x 29 (4 x 40, entries in -9..9: 1.31x), and was slower
    on most k >= 5 shapes with entries up to 16 bits, square ones and
    5 x 6 aside, though not on most with 64-bit entries.  Its caller
    has refused shapes above ``MAX_SUBSETS`` (``_subset_count``) first.
    """
    return _colex_terms(n, k) if k <= 4 else None


def _colex_terms(n: int, k: int) -> tuple:
    """The ``col_terms`` of ``_level_step`` for the column subsets of {1..n}, levels 2..k.

    The term t of an s-subset C = (c_0 < c_1 < ...) is (c_t, place of
    C - c_t in level s - 1), c_t 0-based and shifted by n when t is odd.
    Level s lists, for t = 0, 2, 4, ... below s - 1, the terms t and
    t + 1 of every subset in colex order as one flat 4-tuple, grouped as
    (t = 0, the other pairs); then term s - 1 alone when s is odd, or ().
    """
    levels = []
    below = {(j,): j - 1 for j in range(1, n + 1)}
    for s in range(2, k + 1):
        members = _colex_members(n, s)
        terms = [
            [(cols[t] - 1 + n * (t % 2), below[cols[:t] + cols[t + 1:]]) for cols in members]
            for t in range(s)
        ]
        first, *pairs = (tuple(map(operator.add, terms[t], terms[t + 1])) for t in range(0, s - 1, 2))
        levels.append((first, tuple(pairs), tuple(terms[-1]) if s % 2 else ()))
        below = {cols: i for i, cols in enumerate(members)}
    return tuple(levels)


def _ladder_minors(echelon: _Echelon, n: int, k: int) -> list[int]:
    """The maximal minors of k integer rows in colex order, from their ``_echelon``.

    If the rank is below k every minor is 0.  Otherwise ``_ladder_levels``
    climbs every level, and minor i is read off the levels concatenated at
    its signed position ``_Ladder.positions[i]``.
    """
    if len(echelon.pivots) < k:
        return [0] * comb(n, k)
    plan = _ladder_plan(n, k, tuple(echelon.pivots))
    rows = itertools.chain.from_iterable(_ladder_levels(echelon, plan))
    values = list(itertools.chain.from_iterable(rows))
    return [values[p] if p >= 0 else -values[~p] for p in plan.positions]


def _ladder_scan(echelon: _Echelon, n: int, k: int, start: int) -> Iterator[int]:
    """The maximal minors of k integer rows of rank k in colex order from index ``start``, from their ``_echelon``.

    Minor i is read off the levels concatenated at its signed position
    ``_Ladder.positions[i]``, and more levels are taken from
    ``_ladder_levels`` only when that position lies above the values
    read so far.  So a reader that starts at minor ``start`` and stops
    after minor i has climbed to level s, the most free columns any of
    minors start..i holds, and built nothing above it.  The climb runs
    on the read's IndexError, so a minor on a level already climbed
    costs no bounds check.  Every minor from ``start`` on holds a column
    at least ``top``, the largest member of subset ``start``.  When the
    ladder is transposed, its block rows are the free columns, and when
    every column from ``top`` on is free, no minor read holds only free
    columns below ``top``: nor does any value its levels are built from,
    since each subset of block rows is expanded along its least member.
    So ``_ladder_levels`` builds no subset of those settled free columns.
    """
    plan = _ladder_plan(n, k, tuple(echelon.pivots))
    top = next(c for c in itertools.count(k) if comb(c, k) > start)
    settled = top - 1 - k if plan.transposed and echelon.pivots[-1] < top - 1 else 0
    levels = _ladder_levels(echelon, plan, settled)
    values: list[int] = []
    for p in plan.positions[start:]:
        try:
            value = values[p] if p >= 0 else -values[~p]
        except IndexError:  # p lies above the levels climbed so far
            while (p if p >= 0 else ~p) >= len(values):
                values += itertools.chain.from_iterable(next(levels))
            value = values[p] if p >= 0 else -values[~p]
        yield value


def _ladder_levels(echelon: _Echelon, plan: _Ladder, settled: int = 0) -> Iterator[list[list[int]]]:
    """The values of the reduced form's ladder, one level per step, from level 0 up.

    Let D = d R be the scaled reduced rows, whose free columns the
    echelon holds, R_I the pivot rows whose pivot column is not in I,
    C_I = I - pivots and s = |C_I|.  The Laplace expansion along the
    unit columns of R gives

        p_I = sign * sigma_I * v(R_I, C_I),  v(S, F) = det(D[S, F]) / d^(s-1),

    where sign is the row-swap sign of the elimination and sigma_I is
    (-1)^(sum of r(c) + pos_I(c)) over the pivot columns c in I (r(c) the
    0-based row of pivot c, pos_I(c) its 0-based position in I).  v(S, F)
    is d det(R[S, F]), an integer, and the recurrence of the module
    docstring on A = D builds it from v of the empty block, d, and
    v({r}, {c}) = D[r][c].  Level s holds sign * v of the s x s blocks,
    one list per colex subset of block rows, over the colex subsets of
    block columns.  When k > n - k the ladder expands along the
    first column of F instead, so that its inner loops run over the
    longer side.  The terms of each level come from ``plan``, the
    ``_ladder_plan`` of the echelon's pivots, which needs full rank.
    Tables take every level (``_ladder_minors``); ``_ladder_scan`` takes
    the next one only when the next minor it reads lies on it, so a
    reader that stops early builds nothing above the last level it read.
    A scan may also name the first ``settled`` block rows, which no
    value it reads depends on: level s then holds zeros for their
    C(settled, s) subsets, which colex order lists first.
    """
    _, sign, reduced, d = echelon
    yield [[sign * d]]
    blocks = [list(col) for col in zip(*reduced)] if plan.transposed else reduced
    # the row-swap sign rides on v from level 0 up; the ladder's own
    # coefficients are D, read with the term sign from ``signed``
    level = blocks if sign > 0 else [[-x for x in row] for row in blocks]
    signed = [row + [-x for x in row] for row in blocks[:-1]]
    yield level
    for s, (row_steps, col_terms) in enumerate(plan.steps, 2):
        # the settled subsets come first in colex order; each holds zeros
        skip = comb(settled, s)
        level = [[0] * len(col_terms[0])] * skip + [
            _level_step(signed[r0], level[rest], col_terms, d) for r0, rest in row_steps[skip:]
        ]
        yield level


class _Ladder(NamedTuple):
    transposed: bool
    steps: tuple[tuple[tuple, tuple], ...]
    positions: tuple[int, ...]


@_shape_cache
def _ladder_plan(n: int, k: int, pivots: tuple[int, ...]) -> _Ladder:
    """The ladder of ``all_maximal_minors`` for k x n tables with these 0-based pivots.

    It runs on the block B = D[:, free], or on B^T when k > n - k, so that
    block rows are the shorter side.  Level s holds v for the s-subsets X
    of block rows and Y of block columns, both in colex order, X by X.
    ``steps[s - 2]`` is level s >= 2: per X, term 0 of the block rows'
    ``_colex_terms`` (its first row r0 and the place of X - r0 on level
    s - 1), and the ``_colex_terms`` of the block columns.
    ``positions[i]`` is the place p of colex subset i in the levels
    concatenated, stored as ~p when sigma_I = -1; p lies on level s when
    the subset holds s free columns.  Cached: generic matrices share the
    pivots (0, ..., k-1).
    """
    width = n - k
    transposed = k > width
    # the block's row and column counts
    n_rows, n_cols = (width, k) if transposed else (k, width)
    free = tuple(c for c in range(n) if c not in pivots)
    steps = tuple(
        (tuple((r0, rest) for r0, rest, _, _ in row_terms[0]), col_terms)
        for row_terms, col_terms in zip(_colex_terms(n_rows, n_rows), _colex_terms(n_cols, n_rows))
    )
    # A subset I is keyed by bit r for each pivot column of row r in I and
    # bit k + f for each free column free[f] in I; ``place`` maps the key
    # to the position of v(R_I, C_I) in the concatenated levels.
    def key_parts(size, s, of_pivot_rows):
        members = _colex_members(size, s)
        if of_pivot_rows:  # I holds the pivots of the rows not in x
            return [(1 << k) - 1 ^ sum(1 << (r - 1) for r in x) for x in members]
        return [sum(1 << (k + f - 1) for f in x) for x in members]

    place: dict[int, int] = {}
    for s in range(n_rows + 1):
        outer, inner = key_parts(n_rows, s, not transposed), key_parts(n_cols, s, transposed)
        keys = [a | b for a in outer for b in inner]
        place.update(zip(keys, range(len(place), len(place) + len(keys))))
    # per 1-based column: its key bit and the row of its pivot, or -1
    column: list[tuple[int, int]] = [(0, -1)] * (n + 1)
    for r, c in enumerate(pivots):
        column[c + 1] = (1 << r, r)
    for f, c in enumerate(free):
        column[c + 1] = (1 << (k + f), -1)
    positions = []
    for members in _colex_members(n, k):
        key = parity = 0
        for pos, j in enumerate(members):
            bit, r = column[j]
            key |= bit
            if r >= 0:
                parity += r + pos
        positions.append(~place[key] if parity % 2 else place[key])
    return _Ladder(transposed, steps, tuple(positions))


def _tnn_witness(m: RationalMatrix) -> tuple[bool, tuple[IndexSubset, Fraction] | None]:
    """Whether a k x n matrix, k <= n, has rank k, and its colex-first negative maximal minor.

    The decision of the module docstring.  A table the matrix holds
    gives its first negative minor, or else rank k iff some minor is
    nonzero.  Any other matrix is refused above ``MAX_SUBSETS``
    (``_subset_count``) before anything is eliminated, and is otherwise
    eliminated and tested on its ``_content_free_rows``, each column
    divided by its content g_j > 0.  Each maximal minor on columns I is
    then prod_{j in I} g_j times the one eliminated, the same sign, so
    rank, pivots and every test below decide as on m (positive column
    scaling keeps each cell of Gr>=0(k, n); Postnikov, arXiv
    math/0609764, section 3), and the one violation reported is
    multiplied back by prod_{j in I} g_j before its Fraction is built.
    Rank below k is the answer (False, None).
    When the pivots are the first k columns, the minor on them, the
    colex-first one, is sign * d, read off ``_bareiss`` before any
    back-substitution; if it is negative it is the answer.  If it is
    positive, m reduces to R = [I | F] and its minors are that minor
    times those of B, B[i][j] = (-1)^i F[k-1-i][j] (Postnikov,
    arXiv math/0609764, section 3).  So all are positive iff B is
    totally positive, which holds iff its solid minors, on consecutive
    rows and columns, are positive (Fekete's criterion; the k(n - k)
    initial minors among them already suffice, Fomin and Zelevinsky,
    "Total positivity: tests and parametrizations", arXiv math/9912128).
    ``_solid_minors_positive`` condenses them by the Desnanot-Jacobi
    identity on |d| B, row i of which is (-1)^i sign(d) times row k-1-i
    of the free columns D = d F, with |d| for the empty minor, so each
    value is |d| times a minor of B: a maximal minor of the eliminated
    rows, up to sign.  A pass, or n = k with no free column, is the
    answer (True, None).

    A failure names j, the least last column (0-based) of a nonpositive
    solid minor.  Then B[:, :j] is totally positive, so every maximal
    minor on columns 1..k + j is positive, and colex order lists those
    C(k + j, k) subsets first: the minors are streamed in colex order
    from that index off the ladder of the same echelon form
    (``_ladder_scan``), which climbs one more level only when the next
    minor lies on it, and builds no value that only the first C(k + j, k)
    minors need when its block rows are the free columns (k > n - k).
    Pivots off the first k columns, and a held table,
    start at index 0.  One loop reads that stream, or a held table's
    integers, and stops at the first negative minor, so a matrix that is
    nonnegative but not positive climbs every level its stream reaches.
    Every violation, on a held table, on the pivots or on the ladder, is
    named by ``_colex_unrank`` of its colex rank.
    """
    k, n = m.rows, m.cols
    table = getattr(m, "_minors", None) if k <= n else all_maximal_minors(m)  # held; tall is refused
    start = 0
    if table is not None:
        minors, scale, contents = table.ints, table.scale, [1] * n
    else:
        _subset_count(n, k)
        int_rows, contents, scale = _content_free_rows(m)
        pivots, sign = _bareiss(int_rows)
        if len(pivots) < k:
            return False, None
        # sign * d, the minor on the pivot columns: the colex-first one when they lead
        pivot_minor = sign * int_rows[k - 1][pivots[-1]]
        leading = pivots[-1] == k - 1
        if leading and pivot_minor < 0:
            return True, (_colex_unrank(0, k), Fraction(pivot_minor * prod(contents[:k]), scale))
        echelon = _Echelon(pivots, sign, *_back_substitute(int_rows, pivots))
        if leading:
            d = echelon.d
            scaled_b = [
                row if i % 2 == (d < 0) else [-x for x in row]
                for i, row in enumerate(reversed(echelon.reduced))
            ]
            least = _solid_minors_positive(scaled_b, abs(d))
            if least is None:
                return True, None
            start = comb(k + least, k)
        minors = _ladder_scan(echelon, n, k, start)
    for i, value in enumerate(minors, start):
        if value < 0:
            subset = _colex_unrank(i, k)
            return True, (subset, Fraction(value * prod(contents[c - 1] for c in subset), scale))
    return table is None or any(table.ints), None


def _solid_minors_positive(rows: list[list[int]], unit: int) -> int | None:
    """The least last column (0-based) of a nonpositive solid minor of an integer matrix, or None.

    A solid minor has consecutive rows and consecutive columns, and the
    matrix is totally positive iff every one is positive (Fekete), so
    None means totally positive; a matrix with no columns has none.
    Dodgson condensation builds them level by level.  Level s holds
    unit^(1-s) times those of size s, each at its top-left entry: level
    0 is ``unit`` throughout, level 1 the matrix, and the Desnanot-Jacobi
    identity, homogeneous in that scale, builds each level from the two
    below it,

        M_{s+1}(i, j) = (M_s(i, j) M_s(i+1, j+1) - M_s(i, j+1) M_s(i+1, j))
                        / M_{s-1}(i+1, j+1),

    the 2 x 2 determinant a d - b c of four neighbours over the inner
    minor e.  ``unit`` is 1, or |d| when the rows are |d| times a signed
    free block whose minors times |d| are maximal minors of the matrix
    eliminated (``_tnn_witness``); either way every value is an integer.

    Each level is held one list per column and built left to right; the
    first nonpositive minor on it stops it there, and the next level is
    built from the columns before, so every divisor is a positive minor
    and every division exact, and each later nonpositive minor found has
    a smaller last column than the one before.
    """
    level = list(zip(*rows))
    if not level:
        return None
    below, least = [[unit] * (len(rows) + 1)] * (len(level) + 1), None
    for j, line in enumerate(level):
        if min(line) <= 0:
            level, least = level[:j], j
            break
    s = 1
    while len(level) > 1 and len(level[0]) > 1:
        above = []
        for left, right, mid in zip(level, level[1:], below[1:]):
            line = [(a * d - b * c) // e for a, b, c, d, e in zip(left, left[1:], right, right[1:], mid[1:])]
            if min(line) <= 0:
                least = len(above) + s
                break
            above.append(line)
        level, below = above, level
        s += 1
    return least


def rank(m: RationalMatrix) -> int:
    """Exact rank over the rationals."""
    int_rows, _ = _int_rows_and_scale(m)
    pivots, _ = _bareiss(int_rows)
    return len(pivots)


def kernel_basis(m: RationalMatrix) -> list[RowVector]:
    """Basis of {v : v * M^T = 0}, i.e. the right null space as row vectors.

    The basis is canonical: vectors are ordered by their free column and
    scaled so the first nonzero entry is +1.  Its length is always
    cols - rank.
    """
    int_rows, _ = _int_rows_and_scale(m)
    pivots, _, reduced, d = _echelon(int_rows)
    n = m.cols
    basis: list[RowVector] = []
    for f, free in enumerate(c for c in range(n) if c not in pivots):
        # d times the vector with a 1 in the free column
        v = [0] * n
        v[free] = d
        for row, p_col in zip(reduced, pivots):
            v[p_col] = -row[f]
        lead = next(x for x in v if x != 0)
        basis.append(tuple(Fraction(x, lead) for x in v))
    return basis


def solve_for_left_factor(k_image: RationalMatrix, w: RationalMatrix) -> RationalMatrix:
    """The unique square C with ``k_image = C @ w`` for full-row-rank w.

    Reduces [W_int^T | K_int^T], each block's own integer rows, with no
    common denominator: for W = diag(1/e) W_int and K = diag(1/f) K_int,
    row i of C is column i of the reduced block times e, over d f_i.
    Column scaling moves no pivot, so RankError (w of deficient row rank)
    and InconsistentSystemError (no exact C) fire as on [W^T | K^T].
    """
    if k_image.rows != w.rows or k_image.cols != w.cols:
        raise DimensionError("left-factor solve needs equally shaped matrices")
    r = w.rows
    # C' = diag(f) C diag(1/e) solves C' W_int = K_int: row reduce [W_int^T | K_int^T]
    aug = [list(col) for col in zip(*(ints for ints, _ in w.int_rows + k_image.int_rows))]
    pivots, _, reduced, d = _echelon(aug)
    if pivots[:r] != list(range(r)):
        raise RankError(f"target has row rank < {r}; left factor is not determined")
    if len(pivots) > r:
        # A pivot inside the right block means some row of k_image is not
        # a combination of w's rows.
        raise InconsistentSystemError("no exact left factor exists")
    # the free columns are r.., so C'^T = reduced / d, and C = diag(1/f) C' diag(e)
    scaled = ([x * e for x, (_, e) in zip(col, w.int_rows)] for col in zip(*reduced))
    return RationalMatrix(_IntRows(_primitive(ints, d * f) for ints, (_, f) in zip(scaled, k_image.int_rows)))


def invert(m: RationalMatrix) -> RationalMatrix:
    """Exact inverse of a square matrix; raises RankError when singular."""
    if not m.is_square:
        raise DimensionError("inverse needs a square matrix")
    n = m.rows
    # row i of [M | I] times its denominator
    aug = [list(ints) + [den * (i == j) for j in range(n)] for i, (ints, den) in enumerate(m.int_rows)]
    pivots, _, reduced, d = _echelon(aug)
    if pivots != list(range(n)):
        raise RankError("matrix is singular")
    # the free columns are those of I, so reduced / d is the inverse
    return RationalMatrix(_IntRows(_primitive(row, d) for row in reduced))
