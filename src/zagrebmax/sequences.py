"""Degree sequences: validation, classification, and majorization.

A degree sequence here is always a non-increasing tuple of positive
integers with even sum, read as the degree multiset of a simple graph on
``n`` labeled vertices.  Sequences are treated as multisets: unsorted
input is canonicalized (sorted non-increasing) with a flag rather than
rejected.
"""

from __future__ import annotations

import operator
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, chain
from typing import Iterable, Iterator, Sequence, Union

from .errors import CapExceededError, DomainError, ParseError

KIND_TREE = "tree"
KIND_UNICYCLIC = "unicyclic"
KIND_BICYCLIC = "bicyclic"
KIND_MULTICYCLIC = "multicyclic"


def _as_int(value, what: str) -> int:
    """``value`` as an int; a float or a string is an error, not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} {value!r} is not an integer") from None


def _is_digits(text: str) -> bool:
    """Whether ``text`` is a non-empty run of the ASCII digits 0-9."""
    return text.isascii() and text.isdigit()


def _check_degrees(n: int, smallest: int, largest: int, total: int) -> None:
    """Raise unless ``n`` degrees from ``smallest`` to ``largest`` summing to
    ``total`` can be the degrees of a simple graph with no isolated vertex."""
    if smallest < 1:
        raise DomainError(f"degrees must be positive, got {smallest}")
    if largest > n - 1:
        raise DomainError(
            f"degree {largest} exceeds n-1 = {n - 1}; no simple graph can realize it"
        )
    if total % 2 != 0:
        raise DomainError("degree sum must be even")


@dataclass(frozen=True)
class DegreeSequence:
    """Validated non-increasing sequence of positive vertex degrees.

    Unsorted input is sorted; ``resorted`` records that it was.  Only the
    class sets the flag: it is not a constructor parameter.  ``total``, the
    degree sum, and ``_graphic``, the Erdos-Gallai verdict, are computed
    once here; they are not fields, so they take no part in ``==``,
    ``hash`` or ``repr``."""

    degrees: tuple[int, ...]
    resorted: bool = field(default=False, compare=False, init=False)

    def __post_init__(self):
        raw = tuple(self.degrees)  # read a one-shot iterator once
        try:
            degs = tuple(map(operator.index, raw))
        except TypeError:
            # convert again one by one to name the value that is not an integer
            degs = tuple(_as_int(d, "degree") for d in raw)
        if not degs:
            raise DomainError("degree sequence must be non-empty")
        canonical = tuple(sorted(degs, reverse=True))
        if canonical != degs:
            object.__setattr__(self, "degrees", canonical)
            object.__setattr__(self, "resorted", True)
        else:
            object.__setattr__(self, "degrees", degs)
        object.__setattr__(self, "total", sum(canonical))
        _check_degrees(len(canonical), canonical[-1], canonical[0], self.total)
        object.__setattr__(self, "_graphic", _erdos_gallai(canonical))

    @property
    def n(self) -> int:
        return len(self.degrees)

    @classmethod
    def parse(cls, text: str) -> "DegreeSequence":
        """Parse ``"4,4,3,1"`` or run-length shorthand ``"4^2,3,1"``.

        A token is a run of ASCII digits, optionally followed by ``^`` and a
        repeat count, with whitespace allowed around it.  Each distinct
        token is read once, in order of first appearance, so the first bad
        token of the text is the one named.  Runs are checked as a whole
        before the degree list is built, so an invalid sequence is refused
        without allocating its repeats; a valid one whose list cannot be
        allocated raises ``CapExceededError``."""
        tokens = text.split(",")
        # a connected sequence with excess c has k distinct degrees with
        # k(k+1)/2 <= 2(n+c), the least sum of k distinct positive values,
        # so k <= 2 sqrt(n+c): a long list is a pass in C over few tokens
        degree_of: dict[str, int] = {}
        count_of: dict[str, int] = {}
        for raw in dict.fromkeys(tokens):
            token = raw.strip()
            value, caret, repeat = token.partition("^")
            if not _is_digits(value) or (caret and not _is_digits(repeat)):
                raise ParseError(f"bad degree token {token!r}")
            try:
                degree = int(value)
                count = int(repeat) if caret else 1
            except ValueError:
                # CPython's digit limit on int()
                raise ParseError(f"degree token {token!r} is too large") from None
            if count > sys.maxsize:
                # longer than any list can be
                raise ParseError(f"degree token {token!r} is too large")
            if count < 1:
                raise ParseError(f"bad repeat count in {token!r}")
            degree_of[raw] = degree
            count_of[raw] = count
        degrees = tuple(map(degree_of.__getitem__, tokens))
        if "^" not in text:
            return cls(degrees)
        counts = tuple(map(count_of.__getitem__, tokens))
        n = sum(counts)
        _check_degrees(n, min(degrees), max(degrees), sum(map(operator.mul, degrees, counts)))
        try:
            expanded = tuple(chain.from_iterable([d] * c for d, c in zip(degrees, counts)))
        except MemoryError:
            raise CapExceededError(
                f"n = {n}: the degree list does not fit in memory"
            ) from None
        return cls(expanded)

    def to_text(self) -> str:
        """Serialize in plain comma form."""
        # each distinct degree formatted once (see ``parse``)
        text = {d: str(d) for d in set(self.degrees)}
        return ",".join(map(text.__getitem__, self.degrees))

    def __iter__(self) -> Iterator[int]:
        return iter(self.degrees)

    def __len__(self) -> int:
        return len(self.degrees)


@dataclass(frozen=True)
class SequenceClass:
    """Cyclomatic classification of a connected-realizable sequence."""

    excess: int
    kind: str
    leaf_count: int
    degree2_count: int


@dataclass(frozen=True)
class OptimalityConditions:
    """Report on the four admissibility conditions of the greedy construction."""

    excess: int
    holds_i: bool
    holds_ii: bool
    holds_iii: bool
    holds_iv: bool

    @property
    def verdict(self) -> bool:
        return self.holds_i and self.holds_ii and self.holds_iii and self.holds_iv


class MajorizationOrder(Enum):
    EQUAL = "equal"
    A_BELOW_B = "a_below_b"
    B_BELOW_A = "b_below_a"
    INCOMPARABLE = "incomparable"


Degreeish = Union[DegreeSequence, Sequence[int], Iterable[int]]


def _as_desc(seq: Degreeish) -> tuple[int, ...]:
    if isinstance(seq, DegreeSequence):
        return seq.degrees
    return tuple(sorted((_as_int(d, "degree") for d in seq), reverse=True))


def _erdos_gallai(d: Sequence[int]) -> bool:
    """Erdos-Gallai test on a non-increasing list of non-negative integers
    with even sum, in Hasselbarth's conjugate form (Sierksma and Hoogeveen,
    "Seven criteria for integer sequences being graphic", J. Graph Theory
    15, 1991): sum_{i<=k} d_i <= sum_{i<=k} (d*_i - 1) for each k with
    d_k >= k, where d*_k, the number of entries >= k, is one bisection.

    While d_k >= k, sum_{i<=k} d*_i = k^2 + sum_{j>k} min(k, d_j), so the
    k-th test is the k-th Erdos-Gallai inequality.  Past the last such k,
    the Durfee number (at most the square root of the degree sum), the
    slack (right side minus left side) grows by 2(k - d_{k+1}) >= 0 per
    step, so the loop takes at most that many steps plus one, each one
    bisection.
    """
    lhs = rhs = 0
    for k, x in enumerate(d, 1):
        if x < k:
            return True
        lhs += x
        rhs += bisect_right(d, -k, key=operator.neg) - 1
        if lhs > rhs:
            return False
    return True


def is_graphic(seq: Degreeish) -> bool:
    """Whether some simple graph realizes the degree multiset.

    Total function: accepts any integer multiset (a :class:`DegreeSequence`
    or a raw iterable, zeros allowed).  Raw input is sorted in O(n log n)
    and summed once for its parity; the Erdos-Gallai test then takes at
    most sqrt(sum) + 1 bisections.  A :class:`DegreeSequence` took its
    verdict when it was made.
    """
    if isinstance(seq, DegreeSequence):
        return seq._graphic
    d = _as_desc(seq)
    if (d and d[-1] < 0) or sum(d) % 2:
        return False
    return _erdos_gallai(d)


def is_connected_realizable(seq: DegreeSequence) -> bool:
    """Whether some *connected* simple graph realizes the sequence.

    Holds iff the sequence is graphic and the degree sum is at least 2(n-1)
    (enough edges for a spanning tree); every degree is >= 1 by
    construction of :class:`DegreeSequence`.  A classical exchange argument
    shows these conditions are sufficient.
    """
    return seq.total >= 2 * (seq.n - 1) and seq._graphic


def classify(seq: DegreeSequence) -> SequenceClass:
    """Classify by cyclomatic excess c = sum/2 - n; requires connected realizability."""
    if not is_connected_realizable(seq):
        raise DomainError(f"({seq.to_text()}) has no connected realization")
    excess = seq.total // 2 - seq.n
    if excess == -1:
        kind = KIND_TREE
    elif excess == 0:
        kind = KIND_UNICYCLIC
    elif excess == 1:
        kind = KIND_BICYCLIC
    else:
        kind = KIND_MULTICYCLIC
    degs = seq.degrees
    return SequenceClass(
        excess=excess,
        kind=kind,
        leaf_count=degs.count(1),
        degree2_count=degs.count(2),
    )


def check_optimality_conditions(seq: DegreeSequence) -> OptimalityConditions:
    """Check the four conditions under which the greedy layered construction
    is provably extremal.

    (i) the excess c = sum/2 - n is an integer >= -1; (ii) d1 >= d2 >= c+2;
    (iii) d3 >= d4 = ... = d_{c+3} (vacuous for c <= 0); (iv) dn = 1.
    """
    d = seq.degrees
    n = seq.n
    excess = seq.total // 2 - n
    holds_i = excess >= -1
    holds_ii = d[1] >= excess + 2
    if excess <= 0:
        holds_iii = True
    elif n < excess + 3:
        holds_iii = False
    else:
        # d is non-increasing: d3 >= d4, and d4..d_{c+3} is constant iff its ends agree
        holds_iii = d[3] == d[excess + 2]
    holds_iv = d[-1] == 1
    return OptimalityConditions(excess, holds_i, holds_ii, holds_iii, holds_iv)


def majorization_compare(a: Degreeish, b: Degreeish) -> MajorizationOrder:
    """Compare two sequences in the dominance (majorization) order.

    Of two distinct non-increasing sequences with equal length and sum, only
    the lexicographically smaller can lie below the other (where they first
    differ, the prefix sum of the one above pulls ahead), so one prefix-sum
    pass decides the pair."""
    da = _as_desc(a)
    db = _as_desc(b)
    if len(da) != len(db) or sum(da) != sum(db):
        return MajorizationOrder.INCOMPARABLE
    if da == db:
        return MajorizationOrder.EQUAL
    if da < db:
        lo, hi, order = da, db, MajorizationOrder.A_BELOW_B
    else:
        lo, hi, order = db, da, MajorizationOrder.B_BELOW_A
    if all(map(operator.le, accumulate(lo), accumulate(hi))):
        return order
    return MajorizationOrder.INCOMPARABLE


def majorization_chain(a: DegreeSequence, b: DegreeSequence) -> tuple[DegreeSequence, ...]:
    """Connect ``a`` up to ``b`` by single unit transfers.

    Consecutive steps differ in exactly two positions p < q, by +1 at p and
    -1 at q.  Every intermediate stays non-increasing, graphic, and below
    ``b`` in the dominance order.  Deterministic: p is the first position
    where the target's prefix sum strictly exceeds the current one, q the
    first later position where the current value exceeds the target's,
    pushed to the end of its equal-value block so sortedness survives.
    Returns the tuple of steps, ``a`` first and ``b`` last (one step when
    they are equal).
    """
    order = majorization_compare(a, b)
    if order not in (MajorizationOrder.EQUAL, MajorizationOrder.A_BELOW_B):
        raise DomainError(
            f"({a.to_text()}) is not dominated by ({b.to_text()}); no chain exists"
        )
    if not is_graphic(a) or not is_graphic(b):
        raise DomainError("chain endpoints must both be graphic")
    cur = list(a.degrees)
    target = b.degrees
    steps = [a]
    guard = sum(abs(x - y) for x, y in zip(accumulate(cur), accumulate(target)))
    while steps[-1].degrees != target:
        p = next(i for i in range(len(cur)) if cur[i] != target[i])
        q = next(j for j in range(p + 1, len(cur)) if cur[j] > target[j])
        while q + 1 < len(cur) and cur[q + 1] == cur[q]:
            q += 1
        cur[p] += 1
        cur[q] -= 1
        step = DegreeSequence(tuple(cur))
        if not is_graphic(step):
            raise DomainError(
                f"internal: intermediate ({step.to_text()}) is not graphic"
            )
        steps.append(step)
        guard -= 1
        if guard < 0:
            raise DomainError("internal: unit-transfer chain failed to terminate")
    return tuple(steps)


def _bounded_partitions(total: int, parts: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing tuples of ``parts`` entries in [1, max_part] summing to
    total, in ascending lexicographic order.

    Recurses once per entry and raises ``CapExceededError`` past Python's
    recursion limit: no enumeration that deep ends, so an iterative walk
    would only put off the refusal."""

    def rec(remaining: int, slots: int, cap: int, acc: list[int]):
        if slots == 0:
            if remaining == 0:
                yield tuple(acc)
            return
        lo = max(1, remaining - (slots - 1) * cap)
        hi = min(cap, remaining - (slots - 1))
        for v in range(lo, hi + 1):
            acc.append(v)
            yield from rec(remaining - v, slots - 1, v, acc)
            acc.pop()

    if parts < 1 or total < parts or total > parts * max_part:
        return
    try:
        yield from rec(total, parts, max_part, [])
    except RecursionError:
        raise CapExceededError(
            f"n = {parts}: the sequence enumeration recurses once per degree, "
            "past Python's recursion limit"
        ) from None


def connected_realizable_sequences(n: int, excess: int) -> list[DegreeSequence]:
    """All connected-realizable sequences of order n with the given excess,
    ascending lexicographic order.  An n past Python's recursion limit
    raises ``CapExceededError``."""
    n, excess = _as_int(n, "vertex count"), _as_int(excess, "excess")
    if n < 1 or excess < -1:
        return []
    total = 2 * (n + excess)
    candidates = [DegreeSequence(t) for t in _bounded_partitions(total, n, n - 1)]
    return [s for s in candidates if is_graphic(s)]
