"""GL(g) weight combinatorics at the boundary.

Dominant weights, duals, branching to GL(g-1), tensoring with exterior
powers of the dual standard representation, and the telescoping formula
for the alternating direct image.  Virtual bundles are finite signed sums
of weights with exact integer coefficients.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from typing import Iterable, Iterator, Sequence


def is_dominant(v: Sequence[int]) -> bool:
    """v[i] >= v[i+1] for every i; v is a list or a tuple."""
    return all(map(operator.ge, v, v[1:]))


def weight_text(entries: Iterable[int]) -> str:
    """The text form W(a,b,...) of a weight by its entries."""
    return "W(" + ",".join(map(str, entries)) + ")"


class GlWeight(tuple):
    """Weakly decreasing integer vector; the empty weight is allowed.

    A GlWeight is the tuple of its entries, checked as it is built.  It
    compares equal to, hashes as and orders as its plain tuple, so
    hashing and equality are tuple operations; `entries` is that plain
    tuple.  Assigning to any attribute raises AttributeError.
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable[int]):
        # takes `entries` by name too, which tuple.__new__ alone refuses
        return tuple.__new__(cls, entries)

    def __init__(self, entries: Iterable[int]):
        if not is_dominant(self):
            raise ValueError(f"weight {self.entries} is not weakly decreasing")

    entries = property(tuple)

    def __repr__(self):
        return f"GlWeight(entries={self.entries!r})"

    def __str__(self):
        return weight_text(self)

    def dual(self) -> "GlWeight":
        """Reverse and negate (conjugation by the longest element of S_g)."""
        return GlWeight([-a for a in reversed(self)])


def _interlacing(a: tuple[int, ...]) -> list[range]:
    """The branching box of a: the range a[i+1]..a[i] of the i-th entry of
    a GL(g-1) weight interlacing a, for i < g-1.  Their product is every
    such weight, lexicographically."""
    if len(a) == 0:
        raise ValueError("cannot branch the empty weight")
    return [range(a[i + 1], a[i] + 1) for i in range(len(a) - 1)]


def branch(mu: GlWeight) -> list[GlWeight]:
    """All GL(g-1) weights interlacing mu, in lexicographic order."""
    return [GlWeight(b) for b in itertools.product(*_interlacing(mu))]


def straighten(v: Sequence[int]):
    """Straighten a virtual character index via the rho-shifted sort.

    Returns None when v + rho has a repeated entry (the zero character),
    otherwise (sign, entries): the dominant entry tuple and the sign of the
    sorting permutation.
    """
    rho = range(len(v) - 1, -1, -1)
    shifted = list(map(operator.add, v, rho))
    if len(set(shifted)) != len(shifted):
        return None
    # sign of the permutation taking `shifted` to strictly decreasing
    # order: the parity of its ascending pairs
    ascents = sum(itertools.starmap(operator.lt, itertools.combinations(shifted, 2)))
    sign = -1 if ascents & 1 else 1
    shifted.sort(reverse=True)
    return sign, tuple(map(operator.sub, shifted, rho))


class VirtualBundle:
    """Integer-linear combination of dominant weights of one length, the
    genus, keyed by their entry tuples.

    Keys are validated in one place: the public constructor checks every
    key it is given.  The producers in this module (`wedge_dual_tensor*`,
    `telescope_*`, `scale`) build through `_of` from keys that are valid by
    construction, each call site saying why, and skip that check."""

    __slots__ = ("genus", "_terms")

    def __init__(self, genus: int, pairs: Iterable[tuple] = ()):
        """From (entries, coeff) pairs; repeated entries are summed and zero
        sums dropped.  Every key is checked before any is dropped, so a bad
        key whose coefficients cancel still raises: TypeError for a key
        that is not a tuple (a GlWeight, say) or for a dict, which is not
        pairs; ValueError for a key whose length is not the genus or that
        is not weakly decreasing."""
        if isinstance(pairs, dict):
            raise TypeError("VirtualBundle takes (entries, coeff) pairs, not a mapping")
        self.genus = genus
        acc: dict[tuple[int, ...], int] = {}
        for key, c in pairs:
            # pair by pair: a GlWeight equals and hashes as its entries,
            # so summed after an equal tuple it would leave no key behind
            if type(key) is not tuple:
                raise TypeError(f"weight key {key!r} is not an entry tuple")
            acc[key] = acc.get(key, 0) + c
        for key in acc:
            if len(key) != genus:
                raise ValueError("weight length must equal the bundle genus")
            if not is_dominant(key):
                raise ValueError(f"weight {key} is not weakly decreasing")
        self._terms = {key: c for key, c in acc.items() if c}

    @classmethod
    def _of(cls, genus: int, terms: dict[tuple[int, ...], int]) -> "VirtualBundle":
        """The bundle of `terms`, a dict whose keys the caller has shown to
        be dominant entry tuples of length genus; no key is checked.  Keys
        of a dict are distinct, so a caller whose keys may repeat sums them
        into it.  Zero coefficients are dropped."""
        vb = object.__new__(cls)
        vb.genus = genus
        vb._terms = {key: c for key, c in terms.items() if c} if 0 in terms.values() else terms
        return vb

    def items(self) -> list[tuple[tuple[int, ...], int]]:
        """The (entries, coeff) pairs, sorted by entries."""
        return sorted(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other):
        return (
            isinstance(other, VirtualBundle)
            and self.genus == other.genus
            and self._terms == other._terms
        )

    def scale(self, n: int) -> "VirtualBundle":
        # the keys are this bundle's own, already valid and distinct
        return VirtualBundle._of(self.genus, {k: n * c for k, c in self._terms.items()})

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for wt, c in self.items():
            body = weight_text(wt)
            if abs(c) != 1:
                body = f"{abs(c)}*{body}"
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        if not hasattr(self, "_terms"):  # __init__ raised
            return f"<{type(self).__name__}: not constructed>"
        return str(self)


def _deletions(v: tuple[int, ...], k: int) -> Iterable[tuple[int, ...]]:
    """Entry tuples of the dominant vectors v - e_S over k-subsets S."""
    for subset in itertools.combinations(range(len(v)), k):
        w = list(v)
        for i in subset:
            w[i] -= 1
        if is_dominant(w):
            yield tuple(w)


def wedge_dual_tensor(mu: GlWeight, k: int) -> VirtualBundle:
    """mu tensored with the k-th exterior power of the dual standard rep,
    as a sum of dominant weights.

    Deletion rule: subtract 1 from k entries of mu in every possible way
    and keep the dominant results, each with coefficient 1.
    `wedge_dual_tensor_straightened` is its independent oracle.  The keys
    are not checked again: `_deletions` has just tested each for dominance.
    """
    n = len(mu)
    if not 0 <= k <= n:
        raise ValueError("k out of range")
    # distinct subsets give distinct vectors, so every coefficient is 1
    return VirtualBundle._of(n, dict.fromkeys(_deletions(mu, k), 1))


def wedge_dual_tensor_straightened(
    mu: GlWeight, k: int, *, straightened: dict | None = None
) -> VirtualBundle:
    """Oracle for `wedge_dual_tensor`: straighten every mu - e_S over the
    k-subsets S (a copy of mu's entries with the entries in S lowered by
    1) and add up the signed dominant weights.

    `straightened` maps an entry tuple to its `straighten` result; a run
    of calls that shares one dict straightens each distinct vector once.
    Without it the call makes its own.  A vector not in it is straightened
    by `straighten` as this module holds it, and the result is stored.
    The keys are not checked again: each is `straighten`'s sorted output."""
    n = len(mu)
    if not 0 <= k <= n:
        raise ValueError("k out of range")
    if straightened is None:
        straightened = {}
    acc: dict[tuple[int, ...], int] = {}
    for subset in itertools.combinations(range(n), k):
        v = list(mu)
        for i in subset:
            v[i] -= 1
        key = tuple(v)
        if key in straightened:
            res = straightened[key]
        else:
            res = straightened[key] = straighten(v)
        if res is not None:
            # two vectors can straighten to one weight: sum their signs
            sign, wt = res
            acc[wt] = acc.get(wt, 0) + sign
    return VirtualBundle._of(n, acc)


def telescope_surgery(a: Sequence[int], l: int) -> tuple[int, ...]:
    """Drop the l-th entry of a and lower every entry after it by 1."""
    return tuple(a[: l - 1]) + tuple(x - 1 for x in a[l:])


def telescope_closed(a: GlWeight) -> VirtualBundle:
    """Closed form of the alternating direct image: g terms, k-th obtained
    by dropping a_k and lowering the tail, with sign (-1)^(g-k).

    The keys are not checked again.  Each is dominant by the surgery lemma,
    a_(k-1) >= a_k >= a_(k+1) > a_(k+1) - 1, as `a` is a checked weight.
    They are distinct: for k < m, the k-th entry of the k-th surgery is
    a_(k+1) - 1, below the m-th surgery's a_k."""
    g = len(a)
    if g == 0:
        raise ValueError("need a nonempty weight")
    terms = {
        telescope_surgery(a, k): (-1) ** (g - k) for k in range(1, g + 1)
    }
    return VirtualBundle._of(g - 1, terms)


def telescope_bruteforce(a: GlWeight) -> VirtualBundle:
    """Independent oracle: branch to GL(g-1), then tensor with the
    alternating sum of exterior powers of the dual standard rep.

    That is the double sum over branches b of a and subsets S of the g-1
    positions of (-1)^|S| [b - e_S], keeping the dominant b - e_S (the
    deletion rule of `wedge_dual_tensor`).  The sums are exchanged: for
    each S, the vectors b - e_S over all b are the branching box with the
    range at each position in S shifted down by 1.  Each shifted box is
    counted into one of two tallies, by the parity of |S|.  A vector's sum
    is its even count minus its odd count, nonzero exactly when the two
    counts differ, so the vectors with a nonzero sum are those of the
    symmetric difference of the tallies' (vector, count) pairs; each of
    them takes its even minus odd count, and the dominant ones are the
    terms.  The deletion rule drops each non-dominant b - e_S on its own,
    so dropping a vector after its visits are summed drops exactly the
    same terms.  Every pair (b, S) is still visited once, so this is the
    same finite sum term by term, not a closed form.  Works on entry
    tuples and builds no weight.  The keys are not checked again: each has
    just passed `is_dominant`, and each is a distinct vector of a box."""
    g = len(a)
    if g == 0:
        raise ValueError("need a nonempty weight")
    box = _interlacing(a)
    tallies = (Counter(), Counter())  # by the parity of |S|
    for k in range(g):
        for subset in itertools.combinations(range(g - 1), k):
            shifted = list(box)
            for i in subset:
                shifted[i] = range(box[i].start - 1, box[i].stop - 1)
            tallies[k & 1].update(itertools.product(*shifted))
    even, odd = tallies
    # a vector's sum is nonzero exactly when its two tallies differ, which
    # the symmetric difference of the (vector, count) pairs finds in C
    differ = {v for v, _ in even.items() ^ odd.items()}
    # the dominance filter is the key check: the bundle does not repeat it
    return VirtualBundle._of(
        g - 1, {v: even[v] - odd[v] for v in differ if is_dominant(v)}
    )


def dominant_entries(g: int, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    """The one weight enumerator: the dominant length-g entry tuples in [lo, hi]
    (g = 0: () alone) in ascending lexicographic order, each next one raising
    the last entry below its left neighbour (or hi), the later ones set to lo."""
    if g and lo > hi:
        return
    v = [hi] + [lo] * g  # v[0] is a sentinel left neighbour for the entries
    while True:
        yield tuple(v[1:])
        i = g
        while i and v[i] == v[i - 1]:
            i -= 1
        if not i:  # every entry is hi
            return
        v[i] += 1
        v[i + 1:] = [lo] * (g - i)


def dominant_weights(g: int, lo: int, hi: int) -> Iterable[GlWeight]:
    """`dominant_entries` as validated weights, in the same order."""
    return map(GlWeight, dominant_entries(g, lo, hi))
