"""GL(g) weight combinatorics at the boundary.

Dominant weights, duals, branching to GL(g-1), tensoring with exterior
powers of the dual standard representation, and the telescoping formula
for the alternating direct image.  Virtual bundles are finite signed sums
of weights with exact integer coefficients.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence


def is_dominant(v: Sequence[int]) -> bool:
    """v[i] >= v[i+1] for every i; v is a list or a tuple."""
    return all(map(operator.ge, v, v[1:]))


@dataclass(frozen=True, slots=True)
class GlWeight:
    """Weakly decreasing integer vector; the empty weight is allowed."""

    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if not is_dominant(self.entries):
            raise ValueError(f"weight {self.entries} is not weakly decreasing")

    def __len__(self):
        return len(self.entries)

    def __str__(self):
        return "W(" + ",".join(str(a) for a in self.entries) + ")"

    def dual(self) -> "GlWeight":
        """Reverse and negate (conjugation by the longest element of S_g)."""
        return GlWeight(tuple(-a for a in reversed(self.entries)))


def _interlacing(a: tuple[int, ...]) -> list[range]:
    """The branching box of a: the range a[i+1]..a[i] of the i-th entry of
    a GL(g-1) weight interlacing a, for i < g-1.  Their product is every
    such weight, lexicographically."""
    if len(a) == 0:
        raise ValueError("cannot branch the empty weight")
    return [range(a[i + 1], a[i] + 1) for i in range(len(a) - 1)]


def branch(mu: GlWeight) -> list[GlWeight]:
    """All GL(g-1) weights interlacing mu, in lexicographic order."""
    return [GlWeight(b) for b in itertools.product(*_interlacing(mu.entries))]


def straighten(v: Sequence[int]):
    """Straighten a virtual character index via the rho-shifted sort.

    Returns None when v + rho has a repeated entry (the zero character),
    otherwise (sign, GlWeight) with the sign of the sorting permutation.
    """
    n = len(v)
    shifted = [x + (n - 1 - i) for i, x in enumerate(v)]
    if len(set(shifted)) != n:
        return None
    # sign of the permutation taking `shifted` to strictly decreasing
    # order: the parity of its ascending pairs
    ascents = sum(x < y for x, y in itertools.combinations(shifted, 2))
    sign = -1 if ascents & 1 else 1
    sorted_shifted = sorted(shifted, reverse=True)
    weight = tuple(x - (n - 1 - i) for i, x in enumerate(sorted_shifted))
    return sign, GlWeight(weight)


class VirtualBundle:
    """Integer-linear combination of GlWeights of one length, the genus."""

    __slots__ = ("genus", "_terms")

    def __init__(self, genus: int, terms: Iterable[tuple] = ()):
        """From (weight, coeff) pairs; repeated weights are summed and zero
        sums dropped.  A dict is not pairs: its GlWeight keys do not unpack,
        so it raises TypeError."""
        self.genus = genus
        acc: dict[GlWeight, int] = {}
        for wt, c in terms:
            if len(wt.entries) != genus:
                raise ValueError("weight length must equal the bundle genus")
            acc[wt] = acc.get(wt, 0) + c
        self._terms = {wt: c for wt, c in acc.items() if c}

    def items(self) -> list[tuple[GlWeight, int]]:
        return sorted(self._terms.items(), key=lambda kv: kv[0].entries)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other):
        return (
            isinstance(other, VirtualBundle)
            and self.genus == other.genus
            and self._terms == other._terms
        )

    def scale(self, n: int) -> "VirtualBundle":
        return VirtualBundle(self.genus, ((k, n * c) for k, c in self._terms.items()))

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for wt, c in self.items():
            body = f"W({','.join(str(a) for a in wt.entries)})"
            if abs(c) != 1:
                body = f"{abs(c)}*{body}"
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    __repr__ = __str__


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
    `wedge_dual_tensor_straightened` is its independent oracle.
    """
    n = len(mu)
    if not 0 <= k <= n:
        raise ValueError("k out of range")
    return VirtualBundle(n, ((GlWeight(v), 1) for v in _deletions(mu.entries, k)))


def wedge_dual_tensor_straightened(mu: GlWeight, k: int) -> VirtualBundle:
    """Oracle for `wedge_dual_tensor`: straighten every mu - e_S over the
    k-subsets S and add up the signed dominant weights."""
    n = len(mu)
    if not 0 <= k <= n:
        raise ValueError("k out of range")
    shifted = (
        [x - (i in subset) for i, x in enumerate(mu.entries)]
        for subset in itertools.combinations(range(n), k)
    )
    return VirtualBundle(
        n, ((wt, sign) for sign, wt in filter(None, map(straighten, shifted)))
    )


def telescope_surgery(a: Sequence[int], l: int) -> tuple[int, ...]:
    """Drop the l-th entry of a and lower every entry after it by 1."""
    return tuple(a[: l - 1]) + tuple(x - 1 for x in a[l:])


def telescope_closed(a: GlWeight) -> VirtualBundle:
    """Closed form of the alternating direct image: g terms, k-th obtained
    by dropping a_k and lowering the tail, with sign (-1)^(g-k)."""
    g = len(a)
    if g == 0:
        raise ValueError("need a nonempty weight")
    terms = (
        (GlWeight(telescope_surgery(a.entries, k)), (-1) ** (g - k))
        for k in range(1, g + 1)
    )
    return VirtualBundle(g - 1, terms)


def telescope_bruteforce(a: GlWeight) -> VirtualBundle:
    """Independent oracle: branch to GL(g-1), then tensor with the
    alternating sum of exterior powers of the dual standard rep.

    That is the double sum over branches b of a and subsets S of the g-1
    positions of (-1)^|S| [b - e_S], keeping the dominant b - e_S (the
    deletion rule of `wedge_dual_tensor`).  The sums are exchanged: for
    each S, the vectors b - e_S over all b are the branching box with the
    range at each position in S shifted down by 1, so v runs over that
    shifted box and is kept when it is dominant.  Every pair (b, S) is
    still visited once, so this is the same finite sum term by term, not
    a closed form.  Works on entry tuples and builds a weight only for
    each term of the result, the nonzero sums."""
    g = len(a)
    if g == 0:
        raise ValueError("need a nonempty weight")
    box = _interlacing(a.entries)
    acc: dict[tuple[int, ...], int] = {}
    for k in range(g):
        sign = -1 if k % 2 else 1
        for subset in itertools.combinations(range(g - 1), k):
            shifted = list(box)
            for i in subset:
                shifted[i] = range(box[i].start - 1, box[i].stop - 1)
            for v in itertools.product(*shifted):
                if all(map(operator.ge, v, v[1:])):  # is_dominant(v), inlined
                    acc[v] = acc.get(v, 0) + sign
    return VirtualBundle(g - 1, ((GlWeight(v), c) for v, c in acc.items() if c))


def dominant_entries(g: int, lo: int, hi: int) -> Iterable[tuple[int, ...]]:
    """Entry tuples of all dominant length-g weights with entries in [lo, hi]."""
    return itertools.combinations_with_replacement(range(hi, lo - 1, -1), g)


def dominant_weights(g: int, lo: int, hi: int) -> Iterable[GlWeight]:
    """All dominant length-g weights with entries in [lo, hi]."""
    return map(GlWeight, dominant_entries(g, lo, hi))
