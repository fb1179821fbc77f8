"""Signed-permutation combinatorics for the Weyl group of Sp(2g).

Elements of the Weyl group W_g sit inside S_2g as the permutations with
w(i) + w(2g+1-i) = 2g+1.  Only the first g images are stored; the
relation gives the rest.  Everything here is pure, and a `WeylElement`
is the immutable tuple (g, images).

A final element is also determined by its flip set F, the indices i with
2g+1-i among its images, which the boundary pipeline handles as a
bitmask with index i at bit g-i (`final_element` builds the element from
it).  In that convention the masks count upward in the images'
lexicographic order, so the element at position m of `enumerate_final`
has flip mask m.  The boundary pipeline takes every final element's dot
action and length at once from `flip_dot_actions`, and every final
element's restrictions at once from `flip_restriction_rows`, and names
every final element at once with `flip_namer`, each built from two half
tables; `WeylElement.dot_action`, `WeylElement.length`, `image_dichotomy`,
`restrict_final` and `str` stay as their oracles.
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable, Iterable, Iterator, Sequence


class SideMismatchError(ValueError):
    """Raised when a restriction is requested on the wrong side."""


def rho(g: int) -> tuple[int, ...]:
    """The half-sum vector (g, g-1, ..., 1) used by the dot action."""
    return tuple(range(g, 0, -1))


class WeylElement(tuple):
    """Element of W_g given by its first g images [w(1), ..., w(g)].

    A WeylElement is the tuple (g, images), checked as it is built.  It
    compares equal to, hashes as and orders as its plain tuple, so
    hashing and equality are tuple operations.  Assigning to any
    attribute raises AttributeError.
    """

    __slots__ = ()

    def __new__(cls, g: int, images: Iterable[int]):
        return tuple.__new__(cls, (g, tuple(images)))

    def __init__(self, g: int, images: Iterable[int]):
        if g < 0:
            raise ValueError("genus must be nonnegative")
        imgs = self.images
        if len(imgs) != g:
            raise ValueError("need exactly g images")
        if any(not 1 <= m <= 2 * g for m in imgs):
            raise ValueError("images must lie in [1, 2g]")
        if len(set(imgs)) != g:
            raise ValueError("images must be distinct")
        # both members of a pair {m, 2g+1-m} would force a collision in
        # the reconstructed second half; distinct images meet g different
        # pairs iff no pair is hit twice
        if len({m if m <= g else 2 * g + 1 - m for m in imgs}) != g:
            raise ValueError("images contain a complementary pair")

    g = property(operator.itemgetter(0))
    images = property(operator.itemgetter(1))

    def __getnewargs__(self):
        # copy and pickle rebuild a WeylElement through __new__
        return tuple(self)

    def __repr__(self):
        return f"WeylElement(g={self.g!r}, images={self.images!r})"

    def __str__(self):
        return images_text(self.g, self.images)

    def length(self) -> int:
        """Coxeter length from the two-part inversion count."""
        g, w = self.g, self.images
        inv = sum(1 for i in range(g) for j in range(i + 1, g) if w[i] > w[j])
        neg = sum(
            1
            for i in range(g)
            for j in range(i, g)
            if w[i] + w[j] > 2 * g + 1
        )
        return inv + neg

    def is_final(self) -> bool:
        """Kostant representatives are exactly the increasing tuples."""
        w = self.images
        return all(w[i] < w[i + 1] for i in range(len(w) - 1))

    def signed_apply(self, v: Sequence[int]) -> tuple[int, ...]:
        """Act on a coordinate vector: u_i = v_ext[w(i)] with the second
        half of v_ext carrying negated, reversed entries of v."""
        g = self.g
        if len(v) != g:
            raise ValueError("vector length must equal g")
        out = []
        for m in self.images:
            if m <= g:
                out.append(v[m - 1])
            else:
                out.append(-v[2 * g - m])
        return tuple(out)

    def dot_action(self, lam: Sequence[int]) -> tuple[int, ...]:
        """The shifted action w * lam = w(lam + rho) - rho."""
        g = self.g
        if len(lam) != g:
            raise ValueError("weight length must equal g")
        r = rho(g)
        shifted = tuple(a + b for a, b in zip(lam, r))
        return tuple(a - b for a, b in zip(self.signed_apply(shifted), r))


def images_text(g: int, images: Iterable[int]) -> str:
    """The text name of an element of W_g by its images: the digits run
    together while 2g <= 9, comma-separated beyond."""
    return "[" + _text_separator(g).join(map(str, images)) + "]"


def _text_separator(g: int) -> str:
    return "" if 2 * g <= 9 else ","


def flip_images(mask: int, g: int) -> tuple[int, ...]:
    """The images of the final element of genus g with flip mask `mask`:
    bit b stands for the index g-b, whose image is g+1+b if the bit is set
    and g-b if not.  In increasing order that is the unflipped indices
    ascending, then 2g+1-i for the flipped indices i descending."""
    bits = range(g)
    return (
        *[g - b for b in reversed(bits) if not mask >> b & 1],
        *[g + 1 + b for b in bits if mask >> b & 1],
    )


def final_element(g: int, mask: int) -> WeylElement:
    """The final element with flip mask `mask` (`flip_images`)."""
    if not 0 <= mask < 1 << g:
        raise ValueError(f"flip mask {mask} out of range for genus {g}")
    return WeylElement(g, flip_images(mask, g))


def enumerate_final(g: int) -> list[WeylElement]:
    """All 2^g final elements of W_g, lexicographic on their images: the
    first index where two flip sets differ is unflipped in the smaller
    element, so position m holds the element with flip mask m."""
    if g < 1:
        raise ValueError("genus must be positive")
    return [final_element(g, m) for m in range(1 << g)]


def kostant_from_signs(g: int, flips: Iterable[int]) -> WeylElement:
    """The final element attached to a set of flipped indices."""
    flips = set(flips)
    if not flips <= set(range(1, g + 1)):
        raise ValueError("flips must be a subset of {1..g}")
    return final_element(g, sum(1 << (g - i) for i in flips))


def image_dichotomy(w: WeylElement, k: int) -> tuple[str, int]:
    """For final w, decide which of k, 2g+1-k occurs among the images and
    return the side ('A' for k, 'B' for the complement) with its position."""
    if not 1 <= k <= w.g:
        raise ValueError("k out of range")
    if k in w.images:
        return "A", w.images.index(k) + 1
    comp = 2 * w.g + 1 - k
    return "B", w.images.index(comp) + 1


def restrict_final(w: WeylElement, k: int, side: str) -> WeylElement:
    """Delete the entry k (side A) or 2g+1-k (side B) and rename, giving a
    final element of genus g-1."""
    if not w.is_final():
        raise SideMismatchError("restriction is defined for final elements")
    actual, _ = image_dichotomy(w, k)
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    if side != actual:
        raise SideMismatchError(
            f"element {w} admits side {actual} at k={k}, not {side}"
        )
    g = w.g
    target = k if side == "A" else 2 * g + 1 - k
    kept = [m for m in w.images if m != target]
    renamed = []
    for m in kept:
        if k < m < 2 * g + 1 - k:
            renamed.append(m - 1)
        elif m > 2 * g + 1 - k:
            renamed.append(m - 2)
        else:
            renamed.append(m)
    return WeylElement(g - 1, tuple(renamed))


def _half_restrictions(n: int, before: int, g: int) -> list[list[tuple[str, int, int]]]:
    """For each value x of an n-bit half of a genus-g flip mask, per bit c
    from n-1 down to 0: the side, a position and x with bit c dropped.  On
    side A the position is `before` + the clear bits of x at or above c;
    on side B it is g - popcount(x) + the set bits of x at or below c.
    For the first half (before = 0) these are `image_dichotomy`'s
    positions; for the second (before = h) they are once the first
    half's popcount is taken off (`flip_restriction_rows`)."""
    rows = []
    for x in range(1 << n):
        flipped_from_k = g - x.bit_count()
        unflipped_to_k = before
        row = []
        for c in range(n - 1, -1, -1):
            dropped = (x & ((1 << c) - 1)) | (x >> (c + 1) << c)
            if x >> c & 1:
                row.append(("B", flipped_from_k + (x & ((2 << c) - 1)).bit_count(), dropped))
            else:
                unflipped_to_k += 1
                row.append(("A", unflipped_to_k, dropped))
        rows.append(row)
    return rows


def flip_restriction_rows(g: int) -> Iterator[list[tuple[str, int, int]]]:
    """`image_dichotomy` and `restrict_final` of every final element of
    genus g, in flip-mask order: per mask, for k = 1..g, the side and
    position of k and the flip mask of the restriction.  Index k is bit
    g-k.  Side A (k is an image) iff that bit is clear; its position
    counts the unflipped indices <= k.  On side B, 2g+1-k sits after every
    unflipped image and after the flipped images of the indices >= k.  The
    restriction drops the bit and shifts the bits above it down by one.

    Split mask = hi * 2^s + lo, with the h = g // 2 high bits (k = 1..h)
    and the s = g - h low bits (k = h+1..g), as `flip_dot_actions` does.
    For k in the first half the side and position depend on hi alone, and
    the restriction is drop(hi) * 2^s | lo.  For k in the second half the
    side comes from lo, the position is lo's entry less popcount(hi), the
    flipped first-half indices that lo's entry counted as unflipped, and
    the restriction is hi * 2^(s-1) | drop(lo).  Each half's rows are
    built once, O(2^(g/2)) per call, and each mask costs g tuples."""
    h = g // 2
    s = g - h
    lows = _half_restrictions(s, h, g)
    for hi, row in enumerate(_half_restrictions(h, 0, g)):
        n = hi.bit_count()
        tops = [(side, pos, dropped << s) for side, pos, dropped in row]
        high = hi << s >> 1  # hi * 2^(s-1); s = 0 only at g = 0, where hi = 0
        for lo, bottoms in enumerate(lows):
            yield [(side, pos, top | lo) for side, pos, top in tops] + [
                (side, pos - n, high | dropped) for side, pos, dropped in bottoms
            ]


def _half_parts(v: Sequence[int], first: int, last: int, g: int):
    """(unflipped part, flipped part, length) of w(v) over the indices
    first..last, for each flip set of those indices in flip-mask order.
    Indices are added from last down to first, so each new index is the
    top bit: every set so far unflipped, then every set so far flipped."""
    parts = [((), (), 0)]
    for i in range(last, first - 1, -1):
        x, weight = v[i - 1], g + 1 - i
        parts = [((x, *u), f, n) for u, f, n in parts] + [
            (u, (*f, -x), n + weight) for u, f, n in parts
        ]
    return parts


def flip_dot_actions(lam: Sequence[int]) -> Iterator[tuple[tuple[int, ...], int]]:
    """(`WeylElement.dot_action`, `WeylElement.length`) of every final
    element of genus g = len(lam), in flip-mask order.

    With v = lam + rho, w(v) for flip set F is v_i over the unflipped i
    ascending, then -v_i over the flipped i descending.  Split the indices
    into 1..h and h+1..g, h = g // 2: the first half holds the mask's high
    bits, so the masks run over the first half's sets, each with every set
    of the second half.  w(v) is then the first half's unflipped part, the
    second half's two parts, and the first half's flipped part.  The
    length, the sum of g+1-i over the flipped i, is the sum of the
    halves'.  Each half's parts are built once, O(2^(g/2)) tuples per
    call, and each mask costs two tuple concatenations and one
    subtraction of rho."""
    g = len(lam)
    r = rho(g)
    v = tuple(map(operator.add, lam, r))
    h = g // 2
    sub = operator.sub
    # the second half's unflipped and flipped parts are adjacent in w(v)
    middles = [(u + f, n) for u, f, n in _half_parts(v, h + 1, g, g)]
    for u, f, n in _half_parts(v, 1, h, g):
        for middle, m in middles:
            yield tuple(map(sub, u + middle + f, r)), n + m


def flip_namer(g: int, sep: str | None = None) -> Callable[[int], str]:
    """The name of a final element of genus g by its flip mask, its images
    joined by `sep` (`images_text`'s by default), built from the halves
    as `flip_dot_actions` is: head, middle and tail are each formatted
    once, O(2^(g/2)) strings, and a mask costs three lookups and two
    concatenations.  The middle holds g - h >= 1 images for g >= 1, so
    the head and the tail carry the separators next to it."""
    if sep is None:
        sep = _text_separator(g)
    h = g // 2
    s = g - h
    low = (1 << s) - 1

    def text(part):
        # the parts of v = (1, ..., g): i unflipped, -i flipped
        return sep.join([str(i if i > 0 else 2 * g + 1 + i) for i in part])

    v = range(1, g + 1)
    middles = [text(u + f) for u, f, _ in _half_parts(v, h + 1, g, g)]
    firsts = _half_parts(v, 1, h, g)
    heads = ["[" + text(u) + (sep if u else "") for u, _, _ in firsts]
    tails = [(sep if f else "") + text(f) + "]" for _, f, _ in firsts]
    return lambda m: heads[m >> s] + middles[m & low] + tails[m >> s]


def flip_names(g: int, sep: str | None = None) -> list[str]:
    """`flip_namer`'s name of every final element of genus g, by mask."""
    return list(map(flip_namer(g, sep), range(1 << g)))


def all_elements(g: int) -> list[WeylElement]:
    """The full group W_g (2^g * g! elements); brute-force oracle helper."""
    out = []
    for perm in itertools.permutations(range(1, g + 1)):
        for signs in itertools.product((False, True), repeat=g):
            imgs = tuple(
                2 * g + 1 - p if s else p for p, s in zip(perm, signs)
            )
            out.append(WeylElement(g, imgs))
    return out
