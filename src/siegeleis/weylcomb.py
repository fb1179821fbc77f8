"""Signed-permutation combinatorics for the Weyl group of Sp(2g).

Elements of the Weyl group W_g sit inside S_2g as the permutations with
w(i) + w(2g+1-i) = 2g+1.  Only the first g images are stored; the second
half is reconstructed on demand.  Everything here is immutable and pure.

A final element is also determined by its flip set F, the indices i with
2g+1-i among its images, which the boundary pipeline handles as a
bitmask: the `flip_*` helpers are the bit-operation twins of
`image_dichotomy`, `restrict_final` and `WeylElement.length`, which stay
as their oracles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence


class SideMismatchError(ValueError):
    """Raised when a restriction is requested on the wrong side."""


def rho(g: int) -> tuple[int, ...]:
    """The half-sum vector (g, g-1, ..., 1) used by the dot action."""
    return tuple(range(g, 0, -1))


@dataclass(frozen=True)
class WeylElement:
    """Element of W_g given by its first g images [w(1), ..., w(g)]."""

    g: int
    images: tuple[int, ...]

    def __post_init__(self):
        g = self.g
        if g < 0:
            raise ValueError("genus must be nonnegative")
        object.__setattr__(self, "images", tuple(self.images))
        imgs = self.images
        if len(imgs) != g:
            raise ValueError("need exactly g images")
        if any(not 1 <= m <= 2 * g for m in imgs):
            raise ValueError("images must lie in [1, 2g]")
        if len(set(imgs)) != g:
            raise ValueError("images must be distinct")
        # both members of a pair {m, 2g+1-m} would force a collision in
        # the reconstructed second half
        for a, b in itertools.combinations(imgs, 2):
            if a + b == 2 * g + 1:
                raise ValueError("images contain a complementary pair")

    def __str__(self):
        if 2 * self.g <= 9:
            return "[" + "".join(str(m) for m in self.images) + "]"
        return "[" + ",".join(str(m) for m in self.images) + "]"

    def apply(self, i: int) -> int:
        """w(i) for any i in [1, 2g]."""
        if 1 <= i <= self.g:
            return self.images[i - 1]
        if self.g < i <= 2 * self.g:
            return 2 * self.g + 1 - self.images[2 * self.g - i]
        raise ValueError("index out of range")

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


def enumerate_final(g: int) -> list[WeylElement]:
    """All 2^g final elements of W_g, lexicographic on their images."""
    if g < 1:
        raise ValueError("genus must be positive")
    out = []
    for flips in itertools.product((False, True), repeat=g):
        imgs = sorted(
            (2 * g + 1 - i if f else i) for i, f in zip(range(1, g + 1), flips)
        )
        out.append(WeylElement(g, tuple(imgs)))
    out.sort(key=lambda w: w.images)
    return out


def kostant_from_signs(g: int, flips: Iterable[int]) -> WeylElement:
    """The final element attached to a set of flipped indices."""
    flips = set(flips)
    if not flips <= set(range(1, g + 1)):
        raise ValueError("flips must be a subset of {1..g}")
    imgs = sorted(2 * g + 1 - i if i in flips else i for i in range(1, g + 1))
    return WeylElement(g, tuple(imgs))


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


def flip_mask(w: WeylElement) -> int:
    """The flip set F of a final element as a bitmask: bit i-1 is set iff
    2g+1-i is an image of w (the inverse of `kostant_from_signs`)."""
    g = w.g
    mask = 0
    for m in w.images:
        if m > g:
            mask |= 1 << (2 * g - m)
    return mask


def flip_dichotomy(mask: int, g: int, k: int) -> tuple[str, int]:
    """`image_dichotomy` on the flip mask of a final element of genus g.

    Side A (k is an image) iff k is not flipped; its position counts the
    unflipped indices <= k.  On side B, 2g+1-k sits after every unflipped
    image and after the flipped images of the indices >= k."""
    if not 1 <= k <= g:
        raise ValueError("k out of range")
    if not mask >> (k - 1) & 1:
        return "A", k - (mask & ((1 << k) - 1)).bit_count()
    return "B", g - mask.bit_count() + (mask >> (k - 1)).bit_count()


def restrict_flips(mask: int, k: int) -> int:
    """`restrict_final` on flip masks: drop index k and shift the indices
    above it down by one.  The side plays no part, since it is bit k-1."""
    return (mask & ((1 << (k - 1)) - 1)) | ((mask >> k) << (k - 1))


def flip_length(mask: int, g: int) -> int:
    """Coxeter length of the final element with this flip mask:
    the sum of g+1-i over the flipped indices i."""
    return sum(g - i for i in range(g) if mask >> i & 1)


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
