"""Eisenstein-cohomology formulas and their machine verification.

BGG-complex bookkeeping, the boundary restriction pipeline, the rank-one
formula for general genus, the genus-2 total / codimension-2 / kernel
formulas, and the cross-consistency checks tying them together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .glbranch import GlWeight, is_dominant, telescope_surgery
from .motivering import MotiveExpr, VerificationReport, cusp_dim
from .weylcomb import (
    WeylElement,
    enumerate_final,
    flip_dichotomy,
    flip_length,
    flip_mask,
    image_dichotomy,
    restrict_final,
    restrict_flips,
)


def _check_sp_weight(lam: Sequence[int]) -> tuple[int, ...]:
    lam = tuple(lam)
    if not is_dominant(lam) or (lam and lam[-1] < 0):
        raise ValueError(f"{lam} is not a dominant Sp weight")
    return lam


def tau_prime(lam: Sequence[int], k: int) -> tuple[int, ...]:
    """Boundary weight surgery: raise the first k-1 entries, drop the k-th."""
    lam = _check_sp_weight(lam)
    g = len(lam)
    if not 1 <= k <= g:
        raise ValueError("k out of range")
    return tuple(a + 1 for a in lam[: k - 1]) + lam[k:]


@dataclass(frozen=True)
class BggTerm:
    w: WeylElement
    mu: GlWeight  # dual-side weight of the bundle in this degree
    degree: int
    filtration: int


def bgg_complex(g: int, lam: Sequence[int]) -> list[BggTerm]:
    """One term per final element: dual-side weight, degree, filtration."""
    lam = _check_sp_weight(lam)
    if len(lam) != g:
        raise ValueError("weight length must equal g")
    terms = []
    for w in enumerate_final(g):
        mu = GlWeight(w.dot_action(lam)).dual()
        num = sum(lam) + sum(mu.entries)
        assert num % 2 == 0
        terms.append(BggTerm(w, mu, w.length(), num // 2))
    terms.sort(key=lambda t: (t.degree, t.mu.entries))
    return terms


@dataclass(frozen=True)
class BoundaryTerm:
    source_w: WeylElement
    k: int
    side: str
    u: WeylElement
    weight: GlWeight
    sign: int
    twist: int
    parity_pass: bool


def boundary_terms(g: int, lam: Sequence[int]) -> list[BoundaryTerm]:
    """Expand the double sum over (w, k) of restricted telescope terms.

    Each final w is handled through its flip mask F (`flip_mask`): the
    side and position of k (`flip_dichotomy`), the length of w
    (`flip_length`) and the mask of the restriction (`restrict_flips`) are
    bit operations, and the restricted element u is looked up in a table
    of the 2^(g-1) final elements of genus g-1, built once per call, so
    every u is one of those validated `WeylElement`s.  The GL(1,Z) parity
    filter is the entry-sum parity of the term's own weight, which is
    what `deletion_parity` computes.

    Returns a list, not a generator: callers take its length and walk it
    more than once.
    """
    lam = _check_sp_weight(lam)
    if len(lam) != g:
        raise ValueError("weight length must equal g")
    if g == 1:
        restricted = {0: WeylElement(0, ())}
    else:
        restricted = {flip_mask(u): u for u in enumerate_final(g - 1)}
    out = []
    for w in enumerate_final(g):
        a = GlWeight(w.dot_action(lam)).dual().entries
        mask = flip_mask(w)
        lw = flip_length(mask, g)
        for k in range(1, g + 1):
            side, pos = flip_dichotomy(mask, g, k)
            l = g + 1 - pos
            weight = GlWeight(telescope_surgery(a, l))
            sign = (-1) ** (lw + g - l)
            twist = 0 if side == "A" else lam[k - 1] + g + 1 - k
            u = restricted[restrict_flips(mask, k)]
            out.append(
                BoundaryTerm(
                    w, k, side, u, weight, sign, twist,
                    sum(weight.entries) % 2 == 0,
                )
            )
    return out


def verify_partition(g: int, lam: Sequence[int]) -> VerificationReport:
    """Check that the (w, k) double sum reassembles, weight by weight and
    sign by sign, into the genus-(g-1) BGG data of the surgered weights."""
    lam = _check_sp_weight(lam)
    report = VerificationReport()
    terms = boundary_terms(g, lam)
    by_w: dict[WeylElement, list[BoundaryTerm]] = {}
    for t in terms:
        by_w.setdefault(t.source_w, []).append(t)

    # (i) exclusivity and k -> position bijection per w; each term's side
    # and restriction against the image-based oracles
    ok, cex = True, None
    for w, ts in by_w.items():
        positions = []
        for t in ts:
            side, pos = image_dichotomy(w, t.k)
            in_a = t.k in w.images
            in_b = (2 * g + 1 - t.k) in w.images
            if in_a == in_b:
                ok, cex = False, f"w={w}, k={t.k}"
                break
            if t.side != side:
                ok, cex = False, f"w={w}, k={t.k}: side {t.side} != {side}"
                break
            u = restrict_final(w, t.k, side)
            if t.u != u:
                ok, cex = False, f"w={w}, k={t.k}: u={t.u} != {u}"
                break
            positions.append(pos)
        if ok and sorted(positions) != list(range(1, g + 1)):
            ok, cex = False, f"w={w}, positions={positions}"
        if not ok:
            break
    report.record("dichotomy-bijection", ok, f"g={g}, lambda={lam}", cex)

    # (ii) weight identity against the restricted dot action
    ok, cex = True, None
    for t in terms:
        tp = tau_prime(lam, t.k)
        expected = GlWeight(t.u.dot_action(tp)).dual() if g > 1 else GlWeight(())
        if t.weight != expected:
            ok, cex = False, f"w={t.source_w}, k={t.k}: {t.weight} != {expected}"
            break
    report.record("weight-identity", ok, f"g={g}, lambda={lam}", cex)

    # (iii)+(iv) sign constancy per (k, side)
    ok, cex = True, None
    for k in range(1, g + 1):
        for side, expected in (("A", (-1) ** (k + 1)), ("B", (-1) ** k)):
            ratios = {
                t.sign * (-1) ** t.u.length()
                for t in terms
                if t.k == k and t.side == side
            }
            if ratios != {expected}:
                ok, cex = False, f"k={k}, side={side}, ratios={sorted(ratios)}"
    report.record("sign-constancy", ok, f"g={g}, lambda={lam}", cex)

    # parity filter agrees with the vanishing of odd-|lambda| symbols
    ok, cex = True, None
    for t in terms:
        if t.parity_pass != (sum(tau_prime(lam, t.k)) % 2 == 0):
            ok, cex = False, f"w={t.source_w}, k={t.k}"
            break
    report.record("parity-filter", ok, f"g={g}, lambda={lam}", cex)
    return report


def rank1(g: int, lam: Sequence[int], expand: bool = False) -> MotiveExpr:
    """Rank-one Eisenstein contribution: the alternating sum over k of
    Ec(g-1; tau'_k(lambda)) * (1 - L^(lambda_k + g + 1 - k)).

    The k-th term carries sign (-1)^(k+1); with expand=True the genus-1
    Euler symbols are rewritten into cusp-form motives.
    """
    lam = _check_sp_weight(lam)
    if len(lam) != g or g < 1:
        raise ValueError("need a dominant weight of length g >= 1")
    total = MotiveExpr.zero()
    for k in range(1, g + 1):
        exponent = lam[k - 1] + g + 1 - k
        factor = MotiveExpr.unit() - MotiveExpr.lefschetz(exponent)
        term = MotiveExpr.euler(g - 1, tau_prime(lam, k)) * factor
        total = total + (term if k % 2 == 1 else -term)
    return total.normalize(expand_genus_one=expand)


def _check_g2_args(l: int, m: int):
    if not (l >= m >= 0):
        raise ValueError("need l >= m >= 0")
    if (l - m) % 2:
        raise ValueError("need l = m (mod 2)")


def _s(k: int) -> MotiveExpr:
    return MotiveExpr.unit(cusp_dim(k))


def total_g2(l: int, m: int) -> MotiveExpr:
    """Total genus-2 Eisenstein Euler characteristic (first printed form)."""
    _check_g2_args(l, m)
    one = MotiveExpr.unit()

    def L(a):
        return MotiveExpr.lefschetz(a)

    expr = _s(l - m + 2) * (one - L(l + m + 3)) * (-1)
    expr = expr + _s(l + m + 4) * (L(m + 1) - L(l + 2))
    if l % 2 == 0:
        expr = expr + MotiveExpr.euler(1, (m,)) * (one - L(l + 2))
        expr = expr - (L(l + 2) - L(l + m + 3))
    else:
        expr = expr - MotiveExpr.euler(1, (l + 1,)) * (one - L(m + 1))
        expr = expr - (one - L(m + 1))
    return expr.normalize()


def total_g2_alt(l: int, m: int) -> MotiveExpr:
    """Alternative printed form of the genus-2 total (differs from the
    first form by exactly -(1 - L^(l+m+3)) when l is odd)."""
    _check_g2_args(l, m)
    one = MotiveExpr.unit()

    def L(a):
        return MotiveExpr.lefschetz(a)

    expr = (_s(l - m + 2) + one) * (one - L(l + m + 3)) * (-1)
    expr = expr + _s(l + m + 4) * (L(m + 1) - L(l + 2))
    if l % 2 == 0:
        expr = expr - MotiveExpr.cusp_motive(m + 2) * (one - L(l + 2))
    else:
        expr = expr + MotiveExpr.cusp_motive(l + 3) * (one - L(m + 1))
    return expr.normalize()


def codim2_g2(l: int, m: int) -> MotiveExpr:
    """Contribution of the codimension-2 boundary for genus 2."""
    _check_g2_args(l, m)
    one = MotiveExpr.unit()

    def L(a):
        return MotiveExpr.lefschetz(a)

    expr = _s(l - m + 2) * (one - L(l + m + 3)) * (-1)
    expr = expr + _s(l + m + 4) * (L(m + 1) - L(l + 2))
    if l % 2 == 0:
        expr = expr - L(l + 2) + L(l + m + 3)
    else:
        expr = expr - one + L(m + 1)
    return expr.normalize()


def kernel_g2(l: int, m: int) -> MotiveExpr:
    """Compactly supported Eisenstein part for a regular genus-2 system."""
    _check_g2_args(l, m)
    if not l > m > 0:
        raise ValueError("the kernel formula requires a regular weight (l > m > 0)")
    expr = _s(l - m + 2) - _s(l + m + 4) * MotiveExpr.lefschetz(m + 1)
    if l % 2 == 0:
        expr = expr + MotiveExpr.cusp_motive(m + 2) + MotiveExpr.unit()
    else:
        expr = expr - MotiveExpr.cusp_motive(l + 3)
    return expr.normalize()


def check_duality(x: MotiveExpr, weight: int) -> bool:
    """Anti-self-duality: dual(x) * L^weight == -x."""
    return x.dual() * MotiveExpr.lefschetz(weight) == -x


def consistency_g2(l: int, m: int) -> VerificationReport:
    """Cross-checks tying the genus-2 formulas together."""
    report = VerificationReport()
    total = total_g2(l, m)
    decomposed = rank1(2, (l, m), expand=True) + codim2_g2(l, m)
    report.record(
        "rank1-plus-codim2",
        decomposed == total,
        f"(l,m)=({l},{m})",
        None if decomposed == total else f"{decomposed} != {total}",
    )
    if l > m > 0:
        low, _high = total.motivic_weight_split(l + m + 3)
        kern = kernel_g2(l, m)
        report.record(
            "kernel-is-minus-low-part",
            kern == -low,
            f"(l,m)=({l},{m})",
            None if kern == -low else f"{kern} != {-low}",
        )
    delta = total_g2_alt(l, m) - total
    if l % 2 == 0:
        expected = MotiveExpr.zero()
    else:
        expected = -(MotiveExpr.unit() - MotiveExpr.lefschetz(l + m + 3))
    report.record(
        "printed-forms-delta",
        delta == expected,
        f"(l,m)=({l},{m})",
        None if delta == expected else f"{delta} != {expected}",
    )
    return report
