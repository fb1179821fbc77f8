"""Eisenstein-cohomology formulas and their machine verification.

BGG-complex bookkeeping, the boundary restriction pipeline, the rank-one
formula for general genus, the genus-2 total / codimension-2 / kernel
formulas, and the cross-consistency checks tying them together.
"""

from __future__ import annotations

import itertools
from math import comb, isqrt
from operator import neg
from typing import Iterable, Iterator, NamedTuple, Sequence

from .glbranch import dominant_entries, is_dominant, weight_text
from .motivering import ONE, MotiveExpr, Symbol, VerificationReport, cusp_dim
from .weylcomb import (
    WeylElement,
    enumerate_final,
    final_element,
    flip_dot_actions,
    flip_restriction_rows,
    image_dichotomy,
    restrict_final,
)


# Size limits, checked before work starts; costs are the CLI's at the
# limit with JSON output, best of 5 runs and median peak RSS (2 cores,
# Python 3.11; the costs at the limits measured together in one session,
# as the VM's speed drifts by up to 2x between sessions).
# bgg: 2^g terms, 65,536 at g = 16 (0.47 s, 47 MB).
MAX_BGG_G = 16
# boundary: g*2^g terms, 229,376 at g = 14, streamed (0.58 s, 20 MB).
MAX_BOUNDARY_G = 14
# lambda's entries (rank1, bgg, boundary): output grows with their digits,
# so a 4,300-digit entry would make boundary -g 14 write ~13 GB.  At this
# bound it writes 72 MB of JSON (0.56 s, 20 MB), bgg -g 16 17 MB (0.51 s, 71 MB).
# The CLI applies it as it parses --lambda; the library takes any entry.
MAX_LAMBDA_ENTRY = 10**6
# table: rank1 (g terms over length-g weights) on the even ones of the
# C(lmax+g, g) weights in [0, lmax]^g: g^2 * C(lmax+g, g) steps, worst at
# g = 3, lmax = 64 (0.60 s, 17 MB).  C alone would admit g = 14, lmax = 6
# (18.9 s, 303 MB), and any g at lmax = 0.
MAX_TABLE_LMAX = 64
MAX_TABLE_WORK = 3**2 * comb(MAX_TABLE_LMAX + 3, 3)
# rank1: g terms over length-g weights, more than g^2 steps; the largest
# g the table bound admits (g^2 <= MAX_TABLE_WORK, at lmax = 0), so the
# table needs no genus check of its own.
MAX_RANK1_G = isqrt(MAX_TABLE_WORK)


def _check_sp_weight(lam: Sequence[int], g: int) -> tuple[int, ...]:
    """lam as a tuple, if it is a dominant Sp(2g) weight (g >= 1 entries,
    weakly decreasing, nonnegative, of any size); errors name the CLI flag."""
    if g < 1:
        raise ValueError("-g: genus must be >= 1")
    lam = tuple(lam)
    if len(lam) != g:
        raise ValueError(f"--lambda: expected {g} entries, got {len(lam)}")
    if not is_dominant(lam) or lam[-1] < 0:
        text = ",".join(map(str, lam))
        raise ValueError(f"--lambda: {text!r} is not weakly decreasing and nonnegative")
    return lam


def admissible_weights(g: int, lmax: int) -> Iterator[tuple[int, ...]]:
    """The dominant genus-g weights with entries in [0, lmax] and even
    entry sum, in lexicographic order (`dominant_entries`): the rows of a
    regression table.  g, lmax and the work bound are checked when this is
    called, so bad arguments fail before the first weight is made."""
    if g < 1:
        raise ValueError("-g: genus must be >= 1")
    if not 0 <= lmax <= MAX_TABLE_LMAX:
        raise ValueError(f"--lmax: must be in [0, {MAX_TABLE_LMAX}]")
    work = g * g * comb(lmax + g, g)
    if work > MAX_TABLE_WORK:
        raise ValueError(
            f"-g/--lmax: need g^2*C(lmax+g, g) <= {MAX_TABLE_WORK}, got {work}"
        )
    return (lam for lam in dominant_entries(g, 0, lmax) if sum(lam) % 2 == 0)


def table_rows(g: int, weights: Iterable[tuple[int, ...]]) -> Iterator[tuple[tuple, list]]:
    """One regression-table row per weight, as it is computed: (lambda,
    [(column, expression)]) in column order, rank1 (expanded at g <= 2),
    and at g = 2 the total, codim2 and, at a regular weight, kernel."""
    for lam in weights:
        row = [("rank1", rank1(g, lam, expand=g <= 2))]
        if g == 2:
            l, m = lam
            row += [("total", total_g2(l, m)), ("codim2", codim2_g2(l, m))]
            if l > m > 0:
                row.append(("kernel", kernel_g2(l, m)))
        yield lam, row


def tau_prime(lam: Sequence[int], k: int) -> tuple[int, ...]:
    """Boundary weight surgery: raise the first k-1 entries, drop the k-th."""
    lam = _check_sp_weight(lam, len(lam))
    if not 1 <= k <= len(lam):
        raise ValueError("k out of range")
    return tuple(a + 1 for a in lam[: k - 1]) + lam[k:]


class BggTerm(NamedTuple):
    """One BGG term as plain values.  `w` is the flip mask of the final
    element, so the element is `enumerate_final(g)[w]`; `mu` is the
    dual-side entry tuple of the bundle in this degree."""

    w: int
    mu: tuple[int, ...]
    degree: int
    filtration: int


def bgg_complex(g: int, lam: Sequence[int]) -> list[BggTerm]:
    """One term per final element: dual-side weight, degree, filtration,
    sorted by degree and then weight, which a stable sort of the masks by
    degree alone gives.  v = lam + rho is strictly decreasing and positive,
    so each entry of w(v) is +v_i or -v_i, and two such entries compare by
    (sign, index) alone.  The weight order of the final elements is thus
    the same for every lam; at lam = 0 it is the mask order within a degree
    (tested for every g <= MAX_BGG_G)."""
    if g > MAX_BGG_G:
        raise ValueError(f"-g: bgg needs g <= {MAX_BGG_G}, got {g}")
    lam = _check_sp_weight(lam, g)
    return sorted(_bgg_terms(g, lam), key=lambda t: t.degree)


def _bgg_terms(g: int, lam: tuple[int, ...]) -> Iterator[BggTerm]:
    """The BGG terms in flip-mask order, for lam already checked.  The dot
    actions and the lengths come from `flip_dot_actions`, built from its
    two half tables; each dot action is checked for dominance once, and
    mu, its dual, is dominant with it."""
    total = sum(lam)
    for mask, (acted, length) in enumerate(flip_dot_actions(lam)):
        if not is_dominant(acted):
            raise ValueError(f"weight {acted} is not weakly decreasing")
        mu = tuple(map(neg, reversed(acted)))
        num = total + sum(mu)
        assert num % 2 == 0
        yield BggTerm(mask, mu, length, num // 2)


class BoundaryTerm(NamedTuple):
    """One boundary term as plain values.  `w` and `u` are flip masks: the
    source element is `enumerate_final(g)[w]` and the restricted one is
    `final_element(g - 1, u)`.  `weight` is the GL(g-1) entry tuple."""

    w: int
    k: int
    side: str
    u: int
    weight: tuple[int, ...]
    sign: int
    twist: int

    @property
    def parity_pass(self) -> bool:
        """The GL(1,Z) parity filter: the weight's entry sum is even."""
        return sum(self.weight) % 2 == 0


# (mask, mu, records) of one source w, records[k - 1] = (side, u, l, sign):
# see `boundary_blocks`
BoundaryBlock = tuple[int, tuple[int, ...], list[tuple[str, int, int, int]]]


def _check_boundary(g: int, lam: Sequence[int]) -> tuple[int, ...]:
    """lam as a tuple, if g is within the boundary bound and lam is a
    dominant Sp(2g) weight (`_check_sp_weight`); errors name the CLI flag."""
    if g > MAX_BOUNDARY_G:
        raise ValueError(f"-g: boundary needs g <= {MAX_BOUNDARY_G}, got {g}")
    return _check_sp_weight(lam, g)


def boundary_blocks(g: int, lam: Sequence[int]) -> Iterator[BoundaryBlock]:
    """The boundary terms one source w at a time, in `enumerate_final`
    order: (mask, mu, records) per final element, its flip mask, its BGG
    weight mu and `records[k - 1]` = (side, u, l, sign) for k = 1, ..., g.
    This is the one boundary stream: the CLI writes its output one block
    at a time from it, `boundary_terms` flattens it, and
    `verify_partition` checks the block contract.

    The side, the position pos and the restriction mask u of k come from
    `flip_restriction_rows(g)`; l = g + 1 - pos is the telescope index,
    and the sign is (-1)^(degree + g - l).  No record holds a weight: a
    block's weights are `block_weights(mu, records)`.

    The genus bound and lam are checked when this is called, so a bad
    input fails before the first block."""
    return _generate_blocks(g, _check_boundary(g, lam))


def boundary_k_fields(g: int, lam: Sequence[int]) -> list[tuple[int, bool]]:
    """What a term of index k carries whatever its w, for lam already
    checked: `fields[k - 1]` = (its side-B twist lam_k + g + 1 - k, 0 on
    side A; its GL(1,Z) parity filter, |tau'_k(lam)| = |lam| - lam_k + k - 1
    even).  Its weight is dual to a signed permutation of tau'_k(lam) +
    rho', less rho', and sign changes keep an entry sum mod 2."""
    total = sum(lam)
    return [(x + g + 1 - k, (total - x + k - 1) % 2 == 0) for k, x in enumerate(lam, 1)]


def block_weights(mu: tuple[int, ...], records, texts: bool = False) -> list[tuple]:
    """The weights of a block's records: `glbranch.telescope_surgery(mu, l)`
    = mu[:l-1] + (mu[l:] - 1) at each record's l, cut from mu and mu - 1,
    as ints or, with texts, entry texts, each of the 2g formatted once.
    Each is dominant with no check (the surgery lemma), as `_bgg_terms`
    has checked mu: mu_(l-1) >= mu_l >= mu_(l+1) > mu_(l+1) - 1."""
    top, low = mu, tuple([x - 1 for x in mu])
    if texts:
        top, low = tuple(map(str, top)), tuple(map(str, low))
    return [top[: l - 1] + low[l:] for _, _, l, _ in records]


def _generate_blocks(g: int, lam: tuple[int, ...]) -> Iterator[BoundaryBlock]:
    # strict: both streams hold 2^g items, and each is run to its end
    rows = zip(_bgg_terms(g, lam), flip_restriction_rows(g), strict=True)
    for (mask, mu, degree, _), row in rows:
        # l = g+1-pos, sign (-1)^(degree+g-l) = (-1)^(degree+pos-1)
        yield mask, mu, [
            (side, u, g + 1 - pos, -1 if (degree + pos - 1) & 1 else 1)
            for side, pos, u in row
        ]


def boundary_terms(g: int, lam: Sequence[int]) -> list[BoundaryTerm]:
    """The records of `boundary_blocks` as one list of terms, each with its
    w, k, `block_weights` weight and `boundary_k_fields` twist; for callers
    that take its length or walk it twice (`verify_partition`, the suites).
    At g = 13 it holds 106,496 terms in about 32 MB."""
    blocks = boundary_blocks(g, lam)  # checks g and lam first
    ks, fields = range(1, g + 1), boundary_k_fields(g, lam)
    # BoundaryTerm(*fields) is tuple.__new__(BoundaryTerm, fields) behind
    # a Python-level __new__; calling the latter directly skips that frame
    new_term = tuple.__new__
    return [
        new_term(BoundaryTerm, (mask, k, side, u, weight, sign, twist if side == "B" else 0))
        for mask, mu, records in blocks
        for k, (twist, _), (side, u, _, sign), weight
        in zip(ks, fields, records, block_weights(mu, records))
    ]


class RestrictionTables(NamedTuple):
    """The oracle data of `verify_partition` that does not depend on lambda,
    for one genus g: the final elements `finals[w]` by flip mask w, the
    final elements `restricted[u]` of genus g-1 by flip mask u with their
    `lengths[u]`, and, for each final w and each k, `oracle[w][k - 1]`:
    the side from `image_dichotomy` and the element `restrict_final` gives
    on that side."""

    g: int
    finals: list[WeylElement]
    restricted: list[WeylElement]
    lengths: list[int]
    oracle: list[list[tuple[str, WeylElement]]]


def restriction_tables(g: int) -> RestrictionTables:
    """The `RestrictionTables` of genus g, every element built and every
    oracle called once: 2^g finals, 2^(g-1) restricted elements and
    lengths, and g*2^g sides and restrictions."""
    finals = enumerate_final(g)
    restricted = [final_element(g - 1, m) for m in range(1 << (g - 1))]
    oracle = []
    for w in finals:
        row = []
        for k in range(1, g + 1):
            side, _ = image_dichotomy(w, k)
            row.append((side, restrict_final(w, k, side)))
        oracle.append(row)
    return RestrictionTables(g, finals, restricted, [u.length() for u in restricted], oracle)


def verify_partition(
    g: int, lam: Sequence[int], *, tables: RestrictionTables | None = None
) -> VerificationReport:
    """Check that the (w, k) double sum reassembles, weight by weight and
    sign by sign, into the genus-(g-1) BGG data of the surgered weights.

    The terms' masks are read back as elements, and every oracle works on
    those elements, apart from the `flip_*` helpers.  What does not depend
    on lambda (the elements, the restricted lengths and each (w, k)'s side
    and restriction) comes from `tables`, `restriction_tables(g)` when
    none are given; a caller checking many weights of one genus builds
    them once and passes them in.  Tables of another genus raise
    ValueError, after g and lam are checked and before any term is built."""
    lam = _check_boundary(g, lam)  # g and lam, then the tables, then the terms
    if tables is None:
        tables = restriction_tables(g)
    elif tables.g != g:
        raise ValueError(f"restriction tables are for genus {tables.g}, not {g}")
    terms = boundary_terms(g, lam)
    report = VerificationReport()
    surgered = {k: tau_prime(lam, k) for k in range(1, g + 1)}
    finals, restricted, lengths = tables.finals, tables.restricted, tables.lengths

    # (i) the table is one block per final w, headed by enumerate_final(g)
    # in order with no block missing or left over, each block with
    # k = 1, ..., g in order; each term's side and restriction against
    # the image-based oracles.  An empty table runs no case.
    def dichotomy(case):
        expected, block = case
        if block is None:
            return f"w={finals[expected]}: no block"
        mask, ts = block
        w = finals[mask]
        if expected is None:
            return f"w={w}: block after the last final element"
        if mask != expected:
            return f"w={w}: block where w={finals[expected]} is due"
        ts = list(ts)
        ks = [t.k for t in ts]
        if ks != list(range(1, g + 1)):
            return f"w={w}, k={ks}"
        for t, (side, u) in zip(ts, tables.oracle[mask]):
            if t.side != side:
                return f"w={w}, k={t.k}: side {t.side} != {side}"
            if restricted[t.u] != u:
                return f"w={w}, k={t.k}: u={restricted[t.u]} != {u}"
    detail = f"g={g}, lambda={lam}"
    heads = range(len(finals)) if terms else []
    blocks = itertools.zip_longest(heads, itertools.groupby(terms, key=lambda t: t.w))
    report.check("dichotomy-bijection", detail, blocks, dichotomy)

    # (ii) weight identity against the dual of the restricted dot action,
    # which depends only on (u, k): each pair's expected weight is made once
    expected_by: dict[tuple[int, int], tuple[int, ...]] = {}

    def weight_identity(t):
        expected = expected_by.get((t.u, t.k))
        if expected is None:
            acted = restricted[t.u].dot_action(surgered[t.k])
            expected = expected_by[t.u, t.k] = tuple(-x for x in reversed(acted))
        if t.weight != expected:
            got, want = weight_text(t.weight), weight_text(expected)
            return f"w={finals[t.w]}, k={t.k}: {got} != {want}"
    report.check("weight-identity", detail, terms, weight_identity)

    # (iii)+(iv) sign constancy per (k, side)
    ratios_by: dict[tuple[int, str], set[int]] = {}
    for t in terms:
        ratios_by.setdefault((t.k, t.side), set()).add(t.sign * (-1) ** lengths[t.u])

    def sign_constant(case):
        k, side, expected = case
        ratios = ratios_by.get((k, side), set())
        if ratios != {expected}:
            return f"k={k}, side={side}, ratios={sorted(ratios)}"
    expected_signs = (
        (k, side, sign)
        for k in range(1, g + 1)
        for side, sign in (("A", (-1) ** (k + 1)), ("B", (-1) ** k))
    )
    report.check("sign-constancy", detail, expected_signs, sign_constant)

    # term parity, the per-k parity the CLI prints and |tau'_k(lambda)| agree
    evens = [even for _, even in boundary_k_fields(g, lam)]
    report.check(
        "parity-filter", detail, terms,
        lambda t: None if t.parity_pass == evens[t.k - 1] == (sum(surgered[t.k]) % 2 == 0)
        else f"w={finals[t.w]}, k={t.k}",
    )
    return report


def rank1(g: int, lam: Sequence[int], expand: bool = False) -> MotiveExpr:
    """Rank-one Eisenstein contribution: the alternating sum over k of
    Ec(g-1; tau'_k(lambda)) * (1 - L^(lambda_k + g + 1 - k)).

    The k-th term carries sign (-1)^(k+1); with expand=True the genus-1
    Euler symbols are rewritten into cusp-form motives.
    """
    if g > MAX_RANK1_G:
        raise ValueError(f"-g: rank1 needs g <= {MAX_RANK1_G}, got {g}")
    lam = _check_sp_weight(lam, g)
    raised = tuple(a + 1 for a in lam)

    def monomials():
        for k in range(1, g + 1):
            sign = 1 if k % 2 else -1
            # tau'_k(lambda) from the lambda validated above
            sym = Symbol("Ec", g=g - 1, lam=raised[: k - 1] + lam[k:])
            yield (sym, 0), sign
            yield (sym, lam[k - 1] + g + 1 - k), -sign
    return MotiveExpr(monomials()).normalize(expand_genus_one=expand)


def _check_g2_args(l: int, m: int):
    if not (l >= m >= 0):
        raise ValueError(f"-l/-m: need l >= m >= 0, got l={l}, m={m}")
    if (l - m) % 2:
        raise ValueError(f"-l/-m: need l = m (mod 2), got l={l}, m={m}")


def total_g2(l: int, m: int) -> MotiveExpr:
    """Total genus-2 Eisenstein Euler characteristic (first printed form):
    -s_{l-m+2} (1 - L^(l+m+3)) + s_{l+m+4} (L^(m+1) - L^(l+2)), plus
    Ec(1;(m)) (1 - L^(l+2)) - (L^(l+2) - L^(l+m+3)) for even l, or
    -Ec(1;(l+1)) (1 - L^(m+1)) - (1 - L^(m+1)) for odd l."""
    _check_g2_args(l, m)
    s_low, s_high = cusp_dim(l - m + 2), cusp_dim(l + m + 4)

    def monomials():
        yield (ONE, 0), -s_low
        yield (ONE, l + m + 3), s_low
        yield (ONE, m + 1), s_high
        yield (ONE, l + 2), -s_high
        if l % 2 == 0:
            ec = Symbol("Ec", g=1, lam=(m,))
            yield (ec, 0), 1
            yield (ec, l + 2), -1
            yield (ONE, l + 2), -1
            yield (ONE, l + m + 3), 1
        else:
            ec = Symbol("Ec", g=1, lam=(l + 1,))
            yield (ec, 0), -1
            yield (ec, m + 1), 1
            yield (ONE, 0), -1
            yield (ONE, m + 1), 1
    return MotiveExpr(monomials()).normalize()


def total_g2_alt(l: int, m: int) -> MotiveExpr:
    """Alternative printed form of the genus-2 total (differs from the
    first form by exactly -(1 - L^(l+m+3)) when l is odd):
    -(s_{l-m+2} + 1) (1 - L^(l+m+3)) + s_{l+m+4} (L^(m+1) - L^(l+2)), plus
    -S[m+2] (1 - L^(l+2)) for even l, or S[l+3] (1 - L^(m+1)) for odd l."""
    _check_g2_args(l, m)
    s_low, s_high = cusp_dim(l - m + 2), cusp_dim(l + m + 4)

    def monomials():
        yield (ONE, 0), -s_low - 1
        yield (ONE, l + m + 3), s_low + 1
        yield (ONE, m + 1), s_high
        yield (ONE, l + 2), -s_high
        if l % 2 == 0:
            cusp = Symbol("S", k=m + 2)
            yield (cusp, 0), -1
            yield (cusp, l + 2), 1
        else:
            cusp = Symbol("S", k=l + 3)
            yield (cusp, 0), 1
            yield (cusp, m + 1), -1
    return MotiveExpr(monomials()).normalize()


def codim2_g2(l: int, m: int) -> MotiveExpr:
    """Contribution of the codimension-2 boundary for genus 2:
    -s_{l-m+2} (1 - L^(l+m+3)) + s_{l+m+4} (L^(m+1) - L^(l+2)), plus
    -L^(l+2) + L^(l+m+3) for even l, or -1 + L^(m+1) for odd l."""
    _check_g2_args(l, m)
    s_low, s_high = cusp_dim(l - m + 2), cusp_dim(l + m + 4)

    def monomials():
        yield (ONE, 0), -s_low
        yield (ONE, l + m + 3), s_low
        yield (ONE, m + 1), s_high
        yield (ONE, l + 2), -s_high
        if l % 2 == 0:
            yield (ONE, l + 2), -1
            yield (ONE, l + m + 3), 1
        else:
            yield (ONE, 0), -1
            yield (ONE, m + 1), 1
    return MotiveExpr(monomials()).normalize()


def kernel_g2(l: int, m: int) -> MotiveExpr:
    """Compactly supported Eisenstein part for a regular genus-2 system:
    s_{l-m+2} - s_{l+m+4} L^(m+1), plus S[m+2] + 1 for even l, or
    -S[l+3] for odd l."""
    _check_g2_args(l, m)
    if not l > m > 0:
        raise ValueError(
            f"-l/-m: kernel requires a regular weight (l > m > 0), got l={l}, m={m}"
        )

    def monomials():
        yield (ONE, 0), cusp_dim(l - m + 2)
        yield (ONE, m + 1), -cusp_dim(l + m + 4)
        if l % 2 == 0:
            yield (Symbol("S", k=m + 2), 0), 1
            yield (ONE, 0), 1
        else:
            yield (Symbol("S", k=l + 3), 0), -1
    return MotiveExpr(monomials()).normalize()


def check_duality(x: MotiveExpr, weight: int) -> bool:
    """Anti-self-duality: dual(x) * L^weight == -x."""
    return x.dual() * MotiveExpr.lefschetz(weight) == -x


def consistency_g2(l: int, m: int) -> VerificationReport:
    """Cross-checks tying the genus-2 formulas together, each identity
    compared once."""
    total = total_g2(l, m)
    identities = [
        ("rank1-plus-codim2", rank1(2, (l, m), expand=True) + codim2_g2(l, m), total)
    ]
    if l > m > 0:
        low, _high = total.motivic_weight_split(l + m + 3)
        identities.append(("kernel-is-minus-low-part", kernel_g2(l, m), -low))
    if l % 2 == 0:
        expected = MotiveExpr.zero()
    else:
        expected = -(MotiveExpr.unit() - MotiveExpr.lefschetz(l + m + 3))
    identities.append(("printed-forms-delta", total_g2_alt(l, m) - total, expected))
    report = VerificationReport()
    for name, lhs, rhs in identities:
        report.check(name, f"(l,m)=({l},{m})", [(lhs, rhs)], _same)
    return report


def _same(sides) -> str | None:
    """The counterexample of one identity `(lhs, rhs)`, None if it holds."""
    lhs, rhs = sides
    return None if lhs == rhs else f"{lhs} != {rhs}"
