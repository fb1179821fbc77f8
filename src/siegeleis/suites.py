"""Named verification suites aggregating the library's invariants.

Each suite takes (max_g, max_entry) and returns a VerificationReport with
one check per invariant, so the CLI can print one pass/fail line apiece
and gate CI on the result.  A looping check is a stream of cases and a
test run by `VerificationReport.check`: it fails at its first
counterexample, and a check that ran no case fails with "0 cases".
"""

from __future__ import annotations

import itertools
import random

from . import eiscalc, glbranch, weylcomb
from .glbranch import GlWeight, dominant_entries, dominant_weights
from .motivering import MotiveExpr, VerificationReport, cusp_dim

G3_TABLE = [
    # (images, length, dot action of (l, m, n))
    ((1, 2, 3), 0, lambda l, m, n: (l, m, n)),
    ((1, 2, 4), 1, lambda l, m, n: (l, m, -n - 2)),
    ((1, 3, 5), 2, lambda l, m, n: (l, n - 1, -m - 3)),
    ((2, 3, 6), 3, lambda l, m, n: (m - 1, n - 1, -l - 4)),
    ((1, 4, 5), 3, lambda l, m, n: (l, -n - 3, -m - 3)),
    ((2, 4, 6), 4, lambda l, m, n: (m - 1, -n - 3, -l - 4)),
    ((3, 5, 6), 5, lambda l, m, n: (n - 2, -m - 4, -l - 4)),
    ((4, 5, 6), 6, lambda l, m, n: (-n - 4, -m - 4, -l - 4)),
]


# the suite sizes at the default --max-g and --max-entry of `verify`
DEFAULT_MAX_G, DEFAULT_MAX_ENTRY = 4, 6
# the (l, m) grid bound of the genus-2 suites
G2_LMAX = 20
_NEEDS_G2 = "--max-g {} admits no g >= 2; needs --max-g >= 2"


def check_sizes(max_g: int, max_entry: int) -> None:
    """Reject suite sizes out of range; errors name the CLI flag."""
    # the weyl checks cost about g^2 * 2^g up to max-g, the telescope
    # checks about max-entry^4
    if not 1 <= max_g <= 16:
        raise ValueError(f"--max-g: must be in [1, 16], got {max_g}")
    if not 0 <= max_entry <= 12:
        raise ValueError(f"--max-entry: must be in [0, 12], got {max_entry}")


def _failures(sub: VerificationReport, where: str) -> str | None:
    """None if sub passed, else `where`, each failed check and its counterexample."""
    if not sub.passed:
        failed = (f"{c.name} ({c.counterexample})" for c in sub.failures())
        return f"{where}: " + "; ".join(failed)


def _telescope_agrees(a: GlWeight) -> str | None:
    if glbranch.telescope_closed(a) != glbranch.telescope_bruteforce(a):
        return f"a={a}"


def verify_weyl(max_g: int = DEFAULT_MAX_G,
                max_entry: int = DEFAULT_MAX_ENTRY) -> VerificationReport:
    report = VerificationReport()
    gs = range(1, max_g + 1)

    # the boundary pipeline reads a final element's flip mask as its
    # position, so the images must strictly increase along the list
    def counts(g):
        finals = weylcomb.enumerate_final(g)
        if (
            len(finals) != 2 ** g
            or not all(w.is_final() for w in finals)
            or any(v.images >= w.images for v, w in zip(finals, finals[1:]))
        ):
            return f"g={g}"
    report.check("final-count-2^g", f"g <= {max_g}", gs, counts)

    # finality <=> strictly decreasing signed action on rho, over all of W_g
    def finality(w):
        acted = w.signed_apply(weylcomb.rho(w.g))
        if w.is_final() != all(acted[i] > acted[i + 1] for i in range(w.g - 1)):
            return f"g={w.g}, w={w}"
    g_max = min(max_g, 4)
    elements = (w for g in range(1, g_max + 1) for w in weylcomb.all_elements(g))
    report.check("finality-criterion", f"exhaustive, g <= {g_max}", elements, finality)

    finals3 = weylcomb.enumerate_final(3)
    samples = [(3, 1, 0), (5, 3, 1), (7, 2, 2), (4, 4, 0), (9, 6, 5)]

    def g3_row(row):
        w = weylcomb.WeylElement(3, row[0])
        if w not in finals3 or w.length() != row[1]:
            return f"w={w}"
        for lam in samples:
            if w.dot_action(lam) != row[2](*lam):
                return f"w={w}, lambda={lam}"
    report.check("g3-table", "8 rows, 5 weights each", G3_TABLE, g3_row)

    def restrictions(g_max):
        for g in range(2, g_max + 1):
            # each final element with the half-table row the boundary pipeline reads
            finals = list(zip(weylcomb.enumerate_final(g), weylcomb.flip_restriction_rows(g)))
            lower = {u: m for m, u in enumerate(weylcomb.enumerate_final(g - 1))}
            for k in range(1, g + 1):
                yield g, k, "A", [(w, row) for w, row in finals if k in w.images], lower
                yield g, k, "B", [(w, row) for w, row in finals if k not in w.images], lower

    def restricts(case):
        g, k, side, pool, lower = case
        imgs = set()
        for w, row in pool:
            u = weylcomb.restrict_final(w, k, side)
            imgs.add(u)
            row_side, pos, row_u = row[k - 1]
            if (row_side, pos, row_u) != (*weylcomb.image_dichotomy(w, k), lower.get(u)):
                return f"g={g}, k={k}, side={side}, w={w}"
        if len(pool) != 2 ** (g - 1) or imgs != set(lower):
            return f"g={g}, k={k}, side={side}"
    g_max = min(max_g, 8)
    report.check(
        "restrict-bijection", f"g <= {g_max}", restrictions(g_max), restricts,
        empty=_NEEDS_G2.format(max_g),
    )

    def positions(w):
        found = [weylcomb.image_dichotomy(w, k)[1] for k in range(1, w.g + 1)]
        if sorted(found) != list(range(1, w.g + 1)):
            return f"g={w.g}, w={w}"
    finals = (w for g in gs for w in weylcomb.enumerate_final(g))
    report.check("dichotomy-position-bijection", f"g <= {max_g}", finals, positions)

    def alternating(g):
        total = 0
        for bits in itertools.product((False, True), repeat=g):
            flips = {i + 1 for i, b in enumerate(bits) if b}
            w = weylcomb.kostant_from_signs(g, flips)
            if not w.is_final():
                return f"g={g}, flips={flips}"
            total += (-1) ** w.length()
        if total != 0:
            return f"g={g}, alternating sum {total}"
    report.check("kostant-alternating-sum", f"g <= {max_g}", gs, alternating)
    return report


def verify_telescope(max_g: int = DEFAULT_MAX_G,
                     max_entry: int = DEFAULT_MAX_ENTRY) -> VerificationReport:
    report = VerificationReport()
    g_max = min(max_g, 3)
    report.check(
        "telescope-exhaustive", f"g <= {g_max}, entries in [-3,3]",
        (a for g in range(1, g_max + 1) for a in dominant_weights(g, -3, 3)),
        _telescope_agrees,
    )

    rng = random.Random(20260823)
    lo, hi = -max_entry, max_entry
    gs = [g for g in (4, 5) if g <= max_g + 1]
    draws = (
        GlWeight(tuple(sorted((rng.randint(lo, hi) for _ in range(g)), reverse=True)))
        for g in gs for _ in range(250)
    )
    report.check(
        "telescope-random",
        f"g in {{{','.join(map(str, gs))}}}, 250 cases each, entries in [{lo},{hi}]",
        draws, _telescope_agrees,
        empty=f"--max-g {max_g} admits no g in {{4,5}}; needs --max-g >= 3",
    )

    # the telescope oracle above applies the deletion rule of
    # wedge_dual_tensor over shifted branching boxes, not through
    # _deletions: it keeps b - e_S when dominant, for every branch b of a
    # (n = g-1 entries, all within a's range) and k-subset S.  Cross-check
    # that rule against the straightening route on every such (b, k).  The
    # cases share one dict of straightened vectors, made afresh each run, so
    # each distinct mu - e_S is straightened once
    straightened: dict = {}

    def routes_agree(case):
        mu, k = case
        oracle = glbranch.wedge_dual_tensor_straightened(mu, k, straightened=straightened)
        if glbranch.wedge_dual_tensor(mu, k) != oracle:
            return f"mu={mu}, k={k}"
    n_max, e = min(max_g, 4), max(max_entry, 3)
    mus = (mu for n in range(n_max + 1) for mu in dominant_weights(n, -e, e))
    report.check(
        "wedge-dual-route", f"n <= {n_max}, entries in [{-e},{e}]",
        ((mu, k) for mu in mus for k in range(len(mu) + 1)), routes_agree,
    )

    def branches(mu):
        bs = glbranch.branch(mu)
        a = mu.entries
        expected = 1
        for i in range(len(a) - 1):
            expected *= a[i] - a[i + 1] + 1
        interlaces = all(
            all(a[i] >= b.entries[i] >= a[i + 1] for i in range(len(a) - 1))
            for b in bs
        )
        if len(bs) != expected or not interlaces:
            return f"mu={mu}"
    mus = (mu for n in range(1, 5) for mu in dominant_weights(n, -3, 3))
    report.check("branch-count-interlacing", "n <= 4", mus, branches)
    report.check(
        "dual-involution", "n <= 4",
        (mu for n in range(0, 5) for mu in dominant_weights(n, -3, 3)),
        lambda mu: None if mu.dual().dual() == mu else f"mu={mu}",
    )
    return report


def verify_partition_suite(max_g: int = DEFAULT_MAX_G,
                           max_entry: int = DEFAULT_MAX_ENTRY) -> VerificationReport:
    report = VerificationReport()
    e = min(max_entry, 4)
    gs = range(2, min(max_g, 4) + 1)
    if not gs:
        # no per-g check below runs: an empty check makes the gap a FAIL
        report.check("partition-identity", "", gs, None, empty=_NEEDS_G2.format(max_g))

    def partition_cases(g):
        # the restriction oracle does not depend on lambda: built once per
        # genus, as the check draws its first case, so an exception it
        # raises is that check's counterexample
        tables = eiscalc.restriction_tables(g)
        for lam in dominant_entries(g, 0, e):
            yield lam, tables

    def partition_identity(case):
        lam, tables = case
        return _failures(
            eiscalc.verify_partition(len(lam), lam, tables=tables), f"lambda={lam}"
        )
    for g in gs:
        report.check(
            f"partition-identity-g{g}", f"entries <= {e}", partition_cases(g),
            partition_identity, where=lambda case: f"lambda={case[0]}",
        )

    # reindexing completeness: per w, the boundary terms are exactly the
    # telescope of the dual-side weight, scaled by (-1)^len(w)
    def reindexes(case):
        lam, finals = case
        g = len(lam)
        by_w: dict[int, list] = {}
        for t in eiscalc.boundary_terms(g, lam):
            by_w.setdefault(t.w, []).append((t.weight, t.sign))
        for mask, (w, length) in enumerate(finals):
            a = GlWeight(w.dot_action(lam)).dual()
            expected = glbranch.telescope_closed(a).scale((-1) ** length)
            if glbranch.VirtualBundle(g - 1, by_w.get(mask, ())) != expected:
                return f"g={g}, lambda={lam}, w={w}"

    def weights_with_finals(g_max):
        # each weight with the (w, length) list of its genus, made once per genus
        for g in range(2, g_max + 1):
            finals = [(w, w.length()) for w in weylcomb.enumerate_final(g)]
            for lam in dominant_entries(g, 0, e):
                yield lam, finals
    g_max = min(max_g, 5)
    report.check(
        "reindexing-completeness", f"g <= {g_max}", weights_with_finals(g_max),
        reindexes, empty=_NEEDS_G2.format(max_g),
        where=lambda case: f"g={len(case[0])}, lambda={case[0]}",
    )
    return report


def verify_g2(max_g: int = DEFAULT_MAX_G,
              max_entry: int = DEFAULT_MAX_ENTRY) -> VerificationReport:
    report = VerificationReport()
    base = eiscalc.total_g2(0, 0)
    expected = (
        MotiveExpr.unit()
        + MotiveExpr.lefschetz(1)
        - MotiveExpr.lefschetz(2)
        - MotiveExpr.lefschetz(3)
    )
    report.check(
        "total-g2-ground-truth", "(l,m)=(0,0)", [base],
        lambda b: None if b == expected else b.render(),
    )
    report.check(
        "consistency-grid", f"0 <= m <= l <= {G2_LMAX}",
        eiscalc.admissible_weights(2, G2_LMAX),
        lambda lm: _failures(eiscalc.consistency_g2(*lm), f"(l,m)=({lm[0]},{lm[1]})"),
    )

    def filtrations(lm):
        l, m = lm
        filts = sorted(t.filtration for t in eiscalc.bgg_complex(2, lm))
        if filts != sorted([0, m + 1, l + 2, l + m + 3]):
            return f"(l,m)=({l},{m}), filtrations={filts}"
    report.check(
        "filtration-exponents", f"grid up to {G2_LMAX}",
        eiscalc.admissible_weights(2, G2_LMAX), filtrations,
    )

    table = {12: 1, 16: 1, 18: 1, 20: 1, 22: 1, 24: 2, 26: 1, 2: -1,
             4: 0, 6: 0, 8: 0, 10: 0, 14: 0}
    report.check(
        "cusp-dimensions", "classical table", table.items(),
        lambda kv: None if cusp_dim(kv[0]) == kv[1] else f"k={kv[0]}",
    )
    return report


def verify_duality(max_g: int = DEFAULT_MAX_G,
                   max_entry: int = DEFAULT_MAX_ENTRY) -> VerificationReport:
    report = VerificationReport()

    def rank1_dual(k):
        if not eiscalc.check_duality(eiscalc.rank1(1, (k,)), k + 1):
            return f"k={k}"
    report.check("duality-rank1-g1", "even k <= 40", range(0, 41, 2), rank1_dual)

    def total_dual(lm):
        if not eiscalc.check_duality(eiscalc.total_g2(*lm), sum(lm) + 3):
            return f"(l,m)=({lm[0]},{lm[1]})"
    grid = eiscalc.admissible_weights(2, G2_LMAX)
    report.check("duality-total-g2", f"grid up to {G2_LMAX}", grid, total_dual)
    return report


SUITES = {
    "weyl": verify_weyl,
    "telescope": verify_telescope,
    "partition": verify_partition_suite,
    "g2": verify_g2,
    "duality": verify_duality,
}


def run_suite(name: str, max_g: int = DEFAULT_MAX_G,
              max_entry: int = DEFAULT_MAX_ENTRY) -> VerificationReport:
    """Run one suite by name, or all of them; sizes and name are checked
    before any suite starts, and errors name the CLI flag."""
    check_sizes(max_g, max_entry)
    if name != "all" and name not in SUITES:
        raise ValueError(f"--suite: unknown suite {name!r}")
    report = VerificationReport()
    for suite in SUITES.values() if name == "all" else [SUITES[name]]:
        # by module attribute, so a wrapper installed there (a tracer) runs
        report.extend(globals()[suite.__name__](max_g, max_entry))
    return report
