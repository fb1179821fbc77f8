"""Named verification suites aggregating the library's invariants.

Each suite returns a VerificationReport with one check per invariant, so
the CLI can print one pass/fail line apiece and gate CI on the result.
"""

from __future__ import annotations

import itertools
import random

from . import eiscalc, glbranch, weylcomb
from .glbranch import GlWeight, dominant_weights
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


def _sp_weights(g: int, max_entry: int):
    for c in itertools.combinations_with_replacement(
        range(max_entry, -1, -1), g
    ):
        yield c


def verify_weyl(max_g: int = 4, max_entry: int = 6) -> VerificationReport:
    report = VerificationReport()

    ok, cex = True, None
    for g in range(1, max_g + 1):
        finals = weylcomb.enumerate_final(g)
        if len(finals) != 2 ** g or not all(w.is_final() for w in finals):
            ok, cex = False, f"g={g}"
    report.record("final-count-2^g", ok, f"g <= {max_g}", cex)

    # finality <=> strictly decreasing signed action on rho, over all of W_g
    ok, cex = True, None
    for g in range(1, min(max_g, 4) + 1):
        r = weylcomb.rho(g)
        for w in weylcomb.all_elements(g):
            acted = w.signed_apply(r)
            decreasing = all(acted[i] > acted[i + 1] for i in range(g - 1))
            if w.is_final() != decreasing:
                ok, cex = False, f"g={g}, w={w}"
    report.record("finality-criterion", ok, f"exhaustive, g <= {min(max_g, 4)}", cex)

    ok, cex = True, None
    finals3 = weylcomb.enumerate_final(3)
    samples = [(3, 1, 0), (5, 3, 1), (7, 2, 2), (4, 4, 0), (9, 6, 5)]
    for imgs, length, row in G3_TABLE:
        w = weylcomb.WeylElement(3, imgs)
        if w not in finals3 or w.length() != length:
            ok, cex = False, f"w={w}"
        for lam in samples:
            if w.dot_action(lam) != row(*lam):
                ok, cex = False, f"w={w}, lambda={lam}"
    report.record("g3-table", ok, "8 rows, 5 weights each", cex)

    ok, cex = True, None
    for g in range(2, min(max_g, 8) + 1):
        finals = weylcomb.enumerate_final(g)
        target = set(weylcomb.enumerate_final(g - 1))
        for k in range(1, g + 1):
            side_a = [w for w in finals if k in w.images]
            side_b = [w for w in finals if k not in w.images]
            for side, pool in (("A", side_a), ("B", side_b)):
                imgs = set()
                for w in pool:
                    u = weylcomb.restrict_final(w, k, side)
                    imgs.add(u)
                    # the flip-mask twin used by the boundary pipeline
                    fast = weylcomb.restrict_flips(weylcomb.flip_mask(w), k)
                    if weylcomb.flip_mask(u) != fast:
                        ok, cex = False, f"g={g}, k={k}, side={side}, w={w}"
                if len(pool) != 2 ** (g - 1) or imgs != target:
                    ok, cex = False, f"g={g}, k={k}, side={side}"
    report.record("restrict-bijection", ok, f"g <= {min(max_g, 8)}", cex)

    ok, cex = True, None
    for g in range(1, max_g + 1):
        for w in weylcomb.enumerate_final(g):
            positions = [weylcomb.image_dichotomy(w, k)[1] for k in range(1, g + 1)]
            if sorted(positions) != list(range(1, g + 1)):
                ok, cex = False, f"g={g}, w={w}"
    report.record("dichotomy-position-bijection", ok, f"g <= {max_g}", cex)

    ok, cex = True, None
    for g in range(1, max_g + 1):
        total = 0
        for bits in itertools.product((False, True), repeat=g):
            flips = {i + 1 for i, b in enumerate(bits) if b}
            w = weylcomb.kostant_from_signs(g, flips)
            if not w.is_final():
                ok, cex = False, f"g={g}, flips={flips}"
            total += (-1) ** w.length()
        if total != 0:
            ok, cex = False, f"g={g}, alternating sum {total}"
    report.record("kostant-alternating-sum", ok, f"g <= {max_g}", cex)
    return report


def verify_telescope(max_g: int = 4, max_entry: int = 6) -> VerificationReport:
    report = VerificationReport()

    ok, cex = True, None
    g_max = min(max_g, 3)
    for g in range(1, g_max + 1):
        for a in dominant_weights(g, -3, 3):
            if glbranch.telescope_closed(a) != glbranch.telescope_bruteforce(a):
                ok, cex = False, f"a={a}"
    report.record("telescope-exhaustive", ok, f"g <= {g_max}, entries in [-3,3]", cex)

    ok, cex = True, None
    rng = random.Random(20260823)
    lo, hi = -max_entry, max_entry
    gs = [g for g in (4, 5) if g <= max_g + 1]
    for g in gs:
        for _ in range(250):
            a = GlWeight(tuple(sorted((rng.randint(lo, hi) for _ in range(g)), reverse=True)))
            if glbranch.telescope_closed(a) != glbranch.telescope_bruteforce(a):
                ok, cex = False, f"a={a}"
    if gs:
        g_set = ",".join(map(str, gs))
        detail = f"g in {{{g_set}}}, 250 cases each, entries in [{lo},{hi}]"
    else:
        detail = "0 cases"
        ok, cex = False, f"--max-g {max_g} admits no g in {{4,5}}; needs --max-g >= 3"
    report.record("telescope-random", ok, detail, cex)

    # the telescope oracle above tensors each branch b of a (n = g-1
    # entries, all within a's range) by the deletion rule of
    # wedge_dual_tensor; cross-check that rule against the straightening
    # route on every such (b, k)
    ok, cex = True, None
    n_max, e = min(max_g, 4), max(max_entry, 3)
    for n in range(n_max + 1):
        for mu in dominant_weights(n, -e, e):
            for k in range(n + 1):
                oracle = glbranch.wedge_dual_tensor_straightened(mu, k)
                if glbranch.wedge_dual_tensor(mu, k) != oracle:
                    ok, cex = False, f"mu={mu}, k={k}"
    report.record("wedge-dual-route", ok, f"n <= {n_max}, entries in [{-e},{e}]", cex)

    ok, cex = True, None
    for n in range(1, 5):
        for mu in dominant_weights(n, -3, 3):
            bs = glbranch.branch(mu)
            a = mu.entries
            expected = 1
            for i in range(n - 1):
                expected *= a[i] - a[i + 1] + 1
            interlaces = all(
                all(a[i] >= b.entries[i] >= a[i + 1] for i in range(n - 1))
                for b in bs
            )
            if len(bs) != expected or not interlaces:
                ok, cex = False, f"mu={mu}"
    report.record("branch-count-interlacing", ok, "n <= 4", cex)

    ok, cex = True, None
    for n in range(0, 5):
        for mu in dominant_weights(n, -3, 3):
            if mu.dual().dual() != mu:
                ok, cex = False, f"mu={mu}"
    report.record("dual-involution", ok, "n <= 4", cex)
    return report


def verify_partition_suite(max_g: int = 4, max_entry: int = 6) -> VerificationReport:
    report = VerificationReport()
    for g in range(2, min(max_g, 4) + 1):
        ok, cex = True, None
        for lam in _sp_weights(g, min(max_entry, 4)):
            sub = eiscalc.verify_partition(g, lam)
            if not sub.passed:
                ok = False
                cex = f"lambda={lam}: " + "; ".join(
                    c.name for c in sub.failures()
                )
                break
        report.record(f"partition-identity-g{g}", ok, f"entries <= {min(max_entry, 4)}", cex)

    # reindexing completeness: per w, the boundary terms are exactly the
    # telescope of the dual-side weight, scaled by (-1)^len(w)
    ok, cex = True, None
    for g in range(2, min(max_g, 5) + 1):
        for lam in _sp_weights(g, min(max_entry, 4)):
            by_w: dict[weylcomb.WeylElement, dict] = {}
            for t in eiscalc.boundary_terms(g, lam):
                got = by_w.setdefault(t.source_w, {})
                key = (t.weight, 0)
                got[key] = got.get(key, 0) + t.sign
            for w in weylcomb.enumerate_final(g):
                a = GlWeight(w.dot_action(lam)).dual()
                expected = glbranch.telescope_closed(a).scale((-1) ** w.length())
                if glbranch.VirtualBundle(g - 1, by_w.get(w, {})) != expected:
                    ok, cex = False, f"g={g}, lambda={lam}, w={w}"
        if not ok:
            break
    report.record("reindexing-completeness", ok, f"g <= {min(max_g, 5)}", cex)
    return report


def verify_g2(lmax: int = 20) -> VerificationReport:
    report = VerificationReport()
    base = eiscalc.total_g2(0, 0)
    expected = (
        MotiveExpr.unit()
        + MotiveExpr.lefschetz(1)
        - MotiveExpr.lefschetz(2)
        - MotiveExpr.lefschetz(3)
    )
    report.record(
        "total-g2-ground-truth", base == expected, "(l,m)=(0,0)",
        None if base == expected else base.render(),
    )

    ok, cex = True, None
    for l in range(lmax + 1):
        for m in range(l % 2, l + 1, 2):
            sub = eiscalc.consistency_g2(l, m)
            if not sub.passed:
                ok = False
                cex = f"(l,m)=({l},{m}): " + "; ".join(c.name for c in sub.failures())
                break
        if not ok:
            break
    report.record("consistency-grid", ok, f"0 <= m <= l <= {lmax}", cex)

    ok, cex = True, None
    for l in range(lmax + 1):
        for m in range(l % 2, l + 1, 2):
            filts = sorted(t.filtration for t in eiscalc.bgg_complex(2, (l, m)))
            if filts != sorted([0, m + 1, l + 2, l + m + 3]):
                ok, cex = False, f"(l,m)=({l},{m}), filtrations={filts}"
    report.record("filtration-exponents", ok, f"grid up to {lmax}", cex)

    table = {12: 1, 16: 1, 18: 1, 20: 1, 22: 1, 24: 2, 26: 1, 2: -1,
             4: 0, 6: 0, 8: 0, 10: 0, 14: 0}
    ok, cex = True, None
    for k, v in table.items():
        if cusp_dim(k) != v:
            ok, cex = False, f"k={k}"
    report.record("cusp-dimensions", ok, "classical table", cex)
    return report


def verify_duality(lmax: int = 20) -> VerificationReport:
    report = VerificationReport()
    ok, cex = True, None
    for k in range(0, 41, 2):
        if not eiscalc.check_duality(eiscalc.rank1(1, (k,)), k + 1):
            ok, cex = False, f"k={k}"
    report.record("duality-rank1-g1", ok, "even k <= 40", cex)

    ok, cex = True, None
    for l in range(lmax + 1):
        for m in range(l % 2, l + 1, 2):
            if not eiscalc.check_duality(eiscalc.total_g2(l, m), l + m + 3):
                ok, cex = False, f"(l,m)=({l},{m})"
    report.record("duality-total-g2", ok, f"grid up to {lmax}", cex)
    return report


SUITES = {
    "weyl": lambda max_g, max_entry: verify_weyl(max_g, max_entry),
    "telescope": lambda max_g, max_entry: verify_telescope(max_g, max_entry),
    "partition": lambda max_g, max_entry: verify_partition_suite(max_g, max_entry),
    "g2": lambda max_g, max_entry: verify_g2(),
    "duality": lambda max_g, max_entry: verify_duality(),
}


def run_suite(name: str, max_g: int = 4, max_entry: int = 6) -> VerificationReport:
    report = VerificationReport()
    names = list(SUITES) if name == "all" else [name]
    for n in names:
        report.extend(SUITES[n](max_g, max_entry))
    return report
