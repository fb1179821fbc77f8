import dataclasses
import itertools
import random

import pytest

from siegeleis import eiscalc
from siegeleis.eiscalc import (
    bgg_complex,
    boundary_terms,
    check_duality,
    codim2_g2,
    consistency_g2,
    kernel_g2,
    rank1,
    tau_prime,
    total_g2,
    total_g2_alt,
    verify_partition,
)
from siegeleis.glbranch import GlWeight
from siegeleis.motivering import MotiveExpr
from siegeleis.weylcomb import WeylElement, restrict_final

one = MotiveExpr.unit
L = MotiveExpr.lefschetz
S = MotiveExpr.cusp_motive
Ec = MotiveExpr.euler


class TestTauPrime:
    def test_drop_first(self):
        assert tau_prime((7, 4, 2), 1) == (4, 2)

    def test_drop_last(self):
        assert tau_prime((7, 4, 2), 3) == (8, 5)

    def test_middle(self):
        assert tau_prime((5, 3), 2) == (6,)

    def test_result_dominant(self):
        for lam in itertools.combinations_with_replacement(range(5, -1, -1), 4):
            for k in range(1, 5):
                out = tau_prime(lam, k)
                assert all(out[i] >= out[i + 1] for i in range(len(out) - 1))

    def test_bad_input(self):
        with pytest.raises(ValueError):
            tau_prime((1, 2), 1)  # not dominant
        with pytest.raises(ValueError):
            tau_prime((2, 1), 3)  # k out of range


class TestBggComplex:
    def test_g1(self):
        k = 6
        terms = bgg_complex(1, (k,))
        assert [(t.degree, t.mu.entries, t.filtration) for t in terms] == [
            (0, (-k,), 0),
            (1, (k + 2,), k + 1),
        ]

    @pytest.mark.parametrize("l,m", [(0, 0), (5, 3), (7, 1), (4, 2)])
    def test_g2_dual_weights(self, l, m):
        terms = bgg_complex(2, (l, m))
        assert [t.mu.entries for t in terms] == [
            (-m, -l), (m + 2, -l), (l + 3, 1 - m), (l + 3, m + 3),
        ]
        assert [t.degree for t in terms] == [0, 1, 2, 3]

    @pytest.mark.parametrize("l,m", [(0, 0), (5, 3), (7, 1), (20, 12)])
    def test_g2_filtration_multiset(self, l, m):
        filts = sorted(t.filtration for t in bgg_complex(2, (l, m)))
        assert filts == sorted([0, m + 1, l + 2, l + m + 3])

    def test_g3_matches_weyl_table(self):
        l, m, n = 5, 3, 1
        expected_wdot = {
            (1, 2, 3): (l, m, n),
            (1, 2, 4): (l, m, -n - 2),
            (1, 3, 5): (l, n - 1, -m - 3),
            (2, 3, 6): (m - 1, n - 1, -l - 4),
            (1, 4, 5): (l, -n - 3, -m - 3),
            (2, 4, 6): (m - 1, -n - 3, -l - 4),
            (3, 5, 6): (n - 2, -m - 4, -l - 4),
            (4, 5, 6): (-n - 4, -m - 4, -l - 4),
        }
        terms = bgg_complex(3, (l, m, n))
        assert len(terms) == 8
        for t in terms:
            wdot = expected_wdot[t.w.images]
            assert t.mu.entries == tuple(-x for x in reversed(wdot))
            assert t.degree == t.w.length()

    def test_filtration_parity_integrality(self):
        for lam in [(4, 2, 0), (3, 3, 2), (6, 1, 1)]:
            for t in bgg_complex(3, lam):
                assert (sum(lam) + sum(t.mu.entries)) % 2 == 0


def _g2_rows(l, m):
    """The genus-2 boundary table: w -> [(weight, sign, twist)]."""
    return {
        (1, 2): [((-m,), 1, 0), ((-l - 1,), -1, 0)],
        (1, 3): [((m + 2,), -1, 0), ((-l - 1,), 1, m + 1)],
        (2, 4): [((l + 3,), 1, 0), ((-m,), -1, l + 2)],
        (3, 4): [((m + 2,), 1, l + 2), ((l + 3,), -1, m + 1)],
    }


class TestBoundaryTerms:
    @pytest.mark.parametrize("l,m", [(5, 3), (0, 0), (8, 2), (9, 1)])
    def test_g2_table(self, l, m):
        terms = boundary_terms(2, (l, m))
        assert len(terms) == 8
        got = {}
        for t in terms:
            got.setdefault(t.source_w.images, []).append(
                (t.weight.entries, t.sign, t.twist)
            )
        expected = _g2_rows(l, m)
        for imgs, rows in expected.items():
            assert sorted(got[imgs]) == sorted(rows)

    def test_g2_sides(self):
        terms = boundary_terms(2, (5, 3))
        sides = {(t.source_w.images, t.k): t.side for t in terms}
        assert sides[((1, 2), 1)] == "A"
        assert sides[((1, 3), 2)] == "B"
        assert sides[((3, 4), 1)] == "B"
        assert sides[((2, 4), 2)] == "A"

    def test_twist_is_zero_exactly_on_side_a(self):
        lam = (4, 2, 0)
        for t in boundary_terms(3, lam):
            if t.side == "A":
                assert t.twist == 0
            else:
                assert t.twist == lam[t.k - 1] + 3 + 1 - t.k

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_term_count(self, g):
        lam = tuple(range(g, 0, -1))
        assert len(boundary_terms(g, lam)) == g * 2 ** g

    def test_restrictions_match_the_oracle(self):
        terms = boundary_terms(7, (9, 7, 7, 4, 2, 2, 0))
        assert len(terms) == 7 * 2 ** 7
        for t in terms:
            assert t.u == restrict_final(t.source_w, t.k, t.side)


class TestVerifyPartition:
    def test_g1_trivial(self):
        assert verify_partition(1, (6,)).passed

    def test_g2(self):
        report = verify_partition(2, (5, 3))
        assert report.passed
        # sign constants: c_A = (-1)^(k+1), c_B = (-1)^k, checked inside
        names = [c.name for c in report.checks]
        assert "sign-constancy" in names

    def test_g3(self):
        assert verify_partition(3, (3, 1, 0)).passed

    def test_g4_sample(self):
        assert verify_partition(4, (4, 2, 1, 0)).passed

    @pytest.mark.parametrize("g", [8, 9, 10])
    def test_seeded_weights_beyond_the_gate(self, g):
        rng = random.Random(g)
        for _ in range(3):
            lam = tuple(sorted((rng.randint(0, 12) for _ in range(g)), reverse=True))
            report = verify_partition(g, lam)
            assert report.passed, [c.counterexample for c in report.failures()]

    @pytest.mark.parametrize(
        "field, value, cex",
        [
            ("side", "A", "w=[456], k=3: side A != B"),
            ("u", WeylElement(2, (1, 2)), "w=[456], k=3: u=[12] != [34]"),
        ],
    )
    def test_term_side_and_u_are_checked(self, monkeypatch, field, value, cex):
        real = eiscalc.boundary_terms

        def corrupt_last(g, lam):
            terms = real(g, lam)
            return terms[:-1] + [dataclasses.replace(terms[-1], **{field: value})]

        monkeypatch.setattr(eiscalc, "boundary_terms", corrupt_last)
        report = verify_partition(3, (3, 1, 0))
        failed = {c.name: c.counterexample for c in report.failures()}
        assert failed["dichotomy-bijection"] == cex


class TestRank1:
    @pytest.mark.parametrize("k", range(0, 42, 2))
    def test_g1_closed_form(self, k):
        assert rank1(1, (k,)) == one() - L(k + 1)

    def test_g2_symbolic(self):
        l, m = 6, 2
        expected = Ec(1, (m,)) * (one() - L(l + 2)) - Ec(1, (l + 1,)) * (
            one() - L(m + 1)
        )
        # the second term has odd weight l+1 and is dropped on normalization
        assert rank1(2, (l, m)) == expected.normalize(expand_genus_one=False)

    def test_g3_structure(self):
        l, m, n = 5, 3, 1
        expected = (
            Ec(2, (m, n)) * (one() - L(l + 3))
            - Ec(2, (l + 1, n)) * (one() - L(m + 2))
            + Ec(2, (l + 1, m + 1)) * (one() - L(n + 1))
        ).normalize(expand_genus_one=False)
        assert rank1(3, (l, m, n)) == expected

    def test_g2_expand(self):
        assert rank1(2, (2, 0), expand=True) == L(1) - L(5)

    def test_no_odd_symbols_survive(self):
        for lam in [(3, 1), (2, 1), (4, 4), (5, 2, 1)]:
            x = rank1(len(lam), lam)
            for (sym, _), _ in x.items():
                if sym.kind == "Ec":
                    assert sum(sym.lam) % 2 == 0

    def test_mixed_parity_collapses(self):
        # both surgered weights have odd size, so everything vanishes
        assert rank1(2, (2, 1)).is_zero()


class TestGenus2Formulas:
    def test_total_ground_truth(self):
        assert total_g2(0, 0) == one() + L(1) - L(2) - L(3)

    def test_total_11_5(self):
        assert total_g2(11, 5) == L(6) - L(13)

    def test_total_2_0_frozen(self):
        # regression value, hand-checked: s_4 = s_6 = 0 and
        # Ec(1,(0)) = L give L(1 - L^4) - (L^4 - L^5) = L - L^4
        assert total_g2(2, 0) == L(1) - L(4)

    def test_parity_rejected(self):
        with pytest.raises(ValueError):
            total_g2(2, 1)
        with pytest.raises(ValueError):
            codim2_g2(3, 0)

    def test_codim2_values(self):
        assert codim2_g2(0, 0) == one() - L(2)
        # note l+m+3 = 5 here; validated by consistency and duality
        assert codim2_g2(1, 1) == L(2) - L(5)
        assert codim2_g2(12, 0) == L(1) - L(14) * 2 + L(15)

    def test_kernel_values(self):
        assert kernel_g2(11, 5) == -L(6)
        assert kernel_g2(3, 1).is_zero()
        assert kernel_g2(10, 2) == one() - L(3)

    def test_kernel_requires_regular(self):
        with pytest.raises(ValueError):
            kernel_g2(4, 0)
        with pytest.raises(ValueError):
            kernel_g2(3, 3)

    def test_alt_form_delta(self):
        for l, m in [(0, 0), (4, 2), (11, 5), (7, 3), (12, 12)]:
            delta = total_g2_alt(l, m) - total_g2(l, m)
            if l % 2 == 0:
                assert delta.is_zero()
            else:
                assert delta == -(one() - L(l + m + 3))


class TestConsistency:
    def test_origin_decomposition(self):
        assert rank1(2, (0, 0), expand=True) == L(1) - L(3)
        assert codim2_g2(0, 0) == one() - L(2)
        assert consistency_g2(0, 0).passed

    def test_regular_case(self):
        assert consistency_g2(11, 5).passed

    def test_small_grid(self):
        for l in range(9):
            for m in range(l % 2, l + 1, 2):
                assert consistency_g2(l, m).passed, (l, m)

    def test_kernel_sanity_at_origin(self):
        # the compactly supported Eisenstein part at (0,0) is 1 + L
        low, _ = total_g2(0, 0).motivic_weight_split(3)
        assert low == one() + L(1)


class TestDuality:
    def test_g1(self):
        for k in range(0, 42, 2):
            assert check_duality(rank1(1, (k,)), k + 1)

    def test_g2(self):
        for l, m in [(0, 0), (2, 0), (11, 5), (12, 10), (20, 20)]:
            assert check_duality(total_g2(l, m), l + m + 3)

    def test_negative_case(self):
        assert not check_duality(one(), 4)


class TestReindexingCompleteness:
    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_boundary_matches_telescope(self, g):
        from siegeleis.glbranch import VirtualBundle, telescope_closed
        from siegeleis.weylcomb import enumerate_final

        lam = tuple(range(2 * g - 2, -2, -2))
        terms = boundary_terms(g, lam)
        for w in enumerate_final(g):
            a = GlWeight(w.dot_action(lam)).dual()
            expected = telescope_closed(a).scale((-1) ** w.length())
            got = {}
            for t in terms:
                if t.source_w == w:
                    key = (t.weight, 0)
                    got[key] = got.get(key, 0) + t.sign
            assert VirtualBundle(g - 1, got) == expected
