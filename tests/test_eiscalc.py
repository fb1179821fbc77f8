import dataclasses
import hashlib
import itertools
import random
import re

import pytest

from siegeleis import eiscalc, suites
from siegeleis.cli import _stream
from siegeleis.eiscalc import (
    BggTerm,
    BoundaryTerm,
    admissible_weights,
    bgg_complex,
    boundary_terms,
    check_duality,
    codim2_g2,
    consistency_g2,
    kernel_g2,
    rank1,
    restriction_tables,
    tau_prime,
    total_g2,
    total_g2_alt,
    verify_partition,
)
from siegeleis.glbranch import GlWeight, is_dominant, telescope_surgery
from siegeleis.motivering import MotiveExpr, VerificationReport, cusp_dim
from siegeleis.weylcomb import (
    WeylElement,
    enumerate_final,
    final_element,
    flip_dot_actions,
    image_dichotomy,
    restrict_final,
)

one = MotiveExpr.unit
L = MotiveExpr.lefschetz
S = MotiveExpr.cusp_motive
Ec = MotiveExpr.euler


def _generic_weight(g: int, base: int) -> tuple[int, ...]:
    """The lambda whose gaps d_j = lambda_j - lambda_(j+1), with d_g =
    lambda_g, are base^j: an affine form in lambda whose coefficients are
    smaller than base/2 is read back from its value there in balanced
    base-`base` digits (Kronecker substitution), so one evaluation stands
    for every dominant lambda of genus g.  At g = 10, base 2^20, lambda_1
    is about 2^200."""
    return tuple(itertools.accumulate(base**j for j in range(g, 0, -1)))[::-1]


def _parity_points(g: int, base: int) -> list[tuple[int, ...]]:
    """`_generic_weight` and its g neighbours lambda + (1, ..., 1, 0, ...,
    0), all dominant: with them the affine forms mod 2 (the parity filter,
    the odd Ec symbols) take every value they can."""
    lam = _generic_weight(g, base)
    return [lam] + [tuple(x + (i < p) for i, x in enumerate(lam)) for p in range(1, g + 1)]


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


def _degree_sorted_masks(g, terms):
    """Every mask of genus g sorted by the degree its term carries: a
    stable sort of mask order, the order `bgg_complex` gives its terms in."""
    degree = {t.w: t.degree for t in terms}
    return sorted(range(1 << g), key=degree.__getitem__)


class TestBggComplex:
    def test_g1(self):
        k = 6
        terms = bgg_complex(1, (k,))
        assert [(t.degree, t.mu, t.filtration) for t in terms] == [
            (0, (-k,), 0),
            (1, (k + 2,), k + 1),
        ]

    @pytest.mark.parametrize("l,m", [(0, 0), (5, 3), (7, 1), (4, 2)])
    def test_g2_dual_weights(self, l, m):
        terms = bgg_complex(2, (l, m))
        assert [t.mu for t in terms] == [
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
            w = final_element(3, t.w)
            wdot = expected_wdot[w.images]
            assert t.mu == tuple(-x for x in reversed(wdot))
            assert t.degree == w.length()

    @pytest.mark.parametrize("g", range(1, 9))
    def test_degree_from_the_flip_mask(self, monkeypatch, g):
        # the O(g^2) length() stays the degrees' oracle, out of the fast path
        rng = random.Random(g)
        lam = tuple(sorted((rng.randint(0, 2 * g) for _ in range(g)), reverse=True))
        expected = bgg_complex(g, lam)
        assert [t.degree for t in expected] == [
            final_element(g, t.w).length() for t in expected
        ]

        def no_length(self):
            raise AssertionError("bgg_complex called WeylElement.length")

        monkeypatch.setattr(WeylElement, "length", no_length)
        assert bgg_complex(g, lam) == expected

    def test_filtration_parity_integrality(self):
        for lam in [(4, 2, 0), (3, 3, 2), (6, 1, 1)]:
            for t in bgg_complex(3, lam):
                assert (sum(lam) + sum(t.mu)) % 2 == 0

    def test_degree_sort_is_the_degree_and_weight_sort(self):
        # bgg_complex sorts by degree alone.  By the lemma in its docstring
        # the weight order of the final elements is the same at every
        # lambda, so lambda = 0 covers it: there the (degree, mu) order is
        # the masks sorted by degree, a stable sort of mask order
        for g in range(1, eiscalc.MAX_BGG_G + 1):
            terms = bgg_complex(g, (0,) * g)
            assert terms == sorted(terms, key=lambda t: (t.degree, t.mu)), g
            assert [t.w for t in terms] == _degree_sorted_masks(g, terms), g

    @pytest.mark.parametrize("g", [2, 5, 9])
    def test_degree_sort_at_other_weights(self, g):
        rng = random.Random(g)
        top = eiscalc.MAX_LAMBDA_ENTRY
        weights = [(top,) * g, (7,) * g, _generic_weight(g, 2**20)] + [
            tuple(sorted((rng.randint(0, top) for _ in range(g)), reverse=True))
            for _ in range(5)
        ]
        for lam in weights:
            terms = bgg_complex(g, lam)
            assert terms == sorted(terms, key=lambda t: (t.degree, t.mu)), lam
            assert [t.w for t in terms] == _degree_sorted_masks(g, terms)

    def test_size_limit_against_the_per_mask_oracles(self):
        # the terms at MAX_BGG_G in degree order, and at 0, 2^g - 1, every
        # single bit and 200 seeded masks each term against its element
        g = eiscalc.MAX_BGG_G
        lam = tuple(range(2 * g - 1, 0, -2))
        terms = bgg_complex(g, lam)
        assert [t.w for t in terms] == _degree_sorted_masks(g, terms)
        by_mask = {t.w: t for t in terms}
        rng = random.Random(g)
        masks = {0, (1 << g) - 1, *(1 << b for b in range(g)), *rng.sample(range(1 << g), 200)}
        for mask in masks:
            w = final_element(g, mask)
            mu = tuple(-x for x in reversed(w.dot_action(lam)))
            filtration = (sum(lam) + sum(mu)) // 2
            assert by_mask[mask] == BggTerm(mask, mu, w.length(), filtration)

    def test_a_non_dominant_dot_action_raises(self, monkeypatch):
        # the one dominance check per w, on its dot action
        real = flip_dot_actions
        monkeypatch.setattr(
            eiscalc, "flip_dot_actions", lambda lam: ((a[::-1], n) for a, n in real(lam))
        )
        message = "weight (0, 2, 5, 7) is not weakly decreasing"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            bgg_complex(4, (7, 5, 2, 0))


def _count_dominance_checks(monkeypatch):
    """From here on, record every weight eiscalc checks for dominance."""
    checked = []
    real = eiscalc.is_dominant
    monkeypatch.setattr(eiscalc, "is_dominant", lambda v: checked.append(v) or real(v))
    return checked


def _count_value_objects(monkeypatch):
    """From here on, record every `GlWeight` and `WeylElement` built, each
    still validated: {class: [objects]}."""
    built = {GlWeight: [], WeylElement: []}
    for cls in built:
        check = cls.__init__

        def counted(self, *args, check=check, cls=cls, **kwargs):
            check(self, *args, **kwargs)
            built[cls].append(self)

        monkeypatch.setattr(cls, "__init__", counted)
    return built


@dataclasses.dataclass(frozen=True, slots=True)
class _ObjectBggTerm:
    w: WeylElement
    mu: GlWeight
    degree: int
    filtration: int


def _object_bgg_complex(g, lam):
    """`bgg_complex` as it was before its terms became mask tuples: each
    term holds its `WeylElement` and the `GlWeight` of its dot action's
    dual."""
    terms = []
    for w in enumerate_final(g):
        mu = GlWeight(w.dot_action(lam)).dual()
        num = sum(lam) + sum(mu.entries)
        assert num % 2 == 0
        terms.append(_ObjectBggTerm(w, mu, w.length(), num // 2))
    terms.sort(key=lambda t: (t.degree, t.mu.entries))
    return terms


class TestBggAgainstTheObjectPath:
    """Differential test of the mask-tuple BGG terms against the terms
    that held their element and weight objects."""

    @pytest.mark.parametrize("g", range(1, 11))
    def test_field_by_field(self, g):
        finals = enumerate_final(g)
        rng = random.Random(g)
        weights = [tuple(range(g, 0, -1))] + [
            tuple(sorted((rng.randint(0, 12) for _ in range(g)), reverse=True))
            for _ in range(3)
        ]
        for lam in weights:
            rows = itertools.zip_longest(bgg_complex(g, lam), _object_bgg_complex(g, lam))
            for t, old in rows:
                assert t is not None and old is not None, lam
                assert finals[t.w] == old.w
                assert t.mu == old.mu.entries
                assert (t.degree, t.filtration) == (old.degree, old.filtration), (lam, t)

    @pytest.mark.parametrize("g", [1, 2, 5, 8, 10])
    def test_one_command_builds_each_final_element_once(self, monkeypatch, g):
        """Draining the CLI's bgg output builds no weight and no final
        element (the labels come from the flip masks), and checks lambda
        and then each w's dot action for dominance, once each.  The terms
        hold only ints and int tuples."""
        lam = tuple(range(2 * g, 0, -2))
        acted = [lam] + [w.dot_action(lam) for w in enumerate_final(g)]
        built = _count_value_objects(monkeypatch)
        dominance = _count_dominance_checks(monkeypatch)
        for format in ("json", "text"):
            argv = ["bgg", "-g", str(g), "-l", ",".join(map(str, lam)), "--format", format]
            code, chunks, _ = _stream(argv)
            records = sum(chunk.count("filtration") for chunk in chunks)
            assert (code, records) == (0, 2**g)
        assert dominance == 2 * acted
        assert built == {GlWeight: [], WeylElement: []}
        for t in bgg_complex(g, lam):
            assert type(t.mu) is tuple
            assert {type(x) for x in (t.w, *t.mu, t.degree, t.filtration)} == {int}


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
        finals = enumerate_final(2)
        got = {}
        for t in terms:
            got.setdefault(finals[t.w].images, []).append(
                (t.weight, t.sign, t.twist)
            )
        expected = _g2_rows(l, m)
        for imgs, rows in expected.items():
            assert sorted(got[imgs]) == sorted(rows)

    def test_g2_sides(self):
        terms = boundary_terms(2, (5, 3))
        finals = enumerate_final(2)
        sides = {(finals[t.w].images, t.k): t.side for t in terms}
        assert sides[((1, 2), 1)] == "A"
        assert sides[((1, 3), 2)] == "B"
        assert sides[((3, 4), 1)] == "B"
        assert sides[((2, 4), 2)] == "A"

    @pytest.mark.parametrize("g", range(2, 11))
    def test_every_value_object_is_validated(self, monkeypatch, g):
        """Draining the CLI's boundary stream builds no value object: no
        weight and no final element of either genus, since the labels come
        from the flip masks.  lambda and each w's dot action are checked
        for dominance once each; the g weights of w's terms are dominant
        by the surgery lemma (`TestSurgeryLemma`), with no check per term."""
        lam = tuple(range(2 * g, 0, -2))
        acted = [lam] + [w.dot_action(lam) for w in enumerate_final(g)]
        built = _count_value_objects(monkeypatch)
        dominance = _count_dominance_checks(monkeypatch)
        text = ",".join(map(str, lam))
        for format in ("json", "text"):
            argv = ["boundary", "-g", str(g), "-l", text, "--format", format]
            code, chunks, _ = _stream(argv)
            records = sum(chunk.count("parity") for chunk in chunks)
            assert (code, records) == (0, g * 2**g)
        assert built == {GlWeight: [], WeylElement: []}
        assert dominance == 2 * acted

    @pytest.mark.parametrize("bad", [0, 5, 15])
    def test_a_non_dominant_dot_action_raises_before_its_block(self, monkeypatch, bad):
        g, lam = 4, (7, 5, 2, 0)
        real = flip_dot_actions

        def broken(lam):
            for mask, (acted, n) in enumerate(real(lam)):
                yield (acted[::-1] if mask == bad else acted), n

        reversed_action = list(broken(lam))[bad][0]
        assert not is_dominant(reversed_action)
        monkeypatch.setattr(eiscalc, "flip_dot_actions", broken)
        message = f"weight {reversed_action} is not weakly decreasing"
        got = []
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            for mask, mu, records in eiscalc.boundary_blocks(g, lam):
                got.append(mask)
        # every block before the bad w's, and nothing of it
        assert got == list(range(bad))

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
        finals = enumerate_final(7)
        for t in terms:
            assert final_element(6, t.u) == restrict_final(finals[t.w], t.k, t.side)

    @pytest.mark.parametrize("g", range(1, 10))
    def test_stream_matches_the_list(self, g):
        # two block streams of the same input, drained in step, share no
        # state, and flattened with each k's twist they are the term list
        rng = random.Random(g)
        for _ in range(2):
            lam = tuple(sorted((rng.randint(0, 12) for _ in range(g)), reverse=True))
            twists = [{"A": 0, "B": twist} for twist, _ in eiscalc.boundary_k_fields(g, lam)]
            flat = ([], [])
            for pair in itertools.zip_longest(
                eiscalc.boundary_blocks(g, lam), eiscalc.boundary_blocks(g, lam)
            ):
                for terms, (mask, mu, records) in zip(flat, pair):
                    terms += [
                        BoundaryTerm(
                            mask, k, side, u, telescope_surgery(mu, l), sign, twists[k - 1][side]
                        )
                        for k, (side, u, l, sign) in enumerate(records, 1)
                    ]
            assert flat[0] == flat[1] == boundary_terms(g, lam)
            assert len(flat[0]) == g * 2**g

    def test_stream_makes_one_block_at_a_time(self, monkeypatch):
        """After the first block only the first w's work is done: one dot
        action drawn and checked for dominance, and no weight built: the
        block holds w's mu, and each record only a side, ints and no
        weight tuple."""
        g = 8
        lam = tuple(range(2 * g, 0, -2))
        first = final_element(g, 0).dot_action(lam)
        built = _count_value_objects(monkeypatch)
        drawn = []
        real = flip_dot_actions
        monkeypatch.setattr(
            eiscalc, "flip_dot_actions", lambda lam: (drawn.append(x) or x for x in real(lam))
        )
        blocks = eiscalc.boundary_blocks(g, lam)
        checked = _count_dominance_checks(monkeypatch)
        mask, mu, records = next(blocks)
        assert drawn == [(first, 0)]
        assert checked == [first]
        assert built[GlWeight] == []
        assert (mask, mu, len(records)) == (0, tuple(-x for x in reversed(lam)), g)
        assert {tuple(map(type, r)) for r in records} == {(str, int, int, int)}

    @pytest.mark.parametrize(
        "g, lam, message",
        [
            (15, (0,) * 15, "-g: boundary needs g <= 14, got 15"),
            (2, (3, -1), "--lambda: '3,-1' is not weakly decreasing and nonnegative"),
            (3, (2, 0), "--lambda: expected 3 entries, got 2"),
        ],
    )
    def test_stream_checks_its_input_when_called(self, g, lam, message):
        # the error comes from the call itself, before any block is asked
        # for, and the term list checks through the block stream
        for entry in (eiscalc.boundary_blocks, boundary_terms):
            with pytest.raises(ValueError, match=re.escape(message)):
                entry(g, lam)


@dataclasses.dataclass(frozen=True, slots=True)
class _ValidatedTerm:
    source_w: WeylElement
    k: int
    side: str
    u: WeylElement
    weight: GlWeight
    sign: int
    twist: int

    @property
    def parity_pass(self) -> bool:
        return sum(self.weight.entries) % 2 == 0


def _validated_boundary_terms(g, lam):
    """The boundary generator as it was before terms became mask tuples:
    each term holds its source and restricted `WeylElement`s and a
    `GlWeight` built, and so validated, for that term alone.  The side,
    position and restriction of each k come from the image-based oracles
    and the weight from the telescope at that position, one k at a time."""
    lam = tuple(lam)
    twists = [lam[k - 1] + g + 1 - k for k in range(1, g + 1)]
    for w in enumerate_final(g):
        a = GlWeight(w.dot_action(lam)).dual().entries
        low = tuple(x - 1 for x in a)
        lw = w.length()
        for k in range(1, g + 1):
            side, pos = image_dichotomy(w, k)
            l = g + 1 - pos
            yield _ValidatedTerm(
                w, k, side, restrict_final(w, k, side),
                GlWeight(a[: l - 1] + low[l:]),
                -1 if (lw + g - l) & 1 else 1,
                0 if side == "A" else twists[k - 1],
            )


class TestSurgeryLemma:
    """A boundary term's weight a[:l-1] + (a[l:] - 1) is dominant for every
    dominant a and every position l, since a_(l-1) >= a_l >= a_(l+1) >
    a_(l+1) - 1; that is why neither `boundary_terms` nor the CLI, which
    formats the same entries from a block's mu, checks a term's weight."""

    @staticmethod
    def weights():
        rng = random.Random(20261019)
        top = eiscalc.MAX_LAMBDA_ENTRY
        pools = [
            range(-4, 5),  # negative entries, many repeats
            range(top - 3, top + 30),  # near the lambda bound and beyond it
            range(-top - 30, -top + 3),  # a mu = dual of a dot action there
            [-top - 30, -top, -1, 0, 1, top, top + 30],  # wide gaps, repeats
        ]
        for g in range(1, 15):
            for pool in pools:
                for _ in range(10):
                    yield tuple(sorted((rng.choice(pool) for _ in range(g)), reverse=True))

    def test_every_surgery_of_a_dominant_weight_is_dominant(self):
        cases = 0
        for a in self.weights():
            records = [("A", 0, l, 1) for l in range(1, len(a) + 1)]
            # as boundary_terms and the CLI cut them
            for l, weight in enumerate(eiscalc.block_weights(a, records), 1):
                assert is_dominant(weight), (a, l)
                cases += 1
        assert cases == 4 * 10 * sum(range(1, 15))

    def test_block_weights_are_the_surgeries(self):
        """The cut helper against `telescope_surgery` at every l, as ints
        and as the entry texts the CLI joins; records in any l order."""
        for a in self.weights():
            ls = list(range(len(a), 0, -1))
            records = [("B", 0, l, -1) for l in ls]
            expected = [telescope_surgery(a, l) for l in ls]
            assert eiscalc.block_weights(a, records) == expected
            assert eiscalc.block_weights(a, records, texts=True) == [
                tuple(map(str, weight)) for weight in expected
            ]

    def test_the_lemma_needs_a_dominant_weight(self):
        # not vacuous: the surgery of a non-dominant weight can ascend
        assert not is_dominant(telescope_surgery((0, 1, 2), 1))

    @pytest.mark.parametrize(
        "g, lam",
        [
            # the benchmark's boundary-deep weight at seed 7
            # (`boundary_lambda(7)` in bench/run.py)
            (13, (20, 18, 17, 16, 12, 11, 10, 6, 4, 3, 2, 1, 1)),
            (14, tuple(range(27, 0, -2))),  # the genus-14 staircase
        ],
        ids=["boundary-deep", "staircase-14"],
    )
    def test_every_weight_the_cli_serves_is_dominant(self, g, lam):
        # no producer checks a term's weight, so this test does, at each
        # record's telescope index into its block's mu
        count = 0
        bad = []
        for mask, mu, records in eiscalc.boundary_blocks(g, lam):
            for k, (side, u, l, sign) in enumerate(records, 1):
                count += 1
                weight = telescope_surgery(mu, l)
                if not is_dominant(weight):
                    bad.append((mask, k, weight))
        assert (count, bad) == (g * 2**g, [])


def test_eiscalc_builds_no_gl_weight():
    # the producers work on entry tuples; GlWeight is the argument type of
    # glbranch's checker functions only
    assert not hasattr(eiscalc, "GlWeight")


class TestBoundaryAgainstTheValidatedPath:
    """Differential test of the mask-tuple terms against the per-term
    validated objects, beyond the g <= 5 of the partition suite."""

    @staticmethod
    def weights(g):
        rng = random.Random(g)
        for _ in range(3):
            yield tuple(sorted((rng.randint(0, 12) for _ in range(g)), reverse=True))
        yield tuple(range(g, 0, -1))  # the staircase

    @pytest.mark.parametrize("g", range(1, 10))
    def test_field_by_field(self, g):
        finals = enumerate_final(g)
        for lam in self.weights(g):
            rows = itertools.zip_longest(
                boundary_terms(g, lam), _validated_boundary_terms(g, lam)
            )
            for t, old in rows:
                assert t is not None and old is not None, lam
                assert finals[t.w] == old.source_w
                assert final_element(g - 1, t.u) == old.u
                assert t.weight == old.weight.entries
                assert (t.k, t.side, t.sign, t.twist, t.parity_pass) == (
                    old.k, old.side, old.sign, old.twist, old.parity_pass
                ), (lam, t)


class TestBlockRecords:
    """Every block's mu and every (side, u, l, sign) record of
    `boundary_blocks` against oracles on the elements, none of them a flip
    helper: the partition suite stops at g = 4, and above it a sign or
    slice fault would otherwise show only as a changed golden digest.  A
    record's weight is the surgery of mu at l (`test_flattened_blocks_are_the_terms`)."""

    @staticmethod
    def weights(g):
        rng = random.Random(g)
        drawn = tuple(sorted((rng.randint(0, 20) for _ in range(g)), reverse=True))
        yield tuple(range(2 * g - 1, 0, -2))  # the staircase
        yield drawn
        yield (eiscalc.MAX_LAMBDA_ENTRY,) + drawn[1:]
        yield _generic_weight(g, 2**20)

    @pytest.mark.parametrize("g", range(1, 11))
    def test_each_record_against_the_element_oracles(self, g):
        finals = enumerate_final(g)
        # enumerate_final(g - 1), which refuses genus 0
        restricted = [final_element(g - 1, u) for u in range(1 << (g - 1))]
        # (side, position, restriction) of each (w, k), whatever lambda is
        oracle = [
            [(side, pos, restrict_final(w, k, side))
             for k in range(1, g + 1)
             for side, pos in [image_dichotomy(w, k)]]
            for w in finals
        ]
        for lam in self.weights(g):
            blocks = list(eiscalc.boundary_blocks(g, lam))
            assert [mask for mask, _, _ in blocks] == list(range(1 << g))
            for mask, mu, records in blocks:
                w = finals[mask]
                assert mu == tuple(-x for x in reversed(w.dot_action(lam))), (lam, w)
                expected = [
                    (side, u, g + 1 - pos, (-1) ** (w.length() + pos - 1))
                    for side, pos, u in oracle[mask]
                ]
                got = [(side, restricted[u], l, sign) for side, u, l, sign in records]
                assert got == expected, (lam, w)

    @staticmethod
    def assert_parity_per_k(g, lam):
        """Each record's weight parity, from the oracle `telescope_surgery`,
        is the per-k parity of `boundary_k_fields` that boundary prints;
        the whole stream is drained."""
        evens = [even for _, even in eiscalc.boundary_k_fields(g, lam)]
        blocks = 0
        for _, mu, records in eiscalc.boundary_blocks(g, lam):
            got = [sum(telescope_surgery(mu, l)) % 2 == 0 for _, _, l, _ in records]
            assert got == evens, (lam, mu)
            blocks += 1
        assert blocks == 1 << g

    @pytest.mark.parametrize("g", range(1, 11))
    def test_parity_per_k_at_every_mask(self, g):
        for lam in self.weights(g):
            self.assert_parity_per_k(g, lam)

    @pytest.mark.parametrize(
        "g, lam",
        [
            # the benchmark's boundary-deep weight at seed 7
            # (`boundary_lambda(7)` in bench/run.py)
            (13, (20, 18, 17, 16, 12, 11, 10, 6, 4, 3, 2, 1, 1)),
            (14, tuple(range(27, 0, -2))),  # the staircase
        ],
        ids=["13", "14"],
    )
    def test_parity_per_k_on_the_largest_streams(self, g, lam):
        self.assert_parity_per_k(g, lam)

    def test_flattened_blocks_are_the_terms(self):
        # each record's weight is telescope_surgery(mu, l), the oracle of
        # the surgery boundary_terms and the CLI make; the benchmark's boundary-deep weight at seed 1
        # (`boundary_lambda(1)` in bench/run.py)
        g, lam = 13, (20, 18, 15, 15, 15, 14, 12, 8, 6, 4, 3, 3, 2)
        twists = [{"A": 0, "B": twist} for twist, _ in eiscalc.boundary_k_fields(g, lam)]
        flat = [
            BoundaryTerm(mask, k, side, u, telescope_surgery(mu, l), sign, twists[k - 1][side])
            for mask, mu, records in eiscalc.boundary_blocks(g, lam)
            for k, (side, u, l, sign) in enumerate(records, 1)
        ]
        assert flat == boundary_terms(g, lam)


class TestVerifyPartition:
    def test_g1_trivial(self):
        # no genus-1 special case: the restricted element is the empty one
        for k in range(13):
            assert verify_partition(1, (k,)).passed, k

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

    def test_input_is_checked_before_the_tables(self, monkeypatch):
        # the genus is refused before restriction_tables(15) builds 2^15
        # elements
        def forbidden(g):
            raise AssertionError("tables built before the input was checked")

        monkeypatch.setattr(eiscalc, "restriction_tables", forbidden)
        with pytest.raises(ValueError, match=r"^-g: boundary needs g <= 14, got 15$"):
            verify_partition(15, (0,) * 15)

    def test_tables_of_another_genus_raise_before_any_term(self, monkeypatch):
        # g and lambda are checked first, then the tables' genus, and only
        # then is a term built
        def refuse(*args):
            raise AssertionError("terms built before the tables were checked")

        monkeypatch.setattr(eiscalc, "_generate_blocks", refuse)
        tables = restriction_tables(3)
        staircase = tuple(range(23, 0, -2))
        with pytest.raises(ValueError, match=r"^restriction tables are for genus 3, not 12$"):
            verify_partition(12, staircase, tables=tables)
        with pytest.raises(ValueError, match=r"^-g: boundary needs g <= 14, got 15$"):
            verify_partition(15, (0,) * 15, tables=tables)
        with pytest.raises(ValueError, match=r"^--lambda: expected 12 entries, got 2$"):
            verify_partition(12, (2, 0), tables=tables)

    @pytest.mark.parametrize("g", [8, 9, 10])
    def test_seeded_weights_beyond_the_gate(self, g):
        rng = random.Random(g)
        for _ in range(3):
            lam = tuple(sorted((rng.randint(0, 12) for _ in range(g)), reverse=True))
            report = verify_partition(g, lam)
            assert report.passed, [c.counterexample for c in report.failures()]

    def test_weight_identity_builds_each_expected_weight_once(self, monkeypatch):
        # the expected weight depends only on (u, k): one restricted dot
        # action per distinct pair, not per term, and no GlWeight
        g, lam = 8, (9, 7, 7, 4, 2, 2, 0, 0)
        terms = eiscalc.boundary_terms(g, lam)
        pairs = {(t.u, t.k) for t in terms}
        assert (len(terms), len(pairs)) == (2048, 1024)
        monkeypatch.setattr(eiscalc, "boundary_terms", lambda g, lam: terms)
        built = _count_value_objects(monkeypatch)
        acted = []
        real = WeylElement.dot_action
        monkeypatch.setattr(
            WeylElement, "dot_action", lambda w, lam: acted.append(w) or real(w, lam)
        )
        report = verify_partition(g, lam)
        monkeypatch.undo()
        assert report.passed
        assert len(acted) == len(pairs) == 1024
        assert built[GlWeight] == []

    @pytest.mark.parametrize(
        "field, value, cex",
        [
            ("side", "A", "w=[456], k=3: side A != B"),
            ("u", 0, "w=[456], k=3: u=[12] != [34]"),
        ],
    )
    def test_term_side_and_u_are_checked(self, monkeypatch, field, value, cex):
        real = eiscalc.boundary_terms

        def corrupt_last(g, lam):
            terms = real(g, lam)
            return terms[:-1] + [terms[-1]._replace(**{field: value})]

        monkeypatch.setattr(eiscalc, "boundary_terms", corrupt_last)
        report = verify_partition(3, (3, 1, 0))
        failed = {c.name: c.counterexample for c in report.failures()}
        assert failed["dichotomy-bijection"] == cex

    @pytest.mark.parametrize(
        "edit, cex",
        [
            (lambda terms: terms[:-1], "w=[456], k=[1, 2]"),
            (lambda terms: terms[1:] + terms[:1], "w=[123], k=[2, 3]"),
        ],
        ids=["last-term-dropped", "first-term-moved-to-the-end"],
    )
    def test_each_w_is_one_block_with_k_ascending(self, monkeypatch, edit, cex):
        real = eiscalc.boundary_terms
        monkeypatch.setattr(eiscalc, "boundary_terms", lambda g, lam: edit(real(g, lam)))
        report = verify_partition(3, (3, 1, 0))
        failed = {c.name: c.counterexample for c in report.failures()}
        assert failed["dichotomy-bijection"] == cex

    @pytest.mark.parametrize(
        "edit, cex",
        [
            (lambda terms: terms[3:], "w=[124]: block where w=[123] is due"),
            (lambda terms: terms[3:] + terms[:3], "w=[124]: block where w=[123] is due"),
            (lambda terms: terms[:-3], "w=[456]: no block"),
            (lambda terms: terms + terms[:3], "w=[123]: block after the last final element"),
        ],
        ids=[
            "first-block-dropped", "first-block-moved-to-the-end", "last-block-dropped",
            "block-after-the-last",
        ],
    )
    def test_blocks_are_headed_by_the_final_elements_in_order(self, monkeypatch, edit, cex):
        # each edit keeps every remaining block whole, with k = 1, 2, 3
        real = eiscalc.boundary_terms
        monkeypatch.setattr(eiscalc, "boundary_terms", lambda g, lam: edit(real(g, lam)))
        report = verify_partition(3, (3, 1, 0))
        failed = {c.name: c.counterexample for c in report.failures()}
        assert failed == {"dichotomy-bijection": cex}

    # counterexamples recorded before tau_prime, the u lengths and the
    # (k, side) groups were computed once per call; parity_pass is read
    # from the weight, so an odd entry sum fails the parity filter too
    @pytest.mark.parametrize(
        "field, value, failed",
        [
            ("sign", -1, {"sign-constancy": "k=3, side=B, ratios=[-1, 1]"}),
            ("weight", (8, 5), {
                "weight-identity": "w=[456], k=3: W(8,5) != W(7,5)",
                "parity-filter": "w=[456], k=3",
            }),
            ("weight", (9, 9), {
                "weight-identity": "w=[456], k=3: W(9,9) != W(7,5)",
            }),
            # a weight that is not dominant is still named, W(...) as ever
            ("weight", (5, 9), {
                "weight-identity": "w=[456], k=3: W(5,9) != W(7,5)",
            }),
        ],
        ids=["sign", "odd-weight", "even-weight", "non-dominant-weight"],
    )
    def test_corrupted_term_fails_its_check(self, monkeypatch, field, value, failed):
        real = eiscalc.boundary_terms

        def corrupt_last(g, lam):
            terms = real(g, lam)
            return terms[:-1] + [terms[-1]._replace(**{field: value})]

        monkeypatch.setattr(eiscalc, "boundary_terms", corrupt_last)
        report = verify_partition(3, (3, 1, 0))
        assert {c.name: c.counterexample for c in report.failures()} == failed

    def test_no_terms_fail_every_check(self, monkeypatch):
        monkeypatch.setattr(eiscalc, "boundary_terms", lambda g, lam: [])
        report = verify_partition(3, (3, 1, 0))
        assert [(c.name, c.passed, c.detail) for c in report.checks] == [
            ("dichotomy-bijection", False, "0 cases"),
            ("weight-identity", False, "0 cases"),
            ("sign-constancy", False, "g=3, lambda=(3, 1, 0)"),
            ("parity-filter", False, "0 cases"),
        ]

    def test_surgery_and_lengths_once_each(self, monkeypatch):
        g, lam = 6, (7, 5, 5, 3, 2, 0)
        surgeries, lengths = [], []
        real_tau, real_length = eiscalc.tau_prime, WeylElement.length

        def tau(lam, k):
            surgeries.append(k)
            return real_tau(lam, k)

        def length(self):
            lengths.append(self)
            return real_length(self)

        monkeypatch.setattr(eiscalc, "tau_prime", tau)
        monkeypatch.setattr(WeylElement, "length", length)
        assert verify_partition(g, lam).passed
        assert sorted(surgeries) == list(range(1, g + 1))
        assert len(lengths) == len(set(lengths)) == 2 ** (g - 1)



def _balanced_digits(x: int, base: int) -> tuple[int, ...]:
    """x in balanced base `base`, lowest digit first, each digit in
    (-base/2, base/2]: at `_generic_weight(g, base)`, digit 0 is an affine
    form's constant and digit j its coefficient of the gap d_j."""
    digits = []
    while x:
        d = x % base
        if d > base // 2:
            d -= base
        digits.append(d)
        x = (x - d) // base
    return tuple(digits)


def _affine_forms(g: int, base: int):
    """Every field the producers compute at `_generic_weight(g, base)`:
    the lambda-independent ones as they are, the lambda-dependent ones
    (BGG mu and filtration, boundary weight and twist, rank1's Ec
    arguments and L-exponents) decoded into their affine forms."""
    lam = _generic_weight(g, base)

    def form(entries):
        return tuple(_balanced_digits(x, base) for x in entries)

    bgg = [(t.w, t.degree, form(t.mu + (t.filtration,))) for t in bgg_complex(g, lam)]
    boundary = [
        (t.w, t.k, t.side, t.u, t.sign, form(t.weight + (t.twist,)))
        for t in boundary_terms(g, lam)
    ]
    symbols = [
        (sym.kind, sym.g, coeff, form(sym.lam + (lexp,)))
        for (sym, lexp), coeff in rank1(g, lam).items()
    ]
    return bgg, boundary, symbols


class TestGenericPoint:
    """The producers at the generic weight of each genus, where one
    evaluation decides an identity for every dominant lambda (Kronecker),
    far past the CLI's entry bound."""

    # both bases are even, so every field has the same parity at both
    # generic points and rank1 drops the same odd symbols
    BASES = (2**20, 2**24 + 6)

    @pytest.mark.parametrize("g", range(1, 9))
    def test_partition_and_filtration_at_every_parity_point(self, g):
        tables = restriction_tables(g)
        for lam in _parity_points(g, 2**20):
            report = verify_partition(g, lam, tables=tables)
            assert report.passed, [c.counterexample for c in report.failures()]
            # the filtration is the Levi-centre character: the sum of
            # (lambda + rho)_i over the flipped indices i (bit g - i)
            v = [x + g - i for i, x in enumerate(lam)]
            for t in bgg_complex(g, lam):
                flipped = [i for i in range(1, g + 1) if t.w >> (g - i) & 1]
                assert t.filtration == sum(v[i - 1] for i in flipped), (lam, t.w)

    @pytest.mark.parametrize("g", range(1, 11))
    def test_affine_forms_do_not_depend_on_the_base(self, g):
        """The soundness guard of the generic point: a producer that
        branched on lambda's values would give different forms at the two
        bases."""
        low, high = (_affine_forms(g, base) for base in self.BASES)
        assert low == high

    def test_the_guard_sees_a_producer_that_branches_on_lambda(self, monkeypatch):
        real = eiscalc.boundary_k_fields

        def branching(g, lam):
            return [(twist + (lam[0] % 5 == 0), even) for twist, even in real(g, lam)]

        monkeypatch.setattr(eiscalc, "boundary_k_fields", branching)
        differ = [
            g for g in range(1, 11)
            if _affine_forms(g, self.BASES[0]) != _affine_forms(g, self.BASES[1])
        ]
        # lambda_1 = 0 (mod 5) at base 2^20 for g = 5, 10, and at base
        # 2^24 + 6 for g = 4, 8
        assert differ == [4, 5, 8, 10]


def _check_fields(report):
    return [(c.name, c.passed, c.detail, c.counterexample, c.cases) for c in report.checks]


class TestRestrictionTables:
    """verify_partition reads its lambda-independent oracle data from
    tables built once per genus."""

    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6])
    def test_passed_tables_give_the_same_report(self, g):
        rng = random.Random(100 + g)
        tables = restriction_tables(g)
        for _ in range(6):
            lam = tuple(sorted((rng.randint(0, 9) for _ in range(g)), reverse=True))
            assert _check_fields(verify_partition(g, lam, tables=tables)) == (
                _check_fields(verify_partition(g, lam))
            ), lam

    @pytest.mark.parametrize(
        "field, value",
        [("side", "A"), ("u", 0), ("sign", -1), ("weight", (8, 5)), ("k", 2)],
    )
    def test_passed_tables_give_the_same_failures(self, monkeypatch, field, value):
        real = eiscalc.boundary_terms

        def corrupt_last(g, lam):
            terms = real(g, lam)
            return terms[:-1] + [terms[-1]._replace(**{field: value})]

        monkeypatch.setattr(eiscalc, "boundary_terms", corrupt_last)
        lam = (3, 1, 0)
        alone = verify_partition(3, lam)
        assert not alone.passed
        assert _check_fields(verify_partition(3, lam, tables=restriction_tables(3))) == (
            _check_fields(alone)
        )

    def test_sizes(self):
        for g in range(1, 7):
            t = restriction_tables(g)
            assert t.g == g
            assert t.finals == enumerate_final(g)
            assert t.restricted == [final_element(g - 1, m) for m in range(1 << (g - 1))]
            assert t.lengths == [u.length() for u in t.restricted]
            assert [len(row) for row in t.oracle] == [g] * (1 << g)

    @pytest.mark.parametrize("other", [2, 4])
    def test_tables_of_another_genus_raise(self, other):
        with pytest.raises(ValueError, match=f"genus {other}, not 3"):
            verify_partition(3, (3, 1, 0), tables=restriction_tables(other))

    @pytest.mark.parametrize(
        "entry, failed",
        [
            # w = [456] is mask 7; at k = 3 it is on side B with u = [34]
            (lambda side, u, t: ("A", u), {
                "dichotomy-bijection": "w=[456], k=3: side B != A",
            }),
            (lambda side, u, t: (side, t.restricted[0]), {
                "dichotomy-bijection": "w=[456], k=3: u=[34] != [12]",
            }),
        ],
        ids=["side", "restriction"],
    )
    def test_a_corrupted_table_entry_fails(self, entry, failed):
        tables = restriction_tables(3)
        tables.oracle[7][2] = entry(*tables.oracle[7][2], tables)
        report = verify_partition(3, (3, 1, 0), tables=tables)
        assert {c.name: c.counterexample for c in report.failures()} == failed

    def test_a_corrupted_length_fails_sign_constancy(self):
        tables = restriction_tables(3)
        tables.lengths[3] += 1
        report = verify_partition(3, (3, 1, 0), tables=tables)
        assert [c.name for c in report.failures()] == ["sign-constancy"]

    def test_the_partition_suite_restricts_each_pair_once(self, monkeypatch):
        # one restrict_final per (w, k) of each genus 2, 3, 4 for the whole
        # suite, not one per (lambda, w, k)
        calls = []
        real = eiscalc.restrict_final
        monkeypatch.setattr(
            eiscalc, "restrict_final",
            lambda w, k, side: calls.append((w, k)) or real(w, k, side),
        )
        assert suites.verify_partition_suite().passed
        assert len(calls) == len(set(calls)) == 8 + 24 + 64

    def test_reindexing_takes_each_length_once(self, monkeypatch):
        # the partition identity is stubbed out, so every length counted
        # here is reindexing-completeness's: one per final element of
        # genus 2, 3, 4, not one per (lambda, w)
        monkeypatch.setattr(eiscalc, "restriction_tables", lambda g: None)
        monkeypatch.setattr(
            eiscalc, "verify_partition", lambda g, lam, tables: VerificationReport()
        )
        lengths = []
        real = WeylElement.length
        monkeypatch.setattr(WeylElement, "length", lambda w: lengths.append(w) or real(w))
        report = suites.verify_partition_suite()
        monkeypatch.undo()
        (check,) = [c for c in report.checks if c.name == "reindexing-completeness"]
        assert (check.passed, check.cases) == (True, 120)
        assert len(lengths) == len(set(lengths)) == 4 + 8 + 16


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

    @staticmethod
    def chained(g, lam, expand):
        """The rank-one sum built term by term with ring arithmetic."""
        total = MotiveExpr.zero()
        for k in range(1, g + 1):
            term = Ec(g - 1, tau_prime(lam, k)) * (one() - L(lam[k - 1] + g + 1 - k))
            total = total + (term if k % 2 else -term)
        return total.normalize(expand_genus_one=expand)

    @pytest.mark.parametrize("g", range(1, 13))
    def test_one_pass_build(self, monkeypatch, g):
        # one sum and one normalize: chained rebuilds would construct
        # several expressions per term
        rng = random.Random(g)
        lams = [tuple(sorted((rng.randint(0, 9) for _ in range(g)), reverse=True))
                for _ in range(4)]
        expected = [self.chained(g, lam, False) for lam in lams]
        built = []
        real_init = MotiveExpr.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(MotiveExpr, "__init__", counting_init)
        for lam, want in zip(lams, expected):
            built.clear()
            assert rank1(g, lam) == want
            assert len(built) == 2, (lam, len(built))

    @pytest.mark.parametrize("g", [1, 2, 6])
    def test_validates_once_without_one_term_expressions(self, monkeypatch, g):
        lam = (9, 7, 4, 4, 2, 0)[:g]
        expected = {expand: self.chained(g, lam, expand) for expand in (False, True)}
        checks = []
        real_check = eiscalc._check_sp_weight

        def forbidden(*args):
            raise AssertionError("rank1 took a one-term round trip")

        monkeypatch.setattr(
            eiscalc, "_check_sp_weight", lambda lam, g: checks.append(g) or real_check(lam, g)
        )
        monkeypatch.setattr(eiscalc, "tau_prime", forbidden)
        monkeypatch.setattr(MotiveExpr, "euler", forbidden)
        for expand, want in expected.items():
            checks.clear()
            assert rank1(g, lam, expand=expand) == want
            assert checks == [g]

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_expand_matches_the_chained_sum(self, g):
        for lam in admissible_weights(g, 8):
            assert rank1(g, lam, expand=True) == self.chained(g, lam, True), lam


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


def _s(k):
    return one(cusp_dim(k))


def _chained_total(l, m):
    expr = _s(l - m + 2) * (one() - L(l + m + 3)) * (-1)
    expr = expr + _s(l + m + 4) * (L(m + 1) - L(l + 2))
    if l % 2 == 0:
        expr = expr + Ec(1, (m,)) * (one() - L(l + 2))
        expr = expr - (L(l + 2) - L(l + m + 3))
    else:
        expr = expr - Ec(1, (l + 1,)) * (one() - L(m + 1))
        expr = expr - (one() - L(m + 1))
    return expr.normalize()


def _chained_total_alt(l, m):
    expr = (_s(l - m + 2) + one()) * (one() - L(l + m + 3)) * (-1)
    expr = expr + _s(l + m + 4) * (L(m + 1) - L(l + 2))
    if l % 2 == 0:
        expr = expr - S(m + 2) * (one() - L(l + 2))
    else:
        expr = expr + S(l + 3) * (one() - L(m + 1))
    return expr.normalize()


def _chained_codim2(l, m):
    expr = _s(l - m + 2) * (one() - L(l + m + 3)) * (-1)
    expr = expr + _s(l + m + 4) * (L(m + 1) - L(l + 2))
    if l % 2 == 0:
        expr = expr - L(l + 2) + L(l + m + 3)
    else:
        expr = expr - one() + L(m + 1)
    return expr.normalize()


def _chained_kernel(l, m):
    expr = _s(l - m + 2) - _s(l + m + 4) * L(m + 1)
    if l % 2 == 0:
        expr = expr + S(m + 2) + one()
    else:
        expr = expr - S(l + 3)
    return expr.normalize()


class TestGenus2OnePass:
    """Each genus-2 formula against its printed form built with ring
    arithmetic, term by term."""

    CHAINED = [
        (total_g2, _chained_total),
        (total_g2_alt, _chained_total_alt),
        (codim2_g2, _chained_codim2),
        (kernel_g2, _chained_kernel),
    ]

    @staticmethod
    def weights(fn):
        # every (l, m) the formula accepts up to the table's lmax
        lms = list(admissible_weights(2, 64))
        return [(l, m) for l, m in lms if l > m > 0] if fn is kernel_g2 else lms

    @pytest.mark.parametrize("fn, chained", CHAINED, ids=lambda f: f.__name__)
    def test_matches_the_chained_form(self, fn, chained):
        lms = self.weights(fn)
        # both parities of l; regular and, except for the kernel, walls
        assert {l % 2 for l, _ in lms} == {0, 1}
        assert {l > m > 0 for l, m in lms} == ({True} if fn is kernel_g2 else {True, False})
        for l, m in lms:
            assert fn(l, m) == chained(l, m), (l, m)

    @pytest.mark.parametrize("fn, chained", CHAINED, ids=lambda f: f.__name__)
    def test_one_pass_build(self, monkeypatch, fn, chained):
        # one sum and one normalize, as in rank1
        lms = [(l, m) for l, m in [(0, 0), (2, 0), (3, 1), (11, 5), (12, 12), (63, 1)]
               if fn is not kernel_g2 or l > m > 0]
        expected = [chained(l, m) for l, m in lms]
        built = []
        real_init = MotiveExpr.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(MotiveExpr, "__init__", counting_init)
        for (l, m), want in zip(lms, expected):
            built.clear()
            assert fn(l, m) == want
            assert len(built) == 2, ((l, m), len(built))


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

    @pytest.mark.parametrize("lm, identities", [((11, 5), 3), ((0, 0), 2)])
    def test_each_identity_compared_once(self, monkeypatch, lm, identities):
        calls = []
        real_eq = MotiveExpr.__eq__

        def counting_eq(self, other):
            calls.append(1)
            return real_eq(self, other)

        monkeypatch.setattr(MotiveExpr, "__eq__", counting_eq)
        assert consistency_g2(*lm).passed
        assert len(calls) == identities

    # sha256 of (text, json) failing reports, recorded while each identity
    # was still compared twice and logged outside VerificationReport.check
    @pytest.mark.parametrize(
        "lm, text, js",
        [
            ((11, 5),
             "d8efd348be697e4547c26823cea4950af55a4cebf1ef3e1ce4dea08a4605699e",
             "18fec7e26254b3dc988e268ed886d9a63f7e4536a44d1171b3ee4b487c9b2ff8"),
            ((12, 0),
             "be8524490768cecd575249bc2d3e1daae28e8aaf61bc2b2d44c1b4eac8ef744e",
             "962329a5cc66e184c23b4b1d70eb4dd042d434355a30e15d953b1e4612b55811"),
        ],
    )
    def test_failing_reports_unchanged(self, monkeypatch, lm, text, js):
        for name in ("codim2_g2", "kernel_g2", "total_g2_alt"):
            real = getattr(eiscalc, name)
            monkeypatch.setattr(
                eiscalc, name, lambda l, m, real=real: real(l, m) + L(1)
            )
        report = consistency_g2(*lm)
        assert not any(c.passed for c in report.checks)
        for out, digest in ((report.render(), text), (report.render("json"), js)):
            assert hashlib.sha256(out.encode()).hexdigest() == digest

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

        lam = tuple(range(2 * g - 2, -2, -2))
        terms = boundary_terms(g, lam)
        for mask, w in enumerate(enumerate_final(g)):
            a = GlWeight(w.dot_action(lam)).dual()
            expected = telescope_closed(a).scale((-1) ** w.length())
            got = ((t.weight, t.sign) for t in terms if t.w == mask)
            assert VirtualBundle(g - 1, got) == expected


class TestWeightLayer:
    """eiscalc is where weights and (l, m) pairs are validated, and its
    errors name the CLI flag at fault."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: rank1(0, ()), "-g: genus must be >= 1"),
            (lambda: bgg_complex(-1, (1,)), "-g: genus must be >= 1"),
            (lambda: rank1(3, (2, 0)), "--lambda: expected 3 entries, got 2"),
            (lambda: verify_partition(3, (2, 0)), "--lambda: expected 3 entries, got 2"),
            (
                lambda: bgg_complex(2, (1, 2)),
                "--lambda: '1,2' is not weakly decreasing and nonnegative",
            ),
            (
                lambda: boundary_terms(2, (3, -1)),
                "--lambda: '3,-1' is not weakly decreasing and nonnegative",
            ),
            (lambda: total_g2(2, 1), "-l/-m: need l = m (mod 2), got l=2, m=1"),
            (lambda: codim2_g2(1, 3), "-l/-m: need l >= m >= 0, got l=1, m=3"),
            (
                lambda: kernel_g2(4, 0),
                "-l/-m: kernel requires a regular weight (l > m > 0), got l=4, m=0",
            ),
            (lambda: eiscalc.admissible_weights(0, 3), "-g: genus must be >= 1"),
            (lambda: eiscalc.admissible_weights(1, 65), "--lmax: must be in [0, 64]"),
            (lambda: eiscalc.admissible_weights(10, 64), "-g/--lmax: need g^2*C(lmax+g, g)"),
            (lambda: bgg_complex(17, (0,) * 17), "-g: bgg needs g <= 16, got 17"),
            (lambda: boundary_terms(15, (0,) * 15), "-g: boundary needs g <= 14, got 15"),
        ],
    )
    def test_errors_name_the_flag(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_admissible_weights_match_the_table_definition(self, g):
        # the table's own enumeration before it moved into eiscalc
        def table_weights(g, lmax):
            if g == 1:
                return [(k,) for k in range(0, lmax + 1, 2)]
            combos = itertools.combinations_with_replacement(range(lmax + 1), g)
            return sorted(tuple(reversed(c)) for c in combos if sum(c) % 2 == 0)

        # the sorted list admissible_weights returned before it streamed,
        # from itertools, not from dominant_entries, its source now
        def sorted_weights(g, lmax):
            combos = itertools.combinations_with_replacement(range(lmax, -1, -1), g)
            return sorted(c for c in combos if sum(c) % 2 == 0)

        for lmax in range(13):
            weights = eiscalc.admissible_weights(g, lmax)
            assert iter(weights) is weights  # a stream, not a list
            assert list(weights) == table_weights(g, lmax) == sorted_weights(g, lmax)
