import copy
import itertools
import json
import pickle
import random

import pytest

from siegeleis import eiscalc, suites, weylcomb
from siegeleis.weylcomb import (
    SideMismatchError,
    WeylElement,
    enumerate_final,
    final_element,
    flip_dot_actions,
    flip_images,
    flip_namer,
    flip_names,
    flip_restriction_rows,
    image_dichotomy,
    images_text,
    kostant_from_signs,
    restrict_final,
    rho,
)


def W(g, *imgs):
    return WeylElement(g, tuple(imgs))


class TestWeylElement:
    def test_invariants(self):
        with pytest.raises(ValueError):
            WeylElement(2, (1, 5))  # out of range
        with pytest.raises(ValueError):
            WeylElement(2, (3, 3))  # repeated
        with pytest.raises(ValueError):
            WeylElement(2, (1, 4))  # complementary pair 1 + 4 = 5
        with pytest.raises(ValueError):
            WeylElement(2, (1,))  # wrong length

    @pytest.mark.parametrize("g", [0, 1, 2, 3, 4])
    def test_pair_check_matches_the_pairwise_scan(self, g):
        """Every tuple in [1, 2g]^g against the O(g^2) pairwise check."""

        def pairwise(imgs):
            if len(set(imgs)) != g:
                return "images must be distinct"
            for a, b in itertools.combinations(imgs, 2):
                if a + b == 2 * g + 1:
                    return "images contain a complementary pair"
            return None

        for imgs in itertools.product(range(1, 2 * g + 1), repeat=g):
            expected = pairwise(imgs)
            if expected is None:
                assert WeylElement(g, imgs).images == imgs
            else:
                with pytest.raises(ValueError) as err:
                    WeylElement(g, imgs)
                assert str(err.value) == expected

    def test_slotted(self):
        assert not hasattr(W(2, 1, 3), "__dict__")

    def test_str(self):
        assert str(W(3, 1, 3, 5)) == "[135]"
        assert str(WeylElement(5, (1, 2, 3, 4, 5))) == "[1,2,3,4,5]"


class TestWeylElementTuple:
    @pytest.mark.parametrize(
        "g, images, message",
        [
            (-1, (), "genus must be nonnegative"),
            (2, (1,), "need exactly g images"),
            (2, (1, 5), "images must lie in [1, 2g]"),
            (2, (0, 1), "images must lie in [1, 2g]"),
            (2, (3, 3), "images must be distinct"),
            (2, (1, 4), "images contain a complementary pair"),
        ],
    )
    def test_error_messages(self, g, images, message):
        with pytest.raises(ValueError) as err:
            WeylElement(g, images)
        assert str(err.value) == message

    def test_repr(self):
        assert repr(W(2, 1, 3)) == "WeylElement(g=2, images=(1, 3))"
        assert repr(WeylElement(0, ())) == "WeylElement(g=0, images=())"

    def test_fields_by_name_and_position(self):
        w = WeylElement(g=2, images=[1, 3])
        assert w == WeylElement(2, iter([1, 3]))
        assert (w.g, w.images) == (2, (1, 3)) and type(w.images) is tuple

    def test_equal_to_its_plain_tuple(self):
        w = W(3, 1, 3, 5)
        assert w == (3, (1, 3, 5)) and hash(w) == hash((3, (1, 3, 5)))
        assert sorted(enumerate_final(3), reverse=True)[0] == W(3, 4, 5, 6)

    def test_assignment_raises(self):
        w = W(2, 1, 3)
        for attr, value in (("g", 3), ("images", (1, 2)), ("other", 1)):
            with pytest.raises(AttributeError):
                setattr(w, attr, value)
        assert w == W(2, 1, 3)

    def test_copies_are_elements(self):
        w = W(3, 2, 4, 6)
        for twin in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
            assert type(twin) is WeylElement and twin == w
            assert (twin.g, twin.images) == (3, (2, 4, 6))
            assert str(twin) == "[246]" and twin.length() == w.length()


class TestEnumerateFinal:
    def test_g1(self):
        assert [w.images for w in enumerate_final(1)] == [(1,), (2,)]

    def test_g2(self):
        # the four elements of the genus-2 boundary table
        assert [w.images for w in enumerate_final(2)] == [
            (1, 2), (1, 3), (2, 4), (3, 4),
        ]

    def test_g3(self):
        expected = {(1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 3, 6),
                    (1, 4, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6)}
        assert {w.images for w in enumerate_final(3)} == expected

    @pytest.mark.parametrize("g", range(1, 11))
    def test_count_and_finality(self, g):
        finals = enumerate_final(g)
        assert len(finals) == 2 ** g
        assert all(w.is_final() for w in finals)
        assert [w.images for w in finals] == sorted(w.images for w in finals)

    def test_weyl_suite_gates_the_order(self, monkeypatch):
        # the boundary pipeline reads each element's flip mask as its index
        real = weylcomb.enumerate_final
        monkeypatch.setattr(weylcomb, "enumerate_final", lambda g: real(g)[::-1])
        failed = {c.name: c.counterexample for c in suites.verify_weyl(3).failures()}
        assert failed["final-count-2^g"] == "g=1"

    def test_invalid_genus(self):
        with pytest.raises(ValueError):
            enumerate_final(0)
        with pytest.raises(ValueError):
            enumerate_final(-1)


LENGTH_TABLE_G3 = [
    ((1, 2, 3), 0), ((1, 2, 4), 1), ((1, 3, 5), 2), ((2, 3, 6), 3),
    ((1, 4, 5), 3), ((2, 4, 6), 4), ((3, 5, 6), 5), ((4, 5, 6), 6),
]


class TestLength:
    @pytest.mark.parametrize("imgs,expected", LENGTH_TABLE_G3)
    def test_g3_table(self, imgs, expected):
        assert W(3, *imgs).length() == expected

    def test_bounds(self):
        for g in range(1, 6):
            for w in enumerate_final(g):
                assert 0 <= w.length() <= g * g

    def test_alternating_sum_vanishes(self):
        for g in range(1, 9):
            assert sum((-1) ** w.length() for w in enumerate_final(g)) == 0


class TestIsFinal:
    def test_examples(self):
        assert W(2, 1, 3).is_final()
        assert not W(2, 2, 1).is_final()
        assert W(3, 2, 3, 6).is_final()


DOT_TABLE_G3 = [
    ((1, 2, 3), lambda l, m, n: (l, m, n)),
    ((1, 2, 4), lambda l, m, n: (l, m, -n - 2)),
    ((1, 3, 5), lambda l, m, n: (l, n - 1, -m - 3)),
    ((2, 3, 6), lambda l, m, n: (m - 1, n - 1, -l - 4)),
    ((1, 4, 5), lambda l, m, n: (l, -n - 3, -m - 3)),
    ((2, 4, 6), lambda l, m, n: (m - 1, -n - 3, -l - 4)),
    ((3, 5, 6), lambda l, m, n: (n - 2, -m - 4, -l - 4)),
    ((4, 5, 6), lambda l, m, n: (-n - 4, -m - 4, -l - 4)),
]

SAMPLE_WEIGHTS_G3 = [(3, 1, 0), (5, 3, 1), (7, 2, 2), (4, 4, 0), (9, 6, 5)]


class TestSignedApplyAndDot:
    def test_identity(self):
        assert W(3, 1, 2, 3).signed_apply((4, 7, 9)) == (4, 7, 9)
        assert W(3, 1, 2, 3).dot_action((4, 2, 0)) == (4, 2, 0)

    def test_single_flip(self):
        assert W(3, 1, 2, 4).signed_apply((4, 7, 9)) == (4, 7, -9)

    def test_swap_and_flip(self):
        assert W(3, 1, 3, 5).signed_apply((4, 7, 9)) == (4, 9, -7)

    def test_dot_135(self):
        assert W(3, 1, 3, 5).dot_action((3, 1, 0)) == (3, -1, -4)

    def test_dot_456(self):
        assert W(3, 4, 5, 6).dot_action((5, 3, 1)) == (-5, -7, -9)

    @pytest.mark.parametrize("imgs,row", DOT_TABLE_G3)
    @pytest.mark.parametrize("lam", SAMPLE_WEIGHTS_G3)
    def test_g3_table(self, imgs, row, lam):
        assert W(3, *imgs).dot_action(lam) == row(*lam)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            W(2, 1, 2).signed_apply((1,))
        with pytest.raises(ValueError):
            W(2, 1, 2).dot_action((1, 2, 3))

    def test_finality_dot_criterion(self):
        # exhaustive over the whole group for small genus
        for g in (2, 3):
            lam = tuple(range(2 * g, 0, -2))  # strictly dominant
            r = rho(g)
            for w in weylcomb.all_elements(g):
                acted = tuple(
                    a + b for a, b in zip(w.dot_action(lam), r)
                )
                strictly_dec = all(
                    acted[i] > acted[i + 1] for i in range(g - 1)
                )
                assert w.is_final() == strictly_dec


class TestKostantFromSigns:
    def test_empty_is_identity(self):
        assert kostant_from_signs(3, set()).images == (1, 2, 3)

    @pytest.mark.parametrize("g", [2, 3])
    def test_bruteforce_oracle(self, g):
        # the unique element with the prescribed image set whose shifted
        # action on rho is weakly decreasing
        r = rho(g)
        group = weylcomb.all_elements(g)
        for bits in itertools.product((False, True), repeat=g):
            flips = {i + 1 for i, b in enumerate(bits) if b}
            image_set = {
                2 * g + 1 - i if i in flips else i for i in range(1, g + 1)
            }
            candidates = [
                w
                for w in group
                if set(w.images) == image_set
                and all(
                    x >= y
                    for x, y in zip(
                        w.signed_apply(r), w.signed_apply(r)[1:]
                    )
                )
            ]
            assert len(candidates) == 1
            assert candidates[0] == kostant_from_signs(g, flips)

    def test_g2_examples(self):
        assert kostant_from_signs(2, {2}).images == (1, 3)
        assert kostant_from_signs(2, {1, 2}).images == (3, 4)

    def test_invalid_flips(self):
        with pytest.raises(ValueError):
            kostant_from_signs(2, {3})


class TestRestrictFinal:
    def test_examples(self):
        assert restrict_final(W(2, 1, 2), 1, "A").images == (1,)
        assert restrict_final(W(2, 1, 3), 1, "A").images == (2,)
        assert restrict_final(W(2, 2, 4), 1, "B").images == (1,)

    def test_side_mismatch(self):
        with pytest.raises(SideMismatchError):
            restrict_final(W(2, 1, 2), 1, "B")
        with pytest.raises(SideMismatchError):
            restrict_final(W(2, 2, 4), 1, "A")

    @pytest.mark.parametrize("g", range(2, 9))
    def test_bijection(self, g):
        finals = enumerate_final(g)
        target = set(enumerate_final(g - 1))
        for k in range(1, g + 1):
            for side, pool in (
                ("A", [w for w in finals if k in w.images]),
                ("B", [w for w in finals if k not in w.images]),
            ):
                assert len(pool) == 2 ** (g - 1)
                assert {restrict_final(w, k, side) for w in pool} == target


class TestImageDichotomy:
    def test_examples(self):
        assert image_dichotomy(W(2, 1, 2), 2) == ("A", 2)
        assert image_dichotomy(W(2, 1, 3), 2) == ("B", 2)
        assert image_dichotomy(W(2, 3, 4), 1) == ("B", 2)

    @pytest.mark.parametrize("g", range(1, 7))
    def test_position_bijection(self, g):
        for w in enumerate_final(g):
            positions = [image_dichotomy(w, k)[1] for k in range(1, g + 1)]
            assert sorted(positions) == list(range(1, g + 1))


class TestFlipMasks:
    def test_examples(self):
        # bit g-i stands for the index i
        assert final_element(2, 0b00) == W(2, 1, 2)
        assert final_element(2, 0b01) == W(2, 1, 3)  # 3 = 2g+1-2
        assert final_element(3, 0b011) == W(3, 1, 4, 5)
        # indices 1, 3, 4 are flipped, so the images are 2, then 9-4, 9-3,
        # 9-1; k = 3 is on side B, with 9-3 = 6 at position 3
        assert flip_images(0b1011, 4) == (2, 5, 6, 8)
        assert list(flip_restriction_rows(4))[0b1011][2] == ("B", 3, 0b101)

    @pytest.mark.parametrize("g", range(1, 9))
    def test_inverse_of_kostant_from_signs(self, g):
        for mask in range(2 ** g):
            flips = {g - b for b in range(g) if mask >> b & 1}
            assert kostant_from_signs(g, flips) == final_element(g, mask)

    @pytest.mark.parametrize("g", range(1, 13))
    def test_final_element_inverts_flip_mask(self, g):
        """Position m of enumerate_final holds flip mask m, in image order."""
        finals = enumerate_final(g)
        assert finals == [final_element(g, m) for m in range(2 ** g)]
        assert finals == sorted(finals, key=lambda w: w.images)

    def test_final_element_genus_zero(self):
        assert final_element(0, 0) == W(0)
        assert list(flip_dot_actions(())) == [((), 0)]

    @pytest.mark.parametrize("g", range(1, 9))
    def test_dot_action_against_the_element(self, g):
        """Every mask on seeded weights, dominant or not: the batch against
        `WeylElement.dot_action` of the element each mask names."""
        rng = random.Random(g)
        finals = enumerate_final(g)
        for _ in range(4):
            lam = tuple(rng.randint(-8, 8) for _ in range(g))
            assert [acted for acted, _ in flip_dot_actions(lam)] == [
                w.dot_action(lam) for w in finals
            ]

    @staticmethod
    def restriction_oracle(g):
        """(side, position, restricted mask) of each k = 1..g, by flip
        mask, from `image_dichotomy` and `restrict_final` on the element
        the mask names; the restriction is read back to its mask through
        the final elements of genus g-1, so no mask arithmetic is shared
        with the producer."""
        index = {final_element(g - 1, u): u for u in range(1 << (g - 1))} if g else {}

        def row(mask):
            w = final_element(g, mask)
            return [
                (side, pos, index[restrict_final(w, k, side)])
                for k in range(1, g + 1)
                for side, pos in [image_dichotomy(w, k)]
            ]
        return row

    @staticmethod
    def masks(g):
        """Every mask of genus g up to g = 12; past it 0, 2^g - 1, every
        single bit and 200 seeded masks."""
        if g <= 12:
            return range(1 << g)
        rng = random.Random(g)
        return {0, (1 << g) - 1, *(1 << b for b in range(g)), *rng.sample(range(1 << g), 200)}

    @pytest.mark.parametrize("g", range(0, 15))
    def test_half_table_rows_against_the_per_mask_oracle(self, g):
        """The whole stream of `flip_restriction_rows` up to the boundary
        bound, its rows at `masks(g)` against the element oracles, for odd
        and even half splits.  g = 0 yields the one empty row, and g = 1
        has an empty first half."""
        oracle, masks = self.restriction_oracle(g), self.masks(g)
        count = 0
        for mask, row in enumerate(flip_restriction_rows(g)):
            count += 1
            if mask in masks:
                assert row == oracle(mask), mask
        assert count == 1 << g

    def test_restrictions_genus_one(self):
        # the restriction of a genus-1 element is the empty one, mask 0
        assert list(flip_restriction_rows(1)) == [[("A", 1, 0)], [("B", 1, 0)]]
        assert list(flip_restriction_rows(0)) == [[]]

    def test_mask_out_of_range(self):
        # only bits 0..g-1 name indices, so a mask beyond them is refused
        # rather than read as the element of its low bits
        for mask, g in [(-1, 2), (4, 2), (1, 0)]:
            with pytest.raises(ValueError, match=f"^flip mask {mask} out of range for genus {g}$"):
                final_element(g, mask)

    @pytest.mark.parametrize("g", range(0, 11))
    def test_images_against_the_sorted_definition(self, g):
        """Every mask: the bit-operation images against the definition by
        sorting (bit b is the index g-b, with image g+1+b if set and g-b
        if not) and against the element they name.  g = 0 is the
        restricted label table of genus 1."""
        for mask in range(2**g):
            images = tuple(
                sorted(g + 1 + b if mask >> b & 1 else g - b for b in range(g))
            )
            assert flip_images(mask, g) == images
            assert final_element(g, mask).images == images

    @staticmethod
    def weights(g):
        """Seeded weights of genus g: all zero, the top entry repeated, a
        dominant draw with 0, a repeat and the top entry, and an
        arbitrary (not dominant) draw."""
        rng = random.Random(100 + g)
        top = eiscalc.MAX_LAMBDA_ENTRY
        middle = sorted((rng.choice((0, 3, 3, 17, top)) for _ in range(g - 2)), reverse=True)
        mixed = (top, *middle, 0)[:g]
        return [(0,) * g, (top,) * g, mixed, tuple(rng.randint(-9, 9) for _ in range(g))]

    @pytest.mark.parametrize("g", range(0, 17))
    def test_batch_dot_actions_against_the_per_mask_oracles(self, g):
        """The whole stream of `flip_dot_actions` up to the bgg bound, its
        actions and lengths at `masks(g)` against the element each mask
        names.  g = 0 yields the one empty action, g = 1 has an empty
        first half, and odd and even g split unevenly and evenly."""
        masks = self.masks(g)
        elements = {m: final_element(g, m) for m in masks}
        lengths = {m: w.length() for m, w in elements.items()}
        for lam in self.weights(g):
            count = 0
            for mask, got in enumerate(flip_dot_actions(lam)):
                count += 1
                if mask in masks:
                    assert got == (elements[mask].dot_action(lam), lengths[mask]), (lam, mask)
            assert count == 1 << g

    def test_images_text(self):
        # digits run together up to 2g = 8, comma-separated from g = 5 on
        assert images_text(0, ()) == "[]"
        assert images_text(4, (1, 2, 5, 6)) == "[1256]"
        assert images_text(5, (1, 2, 3, 6, 7)) == "[1,2,3,6,7]"
        assert str(W(4, 1, 2, 5, 6)) == "[1256]"

    @pytest.mark.parametrize("g", range(0, 15))
    def test_names_against_the_elements(self, g):
        """The half-table name of each mask against the element it names,
        not against a second formatter: str(final_element) by default and
        json.dumps of the images with JSON's separator, per mask and in the
        table; for odd and even half splits, the text separator change at
        g = 5 and every mask up to genus 14.  g = 0 is the restricted
        table of genus 1."""
        texts = [str(final_element(g, m)) for m in range(1 << g)]
        jsons = [json.dumps(list(flip_images(m, g))) for m in range(1 << g)]
        for sep, expected in ((None, texts), (", ", jsons)):
            assert list(map(flip_namer(g, sep), range(1 << g))) == expected
            assert flip_names(g, sep) == expected
