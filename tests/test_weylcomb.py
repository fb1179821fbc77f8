import itertools

import pytest

from siegeleis import weylcomb
from siegeleis.weylcomb import (
    SideMismatchError,
    WeylElement,
    enumerate_final,
    flip_dichotomy,
    flip_length,
    flip_mask,
    image_dichotomy,
    kostant_from_signs,
    restrict_final,
    restrict_flips,
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

    def test_second_half_reconstruction(self):
        w = W(2, 1, 3)
        assert [w.apply(i) for i in range(1, 5)] == [1, 3, 2, 4]

    def test_str(self):
        assert str(W(3, 1, 3, 5)) == "[135]"
        assert str(WeylElement(5, (1, 2, 3, 4, 5))) == "[1,2,3,4,5]"


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
        assert flip_mask(W(2, 1, 2)) == 0b00
        assert flip_mask(W(2, 1, 3)) == 0b10  # 3 = 2g+1-2
        assert flip_mask(W(3, 1, 4, 5)) == 0b110
        assert restrict_flips(0b1011, 2) == 0b101

    @pytest.mark.parametrize("g", range(1, 9))
    def test_inverse_of_kostant_from_signs(self, g):
        for mask in range(2 ** g):
            flips = {i + 1 for i in range(g) if mask >> i & 1}
            assert flip_mask(kostant_from_signs(g, flips)) == mask

    def test_differential_against_image_oracles(self):
        # every final w and every k up to g = 10: 18,432 pairs
        pairs = 0
        for g in range(2, 11):
            for w in enumerate_final(g):
                mask = flip_mask(w)
                assert flip_length(mask, g) == w.length()
                for k in range(1, g + 1):
                    side, pos = image_dichotomy(w, k)
                    assert flip_dichotomy(mask, g, k) == (side, pos)
                    u = restrict_final(w, k, side)
                    assert restrict_flips(mask, k) == flip_mask(u)
                    pairs += 1
        assert pairs == 18432

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            flip_dichotomy(0, 2, 0)
        with pytest.raises(ValueError):
            flip_dichotomy(0, 2, 3)
