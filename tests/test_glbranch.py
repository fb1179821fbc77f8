import copy
import itertools
import pickle
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegeleis import glbranch, suites
from siegeleis.glbranch import (
    GlWeight,
    VirtualBundle,
    branch,
    dominant_entries,
    dominant_weights,
    is_dominant,
    straighten,
    telescope_bruteforce,
    telescope_closed,
    wedge_dual_tensor,
    wedge_dual_tensor_straightened,
)


def gw(*entries):
    return GlWeight(tuple(entries))


dominant_tuples = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.integers(-5, 5), min_size=n, max_size=n).map(
        lambda v: tuple(sorted(v, reverse=True))
    )
)


class TestDominanceAndDual:
    def test_is_dominant(self):
        assert is_dominant((3, 1, 0))
        assert not is_dominant((0, 1))
        assert is_dominant((2, 2, -5))
        assert is_dominant(())

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            GlWeight((0, 1))
        assert GlWeight(()).entries == ()

    @given(
        st.lists(st.integers(-3, 3), min_size=0, max_size=8),
        st.booleans(),
    )
    def test_is_dominant_matches_the_index_loop(self, v, as_tuple):
        v = tuple(v) if as_tuple else v
        assert is_dominant(v) == all(v[i] >= v[i + 1] for i in range(len(v) - 1))

    def test_slotted_weight_still_validates(self):
        with pytest.raises(ValueError, match="not weakly decreasing"):
            GlWeight((1, 2))
        assert not hasattr(GlWeight((2, 1)), "__dict__")

    @pytest.mark.parametrize("g", range(6))
    def test_dominant_entries_ascend(self, g):
        # the one enumerator against itertools: every range, negative ones,
        # lo = hi and lo > hi (g = 0 gives () once, whatever the range)
        for lo in range(-4, 3):
            for hi in range(lo - 2, 4):
                expected = sorted(
                    itertools.combinations_with_replacement(range(hi, lo - 1, -1), g)
                )
                got = dominant_entries(g, lo, hi)
                assert iter(got) is got  # a stream, not a list
                assert list(got) == expected, (g, lo, hi)
        assert list(dominant_entries(0, 5, -5)) == [()]
        assert list(dominant_entries(2, 5, -5)) == []

    def test_dominant_weights_is_the_same_stream(self):
        for g in range(5):
            weights = list(dominant_weights(g, -2, 3))
            assert [w.entries for w in weights] == list(dominant_entries(g, -2, 3))

    def test_weight_text(self):
        assert glbranch.weight_text((3, -1, -12)) == str(gw(3, -1, -12)) == "W(3,-1,-12)"
        assert glbranch.weight_text(()) == str(gw()) == "W()"
        assert glbranch.weight_text([0, 5]) == "W(0,5)"  # no dominance check

    def test_dual_examples(self):
        assert gw(0, 0).dual() == gw(0, 0)
        assert gw(5, -5).dual() == gw(5, -5)
        assert gw(8, 6).dual() == gw(-6, -8)

    @given(dominant_tuples)
    def test_dual_involution(self, entries):
        mu = GlWeight(entries)
        assert mu.dual().dual() == mu
        assert is_dominant(mu.dual().entries)


class TestBranch:
    def test_examples(self):
        assert {b.entries for b in branch(gw(2, 0))} == {(2,), (1,), (0,)}
        assert [b.entries for b in branch(gw(1, 1))] == [(1,)]
        assert {b.entries for b in branch(gw(1, 0, 0))} == {(1, 0), (0, 0)}

    @given(dominant_tuples)
    def test_count_and_interlacing(self, entries):
        mu = GlWeight(entries)
        a = mu.entries
        bs = branch(mu)
        expected = 1
        for i in range(len(a) - 1):
            expected *= a[i] - a[i + 1] + 1
        assert len(bs) == expected
        for b in bs:
            assert is_dominant(b.entries)
            for i in range(len(a) - 1):
                assert a[i] >= b.entries[i] >= a[i + 1]

    def test_lexicographic_order(self):
        bs = [b.entries for b in branch(gw(2, 0, 0))]
        assert bs == sorted(bs)


class TestStraighten:
    def test_dominant_fixed(self):
        assert straighten((3, 1, 0)) == (1, (3, 1, 0))

    def test_zero_on_repeat(self):
        assert straighten((0, 1)) is None

    def test_one_transposition(self):
        assert straighten((0, 2)) == (-1, (1, 1))

    def test_idempotent_on_weight_part(self):
        for v in [(0, 3, -2), (2, -1, 4, 0), (-3, 5)]:
            res = straighten(v)
            if res is not None:
                _, wt = res
                assert straighten(wt) == (1, wt)

    def test_adjacent_swap_flips_sign(self):
        # rho-shifted swap of adjacent coordinates negates the class
        for v in [(1, 4, 0), (0, 2), (5, -1, 3)]:
            n = len(v)
            for i in range(n - 1):
                swapped = list(v)
                # dot action of s_i: swap shifted coordinates, unshift
                a = swapped[i] + (n - 1 - i)
                b = swapped[i + 1] + (n - 2 - i)
                swapped[i] = b - (n - 1 - i)
                swapped[i + 1] = a - (n - 2 - i)
                r1, r2 = straighten(v), straighten(tuple(swapped))
                if r1 is None:
                    assert r2 is None
                else:
                    assert r2 == (-r1[0], r1[1])

    @settings(max_examples=500)
    @given(st.lists(st.integers(-6, 6), max_size=7))
    def test_sign_against_cycle_sort(self, v):
        # sign of the sorting permutation by its cycle decomposition
        n = len(v)
        shifted = [x + (n - 1 - i) for i, x in enumerate(v)]
        if len(set(shifted)) != n:
            assert straighten(v) is None
            return
        order = sorted(range(n), key=lambda i: -shifted[i])
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            cyc, j = 0, start
            while not seen[j]:
                seen[j] = True
                j = order[j]
                cyc += 1
            if cyc % 2 == 0:
                sign = -sign
        ordered = sorted(shifted, reverse=True)
        weight = tuple(x - (n - 1 - i) for i, x in enumerate(ordered))
        assert straighten(v) == (sign, weight)

    @settings(max_examples=500)
    @given(st.lists(st.integers(-8, 8), max_size=7), st.booleans())
    def test_matches_the_comprehension_form(self, v, as_tuple):
        # straighten as written with per-element generator expressions
        # before it moved to map/starmap
        def reference(v):
            n = len(v)
            shifted = [x + (n - 1 - i) for i, x in enumerate(v)]
            if len(set(shifted)) != n:
                return None
            ascents = sum(x < y for x, y in itertools.combinations(shifted, 2))
            sign = -1 if ascents & 1 else 1
            ordered = sorted(shifted, reverse=True)
            return sign, tuple(x - (n - 1 - i) for i, x in enumerate(ordered))

        v = tuple(v) if as_tuple else v
        got = straighten(v)
        assert got == reference(v)
        if got is not None:
            assert type(got[1]) is tuple and is_dominant(got[1])


class TestWedgeDualTensor:
    def test_k_zero(self):
        vb = wedge_dual_tensor(gw(2, 1), 0)
        assert vb == VirtualBundle(2, [((2, 1), 1)])

    def test_discard(self):
        vb = wedge_dual_tensor(gw(1, 1), 1)
        assert vb == VirtualBundle(2, [((1, 0), 1)])

    def test_both_dominant(self):
        vb = wedge_dual_tensor(gw(2, 1), 1)
        assert vb == VirtualBundle(2, [((1, 1), 1), ((2, 0), 1)])

    def test_routes_agree_sweep(self):
        # the deletion rule against the straightening oracle: every branch
        # the telescope gate feeds the oracle (n <= 4, entries in [-6,6]),
        # and n = 5 beyond it
        domains = [(n, 6) for n in range(5)] + [(5, 4)]
        for n, e in domains:
            for mu in dominant_weights(n, -e, e):
                for k in range(n + 1):
                    assert wedge_dual_tensor(mu, k) == wedge_dual_tensor_straightened(mu, k), (mu, k)

    def test_straightened_matches_the_comprehension_form(self):
        # the oracle as written with each shifted vector built entry by
        # entry by a membership test, beyond the gate at n = 5
        def by_comprehension(mu, k):
            shifted = (
                [x - (i in subset) for i, x in enumerate(mu.entries)]
                for subset in itertools.combinations(range(len(mu)), k)
            )
            return VirtualBundle(
                len(mu), ((wt, sign) for sign, wt in filter(None, map(straighten, shifted)))
            )

        for n, e in [(0, 0), (1, 5), (2, 5), (3, 5), (4, 4), (5, 3)]:
            for mu in dominant_weights(n, -e, e):
                for k in range(n + 1):
                    got = wedge_dual_tensor_straightened(mu, k)
                    assert got == by_comprehension(mu, k), (mu, k)

    def test_route_check_reports_a_wrong_oracle(self, monkeypatch):
        def wrong(mu, k, *, straightened=None):
            return VirtualBundle(len(mu))

        monkeypatch.setattr(glbranch, "wedge_dual_tensor_straightened", wrong)
        report = suites.verify_telescope(max_g=2, max_entry=2)
        (check,) = [c for c in report.checks if c.name == "wedge-dual-route"]
        assert not check.passed
        assert check.counterexample.startswith("mu=")


def _branch_first(a: tuple[int, ...]) -> VirtualBundle:
    """The telescope double sum in its first order: each branch b of a,
    then each k, then the deletion rule on b."""
    g = len(a)
    acc: dict[tuple[int, ...], int] = {}
    for b in itertools.product(*(range(a[i + 1], a[i] + 1) for i in range(g - 1))):
        for k in range(g):
            for v in glbranch._deletions(b, k):
                acc[v] = acc.get(v, 0) + (-1) ** k
    return VirtualBundle(g - 1, ((v, c) for v, c in acc.items() if c))


def _counted(a: GlWeight, keep_all=False, add_odd=False) -> VirtualBundle:
    """`telescope_bruteforce`'s box counting in its subtracting form (the
    odd tally subtracted from the even one key by key), which can drop its
    dominance filter (`keep_all`) or add the odd tally instead of
    subtracting it (`add_odd`)."""
    e = a.entries
    box = [range(e[i + 1], e[i] + 1) for i in range(len(e) - 1)]
    tallies = (Counter(), Counter())
    for k in range(len(e)):
        for subset in itertools.combinations(range(len(box)), k):
            shifted = [
                range(r.start - (i in subset), r.stop - (i in subset))
                for i, r in enumerate(box)
            ]
            tallies[k & 1].update(itertools.product(*shifted))
    even, odd = tallies
    (even.update if add_odd else even.subtract)(odd)
    kept = ((v, c) for v, c in even.items() if c and (keep_all or is_dominant(v)))
    return VirtualBundle(len(box), kept)


def _telescope_failures(monkeypatch, oracle) -> dict[str, str]:
    monkeypatch.setattr(glbranch, "telescope_bruteforce", oracle)
    return {c.name: c.counterexample for c in suites.verify_telescope().failures()}


class TestTelescope:
    def test_g1(self):
        assert telescope_closed(gw(7)) == VirtualBundle(0, [((), 1)])
        assert telescope_bruteforce(gw(7)) == telescope_closed(gw(7))

    def test_g2_shape(self):
        a, b = 4, 1
        assert telescope_closed(gw(a, b)) == VirtualBundle(
            1, [((a,), 1), ((b - 1,), -1)]
        )

    def test_g2_bruteforce_example(self):
        assert telescope_bruteforce(gw(2, 0)) == VirtualBundle(
            1, [((2,), 1), ((-1,), -1)]
        )

    def test_g3_shape(self):
        a, b, c = 3, 2, 0
        assert telescope_closed(gw(a, b, c)) == VirtualBundle(
            2,
            [
                ((a, b), 1),
                ((a, c - 1), -1),
                ((b - 1, c - 1), 1),
            ],
        )

    def test_g3_bruteforce_example(self):
        assert telescope_bruteforce(gw(1, 1, 0)) == VirtualBundle(
            2, [((1, 1), 1), ((1, -1), -1), ((0, -1), 1)]
        )

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_exhaustive_small(self, g):
        for a in dominant_weights(g, -3, 3):
            assert telescope_closed(a) == telescope_bruteforce(a)

    @pytest.mark.parametrize("g", [4, 5])
    def test_randomized(self, g):
        rng = random.Random(1000 + g)
        for _ in range(50):
            a = GlWeight(
                tuple(sorted((rng.randint(-6, 6) for _ in range(g)), reverse=True))
            )
            assert telescope_closed(a) == telescope_bruteforce(a)

    def test_g6_beyond_the_gate(self):
        rng = random.Random(6)
        for _ in range(30):
            a = GlWeight(
                tuple(sorted((rng.randint(-4, 4) for _ in range(6)), reverse=True))
            )
            assert telescope_closed(a) == telescope_bruteforce(a), a

    def test_bruteforce_does_not_straighten(self, monkeypatch):
        def refuse(v):
            raise AssertionError("straighten called from the telescope oracle")

        monkeypatch.setattr(glbranch, "straighten", refuse)
        for a in [gw(7), gw(2, 0), gw(1, 1, 0), gw(3, 1, -1, -2), gw(4, 2, 2, 0, -3)]:
            assert telescope_bruteforce(a) == telescope_closed(a)

    def test_bruteforce_builds_no_weight(self, monkeypatch):
        built = 0
        check = GlWeight.__init__

        def counted(self, entries):
            nonlocal built
            built += 1
            check(self, entries)

        a = gw(6, 3, 1, -2)
        monkeypatch.setattr(GlWeight, "__init__", counted)
        vb = telescope_bruteforce(a)
        monkeypatch.undo()
        assert vb == telescope_closed(a)
        assert built == 0
        assert len(vb.items()) == 4

    @given(
        st.integers(1, 6).flatmap(
            lambda g: st.lists(st.integers(-8, 8), min_size=g, max_size=g).map(
                lambda v: tuple(sorted(v, reverse=True))
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_bruteforce_matches_the_branch_first_order(self, entries):
        # beyond the gate (g <= 5, entries in [-6,6]): the exchanged sums
        # against the same double sum taken branch by branch
        assert telescope_bruteforce(GlWeight(entries)) == _branch_first(entries)

    def test_oracles_stay_independent(self, monkeypatch):
        cases = [gw(7), gw(2, 0), gw(1, 1, 0), gw(3, 1, -1, -2), gw(4, 2, 2, 0, -3)]
        expected = [telescope_closed(a) for a in cases]
        wedges = [(mu, k) for mu in (gw(2, 1, 1, -1), gw(3, 0, 0)) for k in range(len(mu) + 1)]
        wedge_expected = [wedge_dual_tensor(mu, k) for mu, k in wedges]

        def refuse(*args):
            raise AssertionError("an oracle called the route it checks")

        for name in ("telescope_closed", "telescope_surgery", "straighten", "_deletions"):
            monkeypatch.setattr(glbranch, name, refuse)
        assert [telescope_bruteforce(a) for a in cases] == expected
        monkeypatch.undo()
        monkeypatch.setattr(glbranch, "_deletions", refuse)
        assert [wedge_dual_tensor_straightened(mu, k) for mu, k in wedges] == wedge_expected

    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
    def test_the_counting_copy_is_the_oracle(self, g):
        rng = random.Random(g)
        for _ in range(20):
            a = GlWeight(tuple(sorted((rng.randint(-5, 5) for _ in range(g)), reverse=True)))
            assert _counted(a) == telescope_bruteforce(a), a

    def test_bruteforce_matches_the_subtracted_tallies(self):
        # `_counted` subtracts the odd tally from the even one key by key;
        # the oracle compares the tallies' items instead.  Every dominant a
        # with g <= 4 and entries in [-4, 4] (at g = 1 the one key, the
        # empty tuple, is in the even tally only), then seeded g = 5, 6
        cases = [a for g in range(1, 5) for a in dominant_weights(g, -4, 4)]
        rng = random.Random(56)
        cases += [
            GlWeight(tuple(sorted((rng.randint(-4, 4) for _ in range(g)), reverse=True)))
            for g in (5, 6) for _ in range(10)
        ]
        for a in cases:
            assert telescope_bruteforce(a) == _counted(a), a

    def test_the_counting_copy_passes_the_gate(self, monkeypatch):
        assert _telescope_failures(monkeypatch, _counted) == {}

    def test_dropped_dominance_filter_is_caught(self, monkeypatch):
        def keep_all(a):
            return _counted(a, keep_all=True)

        # the bundle refuses the first non-dominant term (from g = 3 on),
        # which fails the check that built it ...
        failed = _telescope_failures(monkeypatch, keep_all)
        assert list(failed) == ["telescope-exhaustive", "telescope-random"]
        for cex in failed.values():
            assert cex.startswith("raised ValueError: weight (")
            assert cex.endswith(") is not weakly decreasing")
        # ... and with that refusal lifted the comparison fails on its own
        monkeypatch.setattr(glbranch, "is_dominant", lambda v: True)
        failed = _telescope_failures(monkeypatch, keep_all)
        assert "telescope-exhaustive" in failed
        assert failed["telescope-exhaustive"].startswith("a=W(")

    def test_added_odd_tally_fails(self, monkeypatch):
        failed = _telescope_failures(monkeypatch, lambda a: _counted(a, add_odd=True))
        assert list(failed) == ["telescope-exhaustive", "telescope-random"]
        assert all(cex.startswith("a=W(") for cex in failed.values())

    def test_flipped_straighten_parity_fails_the_route_check(self, monkeypatch):
        def flipped(v):
            res = straighten(v)
            return res and (-res[0], res[1])

        monkeypatch.setattr(glbranch, "straighten", flipped)
        report = suites.verify_telescope()
        failed = {c.name: c.counterexample for c in report.failures()}
        assert list(failed) == ["wedge-dual-route"]
        assert failed["wedge-dual-route"].startswith("mu=W(")

    def test_telescope_random_fails_on_a_wrong_closed_form(self, monkeypatch):
        closed = glbranch.telescope_closed

        def negated_at_g5(a):
            vb = closed(a)
            return vb.scale(-1) if len(a) == 5 else vb

        monkeypatch.setattr(glbranch, "telescope_closed", negated_at_g5)
        report = suites.verify_telescope()
        failed = {c.name: c.counterexample for c in report.failures()}
        assert list(failed) == ["telescope-random"]
        assert failed["telescope-random"].startswith("a=W(")

    @given(dominant_tuples)
    @settings(max_examples=60)
    def test_closed_terms_dominant(self, entries):
        a = GlWeight(entries)
        vb = telescope_closed(a)
        assert len(list(vb.items())) <= len(entries)
        for wt, _ in vb.items():
            assert type(wt) is tuple and is_dominant(wt)


def exactly(message: str) -> str:
    """A `pytest.raises` match pattern for exactly this message."""
    return f"^{re.escape(message)}$"


LENGTH = exactly("weight length must equal the bundle genus")


class TestGlWeightTuple:
    @pytest.mark.parametrize(
        "entries, message",
        [
            ((1, 2), "weight (1, 2) is not weakly decreasing"),
            ([0, -1, 0], "weight (0, -1, 0) is not weakly decreasing"),
        ],
    )
    def test_error_message(self, entries, message):
        with pytest.raises(ValueError, match=exactly(message)):
            GlWeight(entries)
        with pytest.raises(ValueError, match=exactly(message)):
            GlWeight(entries=iter(entries))

    def test_repr(self):
        assert repr(gw(2, 1)) == "GlWeight(entries=(2, 1))"
        assert repr(gw()) == "GlWeight(entries=())"

    def test_entries_by_name_and_position(self):
        mu = GlWeight(entries=[2, 1])
        assert mu == GlWeight(iter([2, 1])) == gw(2, 1)
        assert mu.entries == (2, 1) and type(mu.entries) is tuple
        assert (len(mu), str(mu), mu.dual()) == (2, "W(2,1)", gw(-1, -2))

    def test_equal_to_its_plain_tuple(self):
        mu = gw(3, 1, -2)
        assert mu == (3, 1, -2) and hash(mu) == hash((3, 1, -2))
        assert sorted([gw(1, 0), gw(0, 0), gw(2, -1)]) == [(0, 0), (1, 0), (2, -1)]

    def test_assignment_raises(self):
        mu = gw(2, 1)
        for attr, value in (("entries", (3, 1)), ("other", 1)):
            with pytest.raises(AttributeError):
                setattr(mu, attr, value)
        assert not hasattr(mu, "__dict__") and mu == (2, 1)

    def test_copies_are_weights(self):
        mu = gw(4, 2, 2, -1)
        for twin in (copy.copy(mu), copy.deepcopy(mu), pickle.loads(pickle.dumps(mu))):
            assert type(twin) is GlWeight and twin == mu and str(twin) == "W(4,2,2,-1)"

    def test_a_weight_key_still_refused(self):
        # equal to its entry tuple and hashed as it, a GlWeight key is
        # still not an entry tuple
        with pytest.raises(
            TypeError, match=exactly("weight key GlWeight(entries=(2, 1)) is not an entry tuple")
        ):
            VirtualBundle(2, [(gw(2, 1), 1)])
        with pytest.raises(TypeError, match="GlWeight"):  # after an equal tuple key
            VirtualBundle(2, [((2, 1), 1), (gw(2, 1), 1)])
        assert VirtualBundle(2, [(gw(2, 1).entries, 1)]) == VirtualBundle(2, [((2, 1), 1)])


class TestVirtualBundle:
    # a bad key raises its message even when its coefficients cancel
    def test_genus_mismatch(self):
        with pytest.raises(ValueError, match=LENGTH):
            VirtualBundle(2, [((1,), 1)])
        with pytest.raises(ValueError, match=LENGTH):
            VirtualBundle(2, [((1,), 1), ((1,), -1)])

    def test_render(self):
        vb = VirtualBundle(1, [((2,), 1), ((-1,), -2)])
        assert str(vb) == "-2*W(-1) + W(2)"
        assert str(VirtualBundle(2)) == "0"
        vb = VirtualBundle(2, [((3, -1), 1), ((0, 0), 3), ((2, 2), -1)])
        assert str(vb) == "3*W(0,0) - W(2,2) + W(3,-1)"

    @given(
        st.integers(0, 3).flatmap(
            lambda g: st.tuples(st.just(g), st.lists(st.tuples(
                st.lists(st.integers(-2, 2), min_size=g, max_size=g).map(
                    lambda v: tuple(sorted(v, reverse=True))
                ),
                st.integers(-3, 3),
            ), max_size=12))
        ),
        st.lists(st.booleans(), max_size=12),
    )
    def test_summing_constructor_matches_a_counter(self, drawn, flags):
        g, pairs = drawn
        # a negated copy of some pairs, so that exact cancellations occur
        pairs = pairs + [(wt, -c) for (wt, c), f in zip(pairs, flags) if f]
        total = Counter()
        for wt, c in pairs:
            total[wt] += c
        expected = {wt: c for wt, c in total.items() if c}
        for arg in (pairs, iter(pairs)):
            assert dict(VirtualBundle(g, arg).items()) == expected
        assert VirtualBundle(g, total.items()) == VirtualBundle(g, pairs)

    def test_a_dict_is_not_pairs(self):
        mapping = exactly("VirtualBundle takes (entries, coeff) pairs, not a mapping")
        with pytest.raises(TypeError, match=mapping):
            VirtualBundle(1, {(2,): 1, (-1,): -2})
        with pytest.raises(TypeError, match=mapping):
            VirtualBundle(2, {(2, 1): 1})
        with pytest.raises(TypeError, match=mapping):
            VirtualBundle(1, {gw(2): 1, gw(-1): -2})

    def test_a_weight_key_is_not_an_entry_tuple(self):
        not_entries = exactly("weight key GlWeight(entries=(2,)) is not an entry tuple")
        with pytest.raises(TypeError, match=not_entries):
            VirtualBundle(1, [(gw(2), 1)])
        with pytest.raises(TypeError):  # a list is not even hashable
            VirtualBundle(2, [((2, 1), 1), ([1, 0], 1)])
        with pytest.raises(TypeError, match=not_entries):
            VirtualBundle(1, [(gw(2), 1), (gw(2), -1)])

    def test_repr_after_a_failed_init(self):
        # pytest shows the locals of a failing test through repr
        vb = VirtualBundle.__new__(VirtualBundle)
        with pytest.raises(ValueError):
            vb.__init__(2, [((0, 1), 1)])
        assert repr(vb) == "<VirtualBundle: not constructed>"
        assert repr(VirtualBundle(2, [((1, 0), -2)])) == "-2*W(1,0)"

    def test_wrong_length_key(self):
        with pytest.raises(ValueError, match=LENGTH):
            VirtualBundle(3, [((2, 1), 1)])
        with pytest.raises(ValueError, match=LENGTH):
            VirtualBundle(0, [((2, 1), 1), ((2, 1), -1)])

    def test_non_dominant_key(self):
        with pytest.raises(ValueError, match=exactly("weight (0, 1) is not weakly decreasing")):
            VirtualBundle(2, [((0, 1), 1)])
        # checked before the zero sums are dropped
        with pytest.raises(ValueError, match=exactly("weight (0, 1) is not weakly decreasing")):
            VirtualBundle(2, [((2, 2), 1), ((0, 1), 1), ((0, 1), -1)])
        with pytest.raises(ValueError, match=exactly("weight (0, 0, 1) is not weakly decreasing")):
            VirtualBundle(3, [((1, 0, 0), 5), ((0, 0, 1), 0)])

    def test_keys_are_the_sorted_entry_tuples(self):
        vb = VirtualBundle(2, [((1, -1), 2), ((3, 0), -1), ((1, -1), -2), ((0, 0), 4)])
        assert vb.items() == [((0, 0), 4), ((3, 0), -1)]
        assert vb.scale(-2).items() == [((0, 0), -8), ((3, 0), 2)]
        assert vb.scale(0).is_zero()


def _seeded_weights(seed, n, count, e):
    rng = random.Random(seed)
    return [
        GlWeight(tuple(sorted((rng.randint(-e, e) for _ in range(n)), reverse=True)))
        for _ in range(count)
    ]


def _counted_straighten(monkeypatch) -> list:
    """A list that gains one entry per `glbranch.straighten` call."""
    calls = []

    def counting(v):
        calls.append(1)
        return straighten(v)

    monkeypatch.setattr(glbranch, "straighten", counting)
    return calls


class TestStraightenedOnce:
    # the number of distinct vectors mu - e_S that `wedge-dual-route`
    # straightens at the default suite sizes; one call per case and subset,
    # without the shared dict, would be 33,151
    DEFAULT_DISTINCT = 5140

    def test_shared_dict_agrees_with_a_fresh_one_and_the_deletion_rule(self):
        mus = [mu for n in range(6) for mu in dominant_weights(n, -6, 6)]
        mus += _seeded_weights(606, 6, 120, 6)
        shared: dict = {}
        for mu in mus:
            for k in range(len(mu) + 1):
                got = wedge_dual_tensor_straightened(mu, k, straightened=shared)
                assert got == wedge_dual_tensor_straightened(mu, k), (mu, k)
                assert got == wedge_dual_tensor(mu, k), (mu, k)
        # every stored result is the vector's own straightening
        assert all(straighten(v) == res for v, res in shared.items())

    def test_a_miss_straightens_by_module_attribute(self, monkeypatch):
        calls = _counted_straighten(monkeypatch)
        shared: dict = {}
        mu = gw(3, 1, 1, 0)
        first = wedge_dual_tensor_straightened(mu, 2, straightened=shared)
        assert len(calls) == 6 == len(shared)  # the six 2-subsets of 4 positions
        assert wedge_dual_tensor_straightened(mu, 2, straightened=shared) == first
        assert len(calls) == 6  # every vector was a hit
        wedge_dual_tensor_straightened(mu, 2)
        assert len(calls) == 12  # no dict passed: a fresh one

    def test_the_gate_straightens_each_distinct_vector_once_per_run(self, monkeypatch):
        calls = _counted_straighten(monkeypatch)
        for _ in range(2):  # the second run shares nothing with the first
            calls.clear()
            assert suites.verify_telescope().passed
            assert len(calls) == self.DEFAULT_DISTINCT

    def test_a_wrong_straighten_after_a_clean_run_fails(self, monkeypatch):
        assert suites.verify_telescope().passed

        def flipped(v):
            res = straighten(v)
            return res and (-res[0], res[1])

        monkeypatch.setattr(glbranch, "straighten", flipped)
        failed = {c.name: c.counterexample for c in suites.verify_telescope().failures()}
        assert list(failed) == ["wedge-dual-route"]
        assert failed["wedge-dual-route"].startswith("mu=W(")


class TestUncheckedProducers:
    """The producers build through `VirtualBundle._of`, which checks no key;
    every bundle they build must still hold only dominant entry tuples of
    the bundle's genus with nonzero integer coefficients."""

    @staticmethod
    def _recorded(monkeypatch) -> list:
        built = []
        real_of = VirtualBundle._of

        def recording(cls, genus, terms):
            vb = real_of(genus, terms)
            built.append(vb)
            return vb

        monkeypatch.setattr(VirtualBundle, "_of", classmethod(recording))
        return built

    @staticmethod
    def _assert_valid(built):
        assert built
        for vb in built:
            for key, c in vb.items():
                assert type(key) is tuple and len(key) == vb.genus, (vb.genus, key)
                assert is_dominant(key), key
                assert type(c) is int and c, (key, c)

    def test_on_the_gate_cases(self, monkeypatch):
        built = self._recorded(monkeypatch)
        assert suites.verify_telescope().passed
        assert suites.verify_partition_suite().passed  # telescope_closed and scale
        self._assert_valid(built)

    def test_beyond_the_gate(self, monkeypatch):
        built = self._recorded(monkeypatch)
        mus = list(dominant_weights(5, -4, 4)) + _seeded_weights(56, 6, 60, 6)
        for mu in mus:
            for k in range(len(mu) + 1):
                wedge_dual_tensor(mu, k)
                wedge_dual_tensor_straightened(mu, k)
            telescope_closed(mu).scale(-1)
            telescope_bruteforce(mu)
        self._assert_valid(built)
        # n + 1 bundles from each route, then closed, scaled and brute force
        assert len(built) == sum(2 * (len(mu) + 1) + 3 for mu in mus)
