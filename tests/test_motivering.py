import copy
import json
import pickle
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from siegeleis.motivering import (
    ONE,
    AmbiguousSplitError,
    Check,
    MotiveExpr,
    NotExpandableError,
    Symbol,
    UnsupportedProductError,
    VerificationReport,
    cusp_dim,
)

one = MotiveExpr.unit
L = MotiveExpr.lefschetz
S = MotiveExpr.cusp_motive
Ec = MotiveExpr.euler

CUSP_TABLE = {
    2: -1, 4: 0, 6: 0, 8: 0, 10: 0, 12: 1, 14: 0,
    16: 1, 18: 1, 20: 1, 22: 1, 24: 2, 26: 1,
}


class TestCuspDim:
    @pytest.mark.parametrize("k,expected", sorted(CUSP_TABLE.items()))
    def test_table(self, k, expected):
        assert cusp_dim(k) == expected

    def test_odd_and_small(self):
        assert cusp_dim(3) == 0
        assert cusp_dim(0) == 0
        assert cusp_dim(-4) == 0

    def test_large(self):
        assert cusp_dim(36) == 3
        assert cusp_dim(38) == 2  # 38 = 12*3 + 2


class TestSymbol:
    def test_validation(self):
        with pytest.raises(ValueError):
            Symbol("S", k=3)
        with pytest.raises(ValueError):
            Symbol("S", k=0)
        with pytest.raises(ValueError):
            Symbol("Ec", g=2, lam=(0, 1))
        with pytest.raises(ValueError):
            Symbol("nope")


class TestArith:
    def test_cancellation(self):
        x = Ec(2, (2, 0)) + L(3) * 5
        assert (x - x).is_zero()

    def test_l_multiplication(self):
        k = 7
        assert (one() - L(k + 1)) * L(1) == L(1) - L(k + 2)

    def test_distributivity(self):
        x = Ec(2, (2, 0)) * (one() - L(3))
        assert len(x.items()) == 2
        assert x.render() == "Ec(2;2,0) - Ec(2;2,0)*L^3"

    def test_symbol_product_rejected(self):
        with pytest.raises(UnsupportedProductError):
            S(12) * S(16)
        with pytest.raises(UnsupportedProductError):
            Ec(2, (2, 0)) * S(12)


class TestNormalize:
    def test_ec1_zero_weight(self):
        assert Ec(1, (0,)).normalize() == L(1)

    def test_ec1_odd_vanishes(self):
        assert Ec(1, (3,)).normalize().is_zero()

    def test_ec1_ten(self):
        assert Ec(1, (10,)).normalize() == -S(12) - one()

    def test_ec0_is_unit(self):
        assert Ec(0, ()).normalize() == one()

    def test_s2_rewrite(self):
        assert S(2).normalize() == -L(1) - one()

    def test_s_with_no_cusp_forms_vanishes(self):
        for k in (4, 6, 8, 10, 14):
            assert S(k).normalize().is_zero()

    def test_g2_symbol_left_alone(self):
        x = Ec(2, (4, 2))
        assert x.normalize() == x

    @pytest.mark.parametrize("k", range(0, 61, 2))
    def test_eichler_shimura_range(self, k):
        got = Ec(1, (k,)).normalize()
        expected = (-S(k + 2) - one()).normalize()
        assert got == expected
        has_s = any(sym.kind == "S" for (sym, _), _ in got.items())
        # S[2] itself is rewritten away by the -L-1 convention
        assert has_s == (k + 2 > 2 and cusp_dim(k + 2) != 0)

    def test_idempotent(self):
        exprs = [
            Ec(1, (0,)) * (one() - L(5)) + S(2) * L(2) - Ec(2, (3, 1)),
            S(12) * (one() - L(7)) + Ec(1, (12,)),
        ]
        for x in exprs:
            n = x.normalize()
            assert n.normalize() == n

    def test_restricted_mode_keeps_genus_one(self):
        x = Ec(1, (2,)) + Ec(1, (3,)) + Ec(0, ())
        n = x.normalize(expand_genus_one=False)
        assert n == Ec(1, (2,)) + one()


class TestDual:
    def test_unit(self):
        assert one().dual() == one()

    def test_monomial(self):
        k = 5
        assert (one() - L(k + 1)).dual() == one() - L(-(k + 1))

    def test_cusp_motive(self):
        assert S(12).dual() == S(12) * L(-11)

    def test_involution(self):
        x = one() * 3 - L(4) + S(12) * L(2) - S(16) * 2
        assert x.dual().dual() == x

    def test_not_expandable(self):
        with pytest.raises(NotExpandableError):
            Ec(2, (2, 0)).dual()


class TestWeightSplit:
    def test_straddle(self):
        k = 4
        low, high = (one() - L(k + 1)).motivic_weight_split(k + 1)
        assert low == one()
        assert high == -L(k + 1)

    def test_with_cusp_motive(self):
        x = S(14) * (one() - L(7))
        low, high = x.motivic_weight_split(16)
        assert low == S(14)
        assert high == -S(14) * L(7)

    def test_threshold_hit(self):
        with pytest.raises(AmbiguousSplitError):
            L(3).motivic_weight_split(6)

    def test_additive(self):
        x, y = one() - L(5), L(1) * 2
        lx, hx = x.motivic_weight_split(4)
        ly, hy = y.motivic_weight_split(4)
        lxy, hxy = (x + y).motivic_weight_split(4)
        assert (lxy, hxy) == (lx + ly, hx + hy)

    def test_symbolic_rejected(self):
        with pytest.raises(NotExpandableError):
            Ec(2, (2, 0)).motivic_weight_split(1)


class TestRender:
    def test_zero(self):
        assert MotiveExpr.zero().render() == "0"

    def test_polynomial(self):
        x = one() + L(1) - L(2) - L(3)
        assert x.render() == "1 + L - L^2 - L^3"

    def test_cusp_term(self):
        assert (-S(12) * L(2)).render() == "-S[12]*L^2"

    def test_coefficients(self):
        assert (L(14) * -2 + L(1)).render() == "L - 2*L^14"

    def test_json_roundtrip(self):
        exprs = [
            MotiveExpr.zero(),
            one() + L(1) - L(2) - L(3),
            S(12) * L(-4) - Ec(2, (2, 0)) * 3,
        ]
        for x in exprs:
            blob = x.render("json")
            assert MotiveExpr.from_obj(json.loads(blob)) == x

    def test_json_deterministic(self):
        x = S(12) * L(2) + one() - L(7)
        assert x.render("json") == x.render("json")


simple_exprs = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-5, 5)), max_size=6
).map(
    lambda pairs: sum(
        (MotiveExpr.lefschetz(e, c) for c, e in pairs), MotiveExpr.zero()
    )
)


class TestRingProperties:
    @given(simple_exprs, simple_exprs)
    def test_commutative_addition(self, x, y):
        assert x + y == y + x

    @given(simple_exprs)
    def test_negation(self, x):
        assert (x + (-x)).is_zero()

    @given(simple_exprs, simple_exprs)
    def test_dual_additive(self, x, y):
        assert (x + y).dual() == x.dual() + y.dual()


symbols = st.one_of(
    st.just(ONE),
    st.integers(1, 30).map(lambda h: Symbol("S", k=2 * h)),
    st.integers(0, 4).flatmap(
        lambda g: st.lists(st.integers(0, 30), min_size=g, max_size=g).map(
            lambda lam: Symbol("Ec", g=g, lam=tuple(sorted(lam, reverse=True)))
        )
    ),
)
exprs = st.lists(
    st.tuples(symbols, st.integers(-20, 20), st.integers(-50, 50)), max_size=8
).map(lambda terms: sum((MotiveExpr([((s, a), c)]) for s, a, c in terms), MotiveExpr()))


def old_sort_key(sym):
    """The term order before a Symbol was its own sort key."""
    return ({"one": 0, "S": 1, "Ec": 2}[sym.kind], sym.k, sym.g, sym.lam)


class TestSymbolTuple:
    @given(st.lists(symbols, max_size=12))
    def test_tuple_order_is_the_term_order(self, syms):
        assert sorted(syms) == sorted(syms, key=old_sort_key)

    @given(exprs)
    def test_items_in_the_old_order(self, x):
        keys = [key for key, _ in x.items()]
        assert keys == sorted(keys, key=lambda key: (old_sort_key(key[0]), key[1]))

    @given(symbols)
    def test_equal_to_its_plain_tuple(self, sym):
        plain = tuple(sym)
        assert sym == plain and hash(sym) == hash(plain)
        assert plain == (old_sort_key(sym)[0], sym.k, sym.g, sym.lam, sym.kind)

    @given(symbols)
    def test_copies_are_symbols(self, sym):
        for twin in (copy.copy(sym), copy.deepcopy(sym), pickle.loads(pickle.dumps(sym))):
            assert type(twin) is Symbol and twin == sym
            assert (twin.kind, twin.k, twin.g, twin.lam) == (sym.kind, sym.k, sym.g, sym.lam)

    def test_repr(self):
        assert repr(Symbol("Ec", g=2, lam=[3, 1])) == (
            "Symbol(kind='Ec', k=0, g=2, lam=(3, 1))"
        )
        assert repr(ONE) == "Symbol(kind='one', k=0, g=0, lam=())"


class TestJsonWriter:
    @given(exprs)
    @example(S(12) * L(-4) * 3 - Ec(3, (10, 4, 2)) * 17 + Ec(2, (2, 0)) * L(-1) + one() * -2)
    @example(MotiveExpr.zero())
    def test_matches_json_dumps_of_to_obj(self, x):
        assert x.render("json") == json.dumps(x.to_obj())

    def test_repr_after_a_failed_init(self):
        # pytest shows the locals of a failing test through repr
        x = MotiveExpr.__new__(MotiveExpr)
        with pytest.raises(TypeError):
            x.__init__({(ONE, 0): 1})
        assert repr(x) == "<MotiveExpr: not constructed>"
        assert repr(one() - L(2)) == "1 - L^2"


def with_cancellations(pairs):
    """The pairs with a negated copy of some of them appended, so that
    exact cancellations occur; draws (pairs, flags)."""
    return st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)).map(
        lambda flags: pairs + [(k, -c) for (k, c), f in zip(pairs, flags) if f]
    )


def counter_sum(pairs):
    """Reference for the summing constructors: add up, drop the zeros."""
    total = Counter()
    for key, c in pairs:
        total[key] += c
    return {key: c for key, c in total.items() if c}


term_pairs = st.lists(
    st.tuples(st.tuples(symbols, st.integers(-2, 2)), st.integers(-3, 3)), max_size=12
).flatmap(with_cancellations)


class TestSummingConstructor:
    @given(term_pairs)
    def test_matches_a_counter(self, pairs):
        expected = counter_sum(pairs)
        for arg in (pairs, iter(pairs)):
            assert dict(MotiveExpr(arg).items()) == expected
        assert MotiveExpr(expected.items()) == MotiveExpr(pairs)

    def test_a_dict_is_not_pairs(self):
        # its keys are (symbol, exponent) pairs, yet it must not be summed
        with pytest.raises(TypeError):
            MotiveExpr({(ONE, 0): 1, (Symbol("S", k=12), 2): -3})

    @pytest.mark.parametrize(
        "pairs",
        [
            [(ONE, 1)],  # a bare symbol, itself a tuple, as the key
            [((ONE,), 1)],  # a 1-tuple key
            [((ONE, 0), 1), ((ONE,), 2), ((ONE,), -2)],  # a bad key that cancels
        ],
        ids=["bare-symbol", "one-tuple", "cancelling"],
    )
    def test_a_key_that_is_not_a_pair_raises_at_construction(self, pairs):
        with pytest.raises(TypeError, match=r"is not a \(symbol, L-exponent\) pair"):
            MotiveExpr(pairs)

    @given(symbols)
    def test_equal_symbols_built_apart_hash_equal(self, sym):
        twin = Symbol(sym.kind, k=sym.k, g=sym.g, lam=list(sym.lam))
        assert twin == sym and twin is not sym
        assert hash(twin) == hash(sym)
        assert {(sym, 0): 1}[(twin, 0)] == 1
        assert type(twin.lam) is tuple

    @given(exprs)
    def test_normalize_reaches_a_fixed_point(self, x):
        n = x.normalize()
        assert n.normalize() == n
        for (sym, _), _ in n.items():
            assert not (sym.kind == "Ec" and (sym.g <= 1 or sum(sym.lam) % 2))
            assert not (sym.kind == "S" and (sym.k == 2 or cusp_dim(sym.k) == 0))


def fixed_point_normalize(x, expand_genus_one):
    """Reference for `normalize`: one rule step per symbol and pass,
    repeated until a pass changes nothing."""

    def step(sym):
        if sym.kind == "Ec":
            if sym.g == 0:
                return ((ONE, 0, 1),)
            if sum(sym.lam) % 2:
                return ()
            if expand_genus_one and sym.g == 1:
                return ((Symbol("S", k=sym.lam[0] + 2), 0, -1), (ONE, 0, -1))
        elif sym.kind == "S" and expand_genus_one:
            if sym.k == 2:
                return ((ONE, 1, -1), (ONE, 0, -1))
            if cusp_dim(sym.k) == 0:
                return ()
        return ((sym, 0, 1),)

    terms = dict(x.items())
    while True:
        out = dict(MotiveExpr(
            ((s, a + shift), sign * c)
            for (sym, a), c in terms.items()
            for s, shift, sign in step(sym)
        ).items())
        if out == terms:
            return MotiveExpr(out.items())
        terms = out


# every symbol a rule applies to, beside the general draws
rewritable = st.sampled_from([
    Symbol("Ec", g=0),
    Symbol("Ec", g=1, lam=(0,)),
    Symbol("Ec", g=1, lam=(2,)),
    Symbol("Ec", g=1, lam=(10,)),
    Symbol("Ec", g=1, lam=(12,)),
    Symbol("Ec", g=1, lam=(3,)),
    Symbol("Ec", g=2, lam=(3, 2)),
    Symbol("S", k=2),
    Symbol("S", k=4),
    Symbol("S", k=14),
])
rewrite_exprs = st.lists(
    st.tuples(st.tuples(st.one_of(rewritable, symbols), st.integers(-3, 3)),
              st.integers(-3, 3)),
    max_size=10,
).flatmap(with_cancellations).map(MotiveExpr)


class TestOnePassNormalize:
    @given(rewrite_exprs, st.booleans())
    def test_matches_the_fixed_point_loop(self, x, expand):
        assert x.normalize(expand) == fixed_point_normalize(x, expand)

    @pytest.mark.parametrize("expand", [False, True])
    def test_builds_one_expression(self, monkeypatch, expand):
        # Ec(1;(0)) -> -S[2] - 1 -> L takes the parent loop three passes
        x = Ec(1, (0,)) * (one() - L(3)) + Ec(0, ()) + S(2) + Ec(2, (3, 2))
        built = []
        real_init = MotiveExpr.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(MotiveExpr, "__init__", counting_init)
        x.normalize(expand)
        assert len(built) == 1


class TestFromObj:
    @given(exprs)
    def test_roundtrip(self, x):
        assert MotiveExpr.from_obj(x.to_obj()) == x
        assert MotiveExpr.from_obj(json.loads(x.render("json"))) == x

    @pytest.mark.parametrize(
        "obj",
        [
            # missing key
            [{"Lexp": 0, "symbol": {"type": "one"}}],
            [{"coeff": 1, "symbol": {"type": "one"}}],
            [{"coeff": 1, "Lexp": 0}],
            [{"coeff": 1, "Lexp": 0, "symbol": {}}],
            [{"coeff": 1, "Lexp": 0, "symbol": {"type": "S"}}],
            [{"coeff": 1, "Lexp": 0, "symbol": {"type": "Ec", "g": 1}}],
            # wrong type
            {"coeff": 1, "Lexp": 0, "symbol": {"type": "one"}},
            ["one"],
            [{"coeff": 1, "Lexp": 0, "symbol": "one"}],
            [{"coeff": 1, "Lexp": 0, "symbol": {"type": 1}}],
            [{"coeff": 1, "Lexp": 0, "symbol": {"type": "Ec", "g": 1, "lambda": 4}}],
            [{"coeff": 1, "Lexp": 0, "symbol": {"type": "Ec", "g": 1, "lambda": ["4"]}}],
            # non-int coeff or Lexp
            [{"coeff": "1", "Lexp": 0, "symbol": {"type": "one"}}],
            [{"coeff": 1.0, "Lexp": 0, "symbol": {"type": "one"}}],
            [{"coeff": True, "Lexp": 0, "symbol": {"type": "one"}}],
            [{"coeff": 1, "Lexp": None, "symbol": {"type": "one"}}],
            # unknown type
            [{"coeff": 1, "Lexp": 0, "symbol": {"type": "T"}}],
        ],
    )
    def test_malformed_record(self, obj):
        with pytest.raises(ValueError):
            MotiveExpr.from_obj(obj)


class TestVerificationReport:
    def test_pass_fail(self):
        r = VerificationReport()
        r.check("good", "fine", [1], lambda x: None)
        assert r.passed
        r.check("bad", "broken", [1], lambda x: f"x={x}")
        assert not r.passed
        assert len(r.failures()) == 1
        text = r.render()
        assert "PASS good" in text and "FAIL bad" in text
        assert "x=1" in text

    def test_json(self):
        r = VerificationReport()
        r.check("only", "", [1], lambda x: None)
        data = json.loads(r.render("json"))
        assert data == [
            {"name": "only", "status": "pass", "detail": "",
             "counterexample": None}
        ]


class TestCheck:
    def test_equality_ignores_the_cost(self):
        cheap = Check("c", False, "d", "x=1", cases=1, seconds=0.5)
        dear = Check("c", False, "d", "x=1", cases=9, seconds=2.0)
        assert cheap == dear and not cheap != dear and hash(cheap) == hash(dear)
        assert cheap != Check("c", False, "d", "x=2", cases=1, seconds=0.5)
        assert cheap != Check("c", True, "d", "x=1") and cheap != ("c", False, "d", "x=1")

    def test_defaults_and_repr(self):
        assert repr(Check("c", True)) == (
            "Check(name='c', passed=True, detail='', counterexample=None, cases=0, seconds=0.0)"
        )

    def test_assignment_raises(self):
        check = Check("c", True)
        for attr in ("passed", "cases", "other"):
            with pytest.raises(AttributeError):
                setattr(check, attr, False)
            with pytest.raises(AttributeError):
                delattr(check, attr)
        assert check.passed is True and check.cases == 0

    def test_a_report_from_checks(self):
        checks = [Check("a", True, "x"), Check("b", False, "y", "z=1")]
        report = VerificationReport(checks=checks)
        assert report.checks is checks and not report.passed
        assert report.failures() == checks[1:]
        assert report.render() == "PASS a: x\nFAIL b: y [counterexample: z=1]"
        assert VerificationReport().checks == [] and not VerificationReport().passed


class TestCheckRunner:
    @staticmethod
    def run_check(cases, **kwargs):
        seen = []

        def test(case):
            seen.append(case)
            return None if case % 3 else f"case={case}"

        r = VerificationReport()
        r.check("c", "some cases", cases, test, **kwargs)
        (check,) = r.checks
        return check, seen

    def test_first_counterexample_and_later_cases_skipped(self):
        check, seen = self.run_check(iter([1, 2, 3, 4, 5, 6]))
        assert (check.passed, check.detail, check.counterexample) == (
            False, "some cases", "case=3"
        )
        assert seen == [1, 2, 3]

    def test_pass(self):
        check, seen = self.run_check([1, 2, 4, 5])
        assert (check.passed, check.detail, check.counterexample) == (
            True, "some cases", None
        )
        assert seen == [1, 2, 4, 5]

    @pytest.mark.parametrize(
        "kwargs, cex", [({}, "no case ran"), ({"empty": "need more"}, "need more")]
    )
    def test_zero_cases_fail(self, kwargs, cex):
        check, seen = self.run_check(iter(()), **kwargs)
        assert (check.passed, check.detail, check.counterexample) == (
            False, "0 cases", cex
        )
        assert seen == []
        r = VerificationReport(checks=[check])
        assert r.render() == f"FAIL c: 0 cases [counterexample: {cex}]"

    def test_an_exception_in_the_test_is_a_counterexample(self):
        def test(case):
            if case == 2:
                raise ValueError("weight (0, 1) is not weakly decreasing")

        r = VerificationReport()
        r.check("c", "some cases", [1, 2, 3], test)
        (check,) = r.checks
        assert (check.passed, check.detail, check.cases) == (False, "some cases", 2)
        assert r.render() == (
            "FAIL c: some cases [counterexample: "
            "raised ValueError: weight (0, 1) is not weakly decreasing]"
        )

    @pytest.mark.parametrize("before", [0, 2])
    def test_an_exception_in_the_case_stream_is_a_counterexample(self, before):
        # also before the first case: the check ran none, but it did not
        # run out of cases, so it is not a "0 cases" failure
        def cases():
            yield from range(1, before + 1)
            raise AssertionError("stream broke")

        check, seen = self.run_check(cases())
        assert seen == list(range(1, before + 1))
        assert (check.passed, check.detail, check.counterexample, check.cases) == (
            False, "some cases", "raised AssertionError: stream broke", before
        )

    def test_an_exception_in_the_test_names_its_case(self):
        def test(case):
            if case == 2:
                raise ValueError("weight (0, 1) is not weakly decreasing")
            return f"x={case}" if case == 3 else None

        r = VerificationReport()
        r.check("c", "some cases", [1, 2, 3], test, where=lambda case: f"x={case}")
        r.check("d", "some cases", [1, 3], test, where=lambda case: f"x={case}")
        assert r.render() == (
            "FAIL c: some cases [counterexample: "
            "x=2: raised ValueError: weight (0, 1) is not weakly decreasing]\n"
            "FAIL d: some cases [counterexample: x=3]"
        )

    def test_an_exception_in_the_case_stream_names_no_case(self):
        def cases():
            yield 1
            raise AssertionError("stream broke")

        check, seen = self.run_check(cases(), where=lambda case: f"x={case}")
        assert (seen, check.counterexample, check.cases) == (
            [1], "raised AssertionError: stream broke", 1
        )

    def test_timings_add_the_cost_to_the_json_records(self):
        r = VerificationReport(checks=[Check("c", True, "d", None, 3, 0.123456)])
        base = {"name": "c", "status": "pass", "detail": "d", "counterexample": None}
        assert json.loads(r.render("json")) == [base]
        assert json.loads(r.render("json", timings=True)) == [
            {**base, "cases": 3, "seconds": 0.1235}
        ]
        assert r.render("text", timings=True) == r.render() == "PASS c: d"
