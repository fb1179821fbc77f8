"""Expression ring for motivic Euler characteristics.

Expressions are finite integer-linear combinations of L^a * sigma where
sigma is one of: the unit, the cusp-form motive S[k], or the recursion
symbol Ec(g; lambda).  Laurent exponents are allowed (duals produce
them); all arithmetic is exact.
"""

from __future__ import annotations

import itertools
import operator
import time
from typing import Callable, Iterable, Sequence

from .glbranch import is_dominant


class UnsupportedProductError(ValueError):
    """Products of two non-monomial symbols are not defined here."""


class NotExpandableError(ValueError):
    """Raised when a symbolic Ec(g>=2) blocks an operation."""


class AmbiguousSplitError(ValueError):
    """A monomial sits exactly on the weight-split threshold."""


def cusp_dim(k: int) -> int:
    """dim S_k for SL(2,Z), with the convention s_2 = -1."""
    if k < 2 or k % 2:
        return 0
    if k == 2:
        return -1
    return k // 12 - 1 if k % 12 == 2 else k // 12


_KIND_RANK = {"one": 0, "S": 1, "Ec": 2}


class Symbol(tuple):
    """The unit, a cusp-form motive S[k], or an Euler-characteristic
    symbol Ec(g; lambda).

    A Symbol is the tuple (kind rank, k, g, lambda, kind).  Its first four
    entries are the term order, so tuple order is the order in which
    terms print, and hashing and equality are tuple operations.  A Symbol
    compares equal to, and hashes as, its plain tuple.
    """

    __slots__ = ()

    def __new__(cls, kind: str, k: int = 0, g: int = 0, lam: Sequence[int] = ()):
        lam = tuple(lam)
        if kind == "S":
            if k < 2 or k % 2:
                raise ValueError("S[k] needs even k >= 2")
        elif kind == "Ec":
            if g < 0 or len(lam) != g:
                raise ValueError("Ec needs a length-g weight")
            if not is_dominant(lam):
                raise ValueError("Ec weight must be weakly decreasing")
            if lam and lam[-1] < 0:
                raise ValueError("Ec weight must be nonnegative")
        elif kind != "one":
            raise ValueError(f"unknown symbol kind {kind!r}")
        return tuple.__new__(cls, (_KIND_RANK[kind], k, g, lam, kind))

    k = property(operator.itemgetter(1))
    g = property(operator.itemgetter(2))
    lam = property(operator.itemgetter(3))
    kind = property(operator.itemgetter(4))

    def __getnewargs__(self):
        # copy and pickle rebuild a Symbol through __new__
        return self.kind, self.k, self.g, self.lam

    def __repr__(self):
        return f"Symbol(kind={self.kind!r}, k={self.k!r}, g={self.g!r}, lam={self.lam!r})"

    def __str__(self):
        if self.kind == "one":
            return "1"
        if self.kind == "S":
            return f"S[{self.k}]"
        return f"Ec({self.g};{','.join(str(a) for a in self.lam)})"


ONE = Symbol("one")


def _term_str(sym: Symbol, lexp: int, coeff: int) -> str:
    parts = []
    if sym.kind != "one":
        parts.append(str(sym))
    if lexp == 1:
        parts.append("L")
    elif lexp != 0:
        parts.append(f"L^{lexp}")
    body = "*".join(parts) if parts else "1"
    if abs(coeff) != 1 or not parts:
        body = f"{abs(coeff)}*{body}" if parts else str(abs(coeff))
    return body


class MotiveExpr:
    """Finite map (symbol, L-exponent) -> nonzero integer coefficient."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple] = ()):
        """From ((symbol, L-exponent), coeff) pairs; repeated keys are
        summed and zero sums dropped.  A dict is not pairs, and every
        distinct key must be a pair, even one whose coefficients cancel:
        TypeError."""
        if isinstance(terms, dict):
            raise TypeError(
                "MotiveExpr takes ((symbol, L-exponent), coeff) pairs, not a mapping"
            )
        acc: dict[tuple[Symbol, int], int] = {}
        for key, c in terms:
            acc[key] = acc.get(key, 0) + c
        if not {2}.issuperset(map(len, acc)):  # a check in C of the key lengths
            bad = next(key for key in acc if len(key) != 2)
            raise TypeError(f"term key {bad!r} is not a (symbol, L-exponent) pair")
        if 0 in acc.values():  # a scan in C: most sums drop nothing
            acc = {k: c for k, c in acc.items() if c}
        self._terms = acc

    # -- constructors ------------------------------------------------
    @staticmethod
    def zero() -> "MotiveExpr":
        return MotiveExpr()

    @staticmethod
    def unit(coeff: int = 1) -> "MotiveExpr":
        return MotiveExpr([((ONE, 0), coeff)])

    @staticmethod
    def lefschetz(exp: int = 1, coeff: int = 1) -> "MotiveExpr":
        return MotiveExpr([((ONE, exp), coeff)])

    @staticmethod
    def cusp_motive(k: int) -> "MotiveExpr":
        return MotiveExpr([((Symbol("S", k=k), 0), 1)])

    @staticmethod
    def euler(g: int, lam: Sequence[int]) -> "MotiveExpr":
        return MotiveExpr([((Symbol("Ec", g=g, lam=tuple(lam)), 0), 1)])

    # -- ring structure ----------------------------------------------
    def items(self):
        """The ((symbol, L-exponent), coeff) pairs in term order: by symbol,
        then exponent, which is the order of the tuple keys themselves."""
        return sorted(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def is_l_polynomial(self) -> bool:
        return all(sym.kind == "one" for sym, _ in self._terms)

    def __eq__(self, other):
        return isinstance(other, MotiveExpr) and self._terms == other._terms

    def __add__(self, other: "MotiveExpr") -> "MotiveExpr":
        return MotiveExpr(itertools.chain(self._terms.items(), other._terms.items()))

    def __neg__(self):
        return MotiveExpr((k, -c) for k, c in self._terms.items())

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return MotiveExpr((k, other * c) for k, c in self._terms.items())
        if not isinstance(other, MotiveExpr):
            return NotImplemented
        if other.is_l_polynomial():
            mono, general = other, self
        elif self.is_l_polynomial():
            mono, general = self, other
        else:
            raise UnsupportedProductError(
                "can only multiply by integer polynomials in L"
            )
        return MotiveExpr(
            ((sym, a + b), c * d)
            for (sym, a), c in general._terms.items()
            for (_, b), d in mono._terms.items()
        )

    __rmul__ = __mul__

    # -- rewrite rules -----------------------------------------------
    def normalize(self, expand_genus_one: bool = True) -> "MotiveExpr":
        """The normal form: every symbol replaced by its `_rewrite`.

        Always: Ec(0;()) -> 1 and Ec(g; lambda) -> 0 for odd |lambda|.
        With expand_genus_one (the default): Ec(1;(k)) -> -S[k+2] - 1,
        S[2] -> -L - 1, and S[k] -> 0 whenever dim S_k = 0.
        """
        # one rewrite per distinct symbol, so the terms carrying Ec(1;(k))
        # share one S[k+2]
        symbols = {sym for sym, _ in self._terms}
        rules = {sym: _rewrite(sym, expand_genus_one) for sym in symbols}
        return MotiveExpr(
            ((s, a + shift), sign * c)
            for (sym, a), c in self._terms.items()
            for s, shift, sign in rules[sym]
        )

    def dual(self) -> "MotiveExpr":
        """Poincare dual on the monomial level: L^a -> L^-a and
        S[k]*L^a -> S[k]*L^(1-k-a)."""
        return MotiveExpr((_dual_key(*key), c) for key, c in self._terms.items())

    def motivic_weight_split(self, threshold: int):
        """Partition terms by motivic weight (2a for L^a, 2a+k-1 for
        S[k]*L^a) strictly below / above the threshold."""
        low, high = [], []
        for (sym, a), c in self._terms.items():
            if sym.kind == "one":
                w = 2 * a
            elif sym.kind == "S":
                w = 2 * a + sym.k - 1
            else:
                raise NotExpandableError(
                    f"cannot weight-split symbolic term {sym}"
                )
            if w == threshold:
                raise AmbiguousSplitError(
                    f"term {_term_str(sym, a, c)} has weight exactly {threshold}"
                )
            (low if w < threshold else high).append(((sym, a), c))
        return MotiveExpr(low), MotiveExpr(high)

    # -- rendering ----------------------------------------------------
    def render(self, format: str = "text") -> str:
        if format == "json":
            # the bytes json.dumps(self.to_obj()) gives
            return "[" + ", ".join(map(_term_json, self.items())) + "]"
        if format != "text":
            raise ValueError(f"unknown format {format!r}")
        if self.is_zero():
            return "0"
        parts = []
        for (sym, a), c in self.items():
            body = _term_str(sym, a, c)
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def __str__(self):
        return self.render()

    def __repr__(self):
        if not hasattr(self, "_terms"):  # __init__ raised
            return f"<{type(self).__name__}: not constructed>"
        return self.render()

    def to_obj(self) -> list[dict]:
        """The terms as JSON-ready records; `render("json")` writes the
        same records directly."""
        out = []
        for (sym, a), c in self.items():
            rec: dict = {"coeff": c, "Lexp": a}
            if sym.kind == "one":
                rec["symbol"] = {"type": "one"}
            elif sym.kind == "S":
                rec["symbol"] = {"type": "S", "k": sym.k}
            else:
                rec["symbol"] = {"type": "Ec", "g": sym.g, "lambda": list(sym.lam)}
            out.append(rec)
        return out

    @staticmethod
    def from_obj(obj: list[dict]) -> "MotiveExpr":
        """Inverse of `to_obj`; a record off that schema raises ValueError."""
        if not isinstance(obj, list):
            raise ValueError(f"expected a list of records, got {obj!r}")
        return MotiveExpr(
            ((_record_symbol(rec), _field(rec, "Lexp", int)), _field(rec, "coeff", int))
            for rec in obj
        )


def _term_json(item) -> str:
    """One `to_obj` record as the bytes json.dumps gives for it: ints and
    the fixed keys need no escaping, and a list of ints prints as JSON."""
    (sym, a), c = item
    kind = sym.kind
    if kind == "one":
        body = '{"type": "one"}'
    elif kind == "S":
        body = f'{{"type": "S", "k": {sym.k}}}'
    else:
        body = f'{{"type": "Ec", "g": {sym.g}, "lambda": {str(list(sym.lam))}}}'
    return f'{{"coeff": {c}, "Lexp": {a}, "symbol": {body}}}'


def _rewrite(sym: Symbol, expand_genus_one: bool):
    """The normal form of sym, as (symbol, L-shift, sign) triples whose
    symbols no rule applies to; sym itself when it is already normal."""
    kind = sym.kind
    if kind == "Ec":
        if sym.g == 0:
            return ((ONE, 0, 1),)
        if sum(sym.lam) % 2:
            return ()
        if expand_genus_one and sym.g == 1:
            # Eichler-Shimura, Ec(1;(k)) -> -S[k+2] - 1, with S[k+2] taken
            # to its own normal form: -(-L - 1) - 1 = L for k = 0
            k = sym.lam[0]
            if k == 0:
                return ((ONE, 1, 1),)
            if cusp_dim(k + 2) == 0:
                return ((ONE, 0, -1),)
            return ((Symbol("S", k=k + 2), 0, -1), (ONE, 0, -1))
    elif kind == "S" and expand_genus_one:
        if sym.k == 2:
            return ((ONE, 1, -1), (ONE, 0, -1))
        if cusp_dim(sym.k) == 0:
            return ()
    return ((sym, 0, 1),)


def _dual_key(sym: Symbol, a: int) -> tuple[Symbol, int]:
    if sym.kind == "one":
        return sym, -a
    if sym.kind == "S":
        return sym, 1 - sym.k - a
    raise NotExpandableError(f"cannot dualize symbolic term {sym}")


def _record_symbol(rec) -> Symbol:
    """The symbol of one `to_obj` record; off the schema raises ValueError."""
    s = _field(rec, "symbol", dict)
    kind = _field(s, "type", str)
    if kind == "one":
        return ONE
    if kind == "S":
        return Symbol("S", k=_field(s, "k", int))
    if kind == "Ec":
        lam = _field(s, "lambda", list)
        if any(type(a) is not int for a in lam):
            raise ValueError(f"'lambda' must hold integers, got {lam!r}")
        return Symbol("Ec", g=_field(s, "g", int), lam=tuple(lam))
    raise ValueError(f"unknown symbol type {kind!r}")


def _field(rec, key: str, kind: type):
    """rec[key] if rec is a dict holding a value of exactly that type."""
    if not isinstance(rec, dict) or key not in rec:
        raise ValueError(f"record {rec!r} has no {key!r}")
    if type(rec[key]) is not kind:
        raise ValueError(f"{key!r} must be {kind.__name__}, got {rec[key]!r}")
    return rec[key]


class Check:
    """One check's result: its name, whether it passed, what it covered
    and its counterexample.  `cases` and `seconds` are what the check
    cost, not what it found: the cases it ran (up to and including a
    counterexample) and its wall time in seconds.  Two checks are equal,
    and hash alike, when their results are, whatever they cost.
    Assigning to or deleting any attribute raises AttributeError."""

    __slots__ = ("name", "passed", "detail", "counterexample", "cases", "seconds")

    def __init__(self, name: str, passed: bool, detail: str = "",
                 counterexample: str | None = None, cases: int = 0, seconds: float = 0.0):
        values = (name, passed, detail, counterexample, cases, seconds)
        for attr, value in zip(self.__slots__, values):
            object.__setattr__(self, attr, value)

    def __setattr__(self, attr, value):
        raise AttributeError(f"cannot assign to field {attr!r}")

    def __delattr__(self, attr):
        raise AttributeError(f"cannot delete field {attr!r}")

    def _result(self):
        return self.name, self.passed, self.detail, self.counterexample

    def __eq__(self, other):
        if not isinstance(other, Check):
            return NotImplemented
        return self._result() == other._result()

    def __hash__(self):
        return hash(self._result())

    def __repr__(self):
        return (
            f"Check(name={self.name!r}, passed={self.passed!r}, detail={self.detail!r}, "
            f"counterexample={self.counterexample!r}, cases={self.cases!r}, "
            f"seconds={self.seconds!r})"
        )


class VerificationReport:
    """Pass/fail record for a batch of identity checks; `check` is the
    only way a check enters it.  A report is a list of checks, which
    `checks` holds and `VerificationReport(checks=...)` may start with;
    two reports are equal only when they are the same report."""

    __slots__ = ("checks",)

    def __init__(self, checks: list[Check] | None = None):
        self.checks = [] if checks is None else checks

    def check(self, name, detail, cases, test, empty="no case ran",
              where: Callable[[object], str] | None = None):
        """Record one check: `test(case)` is None when the case holds, else
        a counterexample string.  The check fails at the first
        counterexample, running no later case; an exception raised by the
        case stream or by `test` is a counterexample too, "raised
        <type>: <message>", so a broken engine fails the check that met
        it.  `where(case)`, when given, names the case an exception from
        `test` was raised on, as the test's own counterexamples begin:
        "<where>: raised <type>: <message>".  A check that ran no case and
        raised nothing fails with detail "0 cases" and counterexample
        `empty`.  The record carries the number of cases run and the time
        taken."""
        start = time.perf_counter()
        ran, cex = 0, None
        try:
            for case in cases:
                ran += 1
                try:
                    cex = test(case)
                except Exception as exc:
                    cex = _raised(exc)
                    if where is not None:
                        cex = f"{where(case)}: {cex}"
                if cex is not None:
                    break
        except Exception as exc:
            # from the case stream (or `where`): no case to name
            cex = _raised(exc)
        passed = ran > 0 and cex is None
        if cex is None and not ran:
            detail, cex = "0 cases", empty
        self.checks.append(
            Check(name, passed, detail, cex, ran, time.perf_counter() - start)
        )

    def extend(self, other: "VerificationReport"):
        self.checks.extend(other.checks)

    @property
    def passed(self) -> bool:
        return bool(self.checks) and all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def render(self, format: str = "text", timings: bool = False) -> str:
        """One line per check, or in JSON one record per check; with
        `timings`, each JSON record also holds the check's `cases` and its
        `seconds` to four places, as the CLI's stderr time lines give
        them.  Text output has no cost fields."""
        if format == "json":
            import json  # only JSON output needs it

            return json.dumps(
                [
                    {
                        "name": c.name,
                        "status": "pass" if c.passed else "fail",
                        "detail": c.detail,
                        "counterexample": c.counterexample,
                        **({"cases": c.cases, "seconds": round(c.seconds, 4)} if timings else {}),
                    }
                    for c in self.checks
                ]
            )
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"{status} {c.name}"
            if c.detail:
                line += f": {c.detail}"
            if c.counterexample and not c.passed:
                line += f" [counterexample: {c.counterexample}]"
            lines.append(line)
        return "\n".join(lines)


def _raised(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {exc}"
