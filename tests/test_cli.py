import ast
import cProfile
import gc
import hashlib
import itertools
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter

import pytest

from siegeleis import cli, eiscalc, suites, weylcomb
from siegeleis.cli import _render_bgg, _render_boundary, _stream, main, run
from siegeleis.glbranch import telescope_surgery
from siegeleis.motivering import MotiveExpr, VerificationReport


def _assert_same(got: str, expected: str):
    """String equality that reports only the first difference: pytest's
    own diff of two long one-line strings runs for minutes."""
    if got != expected:
        i = len(os.path.commonprefix([got, expected]))
        pytest.fail(f"differ at {i}: {got[i:i + 60]!r} != {expected[i:i + 60]!r}")


# Bad inputs and the stderr recorded for them before validation moved
# from the CLI into eiscalc
BAD_INPUT = [
    ("rank1 -g 2 -l 1,x", "error: --lambda: could not parse '1,x' as integers\n"),
    (
        "rank1 -g 2 -l 1,2",
        "error: --lambda: '1,2' is not weakly decreasing and nonnegative\n",
    ),
    ("rank1 -g 3 -l 2,0", "error: --lambda: expected 3 entries, got 2\n"),
    ("total -l 2 -m 1", "error: -l/-m: need l = m (mod 2), got l=2, m=1\n"),
    ("total -l 1 -m 3", "error: -l/-m: need l >= m >= 0, got l=1, m=3\n"),
    (
        "kernel -l 4 -m 0",
        "error: -l/-m: kernel requires a regular weight (l > m > 0), "
        "got l=4, m=0\n",
    ),
    (
        "bgg -g 2 -l 3,-1",
        "error: --lambda: '3,-1' is not weakly decreasing and nonnegative\n",
    ),
    ("table -g 0 --lmax 3", "error: -g: genus must be >= 1\n"),
    # these named --lambda before
    ("bgg -g 0 -l 1", "error: -g: genus must be >= 1\n"),
    ("boundary -g -1 -l 1", "error: -g: genus must be >= 1\n"),
    # the entry bound is checked as --lambda is parsed, before the -g and
    # shape errors of the library's check
    ("bgg -g 17 -l 2000000", "error: --lambda: entries must be <= 1000000\n"),
    ("rank1 -g 2 -l 1,2000000", "error: --lambda: entries must be <= 1000000\n"),
    (
        "verify --suite nope",
        "error: argument --suite: invalid choice: 'nope' (choose from "
        "'all', 'weyl', 'telescope', 'partition', 'g2', 'duality')\n",
    ),
]


def _seeded_weights(g: int, n: int, top: int = 12) -> list[tuple[int, ...]]:
    rng = random.Random(g)
    return [
        tuple(sorted((rng.randint(0, top) for _ in range(g)), reverse=True))
        for _ in range(n)
    ]


def _generic_weight(g: int, base: int) -> tuple[int, ...]:
    """The lambda whose gaps d_j = lambda_j - lambda_(j+1), with d_g =
    lambda_g, are base^j: the generic point of tests/test_eiscalc.py.  At
    g = 8, base 2^20, lambda_1 is about 2^160, some 50 digits."""
    return tuple(itertools.accumulate(base**j for j in range(g, 0, -1)))[::-1]


# two seeded weights for each g < 10, with the generic point for g <= 8
# (entries of up to ~50 digits, beyond the CLI's lambda bound), one at
# g = 10 and at g = 12, one whose entries reach the lambda bound
# (multi-digit weights and twists), and one whose mu has negative
# entries of every width from 1 to 6 digits, some of which gain or lose
# a digit in mu - 1
BOUNDARY_RENDER_CASES = [
    *[
        pytest.param(g, _seeded_weights(g, 2) + [_generic_weight(g, 2**20)] * (g <= 8), id=str(g))
        for g in range(1, 10)
    ],
    *[pytest.param(g, _seeded_weights(g, 1), id=str(g)) for g in (10, 12)],
    pytest.param(
        7,
        [(eiscalc.MAX_LAMBDA_ENTRY, *_seeded_weights(6, 1, eiscalc.MAX_LAMBDA_ENTRY)[0])],
        id="7-top-entry",
    ),
    pytest.param(6, [(99990, 9991, 993, 94, 9, 0)], id="6-digit-widths"),
]

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _printed_names(argv: list[str], field: str) -> list[str]:
    """The text of one element field, "w" or "u", of each record the CLI
    prints for argv, in record order, as the bytes stand."""
    code, out, err = run(argv)
    assert (code, err) == (0, "")
    if argv[-1] == "json":
        return re.findall(f'"{field}": (\\[[^\\]]*\\])', out)
    return re.findall(f"(?:^| ){field}=(\\S+)", out, re.M)


# What the `siegeleis` console script runs.
CLI_ENTRY = "import sys; from siegeleis.cli import main; sys.exit(main())"


class TestRank1Command:
    def test_g1_expand(self):
        code, out, err = run(["rank1", "-g", "1", "-l", "10", "--expand"])
        assert (code, out, err) == (0, "1 - L^11\n", "")

    def test_g1_plain(self):
        code, out, _ = run(["rank1", "-g", "1", "-l", "0"])
        assert code == 0
        assert out == "1 - L\n"

    def test_mixed_parity_evaluates_to_zero(self):
        code, out, err = run(["rank1", "-g", "2", "-l", "2,1"])
        assert (code, out, err) == (0, "0\n", "")

    def test_g3_symbolic(self):
        code, out, _ = run(["rank1", "-g", "3", "-l", "1,1,0"])
        assert code == 0
        assert "Ec(2;" in out

    def test_json_roundtrip(self):
        code, out, _ = run(["rank1", "-g", "2", "-l", "6,2", "--format", "json"])
        assert code == 0
        expr = MotiveExpr.from_obj(json.loads(out))
        code2, out2, _ = run(["rank1", "-g", "2", "-l", "6,2"])
        assert expr.render() + "\n" == out2

    def test_malformed_lambda(self):
        code, out, err = run(["rank1", "-g", "2", "-l", "1,x"])
        assert code == 2 and "--lambda" in err

    def test_non_dominant_lambda(self):
        code, _, err = run(["rank1", "-g", "2", "-l", "1,2"])
        assert code == 2 and "--lambda" in err

    def test_wrong_length(self):
        code, _, err = run(["rank1", "-g", "3", "-l", "2,0"])
        assert code == 2 and "--lambda" in err


class TestG2Commands:
    def test_total_origin(self):
        code, out, err = run(["total", "-l", "0", "-m", "0"])
        assert (code, out, err) == (0, "1 + L - L^2 - L^3\n", "")

    def test_total_alt_form(self):
        code1, out1, _ = run(["total", "-l", "4", "-m", "2"])
        code2, out2, _ = run(["total", "-l", "4", "-m", "2", "--form", "2"])
        assert code1 == code2 == 0
        assert out1 == out2  # forms agree for even l

    def test_parity_violation(self):
        code, _, err = run(["total", "-l", "2", "-m", "1"])
        assert code == 2 and "-l/-m" in err

    def test_codim2(self):
        code, out, _ = run(["codim2", "-l", "0", "-m", "0"])
        assert code == 0 and out == "1 - L^2\n"

    def test_kernel(self):
        code, out, _ = run(["kernel", "-l", "11", "-m", "5"])
        assert code == 0 and out == "-L^6\n"

    def test_kernel_non_regular(self):
        code, _, err = run(["kernel", "-l", "4", "-m", "0"])
        assert code == 2 and "regular" in err


class TestStructureCommands:
    def test_bgg_text(self):
        code, out, _ = run(["bgg", "-g", "2", "-l", "5,3"])
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4
        assert "mu=(-3,-5)" in lines[0]

    def test_bgg_json(self):
        code, out, _ = run(["bgg", "-g", "1", "-l", "6", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert [d["filtration"] for d in data] == [0, 7]

    # sha256 of the output before BggTerm was slotted
    @pytest.mark.parametrize(
        "format, digest",
        [
            ("text", "28169e8770cb53b1e539d7dfb56210707bf03374a7b1f55ba8a08d88bede1c56"),
            ("json", "60f7dd8ded3beafe796897962095a2a9cde48f80d151149a6a944adc8732a008"),
        ],
    )
    def test_bgg_golden_digest(self, format, digest):
        code, out, _ = run(
            ["bgg", "-g", "12", "-l", "23,21,19,17,15,13,11,9,7,5,3,1", "--format", format]
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_boundary_text(self):
        code, out, _ = run(["boundary", "-g", "2", "-l", "5,3"])
        assert code == 0
        assert len(out.strip().split("\n")) == 8

    def test_boundary_json(self):
        code, out, _ = run(["boundary", "-g", "2", "-l", "5,3", "--format", "json"])
        data = json.loads(out)
        assert len(data) == 8
        twists = {(tuple(d["w"]), d["k"]): d["twist"] for d in data}
        assert twists[((1, 3), 2)] == 4  # m + 1
        assert twists[((3, 4), 1)] == 7  # l + 2

    # sha256 of the output at the commit before the flip-mask pipeline
    # and the record-at-a-time JSON renderer
    @pytest.mark.parametrize(
        "format, digest",
        [
            ("text", "3ef3c91d5d0b4c3dcf1b6bcdb904c4c4035aebf77ea103fabda90c2d3648c27c"),
            ("json", "1234586c53c9b309548d60c41604ff3654dca264f28a7e9ea137cbaef38ad2b3"),
        ],
    )
    def test_boundary_golden_digest(self, format, digest):
        code, out, _ = run(
            ["boundary", "-g", "6", "-l", "7,5,5,3,2,0", "--format", format]
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # sha256 of the output before the f-string renderer and the slotted
    # value objects
    @pytest.mark.parametrize(
        "format, digest",
        [
            ("text", "9119d85c8d4feb9b758cc1fa201a6f4dc76172ef8c8719c6d1e4d596d96e8e57"),
            ("json", "23159057d7e4721d94d0bfcd14259bdd12821a3cd4d4ef703ca8c36d39cfa7a5"),
        ],
    )
    def test_boundary_golden_digest_g11(self, format, digest):
        code, out, _ = run(
            [
                "boundary", "-g", "11", "-l", "20,18,15,15,10,9,7,4,2,1,0",
                "--format", format,
            ]
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("g, lams", BOUNDARY_RENDER_CASES)
    def test_boundary_renderer_matches_the_encoder(self, g, lams):
        """The records filled from the (k, side) templates against
        json.dumps of per-term dicts and the per-term text built from
        str(w)."""
        finals = weylcomb.enumerate_final(g)
        restricted = [weylcomb.final_element(g - 1, m) for m in range(1 << (g - 1))]
        for lam in lams:
            terms = eiscalc.boundary_terms(g, lam)
            records = [
                {
                    "w": list(finals[t.w].images),
                    "k": t.k,
                    "side": t.side,
                    "u": list(restricted[t.u].images),
                    "weight": list(t.weight),
                    "sign": t.sign,
                    "twist": t.twist,
                    "parity_pass": t.parity_pass,
                }
                for t in terms
            ]
            _assert_same(
                "".join(_render_boundary(g, lam, "json")),
                json.dumps(records, separators=(", ", ": ")) + "\n",
            )
            _assert_same(
                "".join(_render_boundary(g, lam, "text")),
                "\n".join(
                    f"w={finals[t.w]} k={t.k} side={t.side} u={restricted[t.u]} "
                    f"weight=({','.join(str(a) for a in t.weight)}) "
                    f"sign={'+' if t.sign > 0 else '-'}1 twist={t.twist} "
                    f"parity={'even' if t.parity_pass else 'odd'}"
                    for t in terms
                ) + "\n",
            )

    # boundary -g 10 at the staircase weight, pinned before the records
    # came from the per-(k, side) templates and the half-table labels
    @pytest.mark.parametrize(
        "format, digest",
        [
            ("text", "7587b8f5d436d0f004451908b80e7e14fe1e2e0baece1af0fcec92488fefa170"),
            ("json", "c246cf87fd5ce5f7ce2cb2299381dd3596a248cc75034a6af2342bf8a34c10fe"),
        ],
    )
    def test_boundary_renders_from_blocks_and_label_tables(self, monkeypatch, format, digest):
        """boundary reads one block per final element, takes every mask's
        restrictions from one build of the two half tables, and names
        elements from the two label tables: no per-term object, no
        per-mask restriction or label."""
        def refuse(*args):
            raise AssertionError("boundary rendered through a per-term or per-mask path")

        builds = []
        rows, half = weylcomb.flip_restriction_rows, weylcomb._half_restrictions

        def counted_rows(g):
            builds.append(("rows", g))
            return rows(g)

        def counted_half(n, before, g):
            builds.append(("half", n))
            return half(n, before, g)

        monkeypatch.setattr(eiscalc, "boundary_terms", refuse)
        monkeypatch.setattr(weylcomb, "flip_images", refuse)
        monkeypatch.setattr(weylcomb, "_half_restrictions", counted_half)
        monkeypatch.setattr(eiscalc, "flip_restriction_rows", counted_rows)
        argv = ["boundary", "-g", "10", "-l", "19,17,15,13,11,9,7,5,3,1", "--format", format]
        code, out, err = run(argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert sorted(builds) == [("half", 5), ("half", 5), ("rows", 10)]

    def test_boundary_only_formats_the_block_records(self, monkeypatch):
        """Hand-made blocks, their fields chosen to match no real term (mu
        not dominant, the l of a block not a permutation), come out field
        for field in JSON and text: k is the record's index, the weight is
        `telescope_surgery(mu, l)`, and the twist and the parity are
        `boundary_k_fields`'s for that k (the twist 0 on side A), whatever
        the weight's own entry sum.  The CLI adds no term logic of its own."""
        g, lam = 4, (6, 4, 1, 0)
        blocks = [
            (5, (9, -2, 40, -107), [
                ("B", 3, 1, -1), ("B", 0, 1, 1), ("A", 2, 4, 1), ("A", 7, 2, -1),
            ]),
            (2, (0, 0, -1, 10), [
                ("A", 1, 3, -1), ("A", 3, 4, -1), ("B", 0, 3, 1), ("B", 6, 1, 1),
            ]),
            (13, (1, 1, 1, 1), [
                ("B", 4, 2, 1), ("A", 5, 2, 1), ("B", 2, 2, -1), ("A", 0, 2, -1),
            ]),
        ]
        monkeypatch.setattr(eiscalc, "boundary_blocks", lambda g, lam: iter(blocks))
        fields = eiscalc.boundary_k_fields(g, lam)
        terms = [
            (mask, k, side, u, telescope_surgery(mu, l), sign,
             fields[k - 1][0] if side == "B" else 0, fields[k - 1][1])
            for mask, mu, records in blocks
            for k, (side, u, l, sign) in enumerate(records, 1)
        ]
        # a weight of either parity at some k of each parity, so that a
        # parity read from the weight would differ
        assert {(sum(t[4]) % 2 == 0, t[7]) for t in terms} == {
            (a, b) for a in (True, False) for b in (True, False)
        }
        code, out, err = run(["boundary", "-g", str(g), "-l", "6,4,1,0", "--format", "json"])
        assert (code, err) == (0, "")
        assert json.loads(out) == [
            {
                "w": list(weylcomb.flip_images(mask, g)),
                "k": k,
                "side": side,
                "u": list(weylcomb.flip_images(u, g - 1)),
                "weight": list(weight),
                "sign": sign,
                "twist": twist,
                "parity_pass": even,
            }
            for mask, k, side, u, weight, sign, twist, even in terms
        ]
        code, out, err = run(["boundary", "-g", str(g), "-l", "6,4,1,0"])
        assert (code, err) == (0, "")
        assert out == "".join(
            f"w={weylcomb.final_element(g, mask)} k={k} side={side} "
            f"u={weylcomb.final_element(g - 1, u)} weight=({','.join(map(str, weight))}) "
            f"sign={sign:+d} twist={twist} parity={'even' if even else 'odd'}\n"
            for mask, k, side, u, weight, sign, twist, even in terms
        )

    @pytest.mark.parametrize("g", range(0, 11))
    def test_labels_name_the_elements(self, g):
        """The w and u names boundary -g (g + 1) prints, in both formats,
        against the elements they name: its genus-g table of restricted
        names holds every mask's name, and g = 0 is the restricted table
        of genus 1."""
        lam = (0,) * (g + 1)
        records = [
            (mask, u)
            for mask, _, rows in eiscalc.boundary_blocks(g + 1, lam)
            for _, u, _, _ in rows
        ]
        assert {u for _, u in records} == set(range(1 << g))
        argv = ["boundary", "-g", str(g + 1), "-l", ",".join(map(str, lam)), "--format"]
        for format, name in (("text", str), ("json", lambda w: json.dumps(list(w.images)))):
            names = {
                (n, m): name(weylcomb.final_element(n, m)) for n in (g, g + 1) for m in range(1 << n)
            }
            assert _printed_names(argv + [format], "w") == [names[g + 1, w] for w, _ in records]
            assert _printed_names(argv + [format], "u") == [names[g, u] for _, u in records]

    @pytest.mark.parametrize("format", ["text", "json"])
    @pytest.mark.parametrize("g", range(0, 15))
    def test_label_tables_match_the_per_mask_labels(self, g, format):
        """The name bgg -g g prints for each mask against the element it
        names, not against a second formatter: str(final_element) in text
        and json.dumps of the images in JSON, for odd and even half
        splits, the text separator change at g = 5, genus 13 and genus
        14; g = 0 is the u of boundary -g 1."""
        if g == 0:
            names = _printed_names(["boundary", "-g", "1", "-l", "0", "--format", format], "u")
            masks = [0, 0]
        else:
            lam = ",".join(["0"] * g)
            names = _printed_names(["bgg", "-g", str(g), "-l", lam, "--format", format], "w")
            masks = [t.w for t in eiscalc.bgg_complex(g, (0,) * g)]
        for m, name in itertools.zip_longest(masks, names):
            w = weylcomb.final_element(g, m)
            assert name == (str(w) if format == "text" else json.dumps(list(w.images))), m

    @pytest.mark.parametrize(
        "entries",
        [(), (0,), (-7,), (1234567,), tuple(range(-8, 8)),
         tuple(random.Random(16).randint(-9999999, 9999999) for _ in range(16))],
    )
    def test_entry_formats_print_as_before(self, entries):
        """One %-format per entry tuple against the expressions it stands
        in for: str(list(t)), json.dumps's bytes, in JSON and the entries
        comma-separated in text."""
        n = len(entries)
        assert cli._entries_format(n, "json") % entries == str(list(entries))
        assert cli._entries_format(n, "json") % entries == json.dumps(list(entries))
        assert cli._entries_format(n, "text") % entries == ",".join(map(str, entries))

    @pytest.mark.parametrize("format", ["text", "json"])
    def test_bgg_formats_each_label_as_it_writes_it(self, monkeypatch, format):
        """bgg uses each label once, so it builds no label table and
        formats one label per record, in record order."""
        lam = (9, 7, 5, 3, 1)
        expected = "".join(_render_bgg(5, lam, format))

        def refuse(g, sep=None):
            raise AssertionError("bgg built the label table")

        formatted = []
        namer = weylcomb.flip_namer

        def counted(g, sep=None):
            name = namer(g, sep)
            return lambda m: formatted.append(m) or name(m)

        monkeypatch.setattr(weylcomb, "flip_names", refuse)
        monkeypatch.setattr(weylcomb, "flip_namer", counted)
        assert "".join(_render_bgg(5, lam, format)) == expected
        assert formatted == [t.w for t in eiscalc.bgg_complex(5, lam)]

    # bgg -g 10 at the staircase weight, pinned before its labels came
    # from the half tables
    @pytest.mark.parametrize(
        "format, digest",
        [
            ("text", "6a497372691c49450018b47a9593ecbd0a6b10ba379671c8c2b45c6ecfd7a521"),
            ("json", "14f4b5ec6382df51cdf9d45da6bd03f2acc3a97ffcd8a7a6e105bd68a7b853b9"),
        ],
    )
    def test_bgg_renders_from_half_table_labels(self, monkeypatch, format, digest):
        """bgg names its elements from the half tables, as boundary does:
        no per-mask images are formatted."""
        def refuse(*args):
            raise AssertionError("bgg formatted a label from the mask's images")

        monkeypatch.setattr(weylcomb, "flip_images", refuse)
        argv = ["bgg", "-g", "10", "-l", "19,17,15,13,11,9,7,5,3,1", "--format", format]
        code, out, err = run(argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("g", range(1, 10))
    def test_bgg_renderer_matches_the_encoder(self, g):
        """The streamed f-string records against json.dumps of per-term
        dicts and the per-term text built from str(w); every g has a mu
        with negative entries."""
        rng = random.Random(g)
        for _ in range(2):
            lam = tuple(sorted((rng.randint(0, 12) for _ in range(g)), reverse=True))
            terms = eiscalc.bgg_complex(g, lam)
            assert any(a < 0 for t in terms for a in t.mu)
            finals = [weylcomb.final_element(g, t.w) for t in terms]
            records = [
                {
                    "w": list(w.images),
                    "mu": list(t.mu),
                    "degree": t.degree,
                    "filtration": t.filtration,
                }
                for w, t in zip(finals, terms)
            ]
            _assert_same(
                "".join(_render_bgg(g, lam, "json")),
                json.dumps(records, separators=(", ", ": ")) + "\n",
            )
            _assert_same(
                "".join(_render_bgg(g, lam, "text")),
                "\n".join(
                    f"w={w} degree={t.degree} filtration={t.filtration} "
                    f"mu=({','.join(str(a) for a in t.mu)})"
                    for w, t in zip(finals, terms)
                ) + "\n",
            )


class TestTable:
    def test_g1(self):
        code, out, _ = run(["table", "-g", "1", "--lmax", "4"])
        assert code == 0
        lines = out.strip().split("\n")[1:]
        assert "rank1: 1 - L" in lines[0]
        assert "rank1: 1 - L^3" in lines[1]
        assert "rank1: 1 - L^5" in lines[2]

    def test_g2_rows(self):
        code, out, _ = run(["table", "-g", "2", "--lmax", "2", "--format", "json"])
        data = json.loads(out)
        lams = [tuple(r["lambda"]) for r in data["records"]]
        assert lams == [(0, 0), (1, 1), (2, 0), (2, 2)]
        assert data["metadata"]["g"] == 2

    def test_g3_symbolic(self):
        code, out, _ = run(["table", "-g", "3", "--lmax", "1", "--format", "json"])
        data = json.loads(out)
        lams = [tuple(r["lambda"]) for r in data["records"]]
        assert (0, 0, 0) in lams and (1, 1, 0) in lams

    def test_deterministic(self):
        args = ["table", "-g", "2", "--lmax", "12", "--format", "json"]
        assert run(args) == run(args)

    def test_roundtrip(self):
        code, out, _ = run(["table", "-g", "2", "--lmax", "6", "--format", "json"])
        data = json.loads(out)
        from siegeleis import eiscalc

        for rec in data["records"]:
            lam = tuple(rec["lambda"])
            assert MotiveExpr.from_obj(rec["rank1"]) == eiscalc.rank1(
                2, lam, expand=True
            )
            assert MotiveExpr.from_obj(rec["total"]) == eiscalc.total_g2(*lam)

    def test_output_file(self, tmp_path):
        path = tmp_path / "out.json"
        code, out, err = run(
            ["table", "-g", "1", "--lmax", "2", "--format", "json", "-o", str(path)]
        )
        assert (code, out, err) == (0, "", "")
        data = json.loads(path.read_text())
        assert data["metadata"]["lmax"] == 2
        # the file holds the bytes the same command writes to stdout
        for format in ("text", "json"):
            argv = ["table", "-g", "2", "--lmax", "12", "--format", format]
            assert run([*argv, "-o", str(path)]) == (0, "", "")
            assert path.read_text() == run(argv)[1]

    @pytest.mark.parametrize(
        "argv",
        [
            "table -g 2 --lmax 64 --format json",
            "table -g 2 --lmax 64",
            "table -g 3 --lmax 24 --format json",
        ],
    )
    def test_streamed_peak_memory(self, argv):
        # each row becomes its string as soon as it is built, so the traced
        # peak stays within 3x the output.  A full collection empties the
        # free lists, and one that fell due inside the trace would count
        # their refill (3.89x here); collecting first means the warm-up
        # refills them and no full collection falls due during the trace.
        gc.collect()
        run(argv.split())  # warm caches and free lists outside the trace
        tracemalloc.start()
        try:
            code, out, _ = run(argv.split())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 3 * len(out), (peak, len(out))

    def test_unwritable_path(self):
        code, _, err = run(
            ["table", "-g", "1", "--lmax", "2", "-o", "/nonexistent/dir/x.json"]
        )
        assert code == 2 and err.startswith("error: -o/--output: cannot write ")

    def test_renders_are_history_free(self):
        # The benchmark's self-test compares call counts taken in process,
        # after earlier runs, with those of a fresh process, so a render
        # must do the same work whatever ran before it in the process.
        # cProfile counts the Python functions themselves, so a memo
        # wrapped around one (functools.cache, say) shows as fewer calls.
        def render(g):
            prof = cProfile.Profile()
            prof.enable()
            try:
                out = "".join(cli._render_table(g, 12, "json"))
            finally:
                prof.disable()
            calls = Counter()
            for entry in prof.getstats():
                code = entry.code
                if not isinstance(code, str) and "siegeleis" in code.co_filename:
                    path = os.path.basename(code.co_filename)
                    calls[path, code.co_name, code.co_firstlineno] += entry.callcount
            return out, calls

        first = render(2)
        render(3)
        second = render(2)
        assert first == second
        ran = {(path, name) for path, name, _ in first[1]}
        # MotiveExpr.__init__ is the only __init__ in motivering.py
        assert {("motivering.py", "__init__"), ("motivering.py", "_rewrite")} <= ran


class TestVerify:
    def test_weyl_suite(self):
        code, out, _ = run(["verify", "--suite", "weyl", "--max-g", "3"])
        assert code == 0
        assert all(line.startswith("PASS") for line in out.strip().split("\n"))

    def test_g2_suite(self):
        code, out, _ = run(["verify", "--suite", "g2"])
        assert code == 0

    def test_json_format(self):
        code, out, _ = run(
            ["verify", "--suite", "duality", "--format", "json"]
        )
        assert code == 0
        data = json.loads(out)
        assert all(c["status"] == "pass" for c in data)

    def test_max_g_below_one(self):
        code, out, err = run(["verify", "--suite", "weyl", "--max-g", "0"])
        assert code == 2 and out == ""
        assert "--max-g" in err

    def test_negative_max_entry(self):
        code, out, err = run(["verify", "--suite", "telescope", "--max-entry", "-1"])
        assert code == 2 and out == ""
        assert "--max-entry" in err and "randrange" not in err

    def test_telescope_labels_name_what_ran(self):
        code, out, _ = run(
            ["verify", "--suite", "telescope", "--max-g", "3", "--max-entry", "2"]
        )
        assert code == 0
        lines = out.splitlines()
        assert "PASS telescope-random: g in {4}, 250 cases each, entries in [-2,2]" in lines
        assert "PASS wedge-dual-route: n <= 3, entries in [-3,3]" in lines

    def test_telescope_random_without_cases_fails(self):
        code, out, _ = run(["verify", "--suite", "telescope", "--max-g", "2"])
        assert code == 1
        (line,) = [ln for ln in out.splitlines() if "telescope-random" in ln]
        assert line.startswith("FAIL telescope-random: 0 cases")
        assert "counterexample: --max-g 2" in line

    @pytest.mark.parametrize("format", ["text", "json"])
    def test_timings_go_to_stderr_one_line_per_check(self, format):
        argv = ["verify", "--suite", "telescope", "--format", format]
        plain = run(argv)
        code, out, err = run([*argv, "--timings"])
        if format == "json":
            # the records also carry their cost: without it, the same bytes
            out = json.dumps([
                {key: value for key, value in record.items() if key not in ("cases", "seconds")}
                for record in json.loads(out)
            ]) + "\n"
        assert (code, out) == plain[:2] and plain[2] == ""
        parsed = [
            re.fullmatch(r"time (\S+): (\d+) cases, (\d+\.\d{4}) s", ln).groups()
            for ln in err.splitlines()
        ]
        assert [name for name, _, _ in parsed] == [
            "telescope-exhaustive", "telescope-random", "wedge-dual-route",
            "branch-count-interlacing", "dual-involution",
        ]
        cases = {name: int(n) for name, n, _ in parsed}
        assert cases["telescope-exhaustive"] == 119
        assert cases["telescope-random"] == 500
        assert cases["wedge-dual-route"] == 11220

    @pytest.mark.parametrize("flags", [[], ["--max-g", "2"]], ids=["passing", "failing"])
    def test_json_timings_carry_each_checks_cost(self, flags):
        argv = ["verify", "--suite", "all", "--format", "json", *flags]
        code, plain, _ = run(argv)
        timed_code, out, err = run([*argv, "--timings"])
        assert timed_code == code
        result = {"name", "status", "detail", "counterexample"}
        assert {frozenset(record) for record in json.loads(plain)} == {frozenset(result)}
        records = json.loads(out)
        assert {frozenset(record) for record in records} == {frozenset(result | {"cases", "seconds"})}
        assert [{key: r[key] for key in result} for r in records] == json.loads(plain)
        stderr = re.findall(r"^time (\S+): (\d+) cases, (\d+\.\d{4}) s$", err, re.M)
        assert [(r["name"], r["cases"], r["seconds"]) for r in records] == [
            (name, int(cases), float(seconds)) for name, cases, seconds in stderr
        ]

    @pytest.mark.parametrize(
        "flags, g_max, cases",
        [([], 4, 18), (["--max-g", "6"], 6, 40)],
    )
    def test_restrict_bijection_runs_the_genera_it_names(self, flags, g_max, cases):
        # 2g cases per genus 2..g_max: one per (k, side)
        code, out, err = run(["verify", "--suite", "weyl", *flags, "--timings"])
        assert code == 0
        assert f"PASS restrict-bijection: g <= {g_max}" in out.splitlines()
        assert re.search(rf"^time restrict-bijection: {cases} cases, ", err, re.M)

    def test_timings_count_the_cases_a_failing_check_ran(self):
        code, _, err = run(["verify", "--suite", "telescope", "--max-g", "2", "--timings"])
        assert code == 1
        assert "time telescope-random: 0 cases, " in err
        report = VerificationReport()
        report.check("stops-at-3", "", range(10), lambda i: "three" if i == 3 else None)
        (check,) = report.checks
        assert (check.passed, check.counterexample, check.cases) == (False, "three", 4)
        assert check.seconds >= 0

    def test_check_cost_is_not_part_of_its_result(self):
        first, second = VerificationReport(), VerificationReport()
        first.check("c", "d", range(3), lambda i: None)
        second.check("c", "d", range(5), lambda i: None)
        assert first.checks[0].cases != second.checks[0].cases
        assert first.checks == second.checks

    def test_partition_suite(self):
        code, out, _ = run(["verify", "--suite", "partition", "--max-g", "3"])
        assert code == 0
        lines = out.strip().split("\n")
        assert [ln.split(":")[0] for ln in lines] == [
            "PASS partition-identity-g2",
            "PASS partition-identity-g3",
            "PASS reindexing-completeness",
        ]

    def test_partition_suite_catches_a_dropped_term(self, monkeypatch):
        real = eiscalc.boundary_terms

        def drop_one(g, lam):
            return real(g, lam)[1:]

        monkeypatch.setattr(eiscalc, "boundary_terms", drop_one)
        code, out, _ = run(["verify", "--suite", "partition", "--max-g", "3"])
        assert code == 1
        failed = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
        names = {ln.split(":")[0].split()[1] for ln in failed}
        assert names == {
            "partition-identity-g2",
            "partition-identity-g3",
            "reindexing-completeness",
        }
        assert all("[counterexample: " in ln for ln in failed)

    def test_a_failed_sub_check_shows_its_counterexample(self, monkeypatch):
        # one corrupted boundary term at lambda = (3, 1, 0): the FAIL line of
        # the nested check names each failed sub-check of verify_partition
        # with that sub-check's own counterexample
        real = eiscalc.boundary_terms

        def corrupt_last(g, lam):
            terms = real(g, lam)
            if tuple(lam) != (3, 1, 0):
                return terms
            return terms[:-1] + [terms[-1]._replace(weight=(8, 5))]

        monkeypatch.setattr(eiscalc, "boundary_terms", corrupt_last)
        code, out, _ = run(["verify", "--suite", "partition", "--max-g", "3"])
        assert code == 1
        (line,) = [ln for ln in out.splitlines() if "partition-identity-g3" in ln]
        assert line == (
            "FAIL partition-identity-g3: entries <= 4 [counterexample: "
            "lambda=(3, 1, 0): weight-identity (w=[456], k=3: W(8,5) != W(7,5)); "
            "parity-filter (w=[456], k=3)]"
        )

    def test_a_flipped_per_k_parity_fails_the_gate(self, monkeypatch):
        """boundary prints the parity of `boundary_k_fields`, and the gate's
        parity-filter reads the same list: flipping k = 1's parity changes
        the printed bytes and fails partition-identity-g2."""
        real = eiscalc.boundary_k_fields

        def flipped(g, lam):
            (twist, even), *rest = real(g, lam)
            return [(twist, not even), *rest]

        def flip(line):
            if " k=1 " not in line:
                return line
            word = line.rsplit("=", 1)[1]
            return line[: -len(word)] + {"even": "odd", "odd": "even"}[word]

        argv = ["boundary", "-g", "2", "-l", "0,0"]
        before = run(argv)[1].splitlines()
        monkeypatch.setattr(eiscalc, "boundary_k_fields", flipped)
        assert run(argv)[1].splitlines() == list(map(flip, before))
        code, out, _ = run(["verify", "--suite", "all"])
        assert code == 1
        (line,) = [ln for ln in out.splitlines() if "partition-identity-g2" in ln]
        assert line == (
            "FAIL partition-identity-g2: entries <= 4 [counterexample: "
            "lambda=(0, 0): parity-filter (w=[12], k=1)]"
        )

    def test_a_long_weight_cut_fails_the_gate(self, monkeypatch):
        """boundary_terms and the boundary renderer cut their weights with
        one helper: one that keeps l entries of mu instead of l - 1 fails
        weight-identity."""
        def long_cut(mu, records, texts=False):
            top, low = mu, tuple(x - 1 for x in mu)
            if texts:
                top, low = tuple(map(str, top)), tuple(map(str, low))
            return [top[:l] + low[l:] for _, _, l, _ in records]

        monkeypatch.setattr(eiscalc, "block_weights", long_cut)
        assert run(["boundary", "-g", "1", "-l", "0"])[1] == (
            "w=[1] k=1 side=A u=[] weight=(0) sign=+1 twist=0 parity=even\n"
            "w=[2] k=1 side=B u=[] weight=(2) sign=-1 twist=1 parity=even\n"
        )
        code, out, _ = run(["verify", "--suite", "all"])
        assert code == 1
        (line,) = [ln for ln in out.splitlines() if "partition-identity-g2" in ln]
        assert line.startswith(
            "FAIL partition-identity-g2: entries <= 4 [counterexample: "
            "lambda=(0, 0): weight-identity (w=[12], k=1: W(0,0) != W(0)); "
        )

    def test_a_failed_g2_identity_shows_its_counterexample(self, monkeypatch):
        monkeypatch.setattr(eiscalc, "kernel_g2", lambda l, m: MotiveExpr.zero())
        code, out, _ = run(["verify", "--suite", "g2"])
        assert code == 1
        (line,) = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
        assert line == (
            "FAIL consistency-grid: 0 <= m <= l <= 20 [counterexample: "
            "(l,m)=(4,2): kernel-is-minus-low-part (0 != 1)]"
        )

    def test_suite_sizes_default_in_one_place(self, monkeypatch):
        # the suites, run_suite and the verify parser share the defaults
        defaults = (suites.DEFAULT_MAX_G, suites.DEFAULT_MAX_ENTRY)
        assert defaults == (4, 6)
        for fn in (*suites.SUITES.values(), suites.run_suite):
            assert fn.__defaults__ == defaults, fn.__name__
        seen = stub_suites(monkeypatch)
        assert run(["verify"])[0] == 0
        suites.run_suite("all")
        assert seen == [defaults] * 2 * len(suites.SUITES)

    def test_suites_catch_a_misread_dot_action(self, monkeypatch):
        # the BGG and boundary terms take each w's dot action from its flip
        # mask; reading the neighbouring mask's must fail the gate
        real = weylcomb.flip_dot_actions

        def misread(lam):
            actions = list(real(lam))
            return ((actions[m ^ 1][0], n) for m, (_, n) in enumerate(actions))

        monkeypatch.setattr(eiscalc, "flip_dot_actions", misread)
        code, out, _ = run(["verify", "--suite", "all"])
        assert code == 1
        failed = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
        assert {ln.split(":")[0].split()[1] for ln in failed} == {
            "partition-identity-g2",
            "partition-identity-g3",
            "partition-identity-g4",
            "reindexing-completeness",
        }

    def test_an_engine_error_fails_the_checks_that_meet_it(self, monkeypatch):
        # one mask's dot action reversed: the dominance check in eiscalc
        # raises inside every check whose terms reach mask 1, and each of
        # those checks FAILs with the error; the gate still exits 1, not 2
        real = weylcomb.flip_dot_actions

        def broken(lam):
            for mask, (acted, n) in enumerate(real(lam)):
                yield (acted[::-1] if mask == 1 else acted), n

        monkeypatch.setattr(eiscalc, "flip_dot_actions", broken)
        code, out, err = run(["verify", "--suite", "all"])
        assert (code, err) == (1, "")
        failed = {
            ln.split(":")[0].split()[1]: ln
            for ln in out.splitlines() if ln.startswith("FAIL")
        }
        assert set(failed) == {
            "partition-identity-g2",
            "partition-identity-g3",
            "partition-identity-g4",
            "reindexing-completeness",
            "filtration-exponents",
        }
        assert failed["partition-identity-g3"] == (
            "FAIL partition-identity-g3: entries <= 4 [counterexample: "
            "lambda=(0, 0, 0): raised ValueError: weight (-2, 0, 0) is not weakly decreasing]"
        )
        # the partition checks name the case the error was raised on
        assert failed["reindexing-completeness"] == (
            "FAIL reindexing-completeness: g <= 4 [counterexample: "
            "g=2, lambda=(0, 0): raised ValueError: weight (-2, 0) is not weakly decreasing]"
        )
        for name, line in failed.items():
            # filtration-exponents names no case: its message is as before
            case = "" if name == "filtration-exponents" else r"(g=\d, )?lambda=\(0(, 0)*\): "
            assert re.search(rf"\[counterexample: {case}raised ValueError: weight \(-2, 0", line)

    def test_restrict_bijection_checks_each_row_position(self, monkeypatch):
        # one position of one half-table row moved, its side and u left
        # right: restrict-bijection reads every row the boundary pipeline
        # reads, and must fail on it
        real = weylcomb.flip_restriction_rows

        def shifted(g):
            for mask, row in enumerate(real(g)):
                side, pos, u = row[0]
                yield [(side, pos + 1, u), *row[1:]] if mask == 1 else row

        monkeypatch.setattr(weylcomb, "flip_restriction_rows", shifted)
        code, out, err = run(["verify", "--suite", "weyl"])
        assert (code, err) == (1, "")
        failed = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
        assert failed == [
            "FAIL restrict-bijection: g <= 4 [counterexample: g=2, k=1, side=A, w=[13]]"
        ]

    def test_a_restriction_table_error_fails_its_partition_check(self, monkeypatch):
        # restrict_final raises: the partition suite's restriction tables
        # are built inside each partition-identity-g{g} check, so each of
        # those checks FAILs with the error and the gate exits 1, not 2
        def broken(w, k, side):
            raise ValueError("images contain a complementary pair")

        monkeypatch.setattr(weylcomb, "restrict_final", broken)
        monkeypatch.setattr(eiscalc, "restrict_final", broken)
        code, out, err = run(["verify", "--suite", "all"])
        assert (code, err) == (1, "")
        failed = {
            ln.split(":")[0].split()[1]: ln
            for ln in out.splitlines() if ln.startswith("FAIL")
        }
        assert set(failed) == {
            "restrict-bijection",
            "partition-identity-g2",
            "partition-identity-g3",
            "partition-identity-g4",
        }
        for g in (2, 3, 4):
            assert failed[f"partition-identity-g{g}"] == (
                f"FAIL partition-identity-g{g}: entries <= 4 [counterexample: "
                "raised ValueError: images contain a complementary pair]"
            )

    @pytest.mark.parametrize(
        "flag, value, ok",
        [
            ("--max-g", 1, True),
            ("--max-g", 16, True),
            ("--max-g", 0, False),
            ("--max-g", 17, False),
            ("--max-entry", 0, True),
            ("--max-entry", 12, True),
            ("--max-entry", -1, False),
            ("--max-entry", 13, False),
        ],
    )
    def test_size_flags_are_bounded(self, monkeypatch, flag, value, ok):
        seen = stub_suites(monkeypatch)
        code, out, err = run(["verify", flag, str(value)])
        if ok:
            assert (code, out, err) == (0, "PASS stub\n" * len(suites.SUITES), "")
            sizes = (value, 6) if flag == "--max-g" else (4, value)
            assert seen == [sizes] * len(suites.SUITES)
        else:
            assert code == 2 and out == "" and seen == []
            assert flag in err

    def test_run_suite_bounds_its_inputs(self, monkeypatch):
        seen = stub_suites(monkeypatch)
        with pytest.raises(ValueError, match=r"^--max-g: must be in \[1, 16\], got 30$"):
            suites.run_suite("weyl", 30)
        with pytest.raises(ValueError, match="^--suite: "):
            suites.run_suite("nope")
        assert seen == []


def _private_reads(source: str) -> list[str]:
    """The `_`-prefixed names of other siegeleis modules that `source`, a
    module of the package, reads: imported from a sibling, or read as an
    attribute of a module it imported with `from . import`.  Dunders
    such as __version__ are public."""
    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    tree = ast.parse(source)
    siblings, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [a.name for a in node.names]
            if node.module is None:
                siblings.update(names)
            found += [f"{node.module or 'siegeleis'}.{n}" for n in names if private(n)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and private(node.attr)):
            found.append(f"{node.value.id}.{node.attr}")
    return found


class TestLayering:
    def test_cli_reads_no_private_name_of_another_module(self):
        """cli.py parses and formats; what it shows is decided in the
        modules that own it, through their public names."""
        assert _private_reads((SRC / "siegeleis" / "cli.py").read_text()) == []

    def test_the_guard_sees_a_private_read(self):
        source = (
            "from . import __version__, weylcomb\n"
            "from .eiscalc import _check_sp_weight, rank1\n"
            "parts = weylcomb._half_parts(v, 1, h, g)\n"
            "names = weylcomb.flip_names(g)\n"
        )
        assert _private_reads(source) == ["eiscalc._check_sp_weight", "weylcomb._half_parts"]


def stub_suites(monkeypatch):
    """Stand a one-check stub in for every suite, so nothing large runs;
    returns the list of (max_g, max_entry) the stubs were called with."""
    seen = []

    def stub(max_g, max_entry):
        seen.append((max_g, max_entry))
        report = VerificationReport()
        report.check("stub", "", [None], lambda case: None)
        return report

    for fn in suites.SUITES.values():
        monkeypatch.setattr(suites, fn.__name__, stub)
    return seen


class TestZeroCaseChecks:
    def test_checks_from_genus_two_fail_without_a_case(self):
        code, out, _ = run(["verify", "--max-g", "1"])
        assert code == 1
        lines = {ln.split(":")[0]: ln for ln in out.splitlines()}
        for name in ("restrict-bijection", "reindexing-completeness"):
            line = lines[f"FAIL {name}"]
            assert line.startswith(f"FAIL {name}: 0 cases")
            assert "counterexample: --max-g 1 admits no g >= 2" in line

    def test_partition_identity_fails_without_a_case(self):
        code, out, _ = run(["verify", "--suite", "partition", "--max-g", "1"])
        assert code == 1
        lines = {ln.split(":")[0]: ln for ln in out.splitlines()}
        assert not any(n.split()[1].startswith("partition-identity-g") for n in lines)
        line = lines["FAIL partition-identity"]
        assert line.startswith("FAIL partition-identity: 0 cases")
        assert "counterexample: --max-g 1 admits no g >= 2; needs --max-g >= 2" in line
        # one case is enough to drop the zero-case line
        code, out, _ = run(["verify", "--suite", "partition", "--max-g", "2"])
        assert code == 0
        assert [ln.split(":")[0] for ln in out.splitlines()] == [
            "PASS partition-identity-g2", "PASS reindexing-completeness"
        ]

    @pytest.mark.parametrize(
        "format, digest",
        [
            ("text", "fc4e5328a055985651b4e74b1b9d145198493c89e52ef5f9903e5c6a35f0ab3f"),
            ("json", "77241b274796ae822da2d0fab86a84eb179492466d0fedbd7eacf32dc1db70eb"),
        ],
    )
    def test_default_flags_output_unchanged(self, format, digest):
        code, out, _ = run(["verify", "--format", format])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # sha256 of failing outputs, recorded before every looping check ran
    # through VerificationReport.check
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["--max-g", "1"],
             "4b93c5dbe81fee95b51c069bd61a3ebd5322ba9d5cfd7a9297784f7ac92141c0"),
            (["--max-g", "1", "--format", "json"],
             "cde466992d5c3de53da9833d5894c6ff663dbe02be57c797a8e236128dcd9408"),
            (["--max-g", "2", "--max-entry", "2"],
             "cc40d688465531e6995f2fd755ce10af38252eb0e8b3e8e9236d40fb5cd39025"),
        ],
    )
    def test_failing_output_unchanged(self, argv, digest):
        code, out, err = run(["verify", *argv])
        assert (code, err) == (1, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_checks_fail_when_their_case_source_is_empty(self, monkeypatch):
        monkeypatch.setattr(suites, "dominant_weights", lambda *args: iter(()))
        monkeypatch.setattr(suites, "dominant_entries", lambda *args: iter(()))
        monkeypatch.setattr(eiscalc, "admissible_weights", lambda *args: iter(()))
        code, out, _ = run(["verify"])
        assert code == 1
        failed = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
        assert {ln.split(":")[0].split()[1] for ln in failed} == {
            "telescope-exhaustive", "wedge-dual-route", "branch-count-interlacing",
            "dual-involution", "partition-identity-g2", "partition-identity-g3",
            "partition-identity-g4", "reindexing-completeness",
            "consistency-grid", "filtration-exponents", "duality-total-g2",
        }
        assert all(": 0 cases [counterexample: " in ln for ln in failed)


class TestPinnedOutput:
    """Bytes recorded before validation moved from the CLI into eiscalc."""

    @pytest.mark.parametrize("argv, err", BAD_INPUT)
    def test_bad_input_stderr(self, argv, err):
        assert run(argv.split()) == (2, "", err)

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                "table -g 3 --lmax 12",
                "bf501319815ef25b457037e302e071ecd9c64a25aa69ba27202ffa04ee6b7951",
            ),
            (
                "table -g 1 --lmax 40 --format json",
                "b4cf718e6bb856f63e55dbcdffd1cf8fb1dcf082694239299c82439097692dc2",
            ),
            # the table's size limit, on the expand_genus_one=False path
            (
                "table -g 3 --lmax 64 --format json",
                "dc96f19c9bd3ecaff31d10c7d07305325d3501f90537d67d69ff8d7029ab389b",
            ),
            # the benchmark's table-g2 workload (the digest bench/check.py
            # holds) and its text form: every genus-2 formula on each row
            (
                "table -g 2 --lmax 64 --format json",
                "d6c525ca9dd788895cb61590ca5953fc32afd5195ed011a609d477eba7e478b5",
            ),
            (
                "table -g 2 --lmax 64",
                "67b2d40dd34186c63b866937bb4c9bd25168b6de3450d9cd9b4ee5b198d65e7b",
            ),
        ],
    )
    def test_table_golden_digest(self, argv, digest):
        code, out, _ = run(argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSizeLimits:
    """Each size limit and the next size up, with the work stubbed out."""

    @pytest.mark.parametrize(
        "command, g, ok",
        [("bgg", 16, True), ("bgg", 17, False), ("boundary", 14, True), ("boundary", 15, False)],
    )
    def test_genus_limits(self, monkeypatch, command, g, ok):
        # the per-w generator both commands draw their terms from, and the
        # restriction rows boundary draws beside it, each as long as the other
        calls = []
        monkeypatch.setattr(eiscalc, "_bgg_terms", lambda g, lam: calls.append(g) or [])
        monkeypatch.setattr(eiscalc, "flip_restriction_rows", lambda g: [])
        code, out, err = run([command, "-g", str(g), "-l", ",".join(["0"] * g)])
        if ok:
            assert code == 0 and err == "" and calls
        else:
            assert (code, out, calls) == (2, "", [])
            assert err.startswith(f"error: -g: {command} needs g <= {g - 1}, got {g}")

    @pytest.mark.parametrize(
        "g, lmax, ok",
        [
            (3, 64, True),  # the limit: 3^2 * C(67, 3)
            (4, 25, True),
            (4, 26, False),
            (656, 0, True),
            (657, 0, False),
            (10, 64, False),
        ],
    )
    def test_table_limit(self, monkeypatch, g, lmax, ok):
        calls = []
        monkeypatch.setattr(
            eiscalc, "dominant_entries", lambda *args: calls.append(args) or []
        )
        code, out, err = run(["table", "-g", str(g), "--lmax", str(lmax)])
        if ok:
            assert code == 0 and err == "" and calls == [(g, 0, lmax)]
        else:
            assert (code, out, calls) == (2, "", [])
            assert err.startswith("error: -g/--lmax: need g^2*C(lmax+g, g) <= 431145")


    @pytest.mark.parametrize(
        "g, ok", [(eiscalc.MAX_RANK1_G, True), (eiscalc.MAX_RANK1_G + 1, False)]
    )
    def test_rank1_limit(self, monkeypatch, g, ok):
        # the limit itself runs for real; the next size up starts no work
        calls = []
        real_check = eiscalc._check_sp_weight
        monkeypatch.setattr(
            eiscalc, "_check_sp_weight", lambda lam, g: calls.append(g) or real_check(lam, g)
        )
        code, out, err = run(
            ["rank1", "-g", str(g), "-l", ",".join(["0"] * g), "--format", "json"]
        )
        if ok:
            assert (code, err, calls) == (0, "", [g])
            assert json.loads(out)
        else:
            assert (code, out, calls) == (2, "", [])
            assert err == f"error: -g: rank1 needs g <= {g - 1}, got {g}\n"

    @pytest.mark.parametrize("command", ["rank1", "bgg", "boundary"])
    @pytest.mark.parametrize(
        "top, ok", [(eiscalc.MAX_LAMBDA_ENTRY, True), (eiscalc.MAX_LAMBDA_ENTRY + 1, False)]
    )
    def test_lambda_entry_limit(self, command, top, ok):
        code, out, err = run([command, "-g", "3", "-l", f"{top},{top},0", "--format", "json"])
        if ok:
            assert (code, err) == (0, "")
            assert json.loads(out)
        else:
            assert (code, out) == (2, "")
            assert err == f"error: --lambda: entries must be <= {top - 1}\n"

    def test_lambda_entry_limit_is_in_the_readme(self):
        readme = (SRC.parent / "README.md").read_text()
        row = next(ln for ln in readme.splitlines() if ln.startswith("| λ entries"))
        assert f"{eiscalc.MAX_LAMBDA_ENTRY:,}" in row and "--lambda" in row

    def test_rank1_limit_is_the_largest_genus_the_table_admits(self):
        # g^2 * C(0 + g, g) is the table's work at lmax = 0
        g = eiscalc.MAX_RANK1_G
        assert g**2 <= eiscalc.MAX_TABLE_WORK < (g + 1) ** 2


class TestUsageErrors:
    def test_unknown_subcommand(self):
        code, _, err = run(["frobnicate"])
        assert code == 2 and err

    def test_missing_args(self):
        code, _, err = run(["rank1"])
        assert code == 2 and err

    def test_bad_genus(self):
        code, _, err = run(["rank1", "-g", "0", "-l", ""])
        assert code == 2


# Every other argv in this file that exits with code 2: the size limits
# (their next size up), the verify size flags, usage errors and an
# unwritable table file.
EXIT_2 = [argv for argv, _ in BAD_INPUT] + [
    "bgg -g 17 -l " + ",".join(["0"] * 17),
    "boundary -g 15 -l " + ",".join(["0"] * 15),
    "table -g 4 --lmax 26",
    "table -g 657 --lmax 0",
    "table -g 10 --lmax 64",
    "rank1 -g 657 -l " + ",".join(["0"] * 657),
    f"boundary -g 2 -l {eiscalc.MAX_LAMBDA_ENTRY + 1},0",
    "verify --suite weyl --max-g 0",
    "verify --max-g 17",
    "verify --suite telescope --max-entry -1",
    "verify --max-entry 13",
    "frobnicate",
    "rank1",
    "rank1 -g 0 -l ",
    "table -g 1 --lmax 2 -o /nonexistent/dir/x.json",
]


def main_output(argv, monkeypatch, capsys) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of the console entry `main` on argv."""
    monkeypatch.setattr(sys, "argv", ["siegeleis", *argv])
    with pytest.raises(SystemExit) as info:
        main()
    out, err = capsys.readouterr()
    return info.value.code, out, err


class TestStream:
    """`main` writes each chunk as it is made; `run` joins the same chunks."""

    @pytest.mark.parametrize("format", ["text", "json"])
    @pytest.mark.parametrize(
        "argv",
        [
            "boundary -g 6 -l 7,5,5,3,2,0",
            "boundary -g 1 -l 4",
            "bgg -g 5 -l 9,7,5,3,1",
            "table -g 2 --lmax 12",
            "table -g 3 --lmax 2",
        ],
    )
    def test_main_writes_what_run_returns(self, monkeypatch, capsys, argv, format):
        argv = [*argv.split(), "--format", format]
        code, out, err = run(argv)
        assert (code, err) == (0, "") and out.endswith("\n")
        assert main_output(argv, monkeypatch, capsys) == (code, out, err)

    @pytest.mark.parametrize("format", ["text", "json"])
    def test_table_file_through_main(self, monkeypatch, capsys, tmp_path, format):
        argv = ["table", "-g", "2", "--lmax", "12", "--format", format]
        path = tmp_path / "table.out"
        assert main_output([*argv, "-o", str(path)], monkeypatch, capsys) == (0, "", "")
        assert path.read_text() == run(argv)[1]

    @pytest.mark.parametrize("argv", EXIT_2)
    def test_bad_input_writes_no_stdout(self, monkeypatch, capsys, argv):
        # every input is checked before the first chunk is written
        code, out, err = main_output(argv.split(" "), monkeypatch, capsys)
        assert (code, out) == (2, "") and err.startswith("error: ")
        assert run(argv.split(" ")) == (code, out, err)

    def test_boundary_peak_memory(self):
        """Draining the chunks holds about one block of records, not the
        table: the traced peak is at most a quarter of the output."""
        argv = ["boundary", "-g", "12", "-l", "23,21,19,17,15,13,11,9,7,5,3,1",
                "--format", "json"]
        # warm free lists outside the trace, e.g. those of the 12-tuples
        for _ in _stream(argv)[1]:
            pass
        tracemalloc.start()
        try:
            code, chunks, _ = _stream(argv)
            size = sum(map(len, chunks))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and size > 10_000_000
        assert peak <= size // 4, (peak, size)

    def test_console_entry_on_the_benchmark_argv(self):
        """The genus-13 boundary table of the benchmark's seed-1 weight,
        written chunk by chunk through the console script's entry."""
        argv = ["boundary", "-g", "13", "-l", "20,18,15,15,15,14,12,8,6,4,3,3,2",
                "--format", "json"]
        proc = subprocess.run(
            [sys.executable, "-c", CLI_ENTRY, *argv], capture_output=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert hashlib.sha256(proc.stdout).hexdigest() == (
            "3fe505d0e4e032cb25c5a818d536a31025535a2ee314170a7fb2aaba985a53df"
        )

    def test_closed_pipe(self):
        """A reader that stops early (`| head -c 100`) ends the run with
        exit code 1 and no traceback."""
        argv = ["boundary", "-g", "10", "-l", "19,17,15,13,11,9,7,5,3,1", "--format", "json"]
        proc = subprocess.Popen(
            [sys.executable, "-c", CLI_ENTRY, *argv], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (1, b"")
        assert head.decode() == run(argv)[1][:100]


# what `import siegeleis.cli` and building its parser load, one name a line
STARTUP = (
    "import sys; import siegeleis.cli; siegeleis.cli._build_parser(); "
    "print('\\n'.join(sys.modules))"
)
# what answering one JSON verify question loads, after its output
VERIFY_G2_JSON = (
    "import sys; from siegeleis import cli; "
    "code, out, err = cli.run(['verify', '--suite', 'g2', '--format', 'json']); "
    "sys.stdout.write(out + '\\n'.join(sys.modules))"
)


def _child(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


class TestStartup:
    """Start-up loads only what every question needs; the guard counts
    modules in a fresh interpreter and takes no timings."""

    UNNEEDED = {"dataclasses", "inspect", "ast", "dis", "tokenize", "json"}

    def test_cli_import_and_parser_load_no_unneeded_module(self):
        loaded = set(_child(STARTUP).splitlines())
        assert {"siegeleis.cli", "argparse"} <= loaded
        assert not loaded & self.UNNEEDED

    def test_json_output_loads_json_and_gives_the_pinned_bytes(self):
        out, modules = _child(VERIFY_G2_JSON).split("\n", 1)
        loaded = set(modules.splitlines())
        assert "json" in loaded
        assert not loaded & (self.UNNEEDED - {"json"})
        assert hashlib.sha256((out + "\n").encode()).hexdigest() == (
            "9429e04d02c6a63c809eec6b99f16b426dd0c543232c9016627fb6aa4fccb86e"
        )
