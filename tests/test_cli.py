import json

from siegeleis.cli import run
from siegeleis.motivering import MotiveExpr


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

    def test_unwritable_path(self):
        code, _, err = run(
            ["table", "-g", "1", "--lmax", "2", "-o", "/nonexistent/dir/x.json"]
        )
        assert code == 2 and "-o/--output" in err


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
