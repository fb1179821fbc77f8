"""Self-tests of the benchmark: the tracer, the output checks and bench/run.py.

    python3 -m pytest bench

The tier-1 run (`pytest` at the root) only collects `tests/`.
"""

from __future__ import annotations

import cProfile
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [BENCH, SRC]

import check  # noqa: E402
import tracer  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=SRC)
CLI_ENTRY = "import sys; from siegeleis.cli import main; sys.exit(main())"

TINY = [
    ["verify", "--suite", "all", "--max-g", "2", "--max-entry", "2"],
    ["table", "-g", "2", "--lmax", "6", "--format", "json"],
    ["table", "-g", "3", "--lmax", "2"],
    ["boundary", "-g", "4", "-l", "5,3,1,0"],
    ["bgg", "-g", "2", "-l", "5,3", "--format", "json"],
    ["rank1", "-g", "1", "-l", "10", "--expand"],
    ["total", "-l", "11", "-m", "5", "--form", "2"],
    ["kernel", "-l", "11", "-m", "5"],
]


def run_cli(argv, tmp_path, stats=None):
    if stats is None:
        cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
    else:
        cmd = [sys.executable, os.path.join(BENCH, "tracer.py"), "--stats", str(stats), "--", *argv]
    return subprocess.run(cmd, capture_output=True, env=ENV, cwd=tmp_path, timeout=300)


def cprofile_counts(argv, monkeypatch) -> dict[str, int]:
    """cProfile call counts of every traced function, for one untraced run."""
    modules = tracer.layer_modules()
    code_of = {name: fn.__code__ for name, _, _, fn in tracer.targets(modules)}
    monkeypatch.setattr(sys, "argv", ["siegeleis", *argv])
    prof = cProfile.Profile()
    prof.enable()
    try:
        modules["cli"].main()
    except SystemExit:
        pass
    finally:
        prof.disable()
    by_code = {e.code: e.callcount for e in prof.getstats() if not isinstance(e.code, str)}
    return {name: by_code.get(code, 0) for name, code in code_of.items()}


@pytest.mark.parametrize("argv", TINY, ids=lambda a: " ".join(a))
def test_traced_counts_match_cprofile_and_stdout_is_unchanged(argv, tmp_path, monkeypatch, capsys):
    plain = run_cli(argv, tmp_path)
    stats_path = tmp_path / "stats.json"
    traced = run_cli(argv, tmp_path, stats=stats_path)
    assert plain.returncode == traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout

    traced_calls = {
        name: rec["calls"] for name, rec in json.loads(stats_path.read_text())["functions"].items()
    }
    expected = cprofile_counts(argv, monkeypatch)
    capsys.readouterr()
    assert set(traced_calls) == set(expected)
    assert traced_calls == expected
    assert sum(1 for n in expected.values() if n) >= 5


def test_tracer_patches_import_sites_and_classes():
    modules = tracer.layer_modules()
    names = {name for name, _, _, _ in tracer.targets(modules)}
    for name in ("weylcomb.restrict_final", "glbranch.dominant_weights",
                 "glbranch.VirtualBundle.__init__", "glbranch.GlWeight.__init__",
                 "motivering.MotiveExpr.normalize", "motivering.MotiveExpr.__mul__",
                 "eiscalc.boundary_terms", "suites.verify_telescope", "cli._render_boundary"):
        assert name in names
    # dataclass-generated comparisons are not the layers' code
    assert "glbranch.GlWeight.__eq__" not in names


def tiny_boundary(tmp_path):
    argv = ["boundary", "-g", "4", "-l", "5,3,1,0", "--format", "json"]
    out = tmp_path / "boundary.json"
    out.write_bytes(run_cli(argv, tmp_path).stdout)
    return argv, out


def test_boundary_check_accepts_real_output_and_rejects_a_flipped_sign(tmp_path):
    argv, out = tiny_boundary(tmp_path)
    check.check_boundary(str(out), argv)
    terms = json.loads(out.read_text())
    terms[3]["sign"] = -terms[3]["sign"]
    out.write_text(json.dumps(terms))
    with pytest.raises(check.CheckFailed, match="telescope"):
        check.check_boundary(str(out), argv)


def test_boundary_check_rejects_a_missing_term(tmp_path):
    argv, out = tiny_boundary(tmp_path)
    out.write_text(json.dumps(json.loads(out.read_text())[1:]))
    with pytest.raises(check.CheckFailed, match="terms"):
        check.check_boundary(str(out), argv)


def test_verify_and_table_checks_reject_bad_output(tmp_path):
    out = tmp_path / "out.txt"
    out.write_text("PASS a: x\nFAIL b: y\n")
    with pytest.raises(check.CheckFailed, match="not PASS"):
        check.check_verify(str(out), [])
    out.write_text("")
    with pytest.raises(check.CheckFailed, match="no check lines"):
        check.check_verify(str(out), [])
    with pytest.raises(check.CheckFailed, match="sha256"):
        check.check_table_g2(str(out), [])


def bench_result(tmp_root, *args):
    res = subprocess.run(
        [sys.executable, "bench/run.py", *args], capture_output=True, text=True,
        cwd=tmp_root, timeout=300,
    )
    return res


@pytest.fixture
def checkout(tmp_path):
    """A copy of the files the benchmark needs: BENCHMARK.json, bench/ and src/."""
    root = tmp_path / "checkout"
    ignore = shutil.ignore_patterns("__pycache__", "out")
    shutil.copytree(BENCH, root / "bench", ignore=ignore)
    shutil.copytree(SRC, root / "src", ignore=ignore)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    return root


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_reports_every_declared_metric(checkout, trace):
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    res = bench_result(checkout, "--workload", "table-g2", "--seed", "1", "--seconds", "1",
                       "--trace", trace)
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert not os.listdir(checkout / "bench" / "out")


def test_run_fails_without_the_sources(checkout):
    shutil.rmtree(checkout / "src")
    res = bench_result(checkout, "--workload", "table-g2", "--seed", "1", "--seconds", "1",
                       "--trace", "0")
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
