"""siegeleis benchmark: each sample is one fresh `siegeleis` process.

Usage, from the repository root:
    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Users run the CLI once per question, so every sample spawns a new
interpreter, the way the `siegeleis` console script does, and times it
from outside.  The load is a closed loop: one client, one child at a
time.  A run takes samples for about S seconds (at least three untraced
samples, or one traced pair).

--trace 0 reports the end-to-end metrics: the child's fastest wall time
and least user+sys CPU time, its median peak RSS (all from wait4), and
the median set-up time, i.e. how long a fresh process takes to import
`siegeleis.cli` and build its parser; the medians of wall and CPU time
are printed too.  --trace 1 alternates untraced and traced samples
(bench/tracer.py) and reports the per-layer metrics, the tracing
overhead, and checks that traced stdout equals untraced stdout.

Each child writes its stdout to a file under bench/out/, never into the
benchmark's memory.  Outputs are checked outside the timed region by
bench/check.py, in its own process, once per distinct stdout digest.  A
sample fails on a nonzero exit or a failed check; the last line of
stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, BENCH)

import tracer  # noqa: E402  (bench/ is not a package)

# Forks the command given after the stdout path, with stdout to that file,
# and reports wall time from fork to exit, user+sys CPU, ru_maxrss (KiB)
# and exit code from wait4.  It runs as a fresh small interpreter because
# a child's ru_maxrss starts from its parent's peak RSS: forked straight
# from this process, a child would report this process's memory.
LAUNCHER = """
import os, sys, time
fd = os.open(sys.argv[1], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
t0 = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.dup2(fd, 1)
        os.execv(sys.argv[2], sys.argv[2:])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
print(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""

# What the `siegeleis` console script runs.
CLI_ENTRY = "import sys; from siegeleis.cli import main; sys.exit(main())"
SETUP_ENTRY = "import siegeleis.cli; siegeleis.cli._build_parser()"
SETUP_REPEATS = 15
MIN_SAMPLES = 3
# Leaves room inside the 180 s a run may take: no sample starts once the
# run would pass this, and a child is killed after CHILD_TIMEOUT_S.
HARD_LIMIT_S = 140.0
CHILD_TIMEOUT_S = 120.0


def boundary_lambda(seed: int) -> str:
    """A dominant genus-13 weight with entries in [0, 20], from the seed."""
    rng = random.Random(seed)
    return ",".join(str(x) for x in sorted((rng.randint(0, 20) for _ in range(13)), reverse=True))


@dataclass(frozen=True)
class Workload:
    why: str
    layers: str
    argv: Callable[[int], list[str]]


WORKLOADS = {
    "verify-all": Workload(
        why="the CI gate, `verify --suite all` at default flags; the only workload "
        "that runs glbranch's telescope oracle",
        layers="glbranch (telescope oracle, wedge_dual_tensor, straighten), suites, "
        "eiscalc.verify_partition; a little weylcomb and motivering",
        argv=lambda seed: ["verify", "--suite", "all"],
    ),
    "table-g2": Workload(
        why="the regression table over 1,089 genus-2 weights (0.97 MB of JSON); "
        "no Weyl-group and no telescope-oracle calls",
        layers="motivering (rewrite rules, arithmetic, rendering), eiscalc.rank1 and "
        "the g=2 formulas, cli rendering",
        argv=lambda seed: ["table", "-g", "2", "--lmax", "64", "--format", "json"],
    ),
    "boundary-deep": Workload(
        why="the genus-13 boundary table, g*2^g = 106,496 terms (~25 MB of JSON) "
        "held in memory; no motivering and no telescope-oracle calls",
        layers="weylcomb restriction, eiscalc.boundary_terms, cli rendering",
        argv=lambda seed: ["boundary", "-g", "13", "-l", boundary_lambda(seed), "--format", "json"],
    ),
}


class SetupError(Exception):
    pass


@dataclass(frozen=True)
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


def run_child(cmd: list[str], out_path: str, env: dict) -> Sample:
    """Run one child through LAUNCHER, with its stdout going to out_path."""
    launcher = subprocess.Popen(
        [sys.executable, "-I", "-S", "-c", LAUNCHER, out_path, *cmd],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        start_new_session=True,
    )
    try:
        report, _ = launcher.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        os.killpg(launcher.pid, signal.SIGKILL)
        launcher.wait()
        raise
    if launcher.returncode != 0:
        raise SetupError(f"launcher exited with {launcher.returncode} for {cmd}")
    wall, cpu, maxrss_kb, code = report.split()
    return Sample(float(wall), float(cpu), int(maxrss_kb) / 1024, int(code))


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Runner:
    """Runs and checks the samples of one workload."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.argv = WORKLOADS[name].argv(seed)
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.out_path = os.path.join(OUT, f"{name}.stdout")
        self.verdicts: dict[str, bool] = {}  # stdout digest -> check passed
        self.attempted = 0
        self.failed = 0

    def cli_sample(self, traced_stats: str | None = None,
                   expect_digest: str | None = None) -> tuple[Sample, str]:
        """One timed CLI run, then its check; returns the sample and stdout digest.

        A traced sample also fails when its stdout differs from expect_digest,
        the digest of the untraced sample before it.
        """
        if traced_stats is None:
            cmd = [sys.executable, "-c", CLI_ENTRY, *self.argv]
        else:
            cmd = [sys.executable, os.path.join(BENCH, "tracer.py"), "--stats", traced_stats,
                   "--", *self.argv]
        sample = run_child(cmd, self.out_path, self.env)
        digest = file_sha256(self.out_path)
        if digest not in self.verdicts:
            self.verdicts[digest] = self._check()
        same = expect_digest is None or digest == expect_digest
        if not same:
            print("traced stdout differs from untraced stdout", file=sys.stderr)
        self.record(sample.exit_code == 0 and self.verdicts[digest] and same)
        return sample, digest

    def _check(self) -> bool:
        res = subprocess.run(
            [sys.executable, os.path.join(BENCH, "check.py"), self.name, self.out_path,
             "--", *self.argv],
            stdin=subprocess.DEVNULL, capture_output=True, text=True, env=self.env, cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
        if res.returncode != 0:
            print(f"check failed: {res.stdout.strip()} {res.stderr.strip()}", file=sys.stderr)
        return res.returncode == 0

    def setup_sample(self) -> Sample:
        sample = run_child([sys.executable, "-c", SETUP_ENTRY], self.out_path, self.env)
        self.record(sample.exit_code == 0)
        return sample

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def probe_source(env: dict) -> None:
    """Make sure children import siegeleis from this checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "siegeleis", "cli.py")):
        raise SetupError(f"no siegeleis sources under {SRC}")
    res = subprocess.run(
        [sys.executable, "-c", "import siegeleis.cli; print(siegeleis.cli.__file__)"],
        stdin=subprocess.DEVNULL, capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    found = res.stdout.strip()
    if res.returncode != 0 or os.path.dirname(os.path.dirname(os.path.realpath(found))) != os.path.realpath(SRC):
        raise SetupError(f"siegeleis.cli does not import from {SRC}: {res.stderr.strip() or found}")


def source_sha256() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "siegeleis")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             cwd=ROOT, timeout=30)
    except OSError:
        return None
    return res.stdout.strip() or None


def keep_sampling(walls: list[float], t_start: float, deadline: float, min_samples: int) -> bool:
    """Another sample of the median length still ends before the deadline,
    or fewer than min_samples were taken and the hard limit allows one."""
    now = time.perf_counter()
    estimate = statistics.median(walls)
    if now - t_start + estimate > HARD_LIMIT_S:
        return False
    return len(walls) < min_samples or now + estimate <= deadline


def measure_end_to_end(runner: Runner, seconds: float, t_start: float):
    """Declared metrics, printed-only medians and sample counts of a --trace 0 run."""
    t_run = time.perf_counter()
    deadline = t_run + seconds
    samples: list[Sample] = []
    setup: list[float] = []
    while not samples or keep_sampling([s.wall_s for s in samples], t_start, deadline, MIN_SAMPLES):
        # spread the set-up samples over the run, so that both see the
        # same spells of a machine whose speed drifts
        due = SETUP_REPEATS * (time.perf_counter() - t_run) / seconds + 1
        while len(setup) < min(SETUP_REPEATS, due):
            setup.append(runner.setup_sample().wall_s)
        samples.append(runner.cli_sample()[0])
    while len(setup) < SETUP_REPEATS:
        setup.append(runner.setup_sample().wall_s)
    walls = [s.wall_s for s in samples]
    cpus = [s.cpu_s for s in samples]
    # The declared times are the fastest sample, because medians moved
    # with the machine's speed drift (bench/README.md); medians are
    # printed alongside.
    metrics = {
        "wall_min_s": (min(walls), "s"),
        "cpu_min_s": (min(cpus), "s"),
        "peak_rss_mb": (statistics.median(s.peak_rss_mb for s in samples), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    report = {"wall_s": (statistics.median(walls), "s"), "cpu_s": (statistics.median(cpus), "s")}
    counts = {"samples": len(samples), "setup_s": len(setup)}
    return metrics, report, counts


def measure_layers(runner: Runner, seconds: float, t_start: float):
    """Per-layer metrics and sample counts of a --trace 1 run (no printed-only figures)."""
    stats_path = os.path.join(OUT, f"{runner.name}.stats.json")
    deadline = time.perf_counter() + seconds
    untraced: list[float] = []
    traced: list[float] = []
    layer_runs: list[dict] = []
    while not traced or keep_sampling(
        [u + t for u, t in zip(untraced, traced)], t_start, deadline, 1
    ):
        plain, plain_digest = runner.cli_sample()
        untraced.append(plain.wall_s)
        stdout_bytes = os.path.getsize(runner.out_path)
        if os.path.exists(stats_path):
            os.remove(stats_path)
        sample, _ = runner.cli_sample(traced_stats=stats_path, expect_digest=plain_digest)
        traced.append(sample.wall_s)
        if os.path.exists(stats_path):
            with open(stats_path) as fh:
                layer_runs.append(tracer.layer_metrics(json.load(fh)))
    if not layer_runs:
        raise SetupError("no traced sample wrote its statistics")
    # median_low keeps a count a whole number that some sample measured
    metrics = {
        name: (statistics.median_low(run[name][0] for run in layer_runs), unit)
        for name, (_, unit) in layer_runs[0].items()
    }
    metrics["cli.stdout_bytes"] = (stdout_bytes, "bytes")
    metrics["trace_overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1, "ratio"
    )
    return metrics, {}, {"untraced": len(untraced), "traced": len(traced)}


def run_workload(name: str, args: argparse.Namespace) -> int:
    """Measure one workload and print its report; the last line is the result."""
    t_start = time.perf_counter()
    runner = Runner(name, args.seed)
    try:
        probe_source(runner.env)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    measure = measure_layers if args.trace else measure_end_to_end
    try:
        metrics, report, counts = measure(runner, args.seconds, t_start)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for leftover in os.listdir(OUT):
            os.remove(os.path.join(OUT, leftover))

    workload = WORKLOADS[name]
    context = {
        "workload": name,
        "argv": ["siegeleis", *runner.argv],
        "why": workload.why,
        "layers": workload.layers,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "samples": counts,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": source_sha256(),
    }
    print("context " + json.dumps(context))
    n = counts.get("samples") or counts["traced"]
    for metric, (value, unit) in {**metrics, **report}.items():
        print(f"{metric:45s} {value:>14.6g} {unit:10s} n={counts.get(metric, n)}"
              + ("  (not declared)" if metric in report else ""))
    print(f"{'failed_frac':45s} {runner.failed / runner.attempted:>14.6g} {'ratio':10s} "
          f"n={runner.attempted} ({runner.failed} failed)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="a workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # SIGTERM unwinds like an exception, so run_child stops its launcher
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        code = run_workload(name, args)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
