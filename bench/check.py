"""Output checks for the benchmark workloads.

Usage:
    python3 bench/check.py WORKLOAD STDOUT_FILE -- <siegeleis arguments>

Exits 0 when the saved stdout of one run is correct for WORKLOAD, 1 with
the reason on stdout when it is not.  bench/run.py runs this in a process
of its own, outside the timed region, so that parsing a 25 MB boundary
table never grows the benchmark process.  The boundary check recomputes
its expectation here, without importing the library it checks.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter

# sha256 of `siegeleis table -g 2 --lmax 64 --format json` at the seed
# commit; CLI output must stay byte-identical.
TABLE_G2_SHA256 = "d6c525ca9dd788895cb61590ca5953fc32afd5195ed011a609d477eba7e478b5"


class CheckFailed(Exception):
    pass


def check_verify(path: str, argv: list[str]) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise CheckFailed("no check lines")
    bad = [line for line in lines if not line.startswith("PASS ")]
    if bad:
        raise CheckFailed(f"{len(bad)} line(s) not PASS, first: {bad[0][:200]}")


def check_table_g2(path: str, argv: list[str]) -> None:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    if digest.hexdigest() != TABLE_G2_SHA256:
        raise CheckFailed(f"sha256 {digest.hexdigest()} != recorded {TABLE_G2_SHA256}")


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def coxeter_length(images: list[int]) -> int:
    g = len(images)
    inv = sum(1 for i in range(g) for j in range(i + 1, g) if images[i] > images[j])
    neg = sum(1 for i in range(g) for j in range(i, g) if images[i] + images[j] > 2 * g + 1)
    return inv + neg


def dual_dot_weight(images: list[int], lam: list[int]) -> tuple[int, ...]:
    """dual(w * lam): the dot action w(lam + rho) - rho, reversed and negated."""
    g = len(lam)
    shifted = [a + g - i for i, a in enumerate(lam)]
    extended = shifted + [-x for x in reversed(shifted)]
    dot = [extended[m - 1] - (g - i) for i, m in enumerate(images)]
    return tuple(-x for x in reversed(dot))


def telescope_closed(a: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Drop a_k and lower the tail, with sign (-1)^(g-k), k = 1..g."""
    g = len(a)
    out: Counter = Counter()
    for k in range(1, g + 1):
        out[a[: k - 1] + tuple(x - 1 for x in a[k:])] += (-1) ** (g - k)
    return {wt: c for wt, c in out.items() if c}


def check_boundary(path: str, argv: list[str]) -> None:
    g = int(_flag(argv, "-g"))
    lam = [int(x) for x in _flag(argv, "-l").split(",")]
    with open(path, encoding="utf-8") as fh:
        terms = json.load(fh)
    if len(terms) != g * 2 ** g:
        raise CheckFailed(f"{len(terms)} terms, expected g*2^g = {g * 2 ** g}")
    by_w: dict[tuple[int, ...], list[dict]] = {}
    for t in terms:
        by_w.setdefault(tuple(t["w"]), []).append(t)
    if len(by_w) != 2 ** g:
        raise CheckFailed(f"{len(by_w)} source elements, expected 2^g = {2 ** g}")
    for w, ts in by_w.items():
        final = all(1 <= m <= 2 * g for m in w) and all(a < b for a, b in zip(w, w[1:]))
        if not final or any(a + b == 2 * g + 1 for a in w for b in w):
            raise CheckFailed(f"w={list(w)} is not a final element of W_{g}")
        if sorted(t["k"] for t in ts) != list(range(1, g + 1)):
            raise CheckFailed(f"w={list(w)}: k values {sorted(t['k'] for t in ts)}")
        got: Counter = Counter()
        for t in ts:
            got[tuple(t["weight"])] += t["sign"]
        got = {wt: c for wt, c in got.items() if c}
        scale = (-1) ** coxeter_length(list(w))
        expected = {
            wt: scale * c for wt, c in telescope_closed(dual_dot_weight(list(w), lam)).items()
        }
        if got != expected:
            raise CheckFailed(f"w={list(w)}: signed weights differ from the telescope")


CHECKS = {
    "verify-all": check_verify,
    "table-g2": check_table_g2,
    "boundary-deep": check_boundary,
}


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] not in CHECKS or argv[2] != "--":
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    workload, path, cli_args = argv[0], argv[1], argv[3:]
    try:
        CHECKS[workload](path, cli_args)
    except CheckFailed as exc:
        print(f"{workload}: {exc}")
        return 1
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        print(f"{workload}: malformed output: {exc!r}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
