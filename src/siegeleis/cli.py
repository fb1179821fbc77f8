"""Command-line front end.

Subcommands evaluate the formulas for a given weight, dump BGG or
boundary tables, generate regression tables, and run the verification
suites.  Output is deterministic: identical argv gives identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, eiscalc, suites
from .motivering import MotiveExpr


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_sp_weight(text: str, g: int) -> tuple[int, ...]:
    try:
        lam = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise _UsageError(f"--lambda: could not parse {text!r} as integers")
    if len(lam) != g:
        raise _UsageError(f"--lambda: expected {g} entries, got {len(lam)}")
    if any(lam[i] < lam[i + 1] for i in range(g - 1)) or (lam and lam[-1] < 0):
        raise _UsageError(
            f"--lambda: {text!r} is not weakly decreasing and nonnegative"
        )
    return lam


def _check_parity(l: int, m: int):
    if not l >= m >= 0:
        raise _UsageError(f"-l/-m: need l >= m >= 0, got l={l}, m={m}")
    if (l - m) % 2:
        raise _UsageError(f"-l/-m: need l = m (mod 2), got l={l}, m={m}")


def _build_parser() -> _Parser:
    p = _Parser(prog="siegeleis", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("rank1", help="rank-one Eisenstein contribution")
    sp.add_argument("-g", type=int, required=True)
    sp.add_argument("-l", "--lambda", dest="lam", required=True)
    sp.add_argument("--expand", action="store_true")
    add_format(sp)

    for name in ("total", "codim2", "kernel"):
        sp = sub.add_parser(name, help=f"genus-2 {name} formula")
        sp.add_argument("-l", type=int, required=True, dest="l")
        sp.add_argument("-m", type=int, required=True, dest="m")
        if name == "total":
            sp.add_argument("--form", type=int, choices=(1, 2), default=1)
        add_format(sp)

    for name in ("bgg", "boundary"):
        sp = sub.add_parser(name, help=f"{name} terms for (g, lambda)")
        sp.add_argument("-g", type=int, required=True)
        sp.add_argument("-l", "--lambda", dest="lam", required=True)
        add_format(sp)

    sp = sub.add_parser("table", help="regression table over admissible weights")
    sp.add_argument("-g", type=int, required=True)
    sp.add_argument("--lmax", type=int, required=True)
    sp.add_argument("-o", "--output", default=None)
    add_format(sp)

    sp = sub.add_parser("verify", help="run verification suites")
    sp.add_argument(
        "--suite",
        choices=("all", "weyl", "telescope", "partition", "g2", "duality"),
        default="all",
    )
    sp.add_argument("--max-g", type=int, default=4)
    sp.add_argument("--max-entry", type=int, default=6)
    add_format(sp)
    return p


def _admissible_weights(g: int, lmax: int):
    import itertools

    if g == 1:
        return [(k,) for k in range(0, lmax + 1, 2)]
    out = [
        tuple(reversed(c))
        for c in itertools.combinations_with_replacement(range(lmax + 1), g)
        if sum(c) % 2 == 0
    ]
    return sorted(out)


def _table_records(g: int, lmax: int):
    records = []
    for lam in _admissible_weights(g, lmax):
        rec = {"lambda": list(lam), "rank1": eiscalc.rank1(g, lam, expand=g <= 2)}
        if g == 2:
            l, m = lam
            rec["total"] = eiscalc.total_g2(l, m)
            rec["codim2"] = eiscalc.codim2_g2(l, m)
            if l > m > 0:
                rec["kernel"] = eiscalc.kernel_g2(l, m)
        records.append(rec)
    return records


def _render_table(g: int, lmax: int, format: str) -> str:
    records = _table_records(g, lmax)
    if format == "json":
        payload = {
            "metadata": {"g": g, "lmax": lmax, "engine-version": __version__},
            "records": [
                {
                    key: (val.to_obj() if isinstance(val, MotiveExpr) else val)
                    for key, val in rec.items()
                }
                for rec in records
            ],
        }
        return json.dumps(payload, separators=(", ", ": "), sort_keys=False)
    lines = [f"# siegeleis table g={g} lmax={lmax} version={__version__}"]
    for rec in records:
        fields = [f"lambda=({','.join(str(a) for a in rec['lambda'])})"]
        for key in ("rank1", "total", "codim2", "kernel"):
            if key in rec:
                fields.append(f"{key}: {rec[key].render()}")
        lines.append("  ".join(fields))
    return "\n".join(lines)


def _render_bgg(g, lam, format):
    terms = eiscalc.bgg_complex(g, lam)
    if format == "json":
        return json.dumps(
            [
                {
                    "w": list(t.w.images),
                    "mu": list(t.mu.entries),
                    "degree": t.degree,
                    "filtration": t.filtration,
                }
                for t in terms
            ],
            separators=(", ", ": "),
        )
    return "\n".join(
        f"w={t.w} degree={t.degree} filtration={t.filtration} "
        f"mu=({','.join(str(a) for a in t.mu.entries)})"
        for t in terms
    )


def _render_boundary(g, lam, format):
    terms = eiscalc.boundary_terms(g, lam)
    if format == "json":
        # one record at a time, with the bytes json.dumps gives for the
        # whole list (tuples encode as lists)
        encode = json.JSONEncoder(separators=(", ", ": ")).encode
        return "[" + ", ".join(
            encode(
                {
                    "w": t.source_w.images,
                    "k": t.k,
                    "side": t.side,
                    "u": t.u.images,
                    "weight": t.weight.entries,
                    "sign": t.sign,
                    "twist": t.twist,
                    "parity_pass": t.parity_pass,
                }
            )
            for t in terms
        ) + "]"
    return "\n".join(
        f"w={t.source_w} k={t.k} side={t.side} u={t.u} "
        f"weight=({','.join(str(a) for a in t.weight.entries)}) "
        f"sign={'+' if t.sign > 0 else '-'}1 twist={t.twist} "
        f"parity={'even' if t.parity_pass else 'odd'}"
        for t in terms
    )


def run(argv) -> tuple[int, str, str]:
    """Execute one CLI invocation; returns (exit code, stdout, stderr)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        if args.command == "rank1":
            lam = _parse_sp_weight(args.lam, args.g)
            if args.g < 1:
                raise _UsageError("-g: genus must be >= 1")
            expr = eiscalc.rank1(args.g, lam, expand=args.expand)
            return 0, expr.render(args.format) + "\n", ""
        if args.command in ("total", "codim2", "kernel"):
            _check_parity(args.l, args.m)
            if args.command == "total":
                fn = eiscalc.total_g2 if args.form == 1 else eiscalc.total_g2_alt
                expr = fn(args.l, args.m)
            elif args.command == "codim2":
                expr = eiscalc.codim2_g2(args.l, args.m)
            else:
                if not args.l > args.m > 0:
                    raise _UsageError(
                        f"-l/-m: kernel requires a regular weight (l > m > 0), "
                        f"got l={args.l}, m={args.m}"
                    )
                expr = eiscalc.kernel_g2(args.l, args.m)
            return 0, expr.render(args.format) + "\n", ""
        if args.command == "bgg":
            lam = _parse_sp_weight(args.lam, args.g)
            return 0, _render_bgg(args.g, lam, args.format) + "\n", ""
        if args.command == "boundary":
            lam = _parse_sp_weight(args.lam, args.g)
            return 0, _render_boundary(args.g, lam, args.format) + "\n", ""
        if args.command == "table":
            if args.g < 1:
                raise _UsageError("-g: genus must be >= 1")
            if args.lmax < 0 or args.lmax > 64:
                raise _UsageError("--lmax: must be in [0, 64]")
            text = _render_table(args.g, args.lmax, args.format) + "\n"
            if args.output:
                try:
                    with open(args.output, "w") as fh:
                        fh.write(text)
                except OSError as exc:
                    return 2, "", f"-o/--output: cannot write {args.output}: {exc}\n"
                return 0, "", ""
            return 0, text, ""
        if args.command == "verify":
            # the weyl checks cost about g^2 * 2^g up to max-g, the
            # telescope checks about max-entry^4
            if not 1 <= args.max_g <= 16:
                raise _UsageError(f"--max-g: must be in [1, 16], got {args.max_g}")
            if not 0 <= args.max_entry <= 12:
                raise _UsageError(
                    f"--max-entry: must be in [0, 12], got {args.max_entry}"
                )
            report = suites.run_suite(args.suite, args.max_g, args.max_entry)
            out = report.render(args.format) + "\n"
            return (0 if report.passed else 1), out, ""
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        return 2, "", f"error: {exc}\n"
    except ValueError as exc:
        return 2, "", f"error: {exc}\n"


def main() -> None:
    code, out, err = run(sys.argv[1:])
    if out:
        sys.stdout.write(out)
    if err:
        sys.stderr.write(err)
    sys.exit(code)


if __name__ == "__main__":
    main()
