"""Command-line front end.

Subcommands evaluate the formulas for a given weight, dump BGG or
boundary tables, generate regression tables, and run the verification
suites.  Output is deterministic: identical argv gives identical bytes.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from typing import Iterable

from . import __version__, eiscalc, suites, weylcomb


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _parse_sp_weight(text: str) -> tuple[int, ...]:
    """--lambda's entries, each at most the output bound MAX_LAMBDA_ENTRY."""
    try:
        lam = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"--lambda: could not parse {text!r} as integers")
    if max(lam) > eiscalc.MAX_LAMBDA_ENTRY:
        raise ValueError(f"--lambda: entries must be <= {eiscalc.MAX_LAMBDA_ENTRY}")
    return lam


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
    sp.add_argument("--suite", choices=("all", *suites.SUITES), default="all")
    sp.add_argument("--max-g", type=int, default=suites.DEFAULT_MAX_G)
    sp.add_argument("--max-entry", type=int, default=suites.DEFAULT_MAX_ENTRY)
    sp.add_argument("--timings", action="store_true",
                    help="write each check's case count and seconds to stderr, "
                         "and with --format json into each record")
    add_format(sp)
    return p


def _chunks(records, per_chunk: int, head: str, sep: str, tail: str):
    """The text head + sep.join(records) + tail as a stream of chunks: the
    head, then `per_chunk` records at a time (one write per chunk, not per
    record), then the tail."""
    records = iter(records)
    yield head
    lead = ""
    while block := list(itertools.islice(records, per_chunk)):
        yield lead + sep.join(block)
        lead = sep
    yield tail


def _render_table(g: int, lmax: int, format: str):
    # Each row becomes its text line or its JSON record string as soon as
    # it is built, and is one chunk, so no row outlives its chunk.
    rows = eiscalc.table_rows(g, eiscalc.admissible_weights(g, lmax))
    if format == "json":
        # the bytes json.dumps gives for {"metadata": ..., "records": [...]},
        # one record at a time: g and lmax are ints, and the version
        # string needs no escaping
        metadata = f'{{"g": {g}, "lmax": {lmax}, "engine-version": "{__version__}"}}'
        records = (
            '{"lambda": ' + str(list(lam))
            + "".join([f', "{key}": {expr.render("json")}' for key, expr in row])
            + "}"
            for lam, row in rows
        )
        return _chunks(records, 1, f'{{"metadata": {metadata}, "records": [', ", ", "]}\n")
    lines = (
        "  ".join(
            [f"lambda=({','.join(map(str, lam))})"]
            + [f"{key}: {expr.render()}" for key, expr in row]
        )
        for lam, row in rows
    )
    header = f"# siegeleis table g={g} lmax={lmax} version={__version__}"
    return _chunks(itertools.chain([header], lines), 1, "", "\n", "\n")


def _entries_format(n: int, format: str) -> str:
    """The %-format of an entry tuple of length n, for one C call per
    tuple: in JSON, `str(list(entries))`, the bytes json.dumps gives with
    its ", " separator; in text, the entries comma-separated."""
    if format == "json":
        return "[" + ", ".join(["%d"] * n) + "]"
    return ",".join(["%d"] * n)


def _render_bgg(g, lam, format):
    terms = eiscalc.bgg_complex(g, lam)
    # each label is used once, so it is made as its record is written
    label = weylcomb.flip_namer(g, ", " if format == "json" else None)
    entries = _entries_format(g, format)
    if format == "json":
        # the bytes json.dumps gives for the list of records
        records = (
            f'{{"w": {label(w)}, "mu": {entries % mu}, '
            f'"degree": {degree}, "filtration": {filtration}}}'
            for w, mu, degree, filtration in terms
        )
        return _chunks(records, g, "[", ", ", "]\n")
    records = (
        f"w={label(w)} degree={degree} filtration={filtration} "
        f"mu=({entries % mu})"
        for w, mu, degree, filtration in terms
    )
    return _chunks(records, g, "", "\n", "\n")


def _render_boundary(g, lam, format):
    # One chunk per source-w block of g records (the block contract that
    # verify_partition checks), made as the blocks are generated: neither
    # the term list nor the whole output is held.
    blocks = eiscalc.boundary_blocks(g, lam)
    fields = eiscalc.boundary_k_fields(g, lam)
    # w and u are flip masks, indices into the names of genus g and g - 1
    names = ", " if format == "json" else None  # None: the text name's
    ws, us = weylcomb.flip_names(g, names), weylcomb.flip_names(g - 1, names)
    # One record template per (k, side), with k, side, twist and parity in
    # place; its placeholders are w, u, the weight's entries and the sign.
    if format == "json":
        # the bytes json.dumps gives for the list of records: ints,
        # "A"/"B" and bools need no escaping
        record = (
            '{"w": %%s, "k": %d, "side": "%s", "u": %%s, "weight": [%%s], '
            '"sign": %%d, "twist": %d, "parity_pass": %s}'
        )
        parity, head, sep, tail, comma = ("false", "true"), "[", ", ", "]\n", ", "
    else:
        record = "w=%%s k=%d side=%s u=%%s weight=(%%s) sign=%%+d twist=%d parity=%s"
        parity, head, sep, tail, comma = ("odd", "even"), "", "\n", "\n", ","
    templates = [
        {side: record % (k, side, twist, parity[even])
         for side, twist in (("A", 0), ("B", twist_b))}
        for k, (twist_b, even) in enumerate(fields, 1)
    ]

    def block_records():
        for mask, mu, records in blocks:
            w = ws[mask]
            weights = eiscalc.block_weights(mu, records, texts=True)
            yield sep.join([
                template[side] % (w, us[u], comma.join(weight), sign)
                for template, (side, u, _, sign), weight in zip(templates, records, weights)
            ])
    return _chunks(block_records(), 1, head, sep, tail)


def _stream(argv) -> tuple[int, Iterable[str], str]:
    """Execute one CLI invocation: (exit code, stdout chunks, stderr).

    Every input is checked before this returns, so a bad one gives exit
    code 2 and no chunk; the chunks of a good one are computed as they
    are consumed.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        if args.command == "rank1":
            expr = eiscalc.rank1(args.g, _parse_sp_weight(args.lam), expand=args.expand)
            return 0, [expr.render(args.format), "\n"], ""
        if args.command in ("total", "codim2", "kernel"):
            fn = getattr(eiscalc, f"{args.command}_g2")
            if args.command == "total" and args.form == 2:
                fn = eiscalc.total_g2_alt
            return 0, [fn(args.l, args.m).render(args.format), "\n"], ""
        if args.command in ("bgg", "boundary"):
            render = _render_bgg if args.command == "bgg" else _render_boundary
            return 0, render(args.g, _parse_sp_weight(args.lam), args.format), ""
        if args.command == "table":
            chunks = _render_table(args.g, args.lmax, args.format)
            if args.output:
                try:
                    with open(args.output, "w") as fh:
                        fh.writelines(chunks)
                except OSError as exc:
                    msg = f"-o/--output: cannot write {args.output}: {exc}"
                    raise ValueError(msg) from exc
                return 0, [], ""
            return 0, chunks, ""
        if args.command == "verify":
            report = suites.run_suite(args.suite, args.max_g, args.max_entry)
            timings = "".join(
                f"time {c.name}: {c.cases} cases, {c.seconds:.4f} s\n"
                for c in report.checks
            ) if args.timings else ""
            out = report.render(args.format, timings=args.timings)
            return (0 if report.passed else 1), [out, "\n"], timings
        raise ValueError(f"unknown command {args.command!r}")
    except ValueError as exc:
        return 2, [], f"error: {exc}\n"


def run(argv) -> tuple[int, str, str]:
    """Execute one CLI invocation; returns (exit code, stdout, stderr)."""
    code, chunks, err = _stream(argv)
    return code, "".join(chunks), err


def main() -> None:
    """The console entry: stdout is written chunk by chunk as it is made."""
    code, chunks, err = _stream(sys.argv[1:])
    try:
        for chunk in chunks:
            sys.stdout.write(chunk)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull so that the flush
        # at interpreter exit raises no second BrokenPipeError (the "Note
        # on SIGPIPE" in the `signal` docs), and report the cut-off output.
        import os  # only this path needs it

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.stderr.write(err)
    sys.exit(code)


if __name__ == "__main__":
    main()
