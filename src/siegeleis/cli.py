"""Command-line front end.

Subcommands evaluate the formulas for a given weight, dump BGG or
boundary tables, generate regression tables, and run the verification
suites.  Output is deterministic: identical argv gives identical bytes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import Callable, Iterable

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
                    help="write each check's case count and seconds to stderr")
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


def _table_records(g: int, weights):
    """One row per weight, as it is computed: (lambda, [(key, expression)])
    with the keys in column order."""
    for lam in weights:
        row = [("rank1", eiscalc.rank1(g, lam, expand=g <= 2))]
        if g == 2:
            l, m = lam
            row.append(("total", eiscalc.total_g2(l, m)))
            row.append(("codim2", eiscalc.codim2_g2(l, m)))
            if l > m > 0:
                row.append(("kernel", eiscalc.kernel_g2(l, m)))
        yield lam, row


def _render_table(g: int, lmax: int, format: str):
    # Each row becomes its text line or its JSON record string as soon as
    # it is built, and is one chunk, so no row outlives its chunk.
    rows = _table_records(g, eiscalc.admissible_weights(g, lmax))
    if format == "json":
        # the bytes json.dumps gives for {"metadata": ..., "records": [...]},
        # one record at a time
        metadata = json.dumps({"g": g, "lmax": lmax, "engine-version": __version__})
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


def _label(g: int, format: str) -> Callable[[int], str]:
    """The name in `format` of a final element of genus g by its flip
    mask, from two half tables as `weylcomb.flip_dot_actions` builds the
    dot actions, so no element is built.  The images of a flip set are
    the unflipped indices ascending, then 2g+1-i for the flipped i
    descending; over the halves 1..h and h+1..g, h = g // 2, that is the
    first half's unflipped part (the head), the second half's two parts
    (the middle) and the first half's flipped part (the tail).  The first
    half holds the mask's high bits, m >> s for the s = g - h bits of the
    second.  Each part is formatted once, O(2^(g/2)) strings, and each
    mask costs three lookups and two concatenations.  The middle holds
    s >= 1 indices for g >= 1, so the head and the tail carry the
    separators next to it."""
    sep = ", " if format == "json" else "" if 2 * g <= 9 else ","
    h = g // 2
    s = g - h
    low = (1 << s) - 1

    def text(part):
        # flip_dot_actions's parts of v = (1, ..., g): i unflipped, -i flipped
        return sep.join([str(i if i > 0 else 2 * g + 1 + i) for i in part])

    v = range(1, g + 1)
    middles = [text(u + f) for u, f, _ in weylcomb._half_parts(v, h + 1, g, g)]
    firsts = weylcomb._half_parts(v, 1, h, g)
    heads = ["[" + text(u) + (sep if u else "") for u, _, _ in firsts]
    tails = [(sep if f else "") + text(f) + "]" for _, f, _ in firsts]
    return lambda m: heads[m >> s] + middles[m & low] + tails[m >> s]


def _labels(g: int, format: str) -> list[str]:
    """`_label` of every final element of genus g, indexed by flip mask:
    the table `boundary` reads, as it uses each label g or 2g times."""
    return list(map(_label(g, format), range(1 << g)))


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
    label = _label(g, format)
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
    twists = eiscalc.boundary_twists(g, lam)
    # A block's w and each record's u are flip masks, that is indices
    # into the 2^g final elements of genus g and the 2^(g-1) of genus g-1.
    ws, us = _labels(g, format), _labels(g - 1, format)
    # One record template per (k, side), with k, side and twist in place;
    # its placeholders are w, u, the weight's entries, sign and parity.
    if format == "json":
        # the bytes json.dumps gives for the list of records: ints,
        # "A"/"B" and bools need no escaping
        record = (
            '{"w": %%s, "k": %d, "side": "%s", "u": %%s, "weight": [%%s], '
            '"sign": %%d, "twist": %d, "parity_pass": %%s}'
        )
        parity, head, sep, tail, comma = ("true", "false"), "[", ", ", "]\n", ", "
    else:
        record = "w=%%s k=%d side=%s u=%%s weight=(%%s) sign=%%+d twist=%d parity=%%s"
        parity, head, sep, tail, comma = ("even", "odd"), "", "\n", "\n", ","
    templates = [
        {side: record % (k, side, twist) for side, twist in by_side.items()}
        for k, by_side in enumerate(twists, 1)
    ]

    def block_records():
        # The weight of a record at telescope index l is mu[:l-1] +
        # (mu[l:] - 1), so its entries are cut from mu's and mu - 1's,
        # each formatted once per block, and its entry sum is sum(mu) -
        # mu_l - (g - l).
        for mask, mu, records in blocks:
            w = ws[mask]
            top = list(map(str, mu))
            low = [str(x - 1) for x in mu]
            odd = sum(mu) - g
            yield sep.join([
                template[side] % (
                    w, us[u], comma.join(top[: l - 1] + low[l:]), sign,
                    parity[(odd + l - mu[l - 1]) & 1],
                )
                for template, (side, u, l, sign) in zip(templates, records)
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
            return (0 if report.passed else 1), [report.render(args.format), "\n"], timings
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
