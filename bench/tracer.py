"""Per-layer call counts and self time for one siegeleis CLI invocation.

Usage:
    PYTHONPATH=src python3 bench/tracer.py --stats STATS.json -- <siegeleis arguments>

The six layers are `weylcomb`, `glbranch`, `motivering`, `eiscalc`,
`suites` and `cli`.  Every function a layer module defines, and the
public methods, constructors and operator/rendering dunders of its
classes, are replaced by one counting wrapper each.  Module-level
functions are replaced in every module of the package that holds a
reference to them, so `eiscalc.restrict_final` and
`suites.dominant_weights` are traced as well as the definitions; methods
are replaced on the class itself.

A wrapper adds to one record per function: calls, self time and
inclusive time.  Self time comes from a stack of child-time
accumulators, so no spans are stored however many calls there are.  A
generator function counts one call per resumption, as cProfile does.
Probes on a few functions count derived quantities (zero straightenings,
distinct `wedge_dual_tensor` arguments, boundary terms produced, no-op
normalizations, suite checks); they run after the callee's frame closes,
so their cost lands in the caller's self time.

The CLI's stdout is written unchanged; the statistics go to STATS.json.
`layer_metrics` turns such a file into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import time

PACKAGE = "siegeleis"
LAYERS = ("weylcomb", "glbranch", "motivering", "eiscalc", "suites", "cli")

# Dunders traced when the layer's source defines them.  `__init__` is
# traced even when a dataclass generated it, because it counts
# constructions; generated `__eq__`/`__hash__` are not the layer's code.
_DUNDERS = frozenset(
    {"__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
     "__eq__", "__hash__", "__str__", "__repr__"}
)

SUITE_FUNCTIONS = {
    "weyl": "suites.verify_weyl",
    "telescope": "suites.verify_telescope",
    "partition": "suites.verify_partition_suite",
    "g2": "suites.verify_g2",
    "duality": "suites.verify_duality",
}
G2_FORMULAS = ("eiscalc.total_g2", "eiscalc.total_g2_alt", "eiscalc.codim2_g2", "eiscalc.kernel_g2")
MOTIVE_ARITH = tuple(
    f"motivering.MotiveExpr.{op}" for op in ("__add__", "__sub__", "__neg__", "__mul__")
)
MOTIVE_RENDER = (
    "motivering.MotiveExpr.render", "motivering.MotiveExpr.to_obj",
    "motivering.MotiveExpr.__str__", "motivering._term_str",
    "motivering.Symbol.__str__", "motivering.VerificationReport.render",
)
CLI_RENDER = ("cli._render_table", "cli._render_bgg", "cli._render_boundary")


def targets(modules):
    """Yield (record name, owner, attribute, function) for everything traced.

    `modules` maps each layer name to its imported module.  The same
    function can appear under two attributes (`__rmul__ = __mul__`); it
    gets one record, named by its qualified name.
    """
    for layer, module in modules.items():
        for attr, value in vars(module).items():
            if inspect.isfunction(value) and value.__module__ == module.__name__:
                yield f"{layer}.{value.__qualname__}", module, attr, value
            elif (
                inspect.isclass(value)
                and value.__module__ == module.__name__
                and not issubclass(value, BaseException)
            ):
                for cattr, raw in vars(value).items():
                    fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                    if not inspect.isfunction(fn):
                        continue
                    if cattr == "__init__" or (
                        (not cattr.startswith("_") or cattr in _DUNDERS)
                        and fn.__code__.co_filename == module.__file__
                    ):
                        yield f"{layer}.{fn.__qualname__}", value, cattr, fn


def layer_modules():
    return {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}


def _probe_straighten(tracer, args, kwargs, out):
    tracer.counters["glbranch.straighten.zero"] += out is None


def _probe_wedge(tracer, args, kwargs, out):
    tracer.distinct_wedge.add((args, tuple(kwargs.items())))


def _probe_boundary(tracer, args, kwargs, out):
    tracer.counters["eiscalc.boundary_terms.terms_out"] += len(out)
    tracer.counters["eiscalc.boundary_terms.parity_pass"] += sum(t.parity_pass for t in out)


def _probe_normalize(tracer, args, kwargs, out):
    # compare the term maps directly: MotiveExpr.__eq__ is itself traced
    tracer.counters["motivering.normalize.noop"] += out._terms == args[0]._terms


def _probe_suite(tracer, args, kwargs, out):
    tracer.counters["suites.checks"] += len(out.checks)


PROBES = {
    "glbranch.straighten": _probe_straighten,
    "glbranch.wedge_dual_tensor": _probe_wedge,
    "eiscalc.boundary_terms": _probe_boundary,
    "motivering.MotiveExpr.normalize": _probe_normalize,
    **{name: _probe_suite for name in SUITE_FUNCTIONS.values()},
}


class Tracer:
    """Counting wrappers for the layer functions of one process."""

    def __init__(self):
        self.records: dict[str, list[int]] = {}  # name -> [calls, self_ns, incl_ns]
        self.counters = dict.fromkeys(
            ("glbranch.straighten.zero", "eiscalc.boundary_terms.terms_out",
             "eiscalc.boundary_terms.parity_pass", "motivering.normalize.noop",
             "suites.checks"),
            0,
        )
        self.distinct_wedge: set = set()
        self._stack = [0]

    def install(self):
        """Wrap every target at its definition and at each import site."""
        wrappers = {}
        for name, owner, attr, fn in targets(layer_modules()):
            if fn not in wrappers:
                wrappers[fn] = self._wrap(name, fn)
            raw = vars(owner)[attr]
            wrapped = wrappers[fn]
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(wrapped)
            setattr(owner, attr, wrapped)
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    def _wrap(self, name, fn):
        record = self.records.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns
        probe = PROBES.get(name)

        def close_frame(t0):
            dt = clock() - t0
            record[0] += 1
            record[1] += dt - stack.pop()
            record[2] += dt
            stack[-1] += dt

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    stack.append(0)
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close_frame(t0)
                    yield item
        elif probe is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack.append(0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close_frame(t0)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack.append(0)
                t0 = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    close_frame(t0)
                probe(self, args, kwargs, out)
                return out
        return wrapper

    def stats(self) -> dict:
        counters = dict(self.counters)
        counters["glbranch.wedge_dual_tensor.distinct"] = len(self.distinct_wedge)
        return {
            "functions": {
                name: {"calls": c, "self_ns": s, "incl_ns": i}
                for name, (c, s, i) in sorted(self.records.items())
            },
            "counters": counters,
        }


def layer_metrics(stats: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from a stats file's content.

    A ratio whose base is zero (the layer did no such work) reads 0.
    """
    fns = stats["functions"]
    counters = stats["counters"]

    def calls(name):
        return fns.get(name, {}).get("calls", 0)

    def self_s(*names):
        return sum(fns.get(n, {}).get("self_ns", 0) for n in names) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    def layer_self(layer):
        return self_s(*(n for n in fns if n.split(".", 1)[0] == layer))

    terms_out = counters["eiscalc.boundary_terms.terms_out"]
    m = {
        "glbranch.self_s": (layer_self("glbranch"), "s"),
        "glbranch.telescope_bruteforce.calls": (calls("glbranch.telescope_bruteforce"), "count"),
        "glbranch.telescope_bruteforce.self_s": (self_s("glbranch.telescope_bruteforce"), "s"),
        "glbranch.wedge_dual_tensor.calls": (calls("glbranch.wedge_dual_tensor"), "count"),
        "glbranch.wedge_dual_tensor.self_s": (self_s("glbranch.wedge_dual_tensor"), "s"),
        "glbranch.wedge_dual_tensor.distinct_frac": (
            ratio(counters["glbranch.wedge_dual_tensor.distinct"], calls("glbranch.wedge_dual_tensor")),
            "ratio",
        ),
        "glbranch.straighten.calls": (calls("glbranch.straighten"), "count"),
        "glbranch.straighten.zero_frac": (
            ratio(counters["glbranch.straighten.zero"], calls("glbranch.straighten")), "ratio"
        ),
        "glbranch.VirtualBundle.constructed": (calls("glbranch.VirtualBundle.__init__"), "count"),
        "glbranch.GlWeight.constructed": (calls("glbranch.GlWeight.__init__"), "count"),
        "weylcomb.self_s": (layer_self("weylcomb"), "s"),
        "weylcomb.WeylElement.constructed": (calls("weylcomb.WeylElement.__init__"), "count"),
        "weylcomb.restrict_final.calls": (calls("weylcomb.restrict_final"), "count"),
        "weylcomb.restrict_final.self_s": (self_s("weylcomb.restrict_final"), "s"),
        "weylcomb.enumerate_final.self_s": (self_s("weylcomb.enumerate_final"), "s"),
        "weylcomb.elements_per_boundary_term": (
            ratio(calls("weylcomb.WeylElement.__init__"), terms_out), "count/term"
        ),
        "eiscalc.self_s": (layer_self("eiscalc"), "s"),
        "eiscalc.boundary_terms.calls": (calls("eiscalc.boundary_terms"), "count"),
        "eiscalc.boundary_terms.self_s": (self_s("eiscalc.boundary_terms"), "s"),
        "eiscalc.boundary_terms.terms_out": (terms_out, "count"),
        "eiscalc.boundary_terms.parity_pass_frac": (
            ratio(counters["eiscalc.boundary_terms.parity_pass"], terms_out), "ratio"
        ),
        "eiscalc.verify_partition.calls": (calls("eiscalc.verify_partition"), "count"),
        "eiscalc.verify_partition.self_s": (self_s("eiscalc.verify_partition"), "s"),
        "eiscalc.rank1.calls": (calls("eiscalc.rank1"), "count"),
        "eiscalc.rank1.self_s": (self_s("eiscalc.rank1"), "s"),
        "eiscalc.g2_formulas.self_s": (self_s(*G2_FORMULAS), "s"),
        "motivering.self_s": (layer_self("motivering"), "s"),
        "motivering.MotiveExpr.constructed": (calls("motivering.MotiveExpr.__init__"), "count"),
        "motivering.normalize.calls": (calls("motivering.MotiveExpr.normalize"), "count"),
        "motivering.normalize.self_s": (self_s("motivering.MotiveExpr.normalize"), "s"),
        "motivering.normalize.noop_frac": (
            ratio(counters["motivering.normalize.noop"], calls("motivering.MotiveExpr.normalize")),
            "ratio",
        ),
        "motivering.arith.self_s": (self_s(*MOTIVE_ARITH), "s"),
        "motivering.render.self_s": (self_s(*MOTIVE_RENDER), "s"),
        "suites.self_s": (layer_self("suites"), "s"),
        **{
            f"suites.{suite}.incl_s": (fns.get(name, {}).get("incl_ns", 0) / 1e9, "s")
            for suite, name in SUITE_FUNCTIONS.items()
        },
        "suites.checks": (counters["suites.checks"], "count"),
        "cli.self_s": (layer_self("cli"), "s"),
        "cli.render.self_s": (self_s(*CLI_RENDER), "s"),
    }
    return m


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--stats", required=True, help="file to write the statistics to")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then siegeleis arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    cli = importlib.import_module(f"{PACKAGE}.cli")
    tracer = Tracer()
    tracer.install()
    sys.argv = ["siegeleis", *cli_args]
    try:
        cli.main()
    finally:
        with open(args.stats, "w") as fh:
            json.dump(tracer.stats(), fh)


if __name__ == "__main__":
    main()
