"""Spans around the library's public functions, installed from outside the
package, and the per-layer metrics derived from them.

The package binds names with ``from .x import y``, so a wrapper has to
replace every binding of the original object: module globals, values of
module-level dicts (``cli.GF_FUNCTIONS``, ``genfun._PERM_STATISTICS``),
the runners in ``checks.SUITES``, and default arguments (``check_diagram``
takes its maps as keyword defaults).

A span is (name, start, end, parent).  A generator gets one span per
resumption, so the time its consumer spends between two items is never
charged to it and spans stay properly nested.  Spans live in flat arrays
and are written out when the job ends.
"""

from __future__ import annotations

import array
import functools
import gzip
import importlib
import inspect
import json
from fractions import Fraction
from time import perf_counter

#: Map functions of ``bijections`` reported with calls, seconds and calls/s.
BIJECTION_MAPS = (
    "perm_to_history",
    "history_to_perm",
    "foata_of",
    "foata_inverse",
    "involution_to_path",
    "path_to_involution",
    "motzkin_to_perm",
)
PATH_ENUMERATORS = (
    "enumerate_motzkin",
    "enumerate_labeled",
    "enumerate_bicolored",
    "enumerate_histories",
)
#: cli.GF_FUNCTIONS names and the genfun functions behind them.
GF_NAMES = {
    "inv_des_fix": "inv_des_fix_gf",
    "weak_valley": "weak_valley_gf",
    "coinv_des": "coinv_des_gf",
    "f123_inv": "f123_inv",
    "f132_inv": "f132_inv",
    "f213_inv": "f213_inv",
    "f231_inv": "f231_inv",
    "f312_inv": "f312_inv",
    "f321_inv": "f321_inv",
    "f312_via_t1t2": "f312_via_t1t2",
    "f213_perm": "f213_perm",
    "f231_perm": "f231_perm",
    "f312_perm": "f312_perm",
    "f321_perm": "f321_perm",
}
SUITES = (
    "bijection",
    "diagram",
    "stat-transport",
    "s132-transport",
    "genfun",
    "cluster",
    "counting",
    "series",
)
MODULES = ("permutations", "patterns", "paths", "bijections", "series", "genfun", "checks", "cli")


def layer_metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = [
        "series.mul.calls", "series.mul.s", "series.mul.term_pairs", "series.mul.peak_terms",
        "series.fraction_share", "series.invert.calls", "series.invert.s",
        "series.sqrt.calls", "series.sqrt.s", "series.substitute.calls", "series.substitute.s",
        "series.fixed_point_solve.s", "series.fixed_point_solve.iterations",
        "series.solve_quadratic.s", "series.continued_fraction.s",
    ]
    names += [f"genfun.{key}.s" for key in GF_NAMES]
    names += [
        "genfun.cluster_count_gf.s", "genfun.cluster_gfs.s",
        "genfun.distribution_oracle.s", "genfun.distribution_oracle.members",
        "patterns.enumerate_class.s", "patterns.enumerate_class.members",
        "patterns.enumerate_class.members_per_s", "patterns.contains.calls",
        "patterns.contains.s", "patterns.occurrences.calls", "patterns.occurrences.s",
        "permutations.enumerate_permutations.s", "permutations.enumerate_permutations.members",
        "permutations.enumerate_involutions.s", "permutations.enumerate_involutions.members",
        "permutations.statistics.s",
    ]
    for gen in PATH_ENUMERATORS:
        names += [f"paths.{gen}.s", f"paths.{gen}.members"]
    names += ["paths.tunnels.calls", "paths.tunnels.s", "paths.named_statistic.s"]
    for name in BIJECTION_MAPS:
        names += [f"bijections.{name}.calls", f"bijections.{name}.s", f"bijections.{name}.per_s"]
    names += [
        "bijections.history_to_perm.first_call_s",
        "bijections.transport_statistics.s",
        "bijections.check_diagram.s",
    ]
    names += [f"checks.{suite}.s" for suite in SUITES]
    names += ["cli.main.calls", "cli.self_s", "cli.output_bytes", "trace.spans", "trace.overhead_s"]
    return names


class Tracer:
    """Spans in flat arrays plus counters that need the calls' arguments."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def leave(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap_call(self, fn, name: str, before=None, after=None):
        """Span around each call.  ``before`` may rewrite the arguments;
        ``after(args, result, seconds)`` runs after a call that returned,
        inside a span of its own, so its cost is charged to no layer."""
        nid = self.name_id(name)
        hook = self.name_id("trace.hooks")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            i = self.enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(i)
            if after is not None:
                j = self.enter(hook)
                after(args, result, self.end[i] - self.start[i])
                self.leave(j)
            return result

        return traced

    def wrap_generator(self, fn, name: str):
        """One span per resumption; counts the items yielded."""
        nid = self.name_id(name)
        members = name + ".members"
        self.counts.setdefault(members, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    i = self.enter(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self.leave(i)
                    self.counts[members] += 1
                    yield item
            finally:
                gen.close()

        return traced

    def write(self, path: str) -> None:
        payload = {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(payload, fh)


def _rebind(modules, original, wrapper) -> None:
    """Point every binding of ``original`` in the package at ``wrapper``."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
            elif isinstance(value, dict):
                for k, v in value.items():
                    if v is original:
                        value[k] = wrapper
            elif inspect.isfunction(value):
                fn = inspect.unwrap(value)
                if fn.__kwdefaults__:
                    for k, v in fn.__kwdefaults__.items():
                        if v is original:
                            fn.__kwdefaults__[k] = wrapper
                if fn.__defaults__ and any(v is original for v in fn.__defaults__):
                    fn.__defaults__ = tuple(wrapper if v is original else v for v in fn.__defaults__)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer of the imported package."""
    pkg = importlib.import_module("motzkinperm")
    mods = {name: importlib.import_module(f"motzkinperm.{name}") for name in MODULES}
    modules = [pkg, *mods.values()]

    def wrap(module: str, attr: str, name: str, **hooks) -> None:
        original = getattr(mods[module], attr)
        _rebind(modules, original, tracer.wrap_call(original, name, **hooks))

    def wrap_gen(module: str, attr: str, name: str) -> None:
        original = getattr(mods[module], attr)
        _rebind(modules, original, tracer.wrap_generator(original, name))

    series_cls = mods["series"].TruncatedSeries
    tracer.counts.update(
        {"series.mul.term_pairs": 0, "series.mul.peak_terms": 0,
         "series.mul.coefficients": 0, "series.mul.fractions": 0}
    )

    def mul_after(args, result, seconds) -> None:
        a, b = args
        if not isinstance(result, series_cls):
            return
        tracer.add("series.mul.term_pairs", len(a.terms) * (len(b.terms) if isinstance(b, series_cls) else 1))
        terms = result.terms
        if len(terms) > tracer.counts["series.mul.peak_terms"]:
            tracer.counts["series.mul.peak_terms"] = len(terms)
        tracer.add("series.mul.coefficients", len(terms))
        tracer.add("series.mul.fractions", sum(1 for v in terms.values() if type(v) is Fraction))

    mul = tracer.wrap_call(series_cls.__mul__, "series.mul", after=mul_after)
    series_cls.__mul__ = series_cls.__rmul__ = mul
    for method in ("invert", "sqrt", "substitute"):
        setattr(series_cls, method, tracer.wrap_call(getattr(series_cls, method), f"series.{method}"))

    tracer.counts["series.fixed_point_solve.iterations"] = 0

    def count_iterations(args, kwargs):
        mapping = args[0]

        def counted(f):
            tracer.counts["series.fixed_point_solve.iterations"] += 1
            return mapping(f)

        return (counted, *args[1:]), kwargs

    wrap("series", "fixed_point_solve", "series.fixed_point_solve", before=count_iterations)
    wrap("series", "solve_quadratic", "series.solve_quadratic")
    wrap("series", "continued_fraction", "series.continued_fraction")

    for key, attr in GF_NAMES.items():
        wrap("genfun", attr, f"genfun.{key}")
    wrap("genfun", "cluster_count_gf", "genfun.cluster_count_gf")
    wrap("genfun", "cluster_gfs", "genfun.cluster_gfs")
    tracer.counts["genfun.distribution_oracle.members"] = 0
    wrap(
        "genfun", "distribution_oracle", "genfun.distribution_oracle",
        after=lambda args, table, seconds: tracer.add("genfun.distribution_oracle.members", table.total()),
    )

    wrap_gen("patterns", "enumerate_class", "patterns.enumerate_class")
    wrap("patterns", "contains", "patterns.contains")
    wrap("patterns", "occurrences", "patterns.occurrences")

    wrap_gen("permutations", "enumerate_permutations", "permutations.enumerate_permutations")
    wrap_gen("permutations", "enumerate_involutions", "permutations.enumerate_involutions")
    for stat in ("inv_count", "coinv_count", "des_count", "fix_count"):
        wrap("permutations", stat, "permutations.statistics")

    for gen in PATH_ENUMERATORS:
        wrap_gen("paths", gen, f"paths.{gen}")
    wrap("paths", "tunnels", "paths.tunnels")
    wrap("paths", "named_statistic", "paths.named_statistic")

    tracer.counts["bijections.history_to_perm.first_call_s"] = 0.0
    sizes_seen: set[int] = set()

    def first_call(args, result, seconds) -> None:
        # the first call at each size builds that size's search table
        if args[0].n not in sizes_seen:
            sizes_seen.add(args[0].n)
            tracer.add("bijections.history_to_perm.first_call_s", seconds)

    for name in (*BIJECTION_MAPS, "transport_statistics", "check_diagram"):
        wrap("bijections", name, f"bijections.{name}",
             after=first_call if name == "history_to_perm" else None)

    suites = mods["checks"].SUITES
    for suite in SUITES:
        runner, defaults = suites[suite]
        suites[suite] = (tracer.wrap_call(runner, f"checks.{suite}"), defaults)

    wrap("cli", "main", "cli.main")


def layer_metrics(tracer: Tracer, output_bytes: int) -> dict[str, float]:
    """Self times, counts and rates of every layer, derived from the spans.

    ``.s`` is self time: a span's duration minus the part its child spans
    cover.  Rates (``per_s``, ``members_per_s``) divide by inclusive time,
    counting only the outermost span of a name.
    """
    n = len(tracer.name)
    names = tracer.names
    start, end, parent, name = tracer.start, tracer.end, tracer.parent, tracer.name
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    for i in range(n):
        key = names[name[i]]
        duration = end[i] - start[i]
        self_s[key] = self_s.get(key, 0.0) + duration - child[i]
        calls[key] = calls.get(key, 0) + 1
        p = parent[i]
        while p >= 0 and name[p] != name[i]:
            p = parent[p]
        if p < 0:
            inclusive[key] = inclusive.get(key, 0.0) + duration

    counts = tracer.counts

    def rate(count: float, key: str) -> float:
        seconds = inclusive.get(key, 0.0)
        return count / seconds if seconds else 0.0

    out: dict[str, float] = {}
    for metric in layer_metric_names():
        base, _, field = metric.rpartition(".")
        if field == "s":
            out[metric] = self_s.get(base, 0.0)
        elif field == "calls":
            out[metric] = calls.get(base, 0)
        elif field == "members":
            out[metric] = counts.get(metric, 0)
        elif field == "per_s":
            out[metric] = rate(calls.get(base, 0), base)
        elif field == "members_per_s":
            out[metric] = rate(counts.get(base + ".members", 0), base)
    coefficients = counts.get("series.mul.coefficients", 0)
    out.update(
        {
            "series.mul.term_pairs": counts.get("series.mul.term_pairs", 0),
            "series.mul.peak_terms": counts.get("series.mul.peak_terms", 0),
            "series.fraction_share": counts.get("series.mul.fractions", 0) / coefficients if coefficients else 0.0,
            "series.fixed_point_solve.iterations": counts.get("series.fixed_point_solve.iterations", 0),
            "bijections.history_to_perm.first_call_s": counts.get("bijections.history_to_perm.first_call_s", 0.0),
            "cli.self_s": self_s.get("cli.main", 0.0),
            "cli.output_bytes": output_bytes,
            "trace.spans": n,
        }
    )
    return out
