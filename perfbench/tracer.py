"""In-memory span tracer for fillgraph's public entry points.

The tracer replaces public functions and methods with wrappers that record
one span per call: name, parent span, start and end (ns), and a note (the
exception type a call raised, or a value the call site asks to keep).
Spans stay in memory until :meth:`Tracer.write` at the end of the run.

Modules that import an entry point by name (``synthesis`` binds ``join``,
``plumbing`` and ``connected_sum`` at import, ``oracle`` binds
``intersection_graph``) hold their own reference, so :meth:`Tracer.install`
swaps every binding of the original object in every ``fillgraph`` module.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# span record fields
NAME, PARENT, START, END, NOTE = range(5)

LAYERS = ("oracle", "ops", "core", "families", "synthesis", "analysis",
          "formats", "cli")
CORE_METHODS = ("from_vertex_cycles", "signature", "is_filling_system",
                "canonical_form", "smoothed")
OPS = ("join", "plumb", "consum")


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock  # integer nanoseconds
        self.spans = []
        self.active = True
        self.matchings = defaultdict(int)  # V -> connected matchings yielded
        self._stack = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name, fn, note=None):
        """Wrapper of ``fn`` recording one span per call while active.

        ``note(args, result)`` fills the span's note on return; a raised
        exception stores its type name there instead.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, stack[-1] if stack else -1, clock(), 0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[NOTE] = type(exc).__name__
                raise
            finally:
                stack.pop()
                rec[END] = clock()
            if note is not None:
                rec[NOTE] = note(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name):
        """Record one span around benchmark code (a CLI command)."""
        if not self.active:
            yield
            return
        rec = [name, self._stack[-1] if self._stack else -1,
               self.clock(), 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self._stack.pop()
            rec[END] = self.clock()

    @contextmanager
    def paused(self):
        """Record nothing inside: the benchmark's own correctness checks."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def count_matchings(self, fn):
        """Generator wrapper counting the matchings ``fn`` yields, per V."""
        counts = self.matchings

        def counted(V, *args, **kwargs):
            n = 0
            try:
                for match in fn(V, *args, **kwargs):
                    n += 1
                    yield match
            finally:
                if self.active:
                    counts[V] += n

        counted.__wrapped__ = fn
        return counted

    # -- installation --------------------------------------------------------

    def _rebind(self, orig, new):
        """Point every fillgraph module global bound to ``orig`` at ``new``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "fillgraph"
                                   or modname.startswith("fillgraph.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)

    def install(self):
        """Wrap the public entry points of every fillgraph layer."""
        from fillgraph import (analysis, core, families, formats, ops,
                               oracle, synthesis)

        fg = core.FatGraph
        for meth in CORE_METHODS[1:]:
            setattr(fg, meth, self.wrap(f"core.{meth}", fg.__dict__[meth]))
        fvc = fg.__dict__["from_vertex_cycles"].__func__
        fg.from_vertex_cycles = classmethod(
            self.wrap("core.from_vertex_cycles", fvc))

        for fn, op in zip((ops.join, ops.plumbing, ops.connected_sum), OPS):
            self._rebind(fn, self.wrap(f"ops.{op}", fn))

        self._rebind(families.build, self.wrap(
            "families.build", families.build,
            note=lambda a, r: tuple(a)))

        for fn in (synthesis.filling, synthesis.minimal_filling,
                   synthesis.tight_omega_filling, synthesis.max_filling):
            self._rebind(fn, self.wrap("synthesis.build", fn))
        synthesis.SynthesisPlan.replay = self.wrap(
            "synthesis.replay", synthesis.SynthesisPlan.replay)
        self._rebind(synthesis.search_filling, self.wrap(
            "synthesis.search", synthesis.search_filling,
            note=lambda a, r: (id(r), r.examined)))

        self._rebind(analysis.intersection_graph, self.wrap(
            "analysis.intersection_graph", analysis.intersection_graph))

        self._rebind(formats.dumps_plan, self.wrap(
            "formats.dumps_plan", formats.dumps_plan,
            note=lambda a, r: len(r.encode())))
        self._rebind(formats.loads_plan, self.wrap(
            "formats.loads_plan", formats.loads_plan))
        self._rebind(formats.census_rows_to_csv, self.wrap(
            "formats.census_rows_to_csv", formats.census_rows_to_csv))

        self._rebind(oracle.census, self.wrap(
            "oracle.census", oracle.census,
            note=lambda a, r: (a[0], len(r))))
        self._rebind(oracle.iter_matchings,
                     self.count_matchings(oracle.iter_matchings))
        return self

    # -- results -------------------------------------------------------------

    def self_times(self):
        """Per-span self time in seconds: duration minus child durations."""
        spans = self.spans
        selft = [r[END] - r[START] for r in spans]
        for r in spans:
            if r[PARENT] >= 0:
                selft[r[PARENT]] -= r[END] - r[START]
        return [t / 1e9 for t in selft]

    def metrics(self, consum_steps=0):
        """Per-layer metrics named in perfbench/README.md.

        ``consum_steps`` is the number of connected-sum steps in the plans
        the synthesis builders returned, the base of
        ``synthesis.consum_calls_per_step``.
        """
        spans = self.spans
        selft = self.self_times()
        calls = defaultdict(int)
        self_s = defaultdict(float)
        ok_us = defaultdict(list)
        notes = defaultdict(list)  # values kept by returning calls
        errors = defaultdict(list)  # exception type names of raising calls
        layer_s = dict.fromkeys(LAYERS, 0.0)
        census_v4 = 0.0
        in_build = [False] * len(spans)
        consum_in_build = 0
        for i, r in enumerate(spans):
            name = r[NAME]
            calls[name] += 1
            self_s[name] += selft[i]
            layer_s[name.split(".", 1)[0]] += selft[i]
            if name == "oracle.census" and isinstance(r[NOTE], tuple) \
                    and r[NOTE][0] == 4:
                census_v4 += selft[i]
            if isinstance(r[NOTE], str):
                errors[name].append(r[NOTE])
            elif r[NOTE] is not None:
                notes[name].append(r[NOTE])
            elif name.startswith("ops."):
                ok_us[name].append((r[END] - r[START]) / 1e3)
            in_build[i] = name == "synthesis.build" or (
                r[PARENT] >= 0 and in_build[r[PARENT]])
            if name == "ops.consum" and in_build[i]:
                consum_in_build += 1

        m = {}
        classes = dict(notes["oracle.census"])
        matchings = sum(self.matchings.values())
        m["oracle.census_v4.self_s"] = census_v4
        m["oracle.matchings"] = matchings
        m["oracle.class_yield"] = (sum(classes.values()) / matchings
                                   if matchings else 0.0)
        for op in OPS:
            lat = sorted(ok_us[f"ops.{op}"])
            m[f"ops.{op}_us.p50"] = percentile(lat, 50)
            m[f"ops.{op}_us.p99"] = percentile(lat, 99)
        for op in OPS:
            m[f"ops.calls.{op}"] = calls[f"ops.{op}"]
        rejects = errors["ops.consum"].count("OperationError")
        m["ops.consum_reject_ratio"] = (rejects / calls["ops.consum"]
                                        if calls["ops.consum"] else 0.0)
        m["ops.invariant_failures"] = sum(
            errors[f"ops.{op}"].count("OperationInvariantError")
            for op in OPS)
        for meth in CORE_METHODS:
            m[f"core.{meth}.self_s"] = self_s[f"core.{meth}"]
            m[f"core.{meth}.calls"] = calls[f"core.{meth}"]
        builds = notes["families.build"]
        m["families.build.calls"] = calls["families.build"]
        m["families.build.self_s"] = self_s["families.build"]
        m["families.build.repeat_share"] = (
            (len(builds) - len(set(builds))) / len(builds) if builds else 0.0)
        searches = dict(notes["synthesis.search"])
        m["synthesis.build.self_s"] = self_s["synthesis.build"]
        m["synthesis.replay.self_s"] = self_s["synthesis.replay"]
        m["synthesis.replay.calls"] = calls["synthesis.replay"]
        m["synthesis.consum_calls_per_step"] = (
            consum_in_build / consum_steps if consum_steps else 0.0)
        m["synthesis.search.examined"] = sum(searches.values())
        m["synthesis.search.self_s"] = self_s["synthesis.search"]
        m["analysis.intersection_graph.calls"] = \
            calls["analysis.intersection_graph"]
        m["analysis.intersection_graph.self_s"] = \
            self_s["analysis.intersection_graph"]
        m["formats.dumps_plan.self_s"] = self_s["formats.dumps_plan"]
        m["formats.loads_plan.self_s"] = self_s["formats.loads_plan"]
        m["formats.plan_bytes"] = sum(notes["formats.dumps_plan"])
        m["formats.census_rows_to_csv.self_s"] = \
            self_s["formats.census_rows_to_csv"]
        for cmd in ("enumerate", "verify_theorem1", "verify_theorem3"):
            m[f"cli.{cmd}.self_s"] = self_s[f"cli.{cmd}"]
        for layer, t in layer_s.items():
            m[f"{layer}.self_s"] = t
        return m

    def write(self, path):
        """Write every span as one tab-separated line."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\tnote\n")
            for i, r in enumerate(self.spans):
                note = "" if r[NOTE] is None else r[NOTE]
                fh.write(f"{i}\t{r[PARENT]}\t{r[NAME]}\t{r[START]}\t"
                         f"{r[END]}\t{note}\n")


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list; 0.0 when empty."""
    if not sorted_values:
        return 0.0
    k = max(0, min(len(sorted_values) - 1,
                   -(-q * len(sorted_values) // 100) - 1))
    return sorted_values[k]
