"""One benchmark pass of one workload, in a fresh interpreter.

``run.py`` starts this file as a child process for every pass and every
set-up sample, so module-level caches (``oracle.census``,
``synthesis._search_cached``) start empty each time, as they do for a CLI
user.  The child prints one JSON record on stdout::

    python3 perfbench/workloads.py --workload ops-audit --seed 1 \
        --launch <time.perf_counter() before the spawn> [--setup-only]
        [--trace] [--spans FILE] [--scale smoke]

Workloads (see README.md for why each was chosen):

* ``census-v4`` - ``enumerate -V 4``, ``verify theorem3`` and
  ``verify theorem1`` on a cold census cache, then checks of the census
  levels V=1..4 they computed;
* ``ops-audit`` - join, plumbing and connected sum on small catalog and
  census operands, a fixed number of seed-drawn trials per operation;
* ``synth-grid`` - build, serialize, parse, replay and isomorphism-check
  a plan for every admissible (g, b, s) of a grid, in seed-shuffled order.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pace import NEAR, Pace  # noqa: E402
from tracer import OPS, Tracer, percentile  # noqa: E402


@dataclass(frozen=True)
class Scale:
    census_v: int  # enumerate -V census_v; check census levels 1..census_v
    verify: tuple  # CLI verify commands run after enumerate
    ops_trials: int  # trials per operation
    ops_picks: tuple  # (V, rows drawn from census(V)) for the operand pool
    grid_g: int  # synthesis grid 2 <= g <= grid_g, 1 <= b <= grid_b
    grid_b: int
    tight_g: int  # tight_omega_filling for 2 <= g <= tight_g


FULL = Scale(census_v=4, verify=("theorem3", "theorem1"), ops_trials=8000,
             ops_picks=((2, 5), (3, 24)), grid_g=10, grid_b=8, tight_g=6)
# verify theorem1/theorem3 always walk the V=4 census, so the smoke scale,
# meant to finish in seconds, leaves them out
SMOKE = Scale(census_v=3, verify=(), ops_trials=300,
              ops_picks=((2, 5), (3, 24)), grid_g=4, grid_b=3, tight_g=4)
SCALES = {"full": FULL, "smoke": SMOKE}

# Exact values of the brute-force census: classes and connected matchings
# (under the dart-0 symmetry break) per V.
CENSUS_CLASSES = {1: 2, 2: 7, 3: 36, 4: 365}
CENSUS_MATCHINGS = {1: 2, 2: 39, 3: 2436, 4: 356256}
# every case branch of each operation must occur in an ops-audit pass
OPS_MIN_CASES = {"join": 2, "plumb": 2, "consum": 4}

# the catalog half of oracle's operand pool
CATALOG = (("g1", None), ("torus_pair", None), ("sphere_circle", None),
           ("gamma0", None), ("g2", None), ("gamma_g", 2), ("girth", 3),
           ("quadruple_f3", None), ("gamma2b", 2), ("gamma2b", 3),
           ("example_5_2", None))


class Pass:
    """Outcome of one pass: unit latencies, failures and counters.

    A unit is timed by ``t = run.begin()`` before it and ``run.end(t)``
    after it.  Its latency is its work time (the reference loops of
    ``pace`` left out) times the CPU speed around it, in quiet-CPU
    seconds; without a started ``Pace`` the speed is 1.
    """

    def __init__(self, tracer=None, pace=None):
        self.tracer = tracer
        self.pace = pace or Pace()
        self._spans = []  # (start, end, work seconds, joins previous unit)
        self.failures = []  # one line per failed unit or workload check
        self.failed_units = 0
        self.consum_steps = 0

    def begin(self):
        return time.perf_counter(), self.pace.spent

    def end(self, begun, join=False):
        """Close a timed unit; ``join`` adds it to the previous unit."""
        t0, spent = begun
        t1 = time.perf_counter()
        self._spans.append((t0, t1, t1 - t0 - (self.pace.spent - spent),
                            join))

    @property
    def work_s(self):
        """Work time of every unit, not corrected for the CPU's speed."""
        return sum(work for _, _, work, _ in self._spans)

    @property
    def latencies(self):
        speed = self.pace.speed
        out = []
        for t0, t1, work, join in self._spans:
            lat = work * speed(t0, t1)
            if join:
                out[-1] += lat
            else:
                out.append(lat)
        return out

    def checking(self):
        """Context of the benchmark's own checks: untimed and untraced."""
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def cli_span(self, name):
        return (self.tracer.span(f"cli.{name}") if self.tracer
                else contextlib.nullcontext())

    def unit_failed(self, what):
        self.failed_units += 1
        self.fail(what)

    def fail(self, what):
        if len(self.failures) < 20:
            self.failures.append(what)


# --- census-v4 ----------------------------------------------------------------


def census_setup(scale, seed):
    return None


def census_pass(scale, seed, state, run, classes=CENSUS_CLASSES,
                matchings=CENSUS_MATCHINGS):
    """Run the CLI commands, then check the census levels V=1..census_v
    they computed as units of their own.

    The command sequence is the one latency sample of the pass: its three
    calls take about 0.01 s, 0.2 s and 20 s, and a lone 0.2 s call spreads
    by close to 30 % from run to run on a shared 2-core machine.
    """
    from fillgraph import cli, oracle

    commands = [("enumerate", ["enumerate", "-V", str(scale.census_v),
                               "--format", "csv"])]
    commands += [(f"verify_{what}", ["verify", what]) for what in scale.verify]
    for i, (name, argv) in enumerate(commands):
        out = io.StringIO()
        t = run.begin()
        try:
            with contextlib.redirect_stdout(out), run.cli_span(name):
                rc = cli.main(argv)
        except Exception as exc:  # a failing unit is counted, not fatal
            run.end(t, join=i > 0)
            run.unit_failed(f"{' '.join(argv)} raised {exc!r}")
            continue
        run.end(t, join=i > 0)
        with run.checking():
            text = out.getvalue()
            if name == "enumerate":
                rows = len(text.splitlines()) - 1
                ok = rc == 0 and rows == classes[scale.census_v]
                what = f"exit {rc}, {rows} CSV data rows"
            else:
                last = text.strip().splitlines()[-1] if text.strip() else ""
                ok = rc == 0 and last.endswith("ALL PASS")
                what = f"exit {rc}, last line {last!r}"
            if not ok:
                run.unit_failed(f"{' '.join(argv)}: {what}")

    with run.checking():
        for V in range(1, scale.census_v + 1):
            try:
                rows = oracle.census(V)
            except Exception as exc:
                run.unit_failed(f"census({V}) raised {exc!r}")
                continue
            got = (len(rows), sum(r.count for r in rows))
            if got != (classes[V], matchings[V]):
                run.unit_failed(f"census({V}): (classes, matchings) {got}, "
                                f"want {(classes[V], matchings[V])}")
    return len(commands) + scale.census_v


# --- ops-audit ----------------------------------------------------------------


def ops_setup(scale, seed):
    """Seeded operand pool and trial list.

    The seed picks the census rows that join the catalog graphs and
    relabels every operand; the trials draw operands and selectors from
    the space ``verify ops`` walks (edge pairs; (w, u, align)).
    """
    from fillgraph import families, oracle
    from fillgraph.core import FatGraph

    rng = random.Random(seed)
    graphs = [families.build(name, param) for name, param in CATALOG]
    for V, k in scale.ops_picks:
        graphs += [row.graph() for row in rng.sample(oracle.census(V), k)]
    pool = [g.shuffled(rng) for g in graphs]
    # an operation needs two graph values; the diagonal uses a twin
    twins = [FatGraph(g.sigma0, g.labels) for g in pool]
    trials = []
    for op in OPS:
        for _ in range(scale.ops_trials):
            li, ri = rng.randrange(len(pool)), rng.randrange(len(pool))
            gl, gr = pool[li], pool[ri]
            if op == "consum":
                sel = (rng.randrange(gl.num_vertices),
                       rng.randrange(gr.num_vertices), rng.randrange(4))
            else:
                sel = (rng.choice(gl.labels), rng.choice(gr.labels))
            trials.append((op, li, ri, sel))
    rng.shuffle(trials)
    return pool, twins, trials


def ops_pass(scale, seed, state, run, min_cases=OPS_MIN_CASES):
    from fillgraph import ops
    from fillgraph.core import FatGraph

    pool, twins, trials = state
    fns = {"join": ops.join, "plumb": ops.plumbing,
           "consum": ops.connected_sum}
    cases = {op: set() for op in OPS}
    begin, end = run.begin, run.end
    for op, li, ri, sel in trials:
        left, right = pool[li], twins[ri] if li == ri else pool[ri]
        t = begin()
        try:
            rep = fns[op](left, right, *sel)
        except ops.OperationError:
            end(t)
            continue  # a rejected selector, not a failure
        except Exception as exc:
            end(t)
            run.unit_failed(f"{op} {sel} raised {exc!r}")
            continue
        end(t)
        with run.checking():
            res = rep.result
            if FatGraph(res.sigma0, res.labels).signature() != rep.recomputed:
                run.unit_failed(f"{op} {sel}: recomputed signature differs")
            cases[op].add(rep.case)
    for op in OPS:
        if len(cases[op]) < min_cases[op]:
            run.fail(f"{op}: {len(cases[op])} case branches covered, "
                     f"want {min_cases[op]}")
    return len(trials)


# --- synth-grid ---------------------------------------------------------------


def synth_targets(scale):
    from fillgraph.synthesis import lower_bound, upper_bound

    out = []
    for g in range(2, scale.grid_g + 1):
        for b in range(1, scale.grid_b + 1):
            for s in range(lower_bound(g, b), upper_bound(g, b) + 1):
                if (g, b, s) != (2, 1, 2):
                    out.append(("filling", g, b, s))
    for g in range(2, scale.tight_g + 1):
        for s in range(lower_bound(g, 1), 2 * g + 1):
            out.append(("tight", g, 1, s))
    return out


def synth_setup(scale, seed):
    targets = synth_targets(scale)
    random.Random(seed).shuffle(targets)
    return targets


def synth_pass(scale, seed, state, run):
    from fillgraph import analysis, formats, synthesis

    rng = random.Random(f"{seed}/relabel")
    for kind, g, b, s in state:
        t = run.begin()
        try:
            if kind == "tight":
                plan = synthesis.tight_omega_filling(g, s)
            elif b == 1:
                plan = synthesis.minimal_filling(g, s)
            else:
                plan = synthesis.filling(g, b, s)
            text = formats.dumps_plan(plan)
            parsed = formats.loads_plan(text)
            graph, _ = parsed.replay()
            iso = graph.is_isomorphic(graph.shuffled(rng))
        except Exception as exc:
            run.end(t)
            run.unit_failed(f"{kind} {(g, b, s)} raised {exc!r}")
            continue
        run.end(t)
        run.consum_steps += sum(st.op == "consum" for st in plan.steps)
        with run.checking():
            bad = []
            if graph.signature().triple != (g, b, s):
                bad.append(f"signature {graph.signature().triple}")
            if not graph.is_filling_system()[0]:
                bad.append("not a filling")
            if kind == "tight":
                wmax = analysis.intersection_graph(graph).omega_max()
                if wmax != 2 * g - s + 1:
                    bad.append(f"omega_max {wmax}, want {2 * g - s + 1}")
            if formats.dumps_plan(parsed) != text:
                bad.append("plan text changed on a parse round trip")
            if iso is not True:
                bad.append("not isomorphic to its own relabeling")
            if bad:
                run.unit_failed(f"{kind} {(g, b, s)}: {'; '.join(bad)}")
    return len(state)


WORKLOADS = {
    "census-v4": (census_setup, census_pass),
    "ops-audit": (ops_setup, ops_pass),
    "synth-grid": (synth_setup, synth_pass),
}


def walk_matchings(V, run):
    """Seconds for a bare walk of the connected matchings on V vertices."""
    from fillgraph import oracle

    walk = getattr(oracle.iter_matchings, "__wrapped__", oracle.iter_matchings)
    t = run.begin()
    for _ in walk(V, connected_only=True):
        pass
    run.end(t)
    return run.latencies[-1]


def main(argv=None):
    # sample the CPU's speed from the first moment, set-up included
    pace = Pace().start()
    try:
        record = child(pace, argv)
    finally:
        pace.stop()
    print(json.dumps(record))


def child(pace, argv):
    """Set up, run one pass unless ``--setup-only``; returns the record."""
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--launch", type=float, required=True,
                   help="time.perf_counter() of the parent before the spawn")
    p.add_argument("--scale", choices=sorted(SCALES), default="full")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", help="file for the traced pass's spans")
    args = p.parse_args(argv)
    scale = SCALES[args.scale]

    import fillgraph
    src = (ROOT / "src").resolve()
    if Path(fillgraph.__file__).resolve().parent.parent != src:
        sys.exit(f"fillgraph imported from {fillgraph.__file__}, "
                 f"not from {src}")
    tracer = Tracer(clock=pace.clock_ns).install() if args.trace else None
    setup, run_pass = WORKLOADS[args.workload]
    state = setup(scale, args.seed)
    setup_end = time.perf_counter()
    setup_work = setup_end - args.launch - pace.spent
    record = {}
    if args.setup_only:
        for _ in range(NEAR):  # loops after set-up as well as during it
            pace.probe()
    else:
        run = Pass(tracer, pace)
        attempted = run_pass(scale, args.seed, state, run)
        lat = sorted(run.latencies)
        # time to solution: the units' own time, checks excluded
        record.update(wall_s=sum(lat), samples=len(lat),
                      p50_ms=percentile(lat, 50) * 1e3,
                      p99_ms=percentile(lat, 99) * 1e3,
                      wall_raw_s=run.work_s,
                      attempted=attempted, failed=run.failed_units,
                      failures=run.failures)
        if tracer:
            tracer.active = False
            # spans cover set-up and pass: scale their times by the mean
            # CPU speed over both
            speed = pace.speed(args.launch, time.perf_counter())
            trace = tracer.metrics(run.consum_steps)
            for k in trace:
                if k.endswith("self_s") or "_us." in k:
                    trace[k] *= speed
            trace["oracle.enumerate_s"] = walk_matchings(scale.census_v, run)
            record["trace"] = trace
            if args.spans:
                tracer.write(args.spans)
        record["rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
    record["setup_s"] = setup_work * pace.speed(args.launch, setup_end)
    # the uncorrected set-up time and the median speed, for the record
    record["setup_raw_s"] = setup_work
    record["speed"] = statistics.median(pace.speeds)
    return record


if __name__ == "__main__":
    main()
