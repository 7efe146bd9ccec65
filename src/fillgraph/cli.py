"""Command line surface.

Exit codes: 0 success; 1 failed verification or internal invariant breach;
2 malformed input, bad selector, or out-of-range parameter; 3 provably
impossible signature; 4 search budget exhausted.  Data goes to stdout,
diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import sys

from . import analysis, families, formats, oracle, synthesis
from .core import FatGraphError, FatGraph, InvariantError
from .ops import (OperationError, OperationInvariantError, connected_sum,
                  join, plumbing)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_IMPOSSIBLE = 3
EXIT_BUDGET = 4

def _err(msg):
    print(msg, file=sys.stderr)


def cmd_family(args):
    name = args.name
    if name not in families.ALL_FAMILIES:
        _err(f"unknown family {name!r}; choose from "
             f"{', '.join(families.ALL_FAMILIES)}")
        return EXIT_INPUT
    param = None
    if name in families.PARAMETRIC:
        kind = families.PARAMETRIC[name]
        param = args.genus if kind == "genus" else args.boundaries
        if param is None:
            _err(f"family {name} needs --{kind}")
            return EXIT_INPUT
    try:
        graph = families.build(name, param)
    except families.FamilyRangeError as exc:
        _err(str(exc))
        return EXIT_INPUT
    print(graph.signature())
    if args.output:
        formats.write_graph(args.output, graph)
    return EXIT_OK


def _load(path):
    try:
        return formats.read_graph(path)
    except (OSError, formats.FormatError) as exc:
        _err(f"cannot read {path}: {exc}")
        return None


def _parse_expect(spec):
    out = {}
    for item in spec.split(","):
        if not item:
            continue
        k, _, v = item.partition("=")
        out[k.strip()] = v.strip()
    return out


def cmd_analyze(args):
    graph = _load(args.file)
    if graph is None:
        return EXIT_INPUT
    try:
        sig = graph.signature()
    except FatGraphError as exc:
        _err(f"analysis failed: {exc}")
        return EXIT_INPUT
    filling, diags = graph.is_filling_system()
    blens = [len(c) for c in graph.boundary_cycles]
    info = {
        "signature": {"g": sig.genus, "b": sig.boundary_count,
                      "s": sig.standard_cycle_count,
                      "V": sig.vertex_count, "m": sig.edge_count},
        "boundary_lengths": blens,
        "filling": filling,
        "diagnostics": diags,
    }
    if sig.is_decorated:
        info["cycle_lengths"] = [len(c) for c in graph.standard_cycles]
    if filling:
        wig = analysis.intersection_graph(graph)
        info["intersection_matrix"] = wig.as_matrix()
        info["omega_max"] = wig.omega_max()
        info["euler_identity"] = analysis.check_euler_identity(graph).passed
    if args.json:
        import json
        print(json.dumps(info, indent=2))
    else:
        print(f"{sig} V={sig.vertex_count} m={sig.edge_count}")
        print(f"boundary lengths: {blens}")
        if "cycle_lengths" in info:
            print(f"cycle lengths: {info['cycle_lengths']}")
        verdict = "yes" if filling else f"no ({diags[0]})"
        print(f"filling: {verdict}")
        if filling:
            print(f"omega_max: {info['omega_max']}")
            for row in info["intersection_matrix"]:
                print("  " + " ".join(f"{x:2d}" for x in row))
            print(f"euler identity (sum = 2g-2+b): "
                  f"{'ok' if info['euler_identity'] else 'FAIL'}")
    if args.expect:
        want = _parse_expect(args.expect)
        got = {"g": str(sig.genus), "b": str(sig.boundary_count),
               "s": str(sig.standard_cycle_count),
               "filling": "yes" if filling else "no"}
        for k, v in want.items():
            if got.get(k) != v:
                _err(f"expect failed: {k}={got.get(k)} wanted {v}")
                return EXIT_VERIFY
    return EXIT_OK


def cmd_op(args):
    left = _load(args.left)
    right = _load(args.right)
    if left is None or right is None:
        return EXIT_INPUT
    try:
        if args.kind == "join":
            if args.x is None or args.y is None:
                _err("join needs --x and --y edge labels")
                return EXIT_INPUT
            rep = join(left, right, args.x, args.y, args.flip)
        elif args.kind == "plumb":
            if args.x is None or args.y is None:
                _err("plumb needs --x and --y edge labels")
                return EXIT_INPUT
            rep = plumbing(left, right, args.x, args.y, args.flip)
        else:
            if args.w is None or args.u is None:
                _err("consum needs --w and --u vertex indices")
                return EXIT_INPUT
            rep = connected_sum(left, right, args.w, args.u, args.align)
    except OperationInvariantError as exc:
        _err(f"internal invariant breach: {exc}")
        return EXIT_VERIFY
    except (OperationError, FatGraphError) as exc:
        _err(str(exc))
        return EXIT_INPUT
    print(rep.summary())
    if args.output:
        formats.write_graph(args.output, rep.result)
    return EXIT_OK


def cmd_synth(args):
    g, b, s = args.genus, args.boundaries, args.size
    try:
        if args.tight:
            if b != 1:
                _err("--tight builds minimal fillings; use -b 1")
                return EXIT_INPUT
            plan = synthesis.tight_omega_filling(g, s)
        elif b == 1:
            plan = synthesis.minimal_filling(g, s)
        else:
            plan = synthesis.filling(g, b, s)
    except synthesis.ImpossibleSignatureError as exc:
        _err(f"impossible: ({g},{b},{s}) ({exc})")
        return EXIT_IMPOSSIBLE
    except synthesis.SearchBudgetError as exc:
        _err(f"search budget exhausted: {exc}")
        return EXIT_BUDGET
    except synthesis.SynthesisRangeError as exc:
        _err(str(exc))
        return EXIT_INPUT
    graph, _ = plan.replay()
    line = str(graph.signature())
    if args.tight:
        wmax = analysis.intersection_graph(graph).omega_max()
        line += f" omega_max={wmax}"
    print(line)
    if args.output:
        formats.write_graph(args.output, graph)
    if args.plan_out:
        formats.write_plan(args.plan_out, plan)
    return EXIT_OK


def cmd_replay(args):
    try:
        plan = formats.read_plan(args.plan)
    except (OSError, formats.FormatError) as exc:
        _err(f"cannot read {args.plan}: {exc}")
        return EXIT_INPUT
    try:
        graph, _ = plan.replay()
    except InvariantError as exc:
        _err(f"plan verification failed: {exc}")
        return EXIT_VERIFY
    except FatGraphError as exc:
        _err(f"cannot replay {args.plan}: {exc}")
        return EXIT_INPUT
    print(graph.signature())
    if args.output:
        formats.write_graph(args.output, graph)
    return EXIT_OK


def cmd_enumerate(args):
    flt = {}
    if args.filter:
        for k, v in _parse_expect(args.filter).items():
            if k == "g":
                flt["genus"] = int(v)
            elif k == "b":
                flt["b"] = int(v)
            elif k == "s":
                flt["s"] = int(v)
            elif k == "filling":
                flt["filling"] = v in ("true", "yes", "1")
            else:
                _err(f"unknown filter key {k!r} (use g, b, s, filling)")
                return EXIT_INPUT
    try:
        rows = oracle.census_filter(args.vertices, **flt)
    except oracle.CensusRangeError as exc:
        _err(str(exc))
        return EXIT_INPUT
    except oracle.CensusError as exc:
        _err(f"internal invariant breach: {exc}")
        return EXIT_VERIFY
    if args.format == "json":
        sys.stdout.write(formats.census_rows_to_json(rows))
    else:
        sys.stdout.write(formats.census_rows_to_csv(rows))
    return EXIT_OK


def cmd_export(args):
    graph = _load(args.file)
    if graph is None:
        return EXIT_INPUT
    if args.format == "dot":
        sys.stdout.write(formats.graph_to_dot(graph))
    else:
        sys.stdout.write(formats.dumps_graph(graph))
    return EXIT_OK


# --- verify ------------------------------------------------------------------


def _verify_theorem1(gmax, bmax):
    failures = 0
    for g in range(2, gmax + 1):
        for b in range(1, bmax + 1):
            size = 2 * g + b - 1
            try:
                synthesis.max_filling(g, b)
                print(f"theorem1 g={g} b={b} size={size}: pass")
            except Exception as exc:
                failures += 1
                print(f"theorem1 g={g} b={b} size={size}: FAIL ({exc})")
    # census side: no filling exceeds the bound where exhaustion is possible
    for (g, b) in ((2, 1), (2, 2)):
        V = 2 * g - 2 + b
        rows = [r for r in oracle.census(V)
                if r.filling and r.genus == g and r.boundary_count == b]
        smax = max((r.standard_cycle_count for r in rows), default=0)
        ok = smax == 2 * g + b - 1 and not [
            r for r in rows if r.standard_cycle_count >= 2 * g + b]
        print(f"theorem1 census (g={g},b={b}): max size {smax} "
              f"{'pass' if ok else 'FAIL'}")
        failures += 0 if ok else 1
    return failures


def _verify_theorem2(gmax, bmax, check_euler=False):
    failures = 0
    for g in range(2, gmax + 1):
        for b in range(1, bmax + 1):
            lo = synthesis.lower_bound(g, b)
            hi = synthesis.upper_bound(g, b)
            for s in range(lo, hi + 1):
                try:
                    plan = (synthesis.minimal_filling(g, s) if b == 1
                            else synthesis.filling(g, b, s))
                    graph, _ = plan.replay()
                    tag = "pass"
                    if check_euler:
                        chk = analysis.check_euler_identity(graph)
                        tag = "pass" if chk.passed else "FAIL euler"
                except Exception as exc:
                    tag = f"FAIL ({exc})"
                if tag != "pass":
                    failures += 1
                print(f"theorem2 g={g} b={b} s={s}: {tag}")
    try:
        synthesis.filling(2, 1, 2)
        print("theorem2 (2,1,2): FAIL (expected impossible)")
        failures += 1
    except synthesis.ImpossibleSignatureError:
        print("theorem2 (2,1,2): impossible as required, pass")
    return failures


def _verify_theorem3(gmax):
    failures = 0
    gcap = min(gmax, 6)
    for V in range(1, oracle.EXHAUSTIVE_CEILING + 1):
        bad = []
        for row in oracle.census(V):
            if not (row.filling and row.boundary_count == 1):
                continue
            bound = 2 * row.genus - row.standard_cycle_count + 1
            if row.omega_max > bound:
                bad.append(row)
        print(f"theorem3 census V={V}: "
              f"{'pass' if not bad else f'FAIL ({len(bad)} rows)'}")
        failures += len(bad)
    for g in range(2, gcap + 1):
        for s in range(synthesis.lower_bound(g, 1), 2 * g + 1):
            bound = 2 * g - s + 1
            try:
                graph, _ = synthesis.minimal_filling(g, s).replay()
                wmax = analysis.intersection_graph(graph).omega_max()
                ok = wmax <= bound
                print(f"theorem3 bound g={g} s={s}: omega_max={wmax} "
                      f"<= {bound}: {'pass' if ok else 'FAIL'}")
                failures += 0 if ok else 1
            except Exception as exc:
                print(f"theorem3 bound g={g} s={s}: FAIL ({exc})")
                failures += 1
            try:
                synthesis.tight_omega_filling(g, s).replay()
                print(f"theorem3 tight g={g} s={s}: omega_max={bound} "
                      f"attained, pass")
            except synthesis.SearchBudgetError:
                print(f"theorem3 tight g={g} s={s}: SKIPPED "
                      "(search budget exhausted)")
            except Exception as exc:
                print(f"theorem3 tight g={g} s={s}: FAIL ({exc})")
                failures += 1
    return failures


def _verify_ops():
    audits = oracle.verify_formula_by_recompute()
    failures = 0
    want_cases = {"join": 2, "plumb": 2, "consum": 4}
    for op in ("join", "consum", "plumb"):
        a = audits[op]
        cases = ", ".join(f"{k}:{v}" for k, v in sorted(a.case_counts.items()))
        ok = a.mismatches == 0 and len(a.case_counts) >= want_cases[op]
        if op == "join":
            ok = ok and a.corollary_violations == 0
        if op == "consum":
            ok = ok and a.printed_reliable_misses == 0 \
                and a.printed_matched > 0
        print(f"ops {op}: trials={a.trials} mismatches={a.mismatches} "
              f"branches[{cases}] {'pass' if ok else 'FAIL'}")
        if op == "join":
            print(f"ops join: new-boundary-length>2 violations="
                  f"{a.corollary_violations}")
        if op == "consum":
            print(f"ops consum: printed-table checked={a.printed_checked} "
                  f"matched={a.printed_matched} "
                  f"reliable-misses={a.printed_reliable_misses} "
                  f"known-underdetermined-misses={a.unreliable_miss_cases}")
        failures += 0 if ok else 1
    return failures


def cmd_verify(args):
    gmax, bmax = args.gmax, args.bmax
    if (gmax > 5 or bmax > 4) and not args.unsafe_large:
        _err("grid above g<=5, b<=4 needs --unsafe-large")
        return EXIT_INPUT
    failures = 0
    if args.what == "theorem1":
        failures = _verify_theorem1(gmax, bmax)
    elif args.what == "theorem2":
        failures = _verify_theorem2(gmax, bmax)
    elif args.what == "theorem3":
        failures = _verify_theorem3(gmax)
    elif args.what == "ops":
        failures = _verify_ops()
    elif args.what == "euler":
        failures = _verify_theorem2(gmax, bmax, check_euler=True)
    print(f"verify {args.what}: {'ALL PASS' if failures == 0 else f'{failures} FAILURES'}")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def build_parser():
    p = argparse.ArgumentParser(
        prog="fillgraph",
        description="Filling systems on closed orientable surfaces as "
                    "decorated fat graphs")
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("family", help="instantiate a catalog family")
    f.add_argument("--name", required=True)
    f.add_argument("--genus", type=int)
    f.add_argument("--boundaries", type=int)
    f.add_argument("-o", "--output")
    f.set_defaults(func=cmd_family)

    a = sub.add_parser("analyze", help="derive invariants of a graph file")
    a.add_argument("file")
    a.add_argument("--json", action="store_true")
    a.add_argument("--expect")
    a.set_defaults(func=cmd_analyze)

    o = sub.add_parser("op", help="apply join, consum, or plumb")
    o.add_argument("kind", choices=("join", "consum", "plumb"))
    o.add_argument("--left", required=True)
    o.add_argument("--right", required=True)
    o.add_argument("--x")
    o.add_argument("--y")
    o.add_argument("--w", type=int)
    o.add_argument("--u", type=int)
    o.add_argument("--align", type=int, default=0, choices=(0, 1, 2, 3))
    o.add_argument("--flip", action="store_true",
                   help="reverse the right edge before splicing")
    o.add_argument("-o", "--output")
    o.set_defaults(func=cmd_op)

    s = sub.add_parser("synth", help="synthesize a filling of a signature")
    s.add_argument("-g", "--genus", type=int, required=True)
    s.add_argument("-b", "--boundaries", type=int, default=1)
    s.add_argument("-s", "--size", type=int, required=True)
    s.add_argument("--tight", action="store_true",
                   help="attain omega_max = 2g-s+1 exactly (b=1)")
    s.add_argument("-o", "--output")
    s.add_argument("--plan-out")
    s.set_defaults(func=cmd_synth)

    r = sub.add_parser("replay", help="replay and verify a plan file")
    r.add_argument("plan")
    r.add_argument("-o", "--output")
    r.set_defaults(func=cmd_replay)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("what", choices=("theorem1", "theorem2", "theorem3",
                                    "ops", "euler"))
    v.add_argument("--gmax", type=int, default=5)
    v.add_argument("--bmax", type=int, default=4)
    v.add_argument("--unsafe-large", action="store_true")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("enumerate", help="exhaustive census of small graphs")
    e.add_argument("-V", "--vertices", type=int, required=True)
    e.add_argument("--filter", help="g=..,b=..,s=..,filling=true")
    e.add_argument("--format", choices=("csv", "json"), default="csv")
    e.set_defaults(func=cmd_enumerate)

    x = sub.add_parser("export", help="export a graph file to DOT or JSON")
    x.add_argument("file")
    x.add_argument("--format", choices=("dot", "json"), default="dot")
    x.set_defaults(func=cmd_export)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
