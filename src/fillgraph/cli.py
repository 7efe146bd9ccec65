"""Command line surface.

Exit codes: 0 success; 1 failed verification or internal invariant breach;
2 malformed input, bad selector, or out-of-range parameter; 3 provably
impossible signature.  Data goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import sys

from . import analysis, families, formats, oracle, synthesis, verify
from .core import FatGraphError, InvariantError
from .ops import (OperationError, OperationInvariantError, connected_sum,
                  join, plumbing)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_IMPOSSIBLE = 3


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


_BOOLEANS = {"true": True, "yes": True, "1": True,
             "false": False, "no": False, "0": False}


def _parse_selector(spec):
    """``g=..,b=..,s=..,filling=..`` -> {key: int or bool}, the one parser
    of ``--expect`` and ``--filter``.  Raises ValueError for an item
    without ``=``, an unknown key, or a value of the wrong kind."""
    out = {}
    for item in spec.split(","):
        if not item:
            continue
        k, eq, v = item.partition("=")
        k, v = k.strip(), v.strip()
        if not eq:
            raise ValueError(f"selector item {item!r} is not key=value")
        if k == "filling":
            if v not in _BOOLEANS:
                raise ValueError(f"filling={v!r}: use true/false/yes/no/1/0")
            out[k] = _BOOLEANS[v]
        elif k in ("g", "b", "s"):
            try:
                out[k] = int(v)
            except ValueError:
                raise ValueError(f"{k}={v!r} is not an integer") from None
        else:
            raise ValueError(
                f"unknown selector key {k!r} (use g, b, s, filling)")
    return out


def cmd_analyze(args):
    try:
        want = _parse_selector(args.expect or "")
    except ValueError as exc:
        _err(f"bad --expect: {exc}")
        return EXIT_INPUT
    graph = _load(args.file)
    if graph is None:
        return EXIT_INPUT
    try:
        sig = graph.signature()
    except FatGraphError as exc:
        _err(f"analysis failed: {exc}")
        return EXIT_INPUT
    filling, diags = graph.is_filling_system()
    blens = list(graph.face_lengths)
    info = {
        "signature": {"g": sig.genus, "b": sig.boundary_count,
                      "s": sig.standard_cycle_count,
                      "V": sig.vertex_count, "m": sig.edge_count},
        "boundary_lengths": blens,
        "filling": filling,
        "diagnostics": diags,
    }
    if sig.is_decorated:
        info["cycle_lengths"] = list(graph.curve_lengths)
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
    got = {"g": sig.genus, "b": sig.boundary_count,
           "s": sig.standard_cycle_count, "filling": filling}
    for k, v in want.items():
        if got[k] != v:
            _err(f"expect failed: {k}={got[k]} wanted {v}")
            return EXIT_VERIFY
    return EXIT_OK


def cmd_op(args):
    left = _load(args.left)
    right = _load(args.right)
    if left is None or right is None:
        return EXIT_INPUT
    try:
        if args.kind == "consum":
            if args.w is None or args.u is None:
                _err("consum needs --w and --u vertex indices")
                return EXIT_INPUT
            rep = connected_sum(left, right, args.w, args.u, args.align)
        elif args.x is None or args.y is None:
            _err(f"{args.kind} needs --x and --y edge labels")
            return EXIT_INPUT
        else:
            splice = join if args.kind == "join" else plumbing
            rep = splice(left, right, args.x, args.y, args.flip)
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
        else:
            plan = synthesis.filling(g, b, s)
    except synthesis.ImpossibleSignatureError as exc:
        _err(f"impossible: ({g},{b},{s}) ({exc})")
        return EXIT_IMPOSSIBLE
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
    try:
        flt = _parse_selector(args.filter or "")
    except ValueError as exc:
        _err(f"bad --filter: {exc}")
        return EXIT_INPUT
    if "g" in flt:
        flt["genus"] = flt.pop("g")
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


def cmd_verify(args):
    run, reads = verify.SUITES[args.what]
    for name in ("gmax", "bmax", "unsafe_large"):
        if getattr(args, name) is not None and name not in reads:
            _err(f"verify {args.what} does not read "
                 f"--{name.replace('_', '-')}")
            return EXIT_INPUT
    gmax = verify.GMAX if args.gmax is None else args.gmax
    bmax = verify.BMAX if args.bmax is None else args.bmax
    if args.what == "theorem3" and gmax > verify.THEOREM3_GMAX:
        _err(f"verify theorem3 checks g <= {verify.THEOREM3_GMAX}, "
             f"got --gmax {gmax}")
        return EXIT_INPUT
    if gmax < 2 or bmax < 1:
        _err(f"empty grid: verify needs --gmax >= 2 and --bmax >= 1, "
             f"got --gmax {gmax} --bmax {bmax}")
        return EXIT_INPUT
    if (gmax > verify.GMAX or bmax > verify.BMAX) and not args.unsafe_large:
        _err(f"grid above g<={verify.GMAX}, b<={verify.BMAX} "
             f"needs --unsafe-large")
        return EXIT_INPUT
    grid = {"gmax": gmax, "bmax": bmax}
    result = run(**{k: grid[k] for k in reads if k in grid})
    sys.stdout.write(result.text())
    return EXIT_OK if result.failures == 0 else EXIT_VERIFY


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
    v.add_argument("what", choices=verify.SUITES)
    # None marks an option not given; cmd_verify fills in g <= 5, b <= 4
    v.add_argument("--gmax", type=int)
    v.add_argument("--bmax", type=int)
    v.add_argument("--unsafe-large", action="store_true", default=None)
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


# the parser of :func:`main`, built by its first call: building it costs
# about as much as a small command, and a process may call main often
_parser = None


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
