"""Command line surface.

Exit codes: 0 success; 1 failed verification or internal invariant breach;
2 malformed input, bad selector, out-of-range parameter, or a file that
cannot be read or written; 3 provably impossible signature.  A command
raises on any error, and the one table in :func:`main` maps its class to
the exit code and a one-line diagnostic.  Data goes to stdout,
diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from . import analysis, families, formats, oracle, synthesis, verify
from .core import FatGraphError, InvariantError
from .ops import connected_sum, join, plumbing

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_IMPOSSIBLE = 3


class UsageError(Exception):
    """Options that argparse accepts but the command cannot run with."""


def _err(msg):
    print(msg, file=sys.stderr)


def cmd_family(args):
    name, param = args.name, None
    if name in families.PARAMETRIC:
        kind = families.PARAMETRIC[name]
        param = args.genus if kind == "genus" else args.boundaries
        if param is None:
            raise UsageError(f"family {name} needs --{kind}")
    graph = families.build(name, param)
    print(graph.signature())
    if args.output:
        formats.write_graph(args.output, graph)
    return EXIT_OK


@contextmanager
def _naming(path):
    """Name ``path`` in a :class:`formats.FormatError` raised in the
    block; an OSError names its file already."""
    try:
        yield
    except formats.FormatError as exc:
        raise formats.FormatError(f"cannot read {path}: {exc}") from None


def _load(path, read=formats.read_graph):
    """The graph (or, with ``formats.read_plan``, the plan) in ``path``."""
    with _naming(path):
        return read(path)


_BOOLEANS = {"true": True, "yes": True, "1": True,
             "false": False, "no": False, "0": False}


def _parse_selector(spec, option):
    """``g=..,b=..,s=..,filling=..`` -> {key: int or bool}, the one parser
    of ``--expect`` and ``--filter``.  Raises :class:`UsageError`, naming
    ``option``, for an item without ``=``, an unknown key, or a value of
    the wrong kind."""
    def bad(why):
        return UsageError(f"bad {option}: {why}")

    out = {}
    for item in (spec or "").split(","):
        if not item:
            continue
        k, eq, v = item.partition("=")
        k, v = k.strip(), v.strip()
        if not eq:
            raise bad(f"selector item {item!r} is not key=value")
        if k == "filling":
            if v not in _BOOLEANS:
                raise bad(f"filling={v!r}: use true/false/yes/no/1/0")
            out[k] = _BOOLEANS[v]
        elif k in ("g", "b", "s"):
            try:
                out[k] = int(v)
            except ValueError:
                raise bad(f"{k}={v!r} is not an integer") from None
        else:
            raise bad(f"unknown selector key {k!r} (use g, b, s, filling)")
    return out


def cmd_analyze(args):
    want = _parse_selector(args.expect, "--expect")
    graph = _load(args.file)
    sig = graph.signature()
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
    if args.kind == "consum":
        if args.w is None or args.u is None:
            raise UsageError("consum needs --w and --u vertex indices")
        rep = connected_sum(left, right, args.w, args.u, args.align)
    elif args.x is None or args.y is None:
        raise UsageError(f"{args.kind} needs --x and --y edge labels")
    else:
        splice = join if args.kind == "join" else plumbing
        rep = splice(left, right, args.x, args.y, args.flip)
    print(rep.summary())
    if args.output:
        formats.write_graph(args.output, rep.result)
    return EXIT_OK


def cmd_synth(args):
    g, b, s = args.genus, args.boundaries, args.size
    if args.tight:
        if b != 1:
            raise UsageError("--tight builds minimal fillings; use -b 1")
        plan = synthesis.tight_omega_filling(g, s)
    else:
        plan = synthesis.filling(g, b, s)
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
    graph, _ = _load(args.plan, formats.read_plan).replay()
    print(graph.signature())
    if args.output:
        formats.write_graph(args.output, graph)
    return EXIT_OK


def cmd_enumerate(args):
    flt = _parse_selector(args.filter, "--filter")
    if "g" in flt:
        flt["genus"] = flt.pop("g")
    rows = oracle.census_filter(args.vertices, **flt)
    if args.format == "json":
        sys.stdout.write(formats.census_rows_to_json(rows))
    else:
        sys.stdout.write(formats.census_rows_to_csv(rows))
    return EXIT_OK


def cmd_export(args):
    graph = _load(args.file)
    if args.format == "dot":
        sys.stdout.write(formats.graph_to_dot(graph))
    else:
        sys.stdout.write(formats.dumps_graph(graph))
    return EXIT_OK


def cmd_verify(args):
    run, reads = verify.SUITES[args.what]
    for name in ("gmax", "bmax", "unsafe_large"):
        if getattr(args, name) is not None and name not in reads:
            raise UsageError(f"verify {args.what} does not read "
                             f"--{name.replace('_', '-')}")
    gmax = verify.GMAX if args.gmax is None else args.gmax
    bmax = verify.BMAX if args.bmax is None else args.bmax
    if args.what == "theorem3" and gmax > verify.THEOREM3_GMAX:
        raise UsageError(f"verify theorem3 checks g <= "
                         f"{verify.THEOREM3_GMAX}, got --gmax {gmax}")
    if gmax < 2 or bmax < 1:
        raise UsageError(f"empty grid: verify needs --gmax >= 2 and "
                         f"--bmax >= 1, got --gmax {gmax} --bmax {bmax}")
    if (gmax > verify.GMAX or bmax > verify.BMAX) and not args.unsafe_large:
        raise UsageError(f"grid above g<={verify.GMAX}, b<={verify.BMAX} "
                         f"needs --unsafe-large")
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
    """Run one command; returns its exit code.  A command raises on any
    error, and the first row of this table that the error matches picks
    the exit code and the prefix of its one stderr line."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        for kinds, code, prefix in (
                (synthesis.ImpossibleSignatureError, EXIT_IMPOSSIBLE,
                 "impossible: "),
                (synthesis.PlanVerificationError, EXIT_VERIFY,
                 "plan verification failed: "),
                (InvariantError, EXIT_VERIFY, "internal invariant breach: "),
                ((FatGraphError, formats.FormatError, oracle.CensusRangeError,
                  OSError, UsageError), EXIT_INPUT, "")):
            if isinstance(exc, kinds):
                _err(f"{prefix}{exc}")
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
