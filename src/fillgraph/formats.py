"""File formats owned by the command line surface.

* FatGraphFile: ``{"format": "fatgraph/1", "vertices": [[token, ...], ...]}``
  with signed labels "x+" / "x-"; a loop written with one sign twice carries
  "#0"/"#1" occurrence tags.  Reading then writing a canonical file is byte
  identical.
* PlanFile: ``{"format": "fillplan/1", "target": ..., "steps": [...]}``.
* census CSV / JSON and graphviz DOT emission.
"""

from __future__ import annotations

import io
import json
from json.encoder import encode_basestring_ascii

from .core import FatGraph, FatGraphError, NotDecoratedError
from .synthesis import Step, SynthesisPlan

FATGRAPH_FORMAT = "fatgraph/1"
PLAN_FORMAT = "fillplan/1"


class FormatError(ValueError):
    pass


def graph_to_document(graph: FatGraph) -> dict:
    return {"format": FATGRAPH_FORMAT,
            "vertices": graph.to_vertex_cycle_tokens()}


def graph_from_document(doc) -> FatGraph:
    if not isinstance(doc, dict) or doc.get("format") != FATGRAPH_FORMAT:
        raise FormatError(f"not a {FATGRAPH_FORMAT} document")
    vertices = doc.get("vertices")
    if not isinstance(vertices, list) or not vertices:
        raise FormatError("missing vertices array")
    for cycle in vertices:
        if not isinstance(cycle, list) or not all(
                isinstance(tok, str) for tok in cycle):
            raise FormatError("each vertex must be an array of signed "
                              f"edge labels, got {cycle!r}")
    try:
        return FatGraph.from_vertex_cycles(vertices)
    except FatGraphError as exc:
        raise FormatError(str(exc)) from exc


def dumps_graph(graph: FatGraph) -> str:
    return json.dumps(graph_to_document(graph), indent=2) + "\n"


def loads_graph(text: str) -> FatGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    return graph_from_document(doc)


def write_graph(path, graph: FatGraph):
    with open(path, "w") as fh:
        fh.write(dumps_graph(graph))


def read_graph(path) -> FatGraph:
    with open(path) as fh:
        return loads_graph(fh.read())


# --- plans ------------------------------------------------------------------


# the step fields written after "op" when they are set, in file order
_STEP_OPTIONAL = ("family", "param", "left", "right", "x", "y", "w", "u",
                  "arg")


def _step_items(step: Step):
    """(key, value) pairs of a step's document in file order: "op", each
    optional field that is set, "align" for a connected sum, "flip" for a
    join or plumbing, and "vertices" (as lists) when set.  The one
    description of the step schema: :func:`plan_to_document` and
    :func:`dumps_plan` both read it."""
    items = [("op", step.op)]
    for k in _STEP_OPTIONAL:
        v = getattr(step, k)
        if v is not None:
            items.append((k, v))
    if step.op == "consum":
        items.append(("align", step.align))
    elif step.op in ("join", "plumb"):
        items.append(("flip", step.flip))
    if step.vertices is not None:
        items.append(("vertices", [list(c) for c in step.vertices]))
    return items


def _plan_items(plan: SynthesisPlan):
    """(key, value) pairs of a plan's document before "steps", in file
    order."""
    g, b, s = plan.target
    return [("format", PLAN_FORMAT), ("target", {"g": g, "b": b, "s": s}),
            ("expect_filling", plan.expect_filling),
            ("expect_omega", plan.expect_omega)]


def plan_to_document(plan: SynthesisPlan) -> dict:
    doc = dict(_plan_items(plan))
    doc["steps"] = [dict(_step_items(st)) for st in plan.steps]
    return doc


# the type of every step field; all but "op" may be absent or null
_STEP_TYPES = {"op": str, "family": str, "param": int, "vertices": list,
               "left": int, "right": int, "x": str, "y": str, "w": int,
               "u": int, "align": int, "flip": bool, "arg": int}


# the fields each known op needs besides "op"
_STEP_FIELDS = {"family": ("family",), "graph": ("vertices",),
                "join": ("left", "right", "x", "y"),
                "plumb": ("left", "right", "x", "y"),
                "consum": ("left", "right", "w", "u"),
                "smooth": ("arg",)}


def _require(what, value, kind):
    # bool is an int subclass; a flag is no index and an index no flag
    if not isinstance(value, kind) or (
            kind is int and isinstance(value, bool)):
        raise FormatError(f"{what} must be of type {kind.__name__}, "
                          f"got {value!r}")


def _read_step(i, d) -> Step:
    """The :class:`Step` of the document ``d`` of step ``i``, checked and
    read in one pass over its keys.

    Each field is tested by exact type, and only a value that misses it
    goes through :func:`_require`, which also accepts an int subclass
    other than bool.  A fault raises the :class:`FormatError` of the
    first one in this order: ``d`` is a dict, "op", the fields in
    ``_STEP_TYPES`` order, the fields the op needs, the vertex cycles.
    An explicit null is read as given, so ``"align": null`` gives
    ``align=None``."""
    if type(d) is not dict:
        _require(f"step {i}", d, dict)
    op = d.get("op")
    if type(op) is not str:
        _require(f"step {i} op", op, str)
    fields = {}
    for k, v in d.items():
        kind = _STEP_TYPES.get(k)
        if kind is None:
            continue
        if type(v) is not kind and v is not None:
            # name the first ill-typed field in schema order, not in
            # document order; an int subclass passes
            for k2, kind2 in _STEP_TYPES.items():
                if d.get(k2) is not None:
                    _require(f"step {i} {k2}", d[k2], kind2)
        fields[k] = v
    for k in _STEP_FIELDS.get(op, ()):
        if fields.get(k) is None:
            raise FormatError(f"step {i} ({op}) needs field {k!r}")
    vertices = fields.get("vertices")
    if vertices is not None:
        for c in vertices:
            if type(c) is not list:
                _require(f"step {i} vertex cycle", c, list)
        fields["vertices"] = tuple([tuple(c) for c in vertices])
    return Step(**fields)


def plan_from_document(doc) -> SynthesisPlan:
    """The plan of a parsed plan file, every field checked: a fault
    raises :class:`FormatError` naming the first one, the plan's fields
    before its steps and the steps in order (:func:`_read_step`)."""
    if not isinstance(doc, dict) or doc.get("format") != PLAN_FORMAT:
        raise FormatError(f"not a {PLAN_FORMAT} document")
    t = doc.get("target")
    _require("plan target", t, dict)
    for k in ("g", "b", "s"):
        _require(f"target {k}", t.get(k), int)
    expect_filling = doc.get("expect_filling", True)
    _require("expect_filling", expect_filling, bool)
    expect_omega = doc.get("expect_omega")
    if expect_omega is not None:
        _require("expect_omega", expect_omega, int)
    steps = doc.get("steps")
    _require("plan steps", steps, list)
    return SynthesisPlan(target=(t["g"], t["b"], t["s"]),
                         steps=[_read_step(i, d) for i, d in enumerate(steps)],
                         expect_filling=expect_filling,
                         expect_omega=expect_omega)


# JSON text of a scalar by exact type, as json.dumps writes it
_SCALAR_TEXT = {str: encode_basestring_ascii, int: int.__repr__,
                bool: {True: "true", False: "false"}.__getitem__,
                type(None): lambda v: "null"}


def _json_text(value, pad):
    """``json.dumps(value, indent=2)``, each line after the first indented
    by ``pad`` more."""
    text = _SCALAR_TEXT.get(type(value))
    if text is not None:
        return text(value)
    if isinstance(value, (list, tuple)) and value:
        inner = pad + "  "
        return ("[\n" + inner
                + (",\n" + inner).join([_json_text(v, inner) for v in value])
                + "\n" + pad + "]")
    if isinstance(value, dict) and all(type(k) is str for k in value):
        return _object_text(value.items(), pad)
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def _object_text(items, pad):
    """:func:`_json_text` of an object given as (key, value) pairs."""
    if not items:
        return "{}"
    inner = pad + "  "
    parts = []
    for k, v in items:
        text = _SCALAR_TEXT.get(type(v))
        parts.append(encode_basestring_ascii(k) + ": "
                     + (text(v) if text else _json_text(v, inner)))
    return "{\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "}"


def dumps_plan(plan) -> str:
    """``json.dumps(plan_to_document(plan), indent=2) + "\\n"``, written
    from :func:`_plan_items` and :func:`_step_items` without building the
    document or running the pure-Python indenting encoder."""
    steps = [_object_text(_step_items(st), "    ") for st in plan.steps]
    head = _object_text(_plan_items(plan), "")  # ends with "\n}"
    return (head[:-2] + ',\n  "steps": '
            + ("[\n    " + ",\n    ".join(steps) + "\n  ]" if steps else "[]")
            + "\n}\n")


def loads_plan(text) -> SynthesisPlan:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    return plan_from_document(doc)


def write_plan(path, plan):
    with open(path, "w") as fh:
        fh.write(dumps_plan(plan))


def read_plan(path) -> SynthesisPlan:
    with open(path) as fh:
        return loads_plan(fh.read())


# --- census export -----------------------------------------------------------

CENSUS_COLUMNS = ("key", "V", "m", "g", "b", "s", "boundary_lengths",
                  "cycle_lengths", "filling", "omega_max", "count")


def census_rows_to_csv(rows) -> str:
    out = io.StringIO()
    out.write(",".join(CENSUS_COLUMNS) + "\n")
    for r in rows:
        out.write(",".join([
            r.key.hex(), str(r.vertex_count), str(r.edge_count),
            str(r.genus), str(r.boundary_count),
            str(r.standard_cycle_count),
            "|".join(map(str, r.boundary_lengths)),
            "|".join(map(str, r.cycle_lengths)),
            "true" if r.filling else "false",
            "" if r.omega_max is None else str(r.omega_max),
            str(r.count)]) + "\n")
    return out.getvalue()


def census_rows_to_json(rows) -> str:
    payload = []
    for r in rows:
        payload.append({
            "key": r.key.hex(), "V": r.vertex_count, "m": r.edge_count,
            "g": r.genus, "b": r.boundary_count,
            "s": r.standard_cycle_count,
            "boundary_lengths": list(r.boundary_lengths),
            "cycle_lengths": list(r.cycle_lengths),
            "filling": r.filling, "omega_max": r.omega_max,
            "count": r.count})
    return json.dumps(payload, indent=2) + "\n"


# --- DOT export ---------------------------------------------------------------

_DOT_COLORS = ("red", "blue", "forestgreen", "darkorange", "purple",
               "saddlebrown", "deeppink", "teal", "olive", "navy",
               "crimson", "darkcyan")


def graph_to_dot(graph: FatGraph) -> str:
    """DOT emission: vertices as nodes, undirected edges once each, the
    rotation recorded in port attributes and curves colored consistently.
    A graph with an odd-degree vertex has no curves; its edges are black."""
    lines = ["graph fatgraph {", "  node [shape=circle];"]
    vo = graph.vertex_of
    slot = {}
    for cyc in graph.vertex_cycles:
        for i, d in enumerate(cyc):
            slot[d] = i
    try:
        coe = graph.curve_of_edge
    except NotDecoratedError:
        coe = [None] * graph.num_edges
    for v in range(graph.num_vertices):
        rot = " ".join(graph.dart_name(d) for d in graph.vertex_cycles[v])
        lines.append(f'  v{v} [label="v{v}", rotation="{rot}"];')
    for k, name in enumerate(graph.labels):
        d0, d1 = 2 * k, 2 * k + 1
        color = ("black" if coe[k] is None
                 else _DOT_COLORS[coe[k] % len(_DOT_COLORS)])
        lines.append(
            f'  v{vo[d0]} -- v{vo[d1]} [label="{name}", color="{color}", '
            f'tailport="{slot[d0]}", headport="{slot[d1]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
