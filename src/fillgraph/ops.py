"""Join, connected sum, and plumbing of fat graphs.

Each operation returns an :class:`OperationReport` holding the result graph,
the case classification, a prediction of (b, s, g) computed independently of
the result graph, and the recomputed signature.  Prediction and recomputation
must agree exactly; a mismatch raises :class:`OperationInvariantError`.

For join and plumbing the prediction comes from the two-branch case
tables, which are complete.  For the connected sum the classical four-branch
indicator-sum table turns out to be under-determined in two of its branches (the boundary
count also depends on how the eight darts interleave along the boundary
words, not only on the indicator sums), so the prediction here is computed by
boundary word surgery on the *input* words alone; the printed table is still
evaluated and audited in the report.  See ``chi_case`` / ``printed_b``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import FatGraph, FatGraphError, InvariantError, SurfaceSignature


class OperationError(FatGraphError):
    """Bad selector or precondition violation."""


class OperationInvariantError(InvariantError):
    """Predicted and recomputed values disagree: internal breach."""


JOIN_SAME_SAME = "SAME/SAME"
JOIN_OTHER = "OTHER"
PLUMB_ALL_DIFF = "ALL-DIFFERENT"
PLUMB_OTHER = "OTHER"
SUM_ALL4_ONE = "all4-in-one-boundary"
SUM_BLOCKS4 = "blocks-in-4-boundaries"
SUM_TWO_SAME = "two-same-edges"
SUM_OTHER = "otherwise"


@dataclass
class OperationReport:
    op: str
    case: str
    left_signature: SurfaceSignature
    right_signature: SurfaceSignature
    predicted_b: int
    predicted_g: int
    predicted_s: int | None
    result: FatGraph
    recomputed: SurfaceSignature
    # connected sum audit of the indicator-sum table (None for join/plumb)
    chi: dict | None = None
    selectors: dict = field(default_factory=dict)

    def check(self):
        got = (self.recomputed.boundary_count, self.recomputed.genus,
               self.recomputed.standard_cycle_count)
        want = (self.predicted_b, self.predicted_g, self.predicted_s)
        if got[0] != want[0] or got[1] != want[1] or (
                want[2] is not None and got[2] != want[2]):
            raise OperationInvariantError(
                f"{self.op} {self.case}: predicted b,g,s={want} but "
                f"recomputed {got}")
        return self

    def summary(self):
        ls, rs = self.left_signature, self.right_signature
        r = self.recomputed
        s = (f"{self.op} case={self.case} "
             f"b:{ls.boundary_count}+{rs.boundary_count}→{r.boundary_count} "
             f"g:{ls.genus}+{rs.genus}→{r.genus}")
        if self.predicted_s is not None:
            s += (f" s:{ls.standard_cycle_count}+{rs.standard_cycle_count}"
                  f"→{r.standard_cycle_count}")
        return s


def _tokens(g: FatGraph):
    return [[(g.labels[d >> 1], 1 - 2 * (d & 1)) for d in cyc]
            for cyc in g.vertex_cycles]


def _fresh(name, used):
    while name in used:
        name += "'"
    used.add(name)
    return name


def _rename_pools(left: FatGraph, right: FatGraph):
    used = set()
    ren_l = {nm: _fresh(nm, used) for nm in left.labels}
    ren_r = {nm: _fresh(nm, used) for nm in right.labels}
    return used, ren_l, ren_r


def _emit(cycles):
    return FatGraph.from_vertex_cycles(
        [[(nm, sg) for nm, sg in cyc] for cyc in cycles])


def _require_edge(g, label, side):
    if not g.has_edge(label):
        raise OperationError(f"{side} graph has no edge {label!r}")


def _same_component(g: FatGraph, label):
    comp = g.boundary_component_of
    d0, d1 = g.darts_of(label)
    return comp[d0] == comp[d1]


def _predicted_s(ls, rs, delta):
    if ls.standard_cycle_count is None or rs.standard_cycle_count is None:
        return None
    return ls.standard_cycle_count + rs.standard_cycle_count + delta


def join(left: FatGraph, right: FatGraph, x: str, y: str,
         flip: bool = False) -> OperationReport:
    """Cut edge ``x`` of ``left`` and ``y`` of ``right`` and cross splice.

    The two inputs are treated as disjoint graphs; pass two distinct values.
    The splice pairs the halves of x and y by their stored directions; the
    two possible pairings differ by reversing one edge, selected by
    ``flip``.  New edges are named ``e`` and ``f`` (primed on collision).

    Case SAME/SAME (both directions of x share a boundary component and
    likewise y) gives b1+b2 components and genus g1+g2-1; every other
    placement gives b1+b2-2 and g1+g2; either way the counts do not depend
    on ``flip``.  Standard cycle counts always merge to s1+s2-1.
    """
    if left is right:
        raise OperationError("self-join rejected: pass two graph values")
    _require_edge(left, x, "left")
    _require_edge(right, y, "right")
    ls, rs = left.signature(), right.signature()

    used, ren_l, ren_r = _rename_pools(left, right)
    e = _fresh("e", used)
    f = _fresh("f", used)
    out = []
    for cyc in _tokens(left):
        row = []
        for nm, sg in cyc:
            if nm == x:
                row.append((e, 1) if sg > 0 else (f, -1))
            else:
                row.append((ren_l[nm], sg))
        out.append(row)
    for cyc in _tokens(right):
        row = []
        for nm, sg in cyc:
            if nm == y:
                if flip:
                    sg = -sg
                row.append((e, -1) if sg > 0 else (f, 1))
            else:
                row.append((ren_r[nm], sg))
        out.append(row)
    result = _emit(out)

    same_same = _same_component(left, x) and _same_component(right, y)
    if same_same:
        case, pb, pg = JOIN_SAME_SAME, ls.boundary_count + rs.boundary_count, \
            ls.genus + rs.genus - 1
    else:
        case, pb, pg = JOIN_OTHER, ls.boundary_count + rs.boundary_count - 2, \
            ls.genus + rs.genus
    rep = OperationReport(
        op="join", case=case, left_signature=ls, right_signature=rs,
        predicted_b=pb, predicted_g=pg, predicted_s=_predicted_s(ls, rs, -1),
        result=result, recomputed=result.signature(),
        selectors={"x": x, "y": y, "flip": flip, "new_edges": (e, f)})
    if not rep.recomputed.is_connected:
        raise OperationInvariantError("join of connected graphs is "
                                      "disconnected")
    return rep.check()


def new_join_boundaries(report: OperationReport):
    """Boundary cycles of a join result that are not inherited verbatim,
    i.e. those through the spliced edges (strictly longer than 2 by the
    splice case analysis; asserted in tests)."""
    e, f = report.selectors["new_edges"]
    g = report.result
    touched = set()
    for nm in (e, f):
        for d in g.darts_of(nm):
            touched.add(g.boundary_component_of[d])
    return [g.boundary_cycles[i] for i in sorted(touched)]


def plumbing(left: FatGraph, right: FatGraph, x: str, y: str,
             flip: bool = False) -> OperationReport:
    """Split ``x`` and ``y`` and merge them at one new 4-valent crossing.

    The new vertex has cyclic order (x1-, y1-, x2+, y2+) where x1, x2 are the
    halves of x and y1, y2 those of y.  The two crossing handednesses differ
    by reversing one edge, selected by ``flip``.  Boundary count drops by 3
    when all four directions of x and y lie in four different boundary
    components, by 1 otherwise.  Strands pass straight through the new
    vertex, so the curve count is s1+s2.
    """
    if left is right:
        raise OperationError("self-plumbing rejected: pass two graph values")
    _require_edge(left, x, "left")
    _require_edge(right, y, "right")
    ls, rs = left.signature(), right.signature()

    used, ren_l, ren_r = _rename_pools(left, right)
    x1 = _fresh(x + "1", used)
    x2 = _fresh(x + "2", used)
    y1 = _fresh(y + "1", used)
    y2 = _fresh(y + "2", used)
    out = []
    for cyc in _tokens(left):
        row = []
        for nm, sg in cyc:
            if nm == x:
                row.append((x1, 1) if sg > 0 else (x2, -1))
            else:
                row.append((ren_l[nm], sg))
        out.append(row)
    for cyc in _tokens(right):
        row = []
        for nm, sg in cyc:
            if nm == y:
                if flip:
                    sg = -sg
                row.append((y1, 1) if sg > 0 else (y2, -1))
            else:
                row.append((ren_r[nm], sg))
        out.append(row)
    out.append([(x1, -1), (y1, -1), (x2, 1), (y2, 1)])
    result = _emit(out)

    all_diff = (not _same_component(left, x)) and \
        (not _same_component(right, y))
    delta = -3 if all_diff else -1
    pb = ls.boundary_count + rs.boundary_count + delta
    V = ls.vertex_count + rs.vertex_count + 1
    m = ls.edge_count + rs.edge_count + 2
    pg = (2 - pb - V + m) // 2
    rep = OperationReport(
        op="plumb", case=PLUMB_ALL_DIFF if all_diff else PLUMB_OTHER,
        left_signature=ls, right_signature=rs,
        predicted_b=pb, predicted_g=pg, predicted_s=_predicted_s(ls, rs, 0),
        result=result, recomputed=result.signature(),
        selectors={"x": x, "y": y, "flip": flip,
                   "new_vertex_edges": (x1, x2, y1, y2)})
    return rep.check()


def _word_maps(g: FatGraph):
    nxt = {}
    prv = {}
    for w in g.boundary_cycles:
        for i, d in enumerate(w):
            nxt[d] = w[(i + 1) % len(w)]
        for i, d in enumerate(w):
            prv[w[(i + 1) % len(w)]] = d
    return nxt, prv


def _surgery_boundary_count(left, w_darts, right, u_darts):
    """Number of boundary components of the connected sum, computed from the
    input boundary words alone (never from the result graph).

    Strand i of w (dart e_i) merges with strand 3-i of u; in the boundary
    words the merged edge g_i replaces the pair (rev e_i, f_{3-i}) and its
    reverse replaces (rev f_{3-i}, e_i).
    """
    n1, _ = _word_maps(left)
    n2, _ = _word_maps(right)
    e = list(w_darts)
    f = list(u_darts)
    e_rev = {d ^ 1: i for i, d in enumerate(e)}
    f_rev = {d ^ 1: j for j, d in enumerate(f)}

    def step_left(x):
        if x in e_rev:
            return ("g", e_rev[x], 1)
        return ("L", x)

    def step_right(x):
        if x in f_rev:
            return ("g", 3 - f_rev[x], -1)
        return ("R", x)

    def succ(t):
        if t[0] == "L":
            return step_left(n1[t[1]])
        if t[0] == "R":
            return step_right(n2[t[1]])
        _, i, sgn = t
        if sgn > 0:
            return step_right(n2[f[3 - i]])
        return step_left(n1[e[i]])

    dead1 = set(e) | set(e_rev)
    dead2 = set(f) | set(f_rev)
    tokens = [("L", d) for d in n1 if d not in dead1]
    tokens += [("R", d) for d in n2 if d not in dead2]
    tokens += [("g", i, s) for i in range(4) for s in (1, -1)]
    seen = set()
    b = 0
    for t in tokens:
        if t in seen:
            continue
        b += 1
        c = t
        while c not in seen:
            seen.add(c)
            c = succ(c)
    return b


def _standard_maps(g: FatGraph):
    nxt = {}
    for orb in g.standard_orbits:
        for i, d in enumerate(orb):
            nxt[d] = orb[(i + 1) % len(orb)]
    return nxt


def _surgery_standard_count(left, w_darts, right, u_darts):
    """Curve count of the connected sum from the input curve orbits alone.

    Same splice mechanism as the boundary surgery, applied to the
    straight-ahead orbit words.  Returns the number of directed orbits
    divided by two.  Requires both inputs decorated.
    """
    s1 = _standard_maps(left)
    s2 = _standard_maps(right)
    e = list(w_darts)
    f = list(u_darts)
    e_rev = {d ^ 1: i for i, d in enumerate(e)}
    f_rev = {d ^ 1: j for j, d in enumerate(f)}

    def step_left(x):
        if x in e_rev:
            return ("g", e_rev[x], 1)
        return ("L", x)

    def step_right(x):
        if x in f_rev:
            return ("g", 3 - f_rev[x], -1)
        return ("R", x)

    def succ(t):
        if t[0] == "L":
            return step_left(s1[t[1]])
        if t[0] == "R":
            return step_right(s2[t[1]])
        _, i, sgn = t
        if sgn > 0:
            return step_right(s2[f[3 - i]])
        return step_left(s1[e[i]])

    dead1 = set(e) | set(e_rev)
    dead2 = set(f) | set(f_rev)
    tokens = [("L", d) for d in s1 if d not in dead1]
    tokens += [("R", d) for d in s2 if d not in dead2]
    tokens += [("g", i, s) for i in range(4) for s in (1, -1)]
    seen = set()
    orbits = 0
    for t in tokens:
        if t in seen:
            continue
        orbits += 1
        c = t
        while c not in seen:
            seen.add(c)
            c = succ(c)
    if orbits % 2:
        raise OperationInvariantError(
            "standard orbits of a connected sum do not pair up")
    return orbits // 2


def _chi_audit(left, w_darts, right, u_darts, ls, rs):
    """Evaluate the four-branch indicator-sum classification of the connected
    sum and return its diagnostics.  The table value is recorded for audit;
    only the two structurally forced branches are reliable in general."""
    comp2 = right.boundary_component_of
    same = [comp2[d] == comp2[d ^ 1] for d in u_darts]
    count_same = sum(same)
    per_eta = {}
    for d in u_darts:
        if comp2[d] == comp2[d ^ 1]:
            per_eta[comp2[d]] = per_eta.get(comp2[d], 0) + 1
    max_eta_same = max(per_eta.values(), default=0)
    exists_eta_all4 = max_eta_same == 4
    block_comps = [comp2[u_darts[i] ^ 1] for i in range(4)]
    n_block_comps = len(set(block_comps))
    comp1 = left.boundary_component_of
    w_comps = {comp1[d] for d in w_darts} | {comp1[d ^ 1] for d in w_darts}
    hypothesis = len(w_comps) == 1

    # the printed curve law s1+s2-2 silently assumes the two strands at each
    # deleted vertex belong to two different curves
    def strands_distinct(g, darts):
        if not g.is_decorated:
            return False
        coe = g.curve_of_edge
        return coe[darts[0] >> 1] != coe[darts[1] >> 1]

    s_law_premise = strands_distinct(left, w_darts) and \
        strands_distinct(right, u_darts)

    if exists_eta_all4:
        case, delta = SUM_ALL4_ONE, 2
        reliable = False
    elif count_same == 0 and n_block_comps == 4:
        case, delta = SUM_BLOCKS4, -4
        reliable = True
    elif count_same == 2:
        case, delta = SUM_TWO_SAME, 0
        reliable = False
    else:
        case, delta = SUM_OTHER, -2
        reliable = count_same == 0 and n_block_comps == 3
    printed_b = ls.boundary_count + rs.boundary_count + delta \
        if hypothesis else None
    return case, {
        "count_same": count_same,
        "max_eta_same": max_eta_same,
        "exists_eta_all4": exists_eta_all4,
        "n_block_comps": n_block_comps,
        "hypothesis": hypothesis,
        "printed_b": printed_b,
        "reliable": hypothesis and reliable,
        "s_law_premise": s_law_premise,
    }


def connected_sum(left: FatGraph, right: FatGraph, w: int, u: int,
                  align: int = 0) -> OperationReport:
    """Delete 4-valent vertices ``w`` of ``left`` and ``u`` of ``right`` and
    splice strand i of w to strand 5-i of u (1-based).

    Vertices are given as indices into ``vertex_cycles``.  Both must be
    4-valent and loop free (a loop at the deleted vertex would leave a
    dangling splice).  The result depends on how the two rotations are
    lined up, so ``align`` in 0..3 rotates the right vertex's cycle before
    coupling; the four alignments can give up to four different sums.

    New edges are named g1..g4.  Boundary and curve counts are predicted by
    word surgery on the input orbit words; the indicator-sum
    table and the s1+s2-2 curve law are evaluated into ``report.chi`` for
    audit (the law needs the two strands at each deleted vertex to lie on
    two different curves, which filling systems always satisfy).
    """
    if left is right:
        raise OperationError("self-sum rejected: pass two graph values")
    if align not in (0, 1, 2, 3):
        raise OperationError(f"align must be in 0..3, got {align}")
    for g, v, side in ((left, w, "left"), (right, u, "right")):
        if not 0 <= v < g.num_vertices:
            raise OperationError(f"{side} graph has no vertex {v}")
        if g.degree(v) != 4:
            raise OperationError(
                f"{side} vertex {v} has degree {g.degree(v)}, need 4")
        if g.loops_at(v):
            raise OperationError(
                f"{side} vertex {v} carries a loop; connected sum undefined")
    ls, rs = left.signature(), right.signature()

    w_darts = list(left.vertex_cycles[w])
    u_darts = list(right.vertex_cycles[u])
    u_darts = u_darts[align:] + u_darts[:align]
    used, ren_l, ren_r = _rename_pools(left, right)
    gname = [_fresh(f"g{i+1}", used) for i in range(4)]

    # rev(e_i) -> gi+,  rev(f_j) -> g_{3-j}-   (0-based coupling)
    sub_l = {}
    for i, d in enumerate(w_darts):
        nm, sg = left.labels[d >> 1], 1 - 2 * (d & 1)
        sub_l[(nm, -sg)] = (gname[i], 1)
    sub_r = {}
    for j, d in enumerate(u_darts):
        nm, sg = right.labels[d >> 1], 1 - 2 * (d & 1)
        sub_r[(nm, -sg)] = (gname[3 - j], -1)
    out = []
    for vi, cyc in enumerate(_tokens(left)):
        if vi == w:
            continue
        out.append([sub_l.get((nm, sg), (ren_l[nm], sg)) for nm, sg in cyc])
    for vi, cyc in enumerate(_tokens(right)):
        if vi == u:
            continue
        out.append([sub_r.get((nm, sg), (ren_r[nm], sg)) for nm, sg in cyc])
    result = _emit(out)
    if not result.is_connected:
        # both deleted vertices were cut vertices whose pieces pair apart
        raise OperationError(
            f"connected sum at (w={w}, u={u}) disconnects the graph")

    pb = _surgery_boundary_count(left, w_darts, right, u_darts)
    V = ls.vertex_count + rs.vertex_count - 2
    m = ls.edge_count + rs.edge_count - 4
    pg = (2 - pb - V + m) // 2
    case, chi = _chi_audit(left, w_darts, right, u_darts, ls, rs)
    ps = None
    if left.is_decorated and right.is_decorated:
        ps = _surgery_standard_count(left, w_darts, right, u_darts)
    rep = OperationReport(
        op="consum", case=case, left_signature=ls, right_signature=rs,
        predicted_b=pb, predicted_g=pg, predicted_s=ps,
        result=result, recomputed=result.signature(), chi=chi,
        selectors={"w": w, "u": u, "align": align,
                   "new_edges": tuple(gname)})
    return rep.check()
