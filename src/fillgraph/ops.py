"""Join, connected sum, and plumbing of fat graphs.

Each operation returns an :class:`OperationReport` holding the result graph,
the case classification, a prediction of (b, s, g) computed independently of
the result graph, and the recomputed signature.  Prediction and recomputation
must agree exactly; a mismatch raises :class:`OperationInvariantError`.

The result is built directly on integer darts.  Every operand dart maps to
a dart of a new edge key (the operands' edges, then the new edges), and
the result numbers its edges in order of first appearance along the
operands' ``sigma0`` orbits, walked in ``vertex_cycles`` order, left before
right, exactly as :meth:`FatGraph.from_vertex_cycles` would number the same
cycles written as label tokens; the operands' vertex cycles themselves are
never built.  Names are applied once at the end: left labels stay,
right labels are primed on collision, and the new edges, primed likewise,
are ``e``/``f`` for a join, the cut edge labels with ``1``/``2`` appended
for a plumbing, and ``g1``..``g4`` for a connected sum.

Plans repeat their surgeries, so ``_memo`` keeps the analysis of the last
``_MEMO_SIZE`` distinct surgery results, keyed by ``sigma0``: the
signature, the face record and the vertex walk, all functions of
``sigma0`` alone, with the key and the face labels packed into bytes.  An
op remembers a result once it has read the result's signature
(:func:`_recomputed`), and :func:`_restored` presets those three records
on a later result with the same ``sigma0``, and on a synthesis sub-plan
result rebuilt from its darts and labels.  Every step and every report
check still runs, and no other constructor reads the memo.

For join and plumbing the prediction comes from the two-branch case
tables, which are complete.  For the connected sum the classical four-branch
indicator-sum table turns out to be under-determined in two of its branches (the boundary
count also depends on how the eight darts interleave along the boundary
words, not only on the indicator sums), so the prediction here is computed
by splicing the *input* graphs' successor maps (boundary and straight-ahead)
and counting the orbits; the printed table is still evaluated and audited
in the report (``OperationReport.chi``, ``printed_b``).  That prediction is
also public as :func:`predict_connected_sum`, so a caller searching for
selectors can reject a candidate without building its result.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple

from .core import (FatGraph, FatGraphError, InvariantError, _face_successor,
                   _orbit_labels)


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


class OperationReport(namedtuple("OperationReport", (
        "op", "case", "left_signature", "right_signature", "predicted_b",
        "predicted_g", "predicted_s", "result", "recomputed", "chi",
        "selectors"), defaults=(None, None))):
    """What one operation did: its case, the operands' signatures, the
    predicted b, g and s, the result graph and its recomputed signature.
    ``chi`` is the connected sum's audit of the indicator-sum table (None
    for join and plumbing), and ``selectors`` the arguments that chose
    the splice."""

    __slots__ = ()

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


def _fresh(name, used):
    while name in used:
        name += "'"
    used.add(name)
    return name


def _edge_names(left: FatGraph, right: FatGraph, new):
    """Names by edge key: the left labels, the right labels primed away
    from every name before them, then the ``new`` names primed likewise.
    Returns (names by key, the names given to ``new``).

    ``used`` ends as the set of all the names, so they are distinct
    exactly when it holds as many as the list; :func:`_rewired` rests on
    that, and a shortfall is an :class:`InvariantError`."""
    used = set(left.labels)
    names = list(left.labels)
    names += [_fresh(nm, used) for nm in right.labels]
    fresh = [_fresh(nm, used) for nm in new]
    names += fresh
    if len(used) != len(names):
        raise InvariantError("two edges of a surgery result share a name")
    return names, fresh


# Fixed by measurement: a synth-grid pass makes 1,027 distinct surgery
# results (seed 7), so this bound holds a whole pass; see BENCH_20.json.
_MEMO_SIZE = 2048
# key of sigma0 -> (signature, face starts, face labels, vertex walk), the
# key and the face labels packed by _packed; oldest entry first
_memo: OrderedDict = OrderedDict()


def _packed(numbers, bound):
    """The tuple ``numbers``, each below ``bound``, as bytes when
    ``bound`` is at most 256, else the tuple itself."""
    return bytes(numbers) if bound <= 256 else numbers


def _recomputed(result):
    """``result.signature()``, remembered in ``_memo`` with the face
    record and vertex walk it read, unless :func:`_restored` preset them
    from there; a full memo drops its oldest entry.  Only a signature read
    successfully is remembered, so a disconnected result never is."""
    if result._signature is None:
        signature = result.signature()
        if len(_memo) >= _MEMO_SIZE:
            _memo.popitem(last=False)
        starts, faces = result._face_orbits
        _memo[_packed(result.sigma0, result.num_darts)] = (
            signature, starts, _packed(faces, len(starts)), result._walk)
    return result._signature


def _rewired(left: FatGraph, right: FatGraph, lmap, rmap, names,
             skip=((), ()), new_vertex=None):
    """Result graph of a surgery, built on integer darts.

    Edge keys number the left edges, then the right edges, then the new
    edges; key dart ``2 * k + r`` is the forward (r = 0) or reverse dart
    of the edge with key k.  Left dart d is key dart d and right dart d is
    key dart ``2 * m1 + d``, except the darts that ``lmap``/``rmap`` send
    to new edges.  The vertices holding the darts ``skip`` (left, right)
    are deleted and ``new_vertex``, a cycle of key darts, is added last.

    Each operand's ``sigma0`` orbits are walked in the order of
    :attr:`FatGraph.vertex_cycles` (by least dart, each from its least
    dart), left before right, without building those cycles.  The result
    numbers its edges in order of first appearance along this walk, as
    :meth:`FatGraph.from_vertex_cycles` numbers labels, writes its
    ``sigma0`` as it goes, and names the edge with key k ``names[k]``.

    The result is built by :meth:`FatGraph._built`, without the checks of
    ``FatGraph(...)``, because the walk proves them from these checks,
    each raising :class:`InvariantError`:

    * the new keys (the values of ``lmap`` and ``rmap`` and the darts of
      ``new_vertex``) are the darts of the new edges, each once, so
      distinct walked darts have distinct key darts;
    * ``skip`` is closed under each operand's ``sigma0``, so the walk
      steps exactly on the darts that keep a key, each once;
    * the number of those darts equals ``2 * len(labels)``, and is not 0.

    An edge takes the next two result darts when the walk first meets
    one of its key darts, so distinct key darts get distinct result
    darts, all below ``2 * len(labels)``; there are as many walked darts
    as result darts, so the walk meets every result dart exactly once,
    and ``sigma0`` sends each to the next dart of its cycle: a
    permutation.  The labels are distinct names of distinct edges
    (:func:`_edge_names` checks the names), at least one.

    Only then is the result built, by :func:`_restored`, which presets
    the records of a ``sigma0`` found in ``_memo``.
    """
    off = 2 * left.num_edges
    top = off + right.num_darts  # the first key dart of a new edge
    lkey = list(range(off))
    rkey = list(range(off, top))
    for d, kd in lmap.items():
        lkey[d] = kd
    for d, kd in rmap.items():
        rkey[d] = kd
    new_keys = sorted([*lmap.values(), *rmap.values(), *(new_vertex or ())])
    if new_keys != list(range(top, 2 * len(names))):
        raise InvariantError(f"new keys {new_keys} are not the darts "
                             f"{top}..{2 * len(names) - 1} of the new edges")
    ldel, rdel = set(skip[0]), set(skip[1])
    if (set(map(left.sigma0.__getitem__, ldel)) != ldel
            or set(map(right.sigma0.__getitem__, rdel)) != rdel):
        raise InvariantError(f"deleted darts {skip} are not whole vertices")
    for d in ldel:
        lkey[d] = -1
    for d in rdel:
        rkey[d] = -1
    walked = top - len(ldel) - len(rdel)
    parts = [(left.sigma0, lkey), (right.sigma0, rkey)]
    if new_vertex is not None:
        # walked as one more operand: one vertex whose darts are the
        # positions of new_vertex, each rotating to the next
        k = len(new_vertex)
        parts.append((list(range(1, k)) + [0], list(new_vertex)))
        walked += k

    new_of = [-1] * (2 * len(names))  # key dart -> result dart
    labels = []
    # the slot past the result's darts holds each cycle's first dart
    sigma0 = [0] * (2 * len(names) + 1)
    for s0, key in parts:  # key[d] is -1 once dart d is walked
        for start in range(len(s0)):
            if key[start] < 0:
                continue
            prev = -1
            d = start
            while True:
                kd = key[d]
                key[d] = -1
                nd = new_of[kd]
                if nd < 0:
                    nd = new_of[kd] = 2 * len(labels) + (kd & 1)
                    new_of[kd ^ 1] = nd ^ 1
                    labels.append(names[kd >> 1])
                sigma0[prev] = nd
                prev = nd
                d = s0[d]
                if d == start:
                    break
            sigma0[prev] = sigma0[-1]
    if not walked or walked != 2 * len(labels):
        raise InvariantError(
            f"walked {walked} darts for {len(labels)} edges")
    del sigma0[2 * len(labels):]
    return _restored(sigma0, labels)


def _restored(sigma0, labels):
    """The graph on ``sigma0`` and ``labels``, built by
    :meth:`FatGraph._built`, with the signature, face record (the labels
    unpacked into a tuple) and vertex walk of ``sigma0`` preset from
    ``_memo`` when an earlier result on it was analysed; every other
    structure stays lazy.

    The caller proves the checks of ``FatGraph(...)``: :func:`_rewired`
    for a result it built, and :meth:`fillgraph.synthesis._Builder.reuse`
    for a sub-plan result kept as the ``_packed`` darts and the labels of
    a graph built before."""
    graph = FatGraph._built(sigma0, labels)
    known = _memo.get(_packed(graph.sigma0, graph.num_darts))
    if known is not None:
        graph._signature, starts, faces, graph._walk = known
        graph._face_orbits = starts, tuple(faces)
    return graph


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

    names, (e, f) = _edge_names(left, right, ("e", "f"))
    ke = 2 * (left.num_edges + right.num_edges)  # key dart e+; f+ is ke + 2
    xp, xm = left.darts_of(x)
    yp, ym = right.darts_of(y)
    if flip:
        yp, ym = ym, yp
    # x+ -> e+, x- -> f-, y+ -> e-, y- -> f+ (y reversed first under flip)
    result = _rewired(left, right, {xp: ke, xm: ke + 3},
                      {yp: ke + 1, ym: ke + 2}, names)

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
        result=result, recomputed=_recomputed(result),
        selectors={"x": x, "y": y, "flip": flip, "new_edges": (e, f)})
    return rep.check()


def new_join_face_lengths(report: OperationReport):
    """Lengths of the faces of a join result that are not inherited
    verbatim, i.e. those through the spliced edges (strictly longer than 2
    by the splice case analysis; asserted in tests), in face order."""
    g = report.result
    comp = g.boundary_component_of
    touched = {comp[d] for nm in report.selectors["new_edges"]
               for d in g.darts_of(nm)}
    return [g.face_lengths[i] for i in sorted(touched)]


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

    names, (x1, x2, y1, y2) = _edge_names(
        left, right, (x + "1", x + "2", y + "1", y + "2"))
    k = 2 * (left.num_edges + right.num_edges)
    kx1, kx2, ky1, ky2 = k, k + 2, k + 4, k + 6  # key darts x1+ .. y2+
    xp, xm = left.darts_of(x)
    yp, ym = right.darts_of(y)
    if flip:
        yp, ym = ym, yp
    # x+ -> x1+, x- -> x2-, y+ -> y1+, y- -> y2- (y reversed first under
    # flip); the new vertex is (x1-, y1-, x2+, y2+)
    result = _rewired(left, right, {xp: kx1, xm: kx2 + 1},
                      {yp: ky1, ym: ky2 + 1}, names,
                      new_vertex=[kx1 + 1, ky1 + 1, kx2, ky2])

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
        result=result, recomputed=_recomputed(result),
        selectors={"x": x, "y": y, "flip": flip,
                   "new_vertex_edges": (x1, x2, y1, y2)})
    return rep.check()


def _spliced_orbit_count(succ_l, w_darts, succ_r, u_darts):
    """Number of orbits of a successor map on the connected sum, spliced
    from the maps ``succ_l``/``succ_r`` of the *inputs* alone (never from
    the result graph).

    Darts of the combined map: left dart d is d, right dart d is n1 + d,
    and merged edge g_i has darts g + 2i (g_i+) and g + 2i + 1 (g_i-).
    Strand i of w (dart e_i) merges with strand 3-i of u (dart f_{3-i}):
    g_i+ replaces the pair (rev e_i, f_{3-i}) and g_i- replaces
    (rev f_{3-i}, e_i).  The darts of both deleted vertices and their
    reverses drop out: each is made a fixed point of the spliced map and
    its orbit taken off the count.  Neither vertex carries a loop, so no
    surviving dart steps onto a dropped one.
    """
    n1 = len(succ_l)
    g = n1 + len(succ_r)
    to = list(range(g))
    for i in range(4):
        e, f = w_darts[i], n1 + u_darts[3 - i]
        to[e ^ 1] = g + 2 * i
        to[f ^ 1] = g + 2 * i + 1
    nxt = [to[d] for d in succ_l]
    nxt += [to[n1 + d] for d in succ_r]
    for i in range(4):
        nxt.append(to[n1 + succ_r[u_darts[3 - i]]])
        nxt.append(to[succ_l[w_darts[i]]])
    for e in (*w_darts, *(n1 + f for f in u_darts)):
        nxt[e] = e
        nxt[e ^ 1] = e ^ 1
    return len(_orbit_labels(nxt)[0]) - 16


def _strands_distinct(graph, darts):
    """True when ``graph`` is decorated and the edges of ``darts[0]`` and
    ``darts[1]`` lie on two different curves.  An edge lies on the curve
    of the kept orbit of its two darts, the one with the smaller curve
    label (see :attr:`FatGraph.curve_of_edge`), so the labels are compared
    without building the edge map."""
    if not graph.is_decorated:
        return False
    labels = graph._curve_orbits[1]
    d, e = darts[0], darts[1]
    return min(labels[d], labels[d ^ 1]) != min(labels[e], labels[e ^ 1])


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
    s_law_premise = _strands_distinct(left, w_darts) and \
        _strands_distinct(right, u_darts)

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


def _coupled_darts(left: FatGraph, right: FatGraph, w: int, u: int,
                   align: int):
    """Checked selectors of a connected sum -> (darts of w, darts of u
    rotated by ``align``); raises :class:`OperationError` when the sum is
    undefined."""
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
    u_darts = right.vertex_cycles[u]
    return list(left.vertex_cycles[w]), list(u_darts[align:] + u_darts[:align])


def _sum_prediction(left: FatGraph, w_darts, right: FatGraph, u_darts):
    """(g, b, s) of a connected sum from the inputs alone: b and s count
    the orbits of the spliced boundary and straight-ahead successors, g
    follows from Euler's formula for a connected result; s is None unless
    both inputs are decorated.  A disconnected input raises
    :class:`DisconnectedError` from its signature."""
    ls, rs = left.signature(), right.signature()
    b = _spliced_orbit_count(_face_successor(left.sigma0), w_darts,
                             _face_successor(right.sigma0), u_darts)
    V = ls.vertex_count + rs.vertex_count - 2
    m = ls.edge_count + rs.edge_count - 4
    s = None
    if left.is_decorated and right.is_decorated:
        orbits = _spliced_orbit_count(left._curve_orbits[2], w_darts,
                                      right._curve_orbits[2], u_darts)
        if orbits % 2:
            raise OperationInvariantError(
                "standard orbits of a connected sum do not pair up")
        s = orbits // 2
    return (2 - b - V + m) // 2, b, s


def predict_connected_sum(left: FatGraph, right: FatGraph, w: int, u: int,
                          align: int = 0):
    """The (g, b, s) that :func:`connected_sum` with these arguments
    predicts, without building the result: a cheap screen for selectors.
    Raises :class:`OperationError` where ``connected_sum`` rejects the
    selectors; a sum that would disconnect is not detected here."""
    w_darts, u_darts = _coupled_darts(left, right, w, u, align)
    return _sum_prediction(left, w_darts, right, u_darts)


def connected_sum(left: FatGraph, right: FatGraph, w: int, u: int,
                  align: int = 0) -> OperationReport:
    """Delete 4-valent vertices ``w`` of ``left`` and ``u`` of ``right`` and
    splice strand i of w to strand 5-i of u (1-based).

    Vertices are given as indices into ``vertex_cycles``.  Both must be
    4-valent and loop free (a loop at the deleted vertex would leave a
    dangling splice).  The result depends on how the two rotations are
    lined up, so ``align`` in 0..3 rotates the right vertex's cycle before
    coupling; the four alignments can give up to four different sums.

    New edges are named g1..g4.  The prediction is
    :func:`predict_connected_sum`, made before the result is built; the
    indicator-sum table and the s1+s2-2 curve law are evaluated into
    ``report.chi`` for audit (the law needs the two strands at each deleted
    vertex to lie on two different curves, which filling systems always
    satisfy).
    """
    w_darts, u_darts = _coupled_darts(left, right, w, u, align)
    pg, pb, ps = _sum_prediction(left, w_darts, right, u_darts)
    names, gname = _edge_names(left, right, ("g1", "g2", "g3", "g4"))
    kg = 2 * (left.num_edges + right.num_edges)  # key dart g1+; g2+ is +2
    # rev(e_i) -> g_i+,  rev(f_j) -> g_{3-j}-   (0-based coupling)
    lmap = {d ^ 1: kg + 2 * i for i, d in enumerate(w_darts)}
    rmap = {d ^ 1: kg + 2 * (3 - j) + 1 for j, d in enumerate(u_darts)}
    result = _rewired(left, right, lmap, rmap, names,
                      skip=(w_darts, u_darts))
    if not result.is_connected:
        # both deleted vertices were cut vertices whose pieces pair apart
        raise OperationError(
            f"connected sum at (w={w}, u={u}) disconnects the graph")

    ls, rs = left.signature(), right.signature()
    case, chi = _chi_audit(left, w_darts, right, u_darts, ls, rs)
    rep = OperationReport(
        op="consum", case=case, left_signature=ls, right_signature=rs,
        predicted_b=pb, predicted_g=pg, predicted_s=ps,
        result=result, recomputed=_recomputed(result), chi=chi,
        selectors={"w": w, "u": u, "align": align,
                   "new_edges": tuple(gname)})
    return rep.check()
