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

Plans repeat their surgeries, so ``_memo``, like each table here a
:class:`core._Table` (one bound, oldest entry first out), keeps the
analysis of distinct surgery results, keyed by ``sigma0``: the
signature, the face record, the vertex walk and, once a plan has checked
it, the filling verdict, all functions of ``sigma0`` alone, with the key
and the face labels packed into bytes; a graph packs its key once
(:attr:`FatGraph._key`).  An op remembers a result once it has read the
result's signature (:func:`_recomputed`), and
:func:`_restored` presets the first three records on a later result with
the same ``sigma0``, and on a synthesis sub-plan result rebuilt from its
darts and labels.  A plan's final check reads the verdict through
:func:`_filling_verdict`, so the builder's check and replay's check of
one final graph run :meth:`FatGraph.is_filling_system` once between
them.  Every step and every report check still runs, and no other
constructor reads the memo.

Replay runs every surgery of a plan again, so ``_constructions`` keeps
distinct walks of :func:`_rewired`, keyed by the
operands' keys and the splice: the result's key and the operand edge key
of each result edge.  Each distinct construction is walked once; a later
call on it (a hit) reads the packed edge order, maps its own names over
it and unpacks the key into the result's ``sigma0``.  The names check,
the splice checks, the prediction from the operands, the signature read
by :func:`_recomputed` and the report check run on every call.

For join and plumbing the prediction comes from the two-branch case
tables, which are complete.  For the connected sum the classical four-branch
indicator-sum table turns out to be under-determined in two of its branches (the boundary
count also depends on how the eight darts interleave along the boundary
words, not only on the indicator sums), so the prediction here counts the
orbits of the spliced successors (boundary and straight-ahead) from the
*input* graphs by their cut points: deleting a vertex cuts the orbits
through it into four segments, and the sum's orbits are the untouched
orbits of both inputs plus the cycles of a permutation of the four left
segments (:func:`_spliced_count`).  The printed table is still evaluated
and audited in the report (``OperationReport.chi``, ``printed_b``).  That
prediction is also public as :func:`predict_connected_sum`, so a caller
searching for selectors can reject a candidate without building its
result.

What the prediction, the selector checks and the audit read of a vertex
is its side record (:class:`_Side`): its darts, the faces through it,
the untouched orbit counts and the four-entry cut maps.  ``_sides``
keeps the records of vertices, keyed by
(:attr:`FatGraph._key`, vertex), so the screens of a plan's build, its
replay, the copies of a family member and the ops audit make each once
per process, and a prediction costs O(1) once its two records are kept.
A record is made from the operand alone: its face and curve labels and
one walk of orbit places (:attr:`FatGraph._positions`) per graph.
"""

from __future__ import annotations

from collections import namedtuple

from .core import (FatGraph, FatGraphError, InvariantError, _packed, _Table,
                   _unpacked)


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
    the splice.  The three operations build it positionally, in this
    field order."""

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
    for nm in right.labels:
        # a name not taken yet is kept without a call to _fresh
        if nm in used:
            nm = _fresh(nm, used)
        else:
            used.add(nm)
        names.append(nm)
    fresh = [_fresh(nm, used) for nm in new]
    names += fresh
    if len(used) != len(names):
        raise InvariantError("two edges of a surgery result share a name")
    return names, fresh


# key of sigma0 (FatGraph._key) -> (signature, face starts, face labels,
# vertex walk, filling verdict), the key and the face labels packed by
# _packed, the verdict None until _filling_verdict puts it in
_memo = _Table()
# (left key, right key, 2 * len(names), packed splice) of a _rewired call
# -> (key of the result's sigma0, the operand edge key of each result
# edge packed by _packed)
_constructions = _Table()


def _recomputed(result):
    """``result.signature()``, remembered in ``_memo`` with the face
    record and vertex walk it read, unless :func:`_restored` preset them
    from there.  Only a signature read successfully is remembered, so a
    disconnected result never is."""
    if result._signature is None:
        signature = result.signature()
        starts, faces = result._face_orbits
        _memo.keep(result._key, (
            signature, starts, _packed(faces, len(starts)), result._walk,
            None))
    return result._signature


# the verdict of every filling: one object shared by their entries
_FILLING = (True, None)


def _filling_verdict(graph):
    """(``graph.is_filling_system()[0]``, its first diagnostic or None),
    kept in the ``_memo`` entry of ``graph.sigma0``: the first call on a
    ``sigma0`` with an entry runs :meth:`FatGraph.is_filling_system` and
    puts the answer in the entry, which keeps its place in the memo, and
    every later one reads it there.  A graph without an entry is checked
    on every call, and gets none."""
    key = graph._key
    entry = _memo.get(key)
    if entry is not None and entry[4] is not None:
        return entry[4]
    ok, diags = graph.is_filling_system()
    verdict = _FILLING if ok else (False, diags[0])
    if entry is not None:
        _memo[key] = entry[:4] + (verdict,)
    return verdict


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

    The first two checks run on every call.  The walk's output, the
    result's ``sigma0`` and the key of each result edge, is a function
    of the operands' ``sigma0`` and the splice alone, so it is kept in
    ``_constructions`` once its count check has passed, and a later call
    on the same construction reads it there: it maps its own ``names``
    over the packed edge order, iterated as it lies when it takes one byte
    a number (up to 256 names) and unpacked when it takes two, and
    unpacks the key into ``sigma0``.  Either way the result is built by
    :func:`_restored`, which presets the records of a ``sigma0`` found in
    ``_memo``.
    """
    off = 2 * left.num_edges
    top = off + right.num_darts  # the first key dart of a new edge
    n = 2 * len(names)
    new_keys = sorted([*lmap.values(), *rmap.values(), *(new_vertex or ())])
    if new_keys != list(range(top, n)):
        raise InvariantError(f"new keys {new_keys} are not the darts "
                             f"{top}..{n - 1} of the new edges")
    ldel, rdel = set(skip[0]), set(skip[1])
    if (ldel or rdel) and (
            set(map(left.sigma0.__getitem__, ldel)) != ldel
            or set(map(right.sigma0.__getitem__, rdel)) != rdel):
        raise InvariantError(f"deleted darts {skip} are not whole vertices")
    # n, in the key, sets the bytes a number takes, and each part but the
    # last is led by its length, so a splice reads back one way
    splice = _packed((len(lmap), *lmap, *lmap.values(), len(rmap), *rmap,
                      *rmap.values(), len(skip[0]), *skip[0], len(skip[1]),
                      *skip[1], *(new_vertex or ())), n)
    construction = (left._key, right._key, n, splice)
    known = _constructions.get(construction)
    if known is not None:
        key, order = known
        if len(names) > 256:
            order = _unpacked(order, len(names))
        # else the order takes one byte a number (core._packed), and the
        # bytes iterate as those numbers
        labels = list(map(names.__getitem__, order))
        return _restored(_unpacked(key, 2 * len(labels)), labels, key)

    lkey = list(range(off))
    rkey = list(range(off, top))
    for d, kd in lmap.items():
        lkey[d] = kd
    for d, kd in rmap.items():
        rkey[d] = kd
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

    new_of = [-1] * n  # key dart -> result dart
    order = []  # the key of each result edge
    labels = []
    nd_next = 0  # the forward dart of the next result edge
    # the slot past the result's darts holds each cycle's first dart
    sigma0 = [0] * (n + 1)
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
                    nd = new_of[kd] = nd_next + (kd & 1)
                    nd_next += 2
                    new_of[kd ^ 1] = nd ^ 1
                    order.append(kd >> 1)
                    labels.append(names[kd >> 1])
                sigma0[prev] = nd
                prev = nd
                d = s0[d]
                if d == start:
                    break
            sigma0[prev] = sigma0[-1]
    if not walked or walked != nd_next:
        raise InvariantError(
            f"walked {walked} darts for {len(order)} edges")
    del sigma0[nd_next:]
    result = _restored(sigma0, labels)
    _constructions.keep(construction, (result._key,
                                       _packed(order, len(names))))
    return result


def _restored(sigma0, labels, key=None):
    """The graph on ``sigma0`` and ``labels``, built by
    :meth:`FatGraph._built`, with its memo key (``key`` when the caller
    has ``sigma0`` packed already) and, when an earlier result on
    ``sigma0`` was analysed, the signature, face record (the labels
    unpacked into a tuple) and vertex walk preset from ``_memo``; every
    other structure stays lazy, and the filling verdict stays in the
    entry.  The key packed here is the one :func:`_recomputed` and
    :func:`_filling_verdict` read, and the one a synthesis sub-plan keeps.

    The caller proves the checks of ``FatGraph(...)``: :func:`_rewired`
    for a result it built, and :meth:`fillgraph.synthesis._Builder.reuse`
    for a sub-plan's result, kept in ``synthesis._subplans`` as the key
    and the labels of a graph built before."""
    graph = FatGraph._built(sigma0, labels)
    if key is not None:
        graph._key = key
    known = _memo.get(graph._key)
    if known is not None:
        graph._signature, starts, faces, graph._walk, _ = known
        graph._face_orbits = starts, _unpacked(faces, len(starts))
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
        "join", case, ls, rs, pb, pg, _predicted_s(ls, rs, -1), result,
        _recomputed(result), None,
        {"x": x, "y": y, "flip": flip, "new_edges": (e, f)})
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
        "plumb", PLUMB_ALL_DIFF if all_diff else PLUMB_OTHER, ls, rs, pb,
        pg, _predicted_s(ls, rs, 0), result, _recomputed(result), None,
        {"x": x, "y": y, "flip": flip, "new_vertex_edges": (x1, x2, y1, y2)})
    return rep.check()


class _Side(namedtuple("_Side", (
        "darts", "faces", "untouched_faces", "face_map", "untouched_curves",
        "curve_map", "two_curves"))):
    """What a connected sum reads of one operand's loop-free 4-valent
    vertex v, from the operand alone: the side record of v.

    * ``darts``: v's darts c_0..c_3, its cycle in ``vertex_cycles``;
    * ``faces``: the faces of c_0..c_3, numbered by first appearance, so
      ``(0, 0, 1, 2)`` puts c_0 and c_1 on one face; the face of
      ``c_i ^ 1`` is the face of c_{i+1} (the boundary successor takes
      ``c_i ^ 1`` to ``sigma0[c_i]``), so these four name every face
      through v;
    * ``untouched_faces``: the faces of the operand through none of
      c_0..c_3;
    * ``face_map``: by i, the j of the first cut dart ``c_j ^ 1`` met
      along the boundary successor from the segment start
      ``succ(c_i)`` (itself included); see :func:`_side`;
    * ``untouched_curves`` and ``curve_map``: the same for the
      straight-ahead successor (both mirrors of each curve), None when
      the operand has a vertex of odd degree;
    * ``two_curves``: :func:`_strands_distinct` on c_0, c_1, whether
      the two strands through v lie on two curves."""

    __slots__ = ()


# (FatGraph._key, v) -> the _Side of the loop-free 4-valent vertex v of
# every graph on that rotation
_sides = _Table()


def _cut_map(starts, darts, labels, pos):
    """By i, the j of the first dart ``darts[j] ^ 1`` met walking a
    successor from ``starts[i]``, itself included, read from the orbit
    ``labels`` and the places ``pos`` along each orbit: the cut dart on
    the start's orbit at the least place not before the start's, else
    the least place on that orbit (the walk wraps past the orbit's
    first dart)."""
    cuts = [(labels[d ^ 1], pos[d ^ 1], j) for j, d in enumerate(darts)]
    out = []
    for s in starts:
        here, at = labels[s], pos[s]
        out.append(min((p < at, p, j) for lab, p, j in cuts
                       if lab == here)[2])
    return tuple(out)


def _side(graph, v):
    """The :class:`_Side` of vertex ``v`` of ``graph``, read from
    ``_sides`` or made and kept there; None, and nothing kept, when v
    has degree other than 4 or carries a loop.  The caller checks that v
    is a vertex.

    Deleting v leaves each successor orbit through v's darts cut into
    segments: one starts at ``succ(c_i)`` for each i, and ends at the
    first cut dart ``c_j ^ 1`` it meets, whose successor was deleted
    (it is a dart of v, and no loop makes ``succ(c_i)`` or ``c_j ^ 1``
    one).  An orbit through v holds some c_i, and every other orbit is
    untouched.  The map from i to j is read from the orbit labels and
    the orbit places of :attr:`FatGraph._positions`, walked once per
    graph, so each record costs O(1) after that walk."""
    key = (graph._key, v)
    side = _sides.get(key)
    if side is not None:
        return side
    darts = graph._vertex_darts(v)
    if len(darts) != 4 or any(d ^ 1 in darts for d in darts):
        return None
    s0 = graph.sigma0
    fpos, cpos = graph._positions
    fstarts, flabels = graph._face_orbits
    names = {}
    faces = tuple(names.setdefault(flabels[d], len(names)) for d in darts)
    face_map = _cut_map([s0[d ^ 1] for d in darts], darts, flabels, fpos)
    untouched_curves = curve_map = None
    if cpos is not None:
        cstarts, clabels, csucc, _ = graph._curve_orbits
        untouched_curves = len(cstarts) - len({clabels[d] for d in darts})
        curve_map = _cut_map([csucc[d] for d in darts], darts, clabels, cpos)
    side = _Side(darts, faces, len(fstarts) - len(names), face_map,
                 untouched_curves, curve_map, _strands_distinct(graph, darts))
    _sides.keep(key, side)
    return side


def _spliced_count(left_untouched, left_map, right_untouched, right_map,
                   align):
    """Orbits of a successor on the connected sum: the untouched orbits
    of both operands, plus one for each cycle of P on the left segments.

    Strand i of w (dart e_i) merges with strand 3-i of u (dart
    f_{3-i}, f_k being u's dart ``(k + align) % 4``), so the cut dart
    ``e_j ^ 1`` now steps to the right segment start ``succ(f_{3-j})``
    and ``f_k ^ 1`` to the left one ``succ(e_{3-k})``.  Following a left
    segment to its cut dart (``left_map``), across, along a right one
    (``right_map``, in u's own numbering) and back gives
    P(i) = 3 - ((R[(3 - L[i] + align) % 4] - align) % 4), and every
    orbit through the splice holds a left segment."""
    step = [3 - (right_map[(3 - j + align) % 4] - align) % 4
            for j in left_map]
    count = left_untouched + right_untouched
    seen = [False] * 4
    for i in range(4):
        if not seen[i]:
            count += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = step[j]
    return count


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


def _chi_audit(left_side, right_side, ls, rs):
    """Evaluate the four-branch indicator-sum classification of the connected
    sum and return its diagnostics.  The table value is recorded for audit;
    only the two structurally forced branches are reliable in general.

    The sides' face patterns hold every face it reads: the face of the
    reverse of u's dart i is the face of its dart i+1, and the counts do
    not depend on the alignment."""
    faces = right_side.faces
    # u's dart i and its reverse share a face when darts i and i+1 do
    same = [f for i, f in enumerate(faces) if f == faces[i - 3]]
    count_same = len(same)
    max_eta_same = max(map(same.count, same), default=0)
    exists_eta_all4 = max_eta_same == 4
    n_block_comps = len(set(faces))
    hypothesis = left_side.faces == (0, 0, 0, 0)

    # the printed curve law s1+s2-2 silently assumes the two strands at each
    # deleted vertex belong to two different curves
    s_law_premise = left_side.two_curves and right_side.two_curves

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


def _coupled_sides(left: FatGraph, right: FatGraph, w: int, u: int,
                   align: int):
    """Checked selectors of a connected sum -> the side records of w and
    u (:func:`_side`); raises :class:`OperationError` when the sum is
    undefined."""
    if left is right:
        raise OperationError("self-sum rejected: pass two graph values")
    if align not in (0, 1, 2, 3):
        raise OperationError(f"align must be in 0..3, got {align}")
    sides = []
    for g, v, side in ((left, w, "left"), (right, u, "right")):
        if not isinstance(v, int) or not 0 <= v < g.num_vertices:
            raise OperationError(f"{side} graph has no vertex {v}")
        record = _side(g, v)
        if record is None:
            if g.degree(v) != 4:
                raise OperationError(
                    f"{side} vertex {v} has degree {g.degree(v)}, need 4")
            raise OperationError(
                f"{side} vertex {v} carries a loop; connected sum undefined")
        sides.append(record)
    return sides


def _sum_prediction(left: FatGraph, left_side, right: FatGraph, right_side,
                    align):
    """(g, b, s) of a connected sum from the inputs alone: b and s count
    the orbits of the spliced boundary and straight-ahead successors from
    the side records (:func:`_spliced_count`), g follows from Euler's
    formula for a connected result; s is None unless both inputs are
    decorated.  A disconnected input raises :class:`DisconnectedError`
    from its signature."""
    ls, rs = left.signature(), right.signature()
    b = _spliced_count(left_side.untouched_faces, left_side.face_map,
                       right_side.untouched_faces, right_side.face_map, align)
    V = ls.vertex_count + rs.vertex_count - 2
    m = ls.edge_count + rs.edge_count - 4
    s = None
    if left_side.curve_map is not None and right_side.curve_map is not None:
        orbits = _spliced_count(
            left_side.untouched_curves, left_side.curve_map,
            right_side.untouched_curves, right_side.curve_map, align)
        if orbits % 2:
            raise OperationInvariantError(
                "standard orbits of a connected sum do not pair up")
        s = orbits // 2
    return (2 - b - V + m) // 2, b, s


def predict_connected_sum(left: FatGraph, right: FatGraph, w: int, u: int,
                          align: int = 0):
    """The (g, b, s) that :func:`connected_sum` with these arguments
    predicts, without building the result: a cheap screen for selectors,
    O(1) once the side records of w and u are kept.  Raises
    :class:`OperationError` where ``connected_sum`` rejects the
    selectors; a sum that would disconnect is not detected here."""
    left_side, right_side = _coupled_sides(left, right, w, u, align)
    return _sum_prediction(left, left_side, right, right_side, align)


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
    left_side, right_side = _coupled_sides(left, right, w, u, align)
    pg, pb, ps = _sum_prediction(left, left_side, right, right_side, align)
    names, gname = _edge_names(left, right, ("g1", "g2", "g3", "g4"))
    kg = 2 * (left.num_edges + right.num_edges)  # key dart g1+; g2+ is +2
    w_darts = left_side.darts
    u_darts = right_side.darts[align:] + right_side.darts[:align]
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
    case, chi = _chi_audit(left_side, right_side, ls, rs)
    rep = OperationReport(
        "consum", case, ls, rs, pb, pg, ps, result, _recomputed(result), chi,
        {"w": w, "u": u, "align": align, "new_edges": tuple(gname)})
    return rep.check()
