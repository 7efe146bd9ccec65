"""Constructive builders for filling systems of prescribed signature.

Every builder returns a :class:`SynthesisPlan`, a replayable list of steps
(family instantiations, literal searched graphs, and the three operations).
One step executor runs every step, both while a builder assembles the plan
and when :meth:`SynthesisPlan.replay` runs it again: each operation checks
its report (prediction against recomputation), and the final graph is
checked against the plan's target signature, filling and weight
expectations, so a wrong plan cannot silently produce a wrong graph.  A
builder records each step and then executes it once; its graphs are the
replayed graphs, so the plan it returns is verified without a second run.

Every filling starts from a seed and grows by repeating one of three
moves, as in the paper's existence proof: a torus join (b and s grow by
one), a torus plumbing (g by one, s by two) and a connected sum with the
genus 2 graph G2 (g by two).  A pair, two-curve or triple seed is G2
summed onto a foot of genus 2, 3 or 4; a minimal or tight filling is
torus plumbings onto a foot; and most targets then join a chain of tori
onto a minimal or two-curve seed, so the plan of (g, b, s) is often the
plan of (g, b-1, s-1) and one torus join more.  Each is one chain
(:func:`_chain`): a seed and a number of runs of one move, whose every
rung is a sub-plan executed once per process, kept in one table
(``_subplans``, a :class:`core._Table`), and reused by every later plan
that needs it, so plans that coincide share their rungs.  Missing rungs
are made lowest first, so no genus is too high for the stack.  In a
reused block only the result index has a graph: the one the rung's build
made, at the reuse right after it, and later a graph rebuilt from the key
and labels the table keeps.  Every plan's final graph is still checked,
and :meth:`SynthesisPlan.replay` still executes and checks every step.

Builders:

* :func:`max_filling` - size 2g+b-1 fillings (iterated torus joins);
* :func:`minimal_filling` - one-disc fillings of every admissible size;
* :func:`filling` - b-disc fillings of every admissible size;
* :func:`tight_omega_filling` - minimal fillings whose largest pairwise
  intersection number attains 2g-s+1 exactly;
* :func:`search_filling` - a filling of a given signature on V vertices,
  read from the census (:func:`oracle.census`) for V up to its ceiling,
  or for s=2 found by an exhaustive search of the two-Hamiltonian-curve
  normal form; it provides the filling pair seeds that the cited external
  constructions would otherwise provide.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache

from . import families, oracle
from .analysis import intersection_graph
from .core import FatGraph, FatGraphError, InvariantError, _Table
from .ops import (OperationReport, _filling_verdict, _restored, _side,
                  _unpacked, connected_sum, join, plumbing,
                  predict_connected_sum)


class SynthesisError(FatGraphError):
    pass


class ImpossibleSignatureError(SynthesisError):
    """The requested signature provably has no filling system."""


class SynthesisRangeError(SynthesisError):
    pass


class PlanVerificationError(InvariantError):
    pass


class Step(namedtuple("Step", (
        "op", "family", "param", "vertices", "left", "right", "x", "y", "w",
        "u", "align", "flip", "arg"),
        defaults=(None,) * 9 + (0, False, None))):
    """One plan step: ``op`` (family, graph, join, consum, plumb or
    smooth) and the fields it reads, every other field at its default
    (None, except ``align=0`` and ``flip=False``).  Builders and
    :func:`formats._read_step` make it with keywords, and
    :func:`_shifted` moves its operand indices with ``_replace``."""

    __slots__ = ()


class SynthesisPlan:
    """The target (g, b, s), the steps, and what the final graph must
    meet besides the target: the filling predicate when
    ``expect_filling``, and ``omega_max`` when ``expect_omega`` is set."""

    def __init__(self, target, steps=None, expect_filling=True,
                 expect_omega=None):
        self.target = target
        self.steps = [] if steps is None else steps
        self.expect_filling = expect_filling
        self.expect_omega = expect_omega

    def add(self, step: Step) -> int:
        self.steps.append(step)
        return len(self.steps) - 1

    def replay(self):
        """Execute the plan; returns (final graph, operation reports).

        Every step runs through the same executor the builders use, so
        each operation checks its own report, and :meth:`verify_final`
        checks the last graph.  Raises :class:`PlanVerificationError` when
        that graph misses the plan's target, filling, or weight
        expectations, and :class:`SynthesisError` for a step naming no
        earlier step, a graph step without vertices, or an empty plan.
        """
        graphs: list[FatGraph] = []
        reports: list[OperationReport] = []
        for st in self.steps:
            _run_step(st, graphs, reports)
        if not graphs:
            raise SynthesisError("plan has no steps")
        return self.verify_final(graphs[-1]), reports

    def verify_final(self, final: FatGraph) -> FatGraph:
        """Return ``final`` if it meets the plan's target signature and its
        filling and weight expectations, else raise
        :class:`PlanVerificationError`.

        The filling verdict, with its first diagnostic, is read by
        :func:`ops._filling_verdict`, which keeps it in the ops memo entry
        of ``final.sigma0`` when there is one: the builder's check of a
        plan's last graph and replay's check of the same graph, or of any
        later graph on that rotation, run :meth:`FatGraph.is_filling_system`
        once between them, and give the same message."""
        sig = final.signature()
        if sig.triple != tuple(self.target):
            raise PlanVerificationError(
                f"plan target {self.target} but replay gives {sig.triple}")
        if self.expect_filling:
            ok, diag = _filling_verdict(final)
            if not ok:
                raise PlanVerificationError(
                    f"replayed graph is not a filling: {diag}")
        if self.expect_omega is not None:
            wmax = intersection_graph(final).omega_max()
            if wmax != self.expect_omega:
                raise PlanVerificationError(
                    f"expected omega_max={self.expect_omega}, got {wmax}")
        return final


_literals = _Table()  # vertex tuple of a literal step -> its graph


def _literal(vertices):
    """The graph of a literal step's ``vertices``, parsed and checked once
    per process, as :func:`families._validated` does for a family member:
    its key (:attr:`FatGraph._key`), vertex walk and face record, and its
    signature when it is connected, are made here so that every step's
    copy shares them.  A literal that fails to parse raises, every time,
    and is not kept; a disconnected one is kept without a signature, so
    it raises :class:`DisconnectedError` only where a step reads that.
    Vertices that do not hash (lists, in a hand-made Step) are not kept."""
    try:
        graph = _literals.get(vertices)
    except TypeError:
        return FatGraph.from_vertex_cycles(vertices)
    if graph is None:
        graph = FatGraph.from_vertex_cycles(vertices)
        graph._key
        graph._face_orbits
        if graph.is_connected:
            graph.signature()
        _literals.keep(vertices, graph)
    return graph


def _run_step(step: Step, graphs: list, reports: list) -> FatGraph:
    """Run one plan step on ``graphs``, the graphs of the steps before it.

    Appends the step's graph to ``graphs`` and, for an operation, its
    checked report to ``reports``, and returns the graph.  A step that
    raises appends nothing.

    A family step copies its validated member (:func:`families.build`),
    and a graph step copies the parsed graph of its vertex tuple
    (:func:`_literal`), so every distinct literal is parsed once per
    process, and no two steps share one graph object.
    """

    def operand(i):
        if not isinstance(i, int) or not 0 <= i < len(graphs):
            raise SynthesisError(
                f"step {len(graphs)}: operand {i!r} is not an earlier step")
        return graphs[i]

    op = step.op
    if op == "family":
        graph = families.build(step.family, step.param)
    elif op == "graph":
        if step.vertices is None:
            raise SynthesisError(
                f"step {len(graphs)}: graph step without vertices")
        graph = _literal(step.vertices).__copy__()
    elif op == "smooth":
        graph = operand(step.arg).smoothed()
    else:
        if op == "join":
            rep = join(operand(step.left), operand(step.right), step.x,
                       step.y, step.flip)
        elif op == "plumb":
            rep = plumbing(operand(step.left), operand(step.right), step.x,
                           step.y, step.flip)
        elif op == "consum":
            rep = connected_sum(operand(step.left), operand(step.right),
                                step.w, step.u, step.align)
        else:
            raise SynthesisError(f"unknown plan step {op!r}")
        reports.append(rep)
        graph = rep.result
    graphs.append(graph)
    return graph


# ---------------------------------------------------------------------------
# search


class SearchResult(namedtuple("SearchResult", ("graph", "examined"))):
    """The graph found, or None, and how many candidates the search read:
    the pair candidates of :func:`_pair_candidates` up to the hit (all of
    them without one) for s=2, else the census classes of level V."""

    __slots__ = ()

    @property
    def found(self):
        return self.graph is not None


HAMILTONIAN_CEILING = 8


def _pair_candidates(V):
    """The rotations ``sigma0`` of fat graphs made of two transverse
    curves, each visiting all of V vertices once, one of each class up to
    the symmetries below.  Curve a runs 0,1,...,V-1; curve b's visit
    order and the crossing side at each vertex vary.  Every filling with
    s=2 on V vertices is isomorphic to one of these or to the mirror
    image of one (curves of a 4-regular filling with s=2 are forced to be
    Hamiltonian by simplicity and edge count).

    Edge v leaves vertex v along curve a, and edge V+j is the j-th edge
    of curve b; :func:`_search_cached` labels them ``a{v}`` and ``b{j}``.
    A list is yielded bare, so a candidate the face screen rejects is
    never built as a :class:`FatGraph`; each is a fresh list.

    The full sequence runs over the visit orders ``beta`` of curve b
    (``beta[0] == 0``, in lexicographic order, one direction of b kept)
    and for each over the crossing flags in ``itertools.product((0, 1),
    repeat=V)`` order; ``tests/helpers.reference_pair_candidates`` builds
    it.  This yields an ordered subsequence of it, skipping two kinds of
    candidate:

    * a visit order that some relabelling of curve a, one of the V
      rotations ``v -> v + r`` or a reflection ``v -> r - v``, maps to an
      earlier order once b's start and direction are normalised
      (:func:`_has_earlier_image`).  The relabelling is an isomorphism
      that carries the candidates of ``beta`` onto those of the earlier
      order, whatever their flags: rotating keeps every crossing side,
      reversing a curve flips them all, and restarting curve b only
      renumbers its edges;
    * flag sets with vertex 0's flag at 1, the second half.  The
      complement of a flag set reverses every vertex rotation, so it
      gives the inverse rotation, the mirror image, with the same faces
      reversed, the same curves and the same signature; it comes earlier
      for the same order.

    Whether a candidate passes the face screen and the filling predicate
    with the target signature is the same for isomorphic candidates and
    for mirror images.  So each candidate skipped has the verdict of one
    earlier in the full sequence, and, following that chain back (each
    link goes earlier, so it ends), of one yielded before it.  The first
    hit of the full sequence therefore is never skipped, and it is the
    first hit yielded: the search returns the same graph, and only
    ``examined`` shrinks.

    For each visit order kept, the flags run through the first half of
    binary counting, so each candidate is the one before it with the
    four entries of each vertex whose flag changed rewritten from a
    table of every vertex's entries under either flag."""
    if V == 1:
        orders = [(0,)]
    else:
        orders = [(0,) + rest for rest in itertools.permutations(range(1, V))]
    for beta in orders:
        # curve b is unoriented: keep one direction (flags flip with it)
        if V > 2 and beta[1] > beta[-1]:
            continue
        if _has_earlier_image(beta):
            continue
        jpos = {v: j for j, v in enumerate(beta)}
        writes = []  # by vertex, by flag: its (dart, image) pairs
        for v in range(V):
            a_out, a_in = 2 * v, 2 * ((v - 1) % V) + 1
            j = jpos[v]
            b_out, b_in = 2 * (V + j), 2 * (V + (j - 1) % V) + 1
            writes.append([((a_out, bo), (bo, a_in), (a_in, bi), (bi, a_out))
                           for bo, bi in ((b_out, b_in), (b_in, b_out))])
        sigma0 = [0] * (4 * V)
        for c in range(1 << (V - 1)):  # flags[v] is bit V-1-v of c
            # from c-1 to c the trailing ones and the bit above them flip
            changed = (c ^ (c - 1)).bit_length() if c else V
            for v in range(V - changed, V):
                for d, img in writes[v][c >> (V - 1 - v) & 1]:
                    sigma0[d] = img
            yield sigma0[:]


def _has_earlier_image(beta):
    """True when relabelling curve a's vertices by a rotation or a
    reflection turns the visit order ``beta`` of curve b into an order
    that :func:`_pair_candidates` takes earlier: started at vertex 0 and
    in the direction it keeps, lexicographically less."""
    V = len(beta)
    for r in range(V):
        for image in ([(v + r) % V for v in beta],
                      [(r - v) % V for v in beta]):
            k = image.index(0)
            image = image[k:] + image[:k]
            if V > 2 and image[1] > image[-1]:
                image[1:] = image[:0:-1]
            if tuple(image) < beta:
                return True
    return False


def search_filling(V, target):
    """Search for a connected 4-regular fat graph on ``V`` vertices with
    signature ``target`` = (g, b, s) passing the filling predicate.
    Results are memoized per argument pair."""
    return _search_cached(V, tuple(target))


@lru_cache(maxsize=None)
def _search_cached(V, target):
    """Uncached body of :func:`search_filling`.

    For s=2 the search enumerates the two-Hamiltonian-curve normal form
    (complete up to isomorphism and mirroring, V <= 8), skipping the
    candidates whose verdict an earlier one already gave
    (:func:`_pair_candidates`).  :func:`_face_screen` walks each bare
    rotation's faces, and only a candidate with b faces, all of length
    at least 3, is built as a :class:`FatGraph` and checked in full;
    ``examined`` counts every candidate read.  Other sizes are looked
    up in the census (:func:`oracle.census`, V up to its ceiling): the
    result is the class with the least witness, which is the first graph
    a walk over :func:`oracle.iter_matchings` would meet.  Both cover the
    whole space, so a result without a graph proves that none exists.
    """
    g, b, s = target
    if V < 1 or 2 * g - 2 + b != V:
        # a 4-regular filling of (g, b) has exactly 2g-2+b >= 1 vertices
        return SearchResult(None, 0)

    if s != 2:
        try:
            rows = oracle.census(V)
        except oracle.CensusRangeError as exc:
            raise SynthesisRangeError(
                f"search beyond the census: {exc}") from None
        hits = [row for row in rows if row.filling and (
            row.genus, row.boundary_count, row.standard_cycle_count) == target]
        least = min(hits, key=lambda row: row.witness, default=None)
        graph = None if least is None else least.graph()
        return SearchResult(graph, len(rows))

    if V > HAMILTONIAN_CEILING:
        raise SynthesisRangeError(
            f"pair search ceiling is V={HAMILTONIAN_CEILING}, got {V}")
    labels = [f"a{v}" for v in range(V)] + [f"b{j}" for j in range(V)]
    examined = 0
    for sigma0 in _pair_candidates(V):
        examined += 1
        if not _face_screen(sigma0, b):
            continue
        graph = FatGraph(sigma0, labels)
        if (graph.is_filling_system()[0]
                and graph.signature().triple == target):
            return SearchResult(graph, examined)
    return SearchResult(None, examined)


def _face_screen(sigma0, b):
    """True when the rotation ``sigma0`` has exactly b faces (orbits of
    d -> sigma0[d ^ 1]), none shorter than 3.  The walk stops at the
    first face that rules it out: one shorter than 3, or one too many."""
    n = len(sigma0)
    seen = bytearray(n)
    faces = 0
    for s in range(n):
        if seen[s]:
            continue
        faces += 1
        if faces > b:
            return False
        seen[s] = 1
        length = 1
        d = sigma0[s ^ 1]
        while d != s:
            seen[d] = 1
            length += 1
            d = sigma0[d ^ 1]
        if length < 3:
            return False
    return faces == b


def _boundary_edge(graph: FatGraph, same):
    """The first edge whose two directions lie in one boundary component
    (``same``) or in two (not ``same``), or None."""
    comp = graph.boundary_component_of
    for k, nm in enumerate(graph.labels):
        if (comp[2 * k] == comp[2 * k + 1]) == same:
            return nm
    return None


# ---------------------------------------------------------------------------
# plan assembly


class _Builder:
    """Assembles a plan one step at a time: each method makes a
    :class:`Step`, runs that step with :func:`_run_step` and adds it to the
    plan.  So ``graphs[i]`` is the graph :meth:`SynthesisPlan.replay`
    computes for step ``i``, and :meth:`verify` checks the finished plan
    without executing it a second time.

    A chain rung (see :func:`_chain`) is run once per process and then
    appended as a block by :meth:`reuse`; only the block's result index
    gets a graph, and its inner indices hold None, because builders read
    a sub-plan's result only."""

    def __init__(self, plan):
        self.plan = plan
        self.graphs = []
        self.reports = []

    def run(self, step):
        """Run ``step`` and add it to the plan; returns its plan index."""
        _run_step(step, self.graphs, self.reports)
        return self.plan.add(step)

    def verify(self):
        """Check the last graph against the plan's expectations."""
        self.plan.verify_final(self.graphs[-1])
        return self.plan

    def reuse(self, entry, graph=None):
        """Append an entry of ``_subplans``, built on an empty plan: its
        steps, with their operand indices moved past this plan's steps,
        and a graph of its result at the moved result index; returns that
        index.

        ``graph`` is the graph the entry's build just made, with every
        record computed on it, which :func:`_chain` hands to the one
        reuse right after the build; without it, the result is rebuilt
        from the entry's key (the packed darts) and labels by
        :func:`ops._restored`.  So two results never share one object."""
        steps, result, key, labels = entry
        if graph is None:
            graph = _restored(_unpacked(key, 2 * len(labels)), labels, key)
        base = len(self.graphs)
        self.plan.steps.extend(_shifted(st, base) for st in steps)
        self.graphs.extend([None] * len(steps))
        self.graphs[base + result] = graph
        return base + result

    def family(self, name, param=None):
        return self.run(Step("family", family=name, param=param))

    def literal(self, graph):
        """A graph step; it runs from its recorded tokens, so the graph
        kept here is the replayed one, a copy of the tokens' parsed graph
        (:func:`_literal`), not ``graph`` itself."""
        return self.run(Step("graph", vertices=tuple(
            map(tuple, graph.to_vertex_cycle_tokens()))))

    def join(self, li, ri, x, y):
        idx = self.run(Step("join", left=li, right=ri, x=x, y=y))
        return idx, self.reports[-1]

    def plumb(self, li, ri, x, y):
        idx = self.run(Step("plumb", left=li, right=ri, x=x, y=y))
        return idx, self.reports[-1]

    def smooth(self, idx):
        return self.run(Step("smooth", arg=idx))

    def consum_reaching(self, li, ri, want_triple, require=None):
        """Add the first (w, u, align) connected sum that reaches the
        wanted signature (and satisfies ``require`` on the result).

        Candidates are screened by :func:`predict_connected_sum`, which
        agrees exactly with every built result's checked report, so only
        a candidate that reaches ``want_triple`` is built.
        """
        left, right = self.graphs[li], self.graphs[ri]
        right_vertices = list(_sum_vertices(right))
        for w in _sum_vertices(left):
            for u in right_vertices:
                for align in range(4):
                    try:
                        if predict_connected_sum(left, right, w, u,
                                                 align) != want_triple:
                            continue
                        step = Step("consum", left=li, right=ri, w=w,
                                    u=u, align=align)
                        graph = _run_step(step, self.graphs, self.reports)
                    except FatGraphError:
                        continue
                    if require is None or require(graph):
                        return self.plan.add(step), self.reports[-1]
                    self.graphs.pop()
                    self.reports.pop()
        raise SynthesisError(
            f"no connected-sum vertex pair reaches {want_triple}")


def _sum_vertices(graph):
    """Vertices a connected sum can use, ascending: those of degree 4
    with no loop, which have a side record in the ops table
    (:func:`ops._side`).  Each is found when the caller takes it, so a
    screen that hits early reads the records of the vertices before the
    hit only."""
    return (v for v in range(graph.num_vertices)
            if _side(graph, v) is not None)


def _shifted(step, base):
    """``step`` with its operand indices moved up by ``base``."""
    if not base:
        return step
    moved = {name: getattr(step, name) + base for name in ("left", "right",
             "arg") if getattr(step, name) is not None}
    return step._replace(**moved) if moved else step


# (move or None, seed, seed arguments, moves) -> (steps, result, key,
# labels) of the chain rung built on an empty plan, the key and labels
# those of its result graph; oldest entry first out, like every _Table
_subplans = _Table()


def _chain(bld, move, seed, args, count):
    """``seed(bld, *args)`` followed by ``count`` runs of ``move(bld,
    prev)``, each on the plan index the one before returned; returns the
    plan index of the last.

    Rung k >= 1 of the chain, the seed and its first k moves, is a
    sub-plan of ``_subplans`` under the key ``(move, seed, args, k)``,
    executed once per process; with no move (``count`` 0) the chain is
    the seed itself, and is no sub-plan.  A foot that makes a surgery is
    kept as the one rung of a chain whose ``move`` is None, which runs
    no move: that rung is the seed itself.  A call walks down from its
    own rung to the first rung in the table, one probe a rung, so a
    warm call probes once.  It then makes the missing rungs lowest
    first, each on an empty plan that runs the seed (rung 1) or reuses
    the rung under it, so no call nests one rung in another and no chain
    is too long for the interpreter's stack; a seed that is a chain itself keeps its rungs under its own
    keys.  A rung's entry keeps its steps, its result index, and the key
    (:attr:`FatGraph._key`) and labels of the graph there; a move that
    raises stores nothing, and the rungs made under it stay.  The graph a
    rung's build made goes to the next reuse, by the rung above or by the
    caller; every later reuse rebuilds it (:meth:`_Builder.reuse`)."""
    if not count:
        return seed(bld, *args)
    missing = []
    for k in range(count, 0, -1):
        entry = _subplans.get((move, seed, args, k))
        if entry is not None:
            break
        missing.append(k)
    graph = None
    for k in reversed(missing):
        sub = _Builder(SynthesisPlan(target=()))
        prev = seed(sub, *args) if k == 1 else sub.reuse(entry, graph)
        idx = prev if move is None else move(sub, prev)
        graph = sub.graphs[idx]
        entry = (tuple(sub.plan.steps), idx, graph._key, graph.labels)
        _subplans.keep((move, seed, args, k), entry)
    return bld.reuse(entry, graph)


# ---------------------------------------------------------------------------
# the three moves


# the torus family step of every torus join and plumbing: one object that
# every chain sub-plan shares
_TORUS_STEP = Step("family", family=families.TORUS_PAIR)


def _join_torus(bld, prev):
    """Join a torus onto ``prev`` along its first edge with both
    directions in one boundary component: b and s grow by one, g stays."""
    x = _boundary_edge(bld.graphs[prev], True)
    if x is None:
        raise SynthesisError(
            "no edge with both directions in one boundary component; "
            "the join construction guarantees one, so this is a bug")
    idx, rep = bld.join(prev, bld.run(_TORUS_STEP), x, "a")
    if rep.case != "SAME/SAME":
        raise PlanVerificationError(
            f"torus join expected case SAME/SAME, got {rep.case}")
    return idx


def _plumb_torus(bld, prev):
    """Plumb a torus onto ``prev`` at its first edge: g grows by one and s
    by two, b stays, and the extremal crossing pair is untouched."""
    idx, _ = bld.plumb(prev, bld.run(_TORUS_STEP), bld.graphs[prev].labels[0],
                       "a")
    return idx


def _sum_g2(bld, prev, require=None):
    """The first connected sum of ``prev`` with the genus 2 four-disc pair
    graph G2 that reaches genus g+2 with the same b and s (and satisfies
    ``require``)."""
    g, b, s = bld.graphs[prev].signature().triple
    idx, _ = bld.consum_reaching(prev, bld.family(families.G2), (g + 2, b, s),
                                 require)
    return idx


def _sum_g2_same(bld, prev):
    """:func:`_sum_g2` keeping an edge inside one boundary component."""
    return _sum_g2(bld, prev, lambda graph: _boundary_edge(graph, True))


# ---------------------------------------------------------------------------
# seeds (the pair foot replaces the cited external pair constructions by
# search, verified at every step)


def _pair(bld, g):
    """Minimal filling pair of genus g: a (g, 1, 2) graph, G2 summed onto
    the searched pair of genus 3 or 4."""
    k = max(0, (g - 3) // 2)
    return _chain(bld, _sum_g2, _pair_foot, (g - 2 * k,), k)


def _pair_foot(bld, g):
    """The minimal filling pair of genus 3 or 4, searched; none of genus
    2."""
    if g == 2:
        raise ImpossibleSignatureError(
            "no minimal filling pair of a closed surface of genus 2")
    V = 2 * g - 1
    res = search_filling(V, (g, 1, 2))
    if not res.found:
        raise SynthesisError(f"no filling pair found at V={V}")
    return bld.literal(res.graph)


def _two_curve(bld, g, b, same):
    """(g, b, 2) filling, g >= 2 and b >= 2, with an edge whose two
    directions lie in one boundary component (``same``) or in two: G2
    summed onto the foot of genus 2 or 3.

    Only an edge in one component is asked of a sum: a connected graph
    with b >= 2 faces always has an edge between two of them, for
    otherwise the darts of one face would be closed under ``sigma0`` and
    reversal, and so make up the whole graph."""
    if g < 2 or b < 2:
        raise SynthesisRangeError("two-curve seeds need g >= 2 and b >= 2")
    move = _sum_g2_same if same else _sum_g2
    return _chain(bld, move, _two_curve_foot, (2 + g % 2, b, same),
                  (g - 2) // 2)


def _two_curve_foot(bld, g, b, same):
    """gamma2b(b) for g = 2; for g = 3 :func:`_summed_gamma2b`, kept as
    a rung of its own, so that its search runs once per process."""
    if g == 2:
        return bld.family(families.GAMMA_2_B, b)
    return _chain(bld, None, _summed_gamma2b, (b, same), 1)


def _summed_gamma2b(bld, b, same):
    """The first connected sum of gamma2b(2) with gamma2b(b) that
    reaches (3, b, 2), with an edge in one boundary component when
    ``same``."""
    a = bld.family(families.GAMMA_2_B, 2)
    c = bld.family(families.GAMMA_2_B, b)
    idx, _ = bld.consum_reaching(
        a, c, (3, b, 2),
        (lambda graph: _boundary_edge(graph, True)) if same else None)
    return idx


def _triple(bld, g):
    """Minimal filling triple of genus g >= 2: G2 summed onto G1 or
    Gamma0, parity picking the foot."""
    foot = families.GAMMA0 if g % 2 else families.G1
    return _chain(bld, _sum_g2, _Builder.family, (foot, None), (g - 2) // 2)


def _minimal(bld, g, s):
    """Minimal filling (g, 1, s): torus plumbings onto the foot
    :func:`_minimal_foot` of genus 3, or of size 2 or 3, down the
    diagonal; the top two sizes are family members."""
    j = min(g - 3, (s - 2) // 2) if s < 2 * g - 1 else 0
    return _chain(bld, _plumb_torus, _minimal_foot, (g - j, s - 2 * j), j)


def _minimal_foot(bld, g, s):
    """Minimal (g, 1, s) of size 2 or 3, of genus 3, or of the top two
    sizes: a seed or a family member."""
    if s == 2:
        return _pair(bld, g)
    if s == 3:
        return _triple(bld, g)
    if (g, s) == (3, 4):
        return bld.family(families.QUADRUPLE_F3)
    if s == 2 * g - 1:
        return bld.family(families.GIRTH_2GM1, g)
    return bld.family(families.GAMMA_G, g)


def _sphere_foot(bld, g):
    """Tight (g, 1, 3): G1 for g = 2, else :func:`_plumbed_sphere`,
    kept as a rung of its own, so that its plumbing runs once per
    process."""
    if g == 2:
        return bld.family(families.G1)
    return _chain(bld, None, _plumbed_sphere, (g,), 1)


def _plumbed_sphere(bld, g):
    """The sphere circle plumbed onto a two-disc pair of genus g-1 across
    its two boundary components, with the bivalent vertex erased."""
    pi = _two_curve(bld, g - 1, 2, False)
    x = _boundary_edge(bld.graphs[pi], False)
    idx, rep = bld.plumb(pi, bld.family(families.SPHERE_CIRCLE), x, "a")
    if rep.case != "ALL-DIFFERENT":
        raise PlanVerificationError(
            f"sphere plumb expected case ALL-DIFFERENT, got {rep.case}")
    return bld.smooth(idx)


# ---------------------------------------------------------------------------
# public builders


def lower_bound(g, b=1):
    return 3 if (g, b) == (2, 1) else 2


def upper_bound(g, b=1):
    return 2 * g + b - 1


class TargetSignature(namedtuple("TargetSignature", ("g", "b", "s"))):
    """An admissible (g, b, s): g >= 2, b >= 1 and s within the size
    bounds, with (2, 1, 2) excluded."""

    __slots__ = ()

    def validate(self):
        if self.g < 2 or self.b < 1:
            raise SynthesisRangeError("targets need g >= 2 and b >= 1")
        if (self.g, self.b, self.s) == (2, 1, 2):
            raise ImpossibleSignatureError(
                "no minimal filling pair of a closed surface of genus 2")
        lo, hi = lower_bound(self.g, self.b), upper_bound(self.g, self.b)
        if not lo <= self.s <= hi:
            raise SynthesisRangeError(
                f"size {self.s} out of range [{lo}, {hi}] for "
                f"(g={self.g}, b={self.b})")
        return self


def max_filling(g, b) -> SynthesisPlan:
    """Filling of maximal size 2g+b-1 with b complementary discs, g >= 1:
    for g >= 2 the plan of :func:`filling`, for g = 1 a chain of torus
    joins on the torus."""
    if g < 1 or b < 1:
        raise SynthesisRangeError("max_filling needs g >= 1 and b >= 1")
    if g >= 2:
        return filling(g, b, 2 * g + b - 1)
    bld = _Builder(SynthesisPlan(target=(1, b, b + 1)))
    _chain(bld, _join_torus, _Builder.family, (families.GAMMA_G, 1), b - 1)
    return bld.verify()


def minimal_filling(g, s) -> SynthesisPlan:
    """Minimal filling (one disc) of genus g >= 2 and size s."""
    return filling(g, 1, s)


def filling(g, b, s) -> SynthesisPlan:
    """Filling of genus g >= 2 with b discs and size s, over the full
    admissible range lower_bound(g,b) <= s <= 2g+b-1: torus joins onto a
    two-curve seed when b >= s, else onto a minimal filling."""
    TargetSignature(g, b, s).validate()
    bld = _Builder(SynthesisPlan(target=(g, b, s)))
    if b >= s:
        _chain(bld, _join_torus, _two_curve, (g, b - s + 2, True), s - 2)
    elif g == 2 and s == b + 1:
        # the minimal pair seed does not exist on genus 2; start the join
        # chain one step later, from the (2,2,3) example graph
        _chain(bld, _join_torus, _Builder.family,
               (families.EXAMPLE_5_2, None), b - 2)
    else:
        _chain(bld, _join_torus, _minimal, (g, s - b + 1), b - 1)
    return bld.verify()


def tight_omega_filling(g, s) -> SynthesisPlan:
    """Minimal filling of size s whose weighted intersection graph attains
    the bound: omega_max = 2g-s+1 exactly.  An even size is the plan of
    :func:`minimal_filling`; an odd one plumbs tori onto a sphere foot
    (:func:`_sphere_foot`), each keeping the extremal crossing pair."""
    TargetSignature(g, 1, s).validate()
    bld = _Builder(SynthesisPlan(target=(g, 1, s),
                                 expect_omega=2 * g - s + 1))
    if s % 2:
        j = (s - 3) // 2
        _chain(bld, _plumb_torus, _sphere_foot, (g - j,), j)
    else:
        _minimal(bld, g, s)
    return bld.verify()
