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

Every filling starts from a seed (a filling pair, a two-disc pair, a
two-curve seed, a minimal filling, a triple, a tight filling or a family
member, grown by connected sums and plumbings) that many targets share,
and most then join a chain of tori onto it, so the plan of (g, b, s) is
often the plan of (g, b-1, s-1) and one torus join more.  Each distinct
seed, and each prefix of a torus chain, is a sub-plan executed once per
process, and its steps are reused by every later plan that needs it
(:func:`_subplan`); in a reused block only the result index has a graph:
the one the sub-builder made, at the first reuse, and later a graph
rebuilt from the darts and labels the memo keeps.  Every plan's final
graph is still checked, and :meth:`SynthesisPlan.replay` still executes
and checks every step.

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
from functools import lru_cache, wraps

from . import families, oracle
from .analysis import intersection_graph
from .core import FatGraph, FatGraphError, InvariantError
from .ops import (OperationReport, _packed, _restored, connected_sum, join,
                  plumbing, predict_connected_sum)


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
        :class:`PlanVerificationError`."""
        sig = final.signature()
        if sig.triple != tuple(self.target):
            raise PlanVerificationError(
                f"plan target {self.target} but replay gives {sig.triple}")
        if self.expect_filling:
            ok, diags = final.is_filling_system()
            if not ok:
                raise PlanVerificationError(
                    f"replayed graph is not a filling: {diags[0]}")
        if self.expect_omega is not None:
            wmax = intersection_graph(final).omega_max()
            if wmax != self.expect_omega:
                raise PlanVerificationError(
                    f"expected omega_max={self.expect_omega}, got {wmax}")
        return final


def _run_step(step: Step, graphs: list, reports: list) -> FatGraph:
    """Run one plan step on ``graphs``, the graphs of the steps before it.

    Appends the step's graph to ``graphs`` and, for an operation, its
    checked report to ``reports``, and returns the graph.  A step that
    raises appends nothing.
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
        graph = FatGraph.from_vertex_cycles(step.vertices)
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
    """The graph found, or None, and how many pair candidates (s=2) or
    census classes the search read."""

    __slots__ = ()

    @property
    def found(self):
        return self.graph is not None


HAMILTONIAN_CEILING = 8


def _pair_candidates(V):
    """The rotations ``sigma0`` of all fat graphs made of two transverse
    curves, each visiting all of V vertices once.  Curve a runs
    0,1,...,V-1; curve b's visit order and the crossing side at each
    vertex vary.  Every filling with s=2 on V vertices is isomorphic to
    one of these (curves of a 4-regular filling with s=2 are forced to be
    Hamiltonian by simplicity and edge count).

    Edge v leaves vertex v along curve a, and edge V+j is the j-th edge
    of curve b; :func:`_search_cached` labels them ``a{v}`` and ``b{j}``.
    A list is yielded bare, so a candidate the face screen rejects is
    never built as a :class:`FatGraph`; each is a fresh list.

    For each visit order, the crossing flags run through
    ``itertools.product((0, 1), repeat=V)`` order by binary counting, so
    each candidate is the one before it with the four entries of each
    vertex whose flag changed rewritten from a table of every vertex's
    entries under either flag."""
    if V == 1:
        orders = [(0,)]
    else:
        orders = [(0,) + rest for rest in itertools.permutations(range(1, V))]
    for beta in orders:
        # curve b is unoriented: keep one direction (flags flip with it)
        if V > 2 and beta[1] > beta[-1]:
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
        for c in range(1 << V):  # flags[v] is bit V-1-v of c
            # from c-1 to c the trailing ones and the bit above them flip
            changed = (c ^ (c - 1)).bit_length() if c else V
            for v in range(V - changed, V):
                for d, img in writes[v][c >> (V - 1 - v) & 1]:
                    sigma0[d] = img
            yield sigma0[:]


def search_filling(V, target):
    """Search for a connected 4-regular fat graph on ``V`` vertices with
    signature ``target`` = (g, b, s) passing the filling predicate.
    Results are memoized per argument pair."""
    return _search_cached(V, tuple(target))


@lru_cache(maxsize=None)
def _search_cached(V, target):
    """Uncached body of :func:`search_filling`.

    For s=2 the search enumerates the two-Hamiltonian-curve normal form
    (complete up to isomorphism, V <= 8).  :func:`_face_screen` walks
    each bare rotation's faces, and only a candidate with b faces, all of
    length at least 3, is built as a :class:`FatGraph` and checked in
    full; ``examined`` counts every candidate.  Other sizes are looked
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


def _same_boundary_edge(g: FatGraph):
    comp = g.boundary_component_of
    for k, nm in enumerate(g.labels):
        if comp[2 * k] == comp[2 * k + 1]:
            return nm
    return None


def _diff_boundary_edge(g: FatGraph):
    comp = g.boundary_component_of
    for k, nm in enumerate(g.labels):
        if comp[2 * k] != comp[2 * k + 1]:
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

    A sub-plan (see :func:`_subplan`) is run once per process and then
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

    def reuse(self, subplan):
        """Append a sub-plan entry of :func:`_subplan`, built on an empty
        plan: its steps, with their operand indices moved past this
        plan's steps, and a graph of its result at the moved result
        index; returns that index.

        The first reuse of an entry takes the graph its sub-builder made,
        with every record computed on it, and leaves the result's packed
        darts and labels in the entry; every later one gets a new graph
        on them, rebuilt by :func:`ops._restored`.  So two results never
        share one object."""
        steps, result, kept, labels = subplan
        if labels is None:  # kept is the graph, not reused before
            graph = kept
            subplan[2:] = _packed(graph.sigma0, graph.num_darts), graph.labels
        else:
            graph = _restored(kept, labels)
        base = len(self.graphs)
        self.plan.steps.extend(_shifted(st, base) for st in steps)
        self.graphs.extend([None] * len(steps))
        self.graphs[base + result] = graph
        return base + result

    def family(self, name, param=None):
        return self.run(Step("family", family=name, param=param))

    def literal(self, graph):
        """A graph step; it runs from its recorded tokens, so the graph
        kept here is the replayed one, not ``graph`` itself."""
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
        right_vertices = _sum_vertices(right)
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
    """Vertices a connected sum can use: degree 4 and no loop, ascending."""
    return [v for v in range(graph.num_vertices)
            if graph.degree(v) == 4 and not graph.loops_at(v)]


def _shifted(step, base):
    """``step`` with its operand indices moved up by ``base``."""
    if not base:
        return step
    moved = {name: getattr(step, name) + base for name in ("left", "right",
             "arg") if getattr(step, name) is not None}
    return step._replace(**moved) if moved else step


# Fixed by measurement: a synth-grid pass needs 1,098 entries (217 seeds
# and 881 torus-chain prefixes), so this bound holds a whole pass; see
# BENCH_21.json.
_SUBPLAN_SIZE = 2048


@lru_cache(maxsize=_SUBPLAN_SIZE)
def _subplan(builder, args):
    """Run the sub-builder ``builder(bld, *args)`` on an empty plan;
    returns the entry ``[steps, result, darts, labels]``: its steps, the
    plan index it returned, and the darts (packed by :func:`ops._packed`)
    and labels of the graph there.  Until :meth:`_Builder.reuse` first
    reads the entry, ``darts`` is that graph itself and ``labels`` None.

    The memo is shared by every builder in the process, least recently
    used first out past ``_SUBPLAN_SIZE`` entries, so each distinct seed
    and each prefix of a torus chain is executed, with its operation
    reports checked, once.  A sub-builder that raises stores nothing.
    A reused entry keeps no graph: later reuses rebuild the result with
    :func:`ops._restored`, which presets its signature, face record and
    vertex walk from the ops memo."""
    bld = _Builder(SynthesisPlan(target=()))
    idx = builder(bld, *args)
    return [tuple(bld.plan.steps), idx, bld.graphs[idx], None]


def _seed(builder):
    """Route the sub-builder ``builder(bld, *args)`` through
    :func:`_subplan`, keyed by the builder and its positional arguments.
    The sub-builder runs on an empty plan of its own, so what it builds
    depends on its arguments alone."""

    @wraps(builder)
    def run(bld, *args):
        return bld.reuse(_subplan(builder, args))
    return run


@_seed
def _family_into(bld, name, param):
    """A family member as a seed, for a torus chain that starts there."""
    return bld.family(name, param)


# the torus family step of every chain join: one object that every chain
# sub-plan shares
_TORUS_STEP = Step("family", family=families.TORUS_PAIR)


def _join_torus_chain(bld, seed, args, count):
    """Join ``count`` torus graphs onto the seed ``seed(bld, *args)``, a
    :func:`_seed` builder, each along an edge with both directions in one
    boundary component (b and s grow by one per join, genus is fixed);
    returns the plan index of the last join.

    The seed with its first k joins is the sub-plan
    ``(_torus_joined, (seed, args, k))``, made from the one with k - 1
    joins, so a process builds each prefix of a chain once, however many
    targets share it.  The loop makes missing prefixes shortest first, so
    making one finds every shorter one in the memo, and no call nests
    more than one prefix deep, however long the chain."""
    if not count:
        return seed(bld, *args)
    for k in range(1, count):
        _subplan(_torus_joined, (seed, args, k))
    return bld.reuse(_subplan(_torus_joined, (seed, args, count)))


def _torus_joined(bld, seed, args, count):
    """The seed ``seed(bld, *args)`` with ``count >= 1`` torus joins: the
    chain with ``count - 1`` joins, one torus family step and one
    SAME/SAME join."""
    idx = _join_torus_chain(bld, seed, args, count - 1)
    x = _same_boundary_edge(bld.graphs[idx])
    if x is None:
        raise SynthesisError(
            "no edge with both directions in one boundary component; "
            "the join construction guarantees one, so this is a bug")
    idx, rep = bld.join(idx, bld.run(_TORUS_STEP), x, "a")
    if rep.case != "SAME/SAME":
        raise PlanVerificationError(
            f"torus join expected case SAME/SAME, got {rep.case}")
    return idx


# ---------------------------------------------------------------------------
# pair plans (replacing the cited external pair constructions by search
# plus within-catalog composition, verified at every step)


@_seed
def _pair_into(bld, g):
    """Minimal filling pair of genus g: plan index of a (g, 1, 2) graph."""
    if g == 1:
        return bld.family(families.TORUS_PAIR)
    if g == 2:
        raise ImpossibleSignatureError(
            "no minimal filling pair of a closed surface of genus 2")
    if g in (3, 4):
        V = 2 * g - 1
        res = search_filling(V, (g, 1, 2))
        if not res.found:
            raise SynthesisError(f"no filling pair found at V={V}")
        return bld.literal(res.graph)
    prev = _pair_into(bld, g - 2)
    gi = bld.family(families.G2)
    idx, _ = bld.consum_reaching(prev, gi, (g, 1, 2))
    return idx


@_seed
def _two_disc_pair_into(bld, g, need_diff_edge):
    """(g, 2, 2) filling pair with two complementary discs, g >= 2."""
    if g < 2:
        raise SynthesisRangeError("two-disc pairs start at genus 2")
    require = _diff_boundary_edge if need_diff_edge else None
    if g == 2:
        return bld.family(families.GAMMA_2_B, 2)
    if g == 3:
        a = bld.family(families.GAMMA_2_B, 2)
        c = bld.family(families.GAMMA_2_B, 2)
        idx, _ = bld.consum_reaching(a, c, (3, 2, 2), require=require)
        return idx
    prev = _two_disc_pair_into(bld, g - 2, False)
    gi = bld.family(families.G2)
    idx, _ = bld.consum_reaching(prev, gi, (g, 2, 2), require=require)
    return idx


@_seed
def _two_cycle_seed_into(bld, g, b):
    """(g, b, 2) filling with a same-boundary edge, g >= 2, b >= 2."""
    if b < 2:
        raise SynthesisRangeError("two-cycle seeds need b >= 2")
    require = lambda gr: _same_boundary_edge(gr) is not None  # noqa: E731
    if g == 2:
        return bld.family(families.GAMMA_2_B, b)
    if g == 3:
        a = bld.family(families.GAMMA_2_B, 2)
        c = bld.family(families.GAMMA_2_B, b)
        idx, _ = bld.consum_reaching(a, c, (3, b, 2), require=require)
        return idx
    prev = _two_cycle_seed_into(bld, g - 2, b)
    gi = bld.family(families.G2)
    idx, _ = bld.consum_reaching(prev, gi, (g, b, 2), require=require)
    return idx


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
    """Filling of maximal size 2g+b-1 with b complementary discs, g >= 1."""
    if g < 1 or b < 1:
        raise SynthesisRangeError("max_filling needs g >= 1 and b >= 1")
    plan = SynthesisPlan(target=(g, b, 2 * g + b - 1))
    bld = _Builder(plan)
    _join_torus_chain(bld, _family_into, (families.GAMMA_G, g), b - 1)
    return bld.verify()


def minimal_filling(g, s) -> SynthesisPlan:
    """Minimal filling (one disc) of genus g >= 2 and size s."""
    return filling(g, 1, s)


@_seed
def _minimal_into(bld, g, s):
    base2 = {3: (families.G1, None), 4: (families.GAMMA_G, 2)}
    base3 = {3: (families.GAMMA0, None), 4: (families.QUADRUPLE_F3, None),
             5: (families.GIRTH_2GM1, 3), 6: (families.GAMMA_G, 3)}
    if s == 2:
        return _pair_into(bld, g)
    if g == 2:
        name, p = base2[s]
        return bld.family(name, p)
    if g == 3:
        name, p = base3[s]
        return bld.family(name, p)
    if s == 3:
        return _triple_into(bld, g)
    if s == 2 * g:
        return bld.family(families.GAMMA_G, g)
    if s == 2 * g - 1:
        return bld.family(families.GIRTH_2GM1, g)
    # 4 <= s <= 2g-2: plumb a torus onto a smaller minimal filling
    prev = _minimal_into(bld, g - 1, s - 2)
    ti = bld.family(families.TORUS_PAIR)
    idx, _ = bld.plumb(prev, ti, bld.graphs[prev].labels[0], "a")
    return idx


@_seed
def _triple_into(bld, g):
    """Minimal filling triple of genus g >= 2 via connected sums with the
    genus 2 four-disc pair graph (parity picks the seed)."""
    if g == 2:
        return bld.family(families.G1)
    if g == 3:
        return bld.family(families.GAMMA0)
    idx = bld.family(families.GAMMA0 if g % 2 else families.G1)
    cur = 3 if g % 2 else 2
    while cur < g:
        gi = bld.family(families.G2)
        idx, _ = bld.consum_reaching(idx, gi, (cur + 2, 1, 3))
        cur += 2
    return idx


def filling(g, b, s) -> SynthesisPlan:
    """Filling of genus g >= 2 with b discs and size s, over the full
    admissible range lower_bound(g,b) <= s <= 2g+b-1."""
    TargetSignature(g, b, s).validate()
    plan = SynthesisPlan(target=(g, b, s))
    bld = _Builder(plan)
    if b >= s:
        _join_torus_chain(bld, _two_cycle_seed_into, (g, b - s + 2), s - 2)
    else:
        k = s - b + 1
        if g == 2 and k == 2:
            # the minimal pair seed does not exist on genus 2; start the
            # join chain one step later, from the (2,2,3) example graph
            _join_torus_chain(bld, _family_into,
                              (families.EXAMPLE_5_2, None), b - 2)
        else:
            _join_torus_chain(bld, _minimal_into, (g, k), b - 1)
    return bld.verify()


def tight_omega_filling(g, s) -> SynthesisPlan:
    """Minimal filling of size s whose weighted intersection graph attains
    the bound: omega_max = 2g-s+1 exactly."""
    TargetSignature(g, 1, s).validate()
    plan = SynthesisPlan(target=(g, 1, s), expect_omega=2 * g - s + 1)
    bld = _Builder(plan)
    _tight_into(bld, g, s)
    return bld.verify()


@_seed
def _tight_into(bld, g, s):
    if s == 2:
        return _pair_into(bld, g)
    if s == 3:
        if g == 2:
            return bld.family(families.G1)
        # plumb the sphere circle onto a two-disc pair across its two
        # boundary components, then erase the bivalent vertex
        pi = _two_disc_pair_into(bld, g - 1, True)
        x = _diff_boundary_edge(bld.graphs[pi])
        si = bld.family(families.SPHERE_CIRCLE)
        idx, rep = bld.plumb(pi, si, x, "a")
        if rep.case != "ALL-DIFFERENT":
            raise PlanVerificationError(
                f"sphere plumb expected case ALL-DIFFERENT, got {rep.case}")
        return bld.smooth(idx)
    if s == 2 * g:
        return bld.family(families.GAMMA_G, g)
    if s == 4:
        if g == 3:
            return bld.family(families.QUADRUPLE_F3)
        pi = _pair_into(bld, g - 1)
        ti = bld.family(families.TORUS_PAIR)
        idx, _ = bld.plumb(pi, ti, bld.graphs[pi].labels[0], "a")
        return idx
    # 5 <= s <= 2g-1: a torus plumb adds one handle and two curves while
    # keeping the extremal crossing pair untouched
    prev = _tight_into(bld, g - 1, s - 2)
    ti = bld.family(families.TORUS_PAIR)
    idx, _ = bld.plumb(prev, ti, bld.graphs[prev].labels[0], "a")
    return idx
