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
from dataclasses import dataclass, field
from functools import lru_cache

from . import families, oracle
from .analysis import intersection_graph
from .core import FatGraph, FatGraphError, InvariantError
from .ops import (OperationReport, connected_sum, join, plumbing,
                  predict_connected_sum)


class SynthesisError(FatGraphError):
    pass


class ImpossibleSignatureError(SynthesisError):
    """The requested signature provably has no filling system."""


class SynthesisRangeError(SynthesisError):
    pass


class SearchBudgetError(SynthesisError):
    """Search gave up before exhausting its space (retry with more budget)."""


class PlanVerificationError(InvariantError):
    pass


@dataclass(frozen=True)
class Step:
    op: str  # family | graph | join | consum | plumb | smooth
    family: str | None = None
    param: int | None = None
    vertices: tuple | None = None
    left: int | None = None
    right: int | None = None
    x: str | None = None
    y: str | None = None
    w: int | None = None
    u: int | None = None
    align: int = 0
    flip: bool = False
    arg: int | None = None


@dataclass
class SynthesisPlan:
    target: tuple  # (g, b, s)
    steps: list[Step] = field(default_factory=list)
    expect_filling: bool = True
    expect_omega: int | None = None

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


@dataclass(frozen=True)
class SearchResult:
    graph: FatGraph | None
    complete: bool  # True when the whole space was enumerated
    examined: int  # pair candidates (s=2) or census classes read

    @property
    def found(self):
        return self.graph is not None


HAMILTONIAN_CEILING = 8


def _pair_candidates(V):
    """All fat graphs made of two transverse curves, each visiting all of
    V vertices once.  Curve a runs 0,1,...,V-1; curve b's visit order and
    the crossing side at each vertex vary.  Every filling with s=2 on V
    vertices is isomorphic to one of these (curves of a 4-regular filling
    with s=2 are forced to be Hamiltonian by simplicity and edge count).

    Edge ``a{v}`` leaves vertex v along curve a and is edge v; edge
    ``b{j}`` is the j-th edge of curve b and is edge V+j."""
    if V == 1:
        orders = [(0,)]
    else:
        orders = [(0,) + rest for rest in itertools.permutations(range(1, V))]
    labels = [f"a{v}" for v in range(V)] + [f"b{j}" for j in range(V)]
    for beta in orders:
        # curve b is unoriented: keep one direction (flags flip with it)
        if V > 2 and beta[1] > beta[-1]:
            continue
        jpos = {v: j for j, v in enumerate(beta)}
        for flags in itertools.product((0, 1), repeat=V):
            sigma0 = [0] * (4 * V)
            for v in range(V):
                a_out, a_in = 2 * v, 2 * ((v - 1) % V) + 1
                j = jpos[v]
                b_out, b_in = 2 * (V + j), 2 * (V + (j - 1) % V) + 1
                if flags[v]:
                    b_out, b_in = b_in, b_out
                sigma0[a_out], sigma0[b_out] = b_out, a_in
                sigma0[a_in], sigma0[b_in] = b_in, a_out
            yield FatGraph(sigma0, labels)


def search_filling(V, target, budget=None, need_same_boundary_edge=False,
                   need_diff_boundary_edge=False):
    """Search for a connected 4-regular fat graph on ``V`` vertices with
    signature ``target`` = (g, b, s) passing the filling predicate.
    Results are memoized per argument tuple."""
    return _search_cached(V, tuple(target), budget, need_same_boundary_edge,
                          need_diff_boundary_edge)


@lru_cache(maxsize=None)
def _search_cached(V, target, budget, need_same_boundary_edge,
                   need_diff_boundary_edge):
    """Uncached body of :func:`search_filling`.

    For s=2 the search enumerates the two-Hamiltonian-curve normal form
    (complete up to isomorphism, V <= 8), and ``budget`` caps the number
    of candidates it examines.  Other sizes are looked up in the census
    (:func:`oracle.census`, V up to its ceiling): the result is the class
    with the least witness, which is the first graph a walk over
    :func:`oracle.iter_matchings` would meet.  ``complete=True`` with no
    graph is a nonexistence proof over the whole space.
    """
    g, b, s = target
    if V < 1 or 2 * g - 2 + b != V:
        # a 4-regular filling of (g, b) has exactly 2g-2+b >= 1 vertices
        return SearchResult(None, True, 0)

    def wanted(graph):
        return ((not need_same_boundary_edge
                 or _same_boundary_edge(graph) is not None)
                and (not need_diff_boundary_edge
                     or _diff_boundary_edge(graph) is not None))

    if s != 2:
        try:
            rows = oracle.census(V)
        except oracle.CensusRangeError as exc:
            raise SynthesisRangeError(
                f"search beyond the census: {exc}") from None
        hits = [row for row in rows if row.filling and (
            row.genus, row.boundary_count, row.standard_cycle_count) == target]
        for row in sorted(hits, key=lambda row: row.witness):
            graph = row.graph()
            if wanted(graph):
                return SearchResult(graph, False, len(rows))
        return SearchResult(None, True, len(rows))

    if V > HAMILTONIAN_CEILING:
        raise SynthesisRangeError(
            f"pair search ceiling is V={HAMILTONIAN_CEILING}, got {V}")
    examined = 0
    for graph in _pair_candidates(V):
        examined += 1
        if budget is not None and examined > budget:
            return SearchResult(None, False, examined)
        faces = graph.boundary_cycles
        if len(faces) != b or min(map(len, faces)) < 3:
            continue
        if (graph.is_filling_system()[0]
                and graph.signature().triple == target and wanted(graph)):
            return SearchResult(graph, False, examined)
    return SearchResult(None, True, examined)


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
    without executing it a second time."""

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

    def family(self, name, param=None):
        return self.run(Step(op="family", family=name, param=param))

    def literal(self, graph):
        """A graph step; it runs from its recorded tokens, so the graph
        kept here is the replayed one, not ``graph`` itself."""
        return self.run(Step(op="graph", vertices=tuple(
            map(tuple, graph.to_vertex_cycle_tokens()))))

    def join(self, li, ri, x, y):
        idx = self.run(Step(op="join", left=li, right=ri, x=x, y=y))
        return idx, self.reports[-1]

    def plumb(self, li, ri, x, y):
        idx = self.run(Step(op="plumb", left=li, right=ri, x=x, y=y))
        return idx, self.reports[-1]

    def smooth(self, idx):
        return self.run(Step(op="smooth", arg=idx))

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
                        step = Step(op="consum", left=li, right=ri, w=w,
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


def _join_torus_chain(bld, idx, count):
    """Join ``count`` torus graphs onto plan index ``idx``, each along an
    edge with both directions in one boundary component (b and s grow by one
    per join, genus is fixed)."""
    for _ in range(count):
        x = _same_boundary_edge(bld.graphs[idx])
        if x is None:
            raise SynthesisError(
                "no edge with both directions in one boundary component; "
                "the join construction guarantees one, so this is a bug")
        ti = bld.family(families.TORUS_PAIR)
        idx, rep = bld.join(idx, ti, x, "a")
        if rep.case != "SAME/SAME":
            raise PlanVerificationError(
                f"torus join expected case SAME/SAME, got {rep.case}")
    return idx


# ---------------------------------------------------------------------------
# pair plans (replacing the cited external pair constructions by search
# plus within-catalog composition, verified at every step)


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
            if not res.complete:
                raise SearchBudgetError(
                    f"pair search at V={V} ran out of budget")
            raise SynthesisError(f"no filling pair found at V={V}")
        return bld.literal(res.graph)
    prev = _pair_into(bld, g - 2)
    gi = bld.family(families.G2)
    idx, _ = bld.consum_reaching(prev, gi, (g, 1, 2))
    return idx


def _two_disc_pair_into(bld, g, need_diff_edge=True):
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
    prev = _two_disc_pair_into(bld, g - 2, need_diff_edge=False)
    gi = bld.family(families.G2)
    idx, _ = bld.consum_reaching(prev, gi, (g, 2, 2), require=require)
    return idx


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


@dataclass(frozen=True)
class TargetSignature:
    """An admissible (g, b, s): g >= 2, b >= 1 and s within the size
    bounds, with (2, 1, 2) excluded."""

    g: int
    b: int
    s: int

    def validate(self):
        if self.g < 2 or self.b < 1:
            raise SynthesisRangeError("targets need g >= 2 and b >= 1")
        if (self.g, self.b, self.s) == (2, 1, 2):
            raise ImpossibleSignatureError(
                "impossible: (2,1,2) (no minimal filling pair on genus 2)")
        lo, hi = lower_bound(self.g, self.b), upper_bound(self.g, self.b)
        if not lo <= self.s <= hi:
            raise SynthesisRangeError(
                f"size {self.s} out of range [{lo}, {hi}] for "
                f"(g={self.g}, b={self.b})")
        return self

    def plan(self):
        return filling(self.g, self.b, self.s)


def max_filling(g, b) -> SynthesisPlan:
    """Filling of maximal size 2g+b-1 with b complementary discs, g >= 1."""
    if g < 1 or b < 1:
        raise SynthesisRangeError("max_filling needs g >= 1 and b >= 1")
    plan = SynthesisPlan(target=(g, b, 2 * g + b - 1))
    bld = _Builder(plan)
    idx = bld.family(families.GAMMA_G, g)
    _join_torus_chain(bld, idx, b - 1)
    return bld.verify()


def minimal_filling(g, s) -> SynthesisPlan:
    """Minimal filling (one disc) of genus g >= 2 and size s."""
    if g < 2:
        raise SynthesisRangeError("minimal fillings of genus < 2 are out of "
                                  "range (only the torus pair exists)")
    lo, hi = lower_bound(g, 1), 2 * g
    if (g, s) == (2, 2):
        raise ImpossibleSignatureError(
            "no minimal filling pair of a closed surface of genus 2")
    if not lo <= s <= hi:
        raise SynthesisRangeError(
            f"size {s} out of range [{lo}, {hi}] for genus {g}")
    plan = SynthesisPlan(target=(g, 1, s))
    bld = _Builder(plan)
    _minimal_into(bld, g, s)
    return bld.verify()


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
        seed = _two_cycle_seed_into(bld, g, b - s + 2)
        _join_torus_chain(bld, seed, s - 2)
    else:
        k = s - b + 1
        if g == 2 and k == 2:
            # the minimal pair seed does not exist on genus 2; start the
            # join chain one step later, from the (2,2,3) example graph
            seed = bld.family(families.EXAMPLE_5_2)
            _join_torus_chain(bld, seed, b - 2)
        else:
            seed = _minimal_into(bld, g, k)
            _join_torus_chain(bld, seed, b - 1)
    return bld.verify()


def tight_omega_filling(g, s) -> SynthesisPlan:
    """Minimal filling of size s whose weighted intersection graph attains
    the bound: omega_max = 2g-s+1 exactly."""
    if g < 2:
        raise SynthesisRangeError("tight families start at genus 2")
    lo, hi = lower_bound(g, 1), 2 * g
    if (g, s) == (2, 2):
        raise ImpossibleSignatureError(
            "no minimal filling pair of a closed surface of genus 2")
    if not lo <= s <= hi:
        raise SynthesisRangeError(
            f"size {s} out of range [{lo}, {hi}] for genus {g}")
    plan = SynthesisPlan(target=(g, 1, s), expect_omega=2 * g - s + 1)
    bld = _Builder(plan)
    _tight_into(bld, g, s)
    return bld.verify()


def _tight_into(bld, g, s):
    if s == 2:
        return _pair_into(bld, g)
    if s == 3:
        if g == 2:
            return bld.family(families.G1)
        # plumb the sphere circle onto a two-disc pair across its two
        # boundary components, then erase the bivalent vertex
        pi = _two_disc_pair_into(bld, g - 1)
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
