"""Census of small connected 4-regular fat graphs, grown class by class.

A census graph on V vertices keeps the rotation at every vertex fixed to a
standard 4-cycle (vertex v owns darts 4v..4v+3) and is given by the
direction-reversal involution, a perfect matching of the 4V darts.  The
census at V=1 walks those matchings.  Every larger level grows from the
class representatives one level down: a new vertex goes in across every
pair of distinct edges (its darts joined to the four cut ends) and onto
every single edge with a loop at the new vertex, in every way up to
rotating the new vertex; the candidates are deduplicated by canonical
code.  This reaches every class: deleting a suitable vertex of a connected
graph and rejoining its partners leaves a connected graph one level down,
and the insertions above undo every such deletion.

Each level is certified by the orbit-counting mass formula: the classes'
orbit sizes 4^V V! / |Aut| must add up to the number of connected
matchings on 4V darts, which follows from (4V-1)!! alone.  A census that
missed or split a class fails it and raises :class:`CensusError`.

The census is the independent side of the bound checks: it never calls the
synthesis builders, and its graphs exercise the operation formulas through
:func:`verify_formula_by_recompute`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial, prod

from .core import FatGraph, InvariantError, canonical_code
from . import families
from .analysis import intersection_graph
from .ops import (connected_sum, join, plumbing, new_join_boundaries,
                  OperationError)

EXHAUSTIVE_CEILING = 4


class CensusRangeError(ValueError):
    pass


class CensusError(InvariantError):
    """The census failed its mass-formula certificate."""


@dataclass(frozen=True)
class CensusRow:
    key: bytes  # canonical form, identical to FatGraph.canonical_form()
    vertex_count: int
    edge_count: int
    genus: int
    boundary_count: int
    standard_cycle_count: int
    boundary_lengths: tuple
    cycle_lengths: tuple
    filling: bool
    omega_max: int | None
    count: int  # matchings of iter_matchings(V) in this class
    witness: tuple  # the first of them, as a partner tuple
    automorphisms: int  # order of the automorphism group

    def graph(self):
        return matching_to_graph(self.vertex_count, self.witness)


def iter_matchings(V, connected_only=False):
    """Yield perfect matchings of the 4V darts as partner tuples, in
    lexicographic order.

    The partner of dart 0 is restricted to {1, 2, 4} (adjacent loop,
    opposite loop, least dart of another vertex), a symmetry break that
    still reaches every isomorphism class.
    """
    n = 4 * V
    match = [-1] * n

    def first_free(lo):
        for k in range(lo, n):
            if match[k] < 0:
                return k
        return -1

    def rec(lo):
        d = first_free(lo)
        if d < 0:
            if not connected_only or _matching_connected(V, match):
                yield tuple(match)
            return
        if d == 0:
            cands = [c for c in (1, 2, 4) if c < n and match[c] < 0]
        else:
            cands = [c for c in range(d + 1, n) if match[c] < 0]
        for c in cands:
            match[d] = c
            match[c] = d
            yield from rec(d + 1)
            match[d] = -1
            match[c] = -1

    yield from rec(0)


def _matching_connected(V, match):
    if V == 1:
        return True
    parent = list(range(V))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in range(4 * V):
        b = match[a]
        if b > a:
            ra, rb = find(a // 4), find(b // 4)
            if ra != rb:
                parent[ra] = rb
    return len({find(v) for v in range(V)}) == 1


def matching_to_graph(V, match):
    """FatGraph for a matching; edges are labeled m0, m1, ... in the order
    their lower dart appears."""
    name = {}
    idx = 0
    for a in range(4 * V):
        b = match[a]
        if b > a:
            name[a] = (f"m{idx}", 1)
            name[b] = (f"m{idx}", -1)
            idx += 1
    cycles = []
    for v in range(V):
        cycles.append([name[4 * v + j] for j in range(4)])
    return FatGraph.from_vertex_cycles(cycles)


def _s0(d):
    """The standard rotation: the next dart at the same vertex."""
    return (d & ~3) | ((d + 1) & 3)


def standard_rotation(V):
    return tuple(_s0(d) for d in range(4 * V))


def _leaf_invariants(V, match):
    """(b, s, genus, filling, blengths, clengths) for one connected matching.

    sigma0 is the standard rotation and the boundary successor is
    d -> sigma0[match[d]].
    """
    n = 4 * V
    s0 = _s0
    seen = [False] * n
    blengths = []
    for st in range(n):
        if seen[st]:
            continue
        d, ln = st, 0
        while not seen[d]:
            seen[d] = True
            d = s0(match[d])
            ln += 1
        blengths.append(ln)
    b = len(blengths)
    genus2 = 2 - b + V  # m = 2V
    if genus2 % 2:
        raise InvariantError(f"odd Euler characteristic data at V={V}")
    seen = [False] * n
    clengths = []
    simple = True
    for st in range(n):
        if seen[st]:
            continue
        d, ln = st, 0
        visits = set()
        while not seen[d]:
            seen[d] = True
            v = d // 4
            if v in visits:
                simple = False
            visits.add(v)
            d = s0(s0(match[d]))
            ln += 1
        clengths.append(ln)
    if len(clengths) % 2:
        raise InvariantError("curve orbits do not pair up under reversal")
    filling = simple and min(blengths) >= 3
    # orbits pair up under reversal; report each curve once
    curve_lengths = sorted(clengths, reverse=True)[::2]
    return (b, len(clengths) // 2, genus2 // 2, filling,
            tuple(sorted(blengths, reverse=True)),
            tuple(curve_lengths))


def _grown(V, match):
    """Matchings on V vertices made by inserting vertex V-1 into the
    connected matching ``match`` on V-1 vertices.

    The new vertex goes across two distinct edges, its darts joined to the
    four cut ends, or onto one edge, its two cut ends joined to two of its
    darts and the other two darts forming a loop.  Rotating the new vertex
    relabels the result without changing its class, so the first cut end
    always joins the new vertex's first dart: 6 of the 24 assignments
    across two edges and 3 of the 12 loop placements cover them all.
    """
    n = 4 * (V - 1)
    base = list(match) + [-1] * 4
    edges = [(a, b) for a, b in enumerate(match) if a < b]
    for (a, b), (c, d) in combinations(edges, 2):
        for darts in permutations(range(n + 1, n + 4)):
            m = base[:]
            m[a], m[n] = n, a
            for e, w in zip((b, c, d), darts):
                m[e], m[w] = w, e
            yield m
    for a, b in edges:
        for w in range(n + 1, n + 4):
            i, j = (x for x in range(n + 1, n + 4) if x != w)
            m = base[:]
            m[a], m[n] = n, a
            m[b], m[w] = w, b
            m[i], m[j] = j, i
            yield m


def _least_relabeling(V, match):
    """The lexicographically least partner tuple isomorphic to ``match``.

    Trying each dart as the new dart 0, vertices are numbered in the order
    the scan of darts 0, 1, 2, ... first reaches them, each with the
    reaching dart at offset 0; every other choice gives a larger tuple.
    This is the first matching :func:`iter_matchings` yields in the class.
    """
    n = 4 * V
    best = None
    for start in range(n):
        lab = [-1] * n  # old dart -> new dart
        old = []  # new dart -> old dart
        _number_vertex(start, lab, old)
        out = []
        for p in range(n):
            q = match[old[p]]
            if lab[q] < 0:
                _number_vertex(q, lab, old)
            out.append(lab[q])
        if best is None or out < best:
            best = out
    return tuple(best)


def _number_vertex(d, lab, old):
    """Give the darts of d's vertex the next four numbers, d first."""
    for j in range(4):
        e = (d & ~3) | ((d + j) & 3)
        lab[e] = len(old)
        old.append(e)


def _class_count(V, match, automorphisms):
    """Matchings of ``iter_matchings(V)`` in the class of ``match``.

    The orbit has 4^V V! / |Aut| labelings, spread evenly over the darts
    that can take the place of dart 0.  A darts have their partner one or
    two steps on around their vertex (dart 0 paired with 1 or 2), B darts
    at another vertex (dart 0 paired with 4, one of 4(V-1) places).
    """
    A = sum(1 for d in range(4 * V)
            if match[d] in (_s0(d), _s0(_s0(d))))
    B = sum(1 for d in range(4 * V) if match[d] // 4 != d // 4)
    total = A * 4 ** (V - 1) * factorial(V - 1)
    if B:
        total += B * 4 ** (V - 2) * factorial(V - 2)
    return total // automorphisms


def connected_matchings(V):
    """Number of perfect matchings of 4V darts, 4 to a vertex, whose
    vertices form a connected graph: V! [x^V] log sum (4k-1)!! x^k / k!."""
    def all_matchings(k):
        return prod(range(1, 4 * k, 2))  # (4k-1)!!

    conn = [0]
    for k in range(1, V + 1):
        # a matching splits into the component of vertex 1 and the rest
        conn.append(all_matchings(k) - sum(
            comb(k - 1, j - 1) * conn[j] * all_matchings(k - j)
            for j in range(1, k)))
    return conn[V]


def _classes(V):
    """canonical code -> (automorphisms, one matching) for level V."""
    rot = standard_rotation(V)
    if V == 1:
        found = iter_matchings(1, connected_only=True)
    else:
        found = (m for row in census(V - 1) for m in _grown(V, row.witness))
    classes = {}
    for match in found:
        key, automorphisms = canonical_code(rot, match)
        if key not in classes:
            classes[key] = (automorphisms, tuple(match))
    return classes


@lru_cache(maxsize=None)
def census(V):
    """Complete census of connected 4-regular fat graphs on V vertices up to
    isomorphism, as :class:`CensusRow` list sorted by canonical key.

    Raises :class:`CensusError` when the classes fail the mass formula.
    """
    if not 1 <= V <= EXHAUSTIVE_CEILING:
        raise CensusRangeError(
            f"exhaustive census supports 1 <= V <= {EXHAUSTIVE_CEILING}, "
            f"got V={V}")
    classes = _classes(V)
    labelings = 4 ** V * factorial(V)
    mass = sum(Fraction(labelings, automorphisms)
               for automorphisms, _ in classes.values())
    want = connected_matchings(V)
    if mass != want:
        raise CensusError(
            f"census at V={V}: {len(classes)} classes of total orbit size "
            f"{mass}, but there are {want} connected matchings")
    rows = []
    for key in sorted(classes):
        automorphisms, match = classes[key]
        witness = _least_relabeling(V, match)
        b, s, genus, filling, blen, clen = _leaf_invariants(V, witness)
        omega = None
        if filling:
            omega = intersection_graph(
                matching_to_graph(V, witness)).omega_max()
        rows.append(CensusRow(
            key=key, vertex_count=V, edge_count=2 * V, genus=genus,
            boundary_count=b, standard_cycle_count=s,
            boundary_lengths=blen, cycle_lengths=clen,
            filling=filling, omega_max=omega,
            count=_class_count(V, witness, automorphisms), witness=witness,
            automorphisms=automorphisms))
    return tuple(rows)


def census_filter(V, genus=None, b=None, s=None, filling=None):
    out = []
    for row in census(V):
        if genus is not None and row.genus != genus:
            continue
        if b is not None and row.boundary_count != b:
            continue
        if s is not None and row.standard_cycle_count != s:
            continue
        if filling is not None and row.filling != filling:
            continue
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# operation law verification


@dataclass
class OpAudit:
    op: str
    trials: int = 0
    mismatches: int = 0  # hard predicted-vs-recomputed failures
    case_counts: dict = None
    corollary_violations: int = 0  # join: new boundary of length <= 2
    corollary_skipped: int = 0  # join trials splicing monogon faces
    printed_checked: int = 0
    printed_matched: int = 0
    printed_reliable_misses: int = 0
    unreliable_miss_cases: dict = None
    s_law_checked: int = 0
    s_law_misses: int = 0

    def __post_init__(self):
        if self.case_counts is None:
            self.case_counts = {}
        if self.unreliable_miss_cases is None:
            self.unreliable_miss_cases = {}

    def record_case(self, case):
        self.case_counts[case] = self.case_counts.get(case, 0) + 1


def _operand_pool(max_census_v=3, census_cap=40):
    pool = [
        ("g1", families.build(families.G1)),
        ("torus", families.build(families.TORUS_PAIR)),
        ("sphere", families.build(families.SPHERE_CIRCLE)),
        ("gamma0", families.build(families.GAMMA0)),
        ("g2", families.build(families.G2)),
        ("gamma_g2", families.build(families.GAMMA_G, 2)),
        ("girth3", families.build(families.GIRTH_2GM1, 3)),
        ("quadruple", families.build(families.QUADRUPLE_F3)),
        ("gamma2b2", families.build(families.GAMMA_2_B, 2)),
        ("gamma2b3", families.build(families.GAMMA_2_B, 3)),
        ("example52", families.build(families.EXAMPLE_5_2)),
    ]
    for V in range(2, max_census_v + 1):
        rows = census(V)
        step = max(1, len(rows) // census_cap)
        for i, row in enumerate(rows[::step][:census_cap]):
            pool.append((f"census{V}.{i}", row.graph()))
    return pool


def verify_formula_by_recompute(ops=("join", "consum", "plumb"),
                                max_census_v=3, census_cap=24,
                                max_edge_pairs=9):
    """Exercise the operations across catalog and census operands.

    Every trial rechecks the operation's own prediction (an exception there
    counts as a mismatch).  For the connected sum the four-branch
    indicator-sum table is additionally audited: the two structurally forced branches must
    match the recomputation on every trial; the other two record match
    rates, since their printed values are known to depend on interleaving
    data the indicator sums do not see.
    """
    pool = _operand_pool(max_census_v, census_cap)

    def fresh(gl, gr):
        # operands are disjoint copies; remake the value on the diagonal
        return FatGraph(gr.sigma0, gr.labels) if gl is gr else gr

    def monogon_splice(gl, gr, x, y):
        # the length > 2 corollary presumes no spliced dart sits on a
        # monogon face (two monogons can merge into a new bigon)
        for g, lab in ((gl, x), (gr, y)):
            comp = g.boundary_component_of
            for d in g.darts_of(lab):
                if len(g.boundary_cycles[comp[d]]) < 2:
                    return True
        return False

    edge_ops = [(op, fn, OpAudit(op)) for op, fn in
                (("join", join), ("plumb", plumbing)) if op in ops]
    audits = {op: a for op, _, a in edge_ops}
    for _, gl in pool:
        for _, gr in pool:
            gr = fresh(gl, gr)
            for x in gl.labels[:max_edge_pairs]:
                for y in gr.labels[:max_edge_pairs]:
                    for op, fn, a in edge_ops:
                        a.trials += 1
                        try:
                            rep = fn(gl, gr, x, y)
                        except AssertionError:
                            a.mismatches += 1
                            continue
                        a.record_case(rep.case)
                        if op != "join":
                            continue
                        if monogon_splice(gl, gr, x, y):
                            a.corollary_skipped += 1
                            continue
                        for cyc in new_join_boundaries(rep):
                            if len(cyc) <= 2:
                                a.corollary_violations += 1
    if "consum" in ops:
        a = audits["consum"] = OpAudit("consum")
        for _, gl in pool:
            for _, gr in pool:
                gr = fresh(gl, gr)
                for w in range(gl.num_vertices):
                    for u in range(gr.num_vertices):
                      for align in range(4):
                        try:
                            rep = connected_sum(gl, gr, w, u, align)
                        except OperationError:
                            continue  # loops or wrong valence: not a trial
                        except AssertionError:
                            a.trials += 1
                            a.mismatches += 1
                            continue
                        a.trials += 1
                        a.record_case(rep.case)
                        chi = rep.chi
                        if chi["printed_b"] is not None:
                            a.printed_checked += 1
                            hit = chi["printed_b"] == \
                                rep.recomputed.boundary_count
                            if hit:
                                a.printed_matched += 1
                            elif chi["reliable"]:
                                a.printed_reliable_misses += 1
                            else:
                                k = rep.case
                                a.unreliable_miss_cases[k] = \
                                    a.unreliable_miss_cases.get(k, 0) + 1
                        if chi["s_law_premise"]:
                            a.s_law_checked += 1
                            ls, rs = rep.left_signature, rep.right_signature
                            want = (ls.standard_cycle_count
                                    + rs.standard_cycle_count - 2)
                            if rep.recomputed.standard_cycle_count != want:
                                a.s_law_misses += 1
    return audits
