"""Census of small connected 4-regular fat graphs, grown class by class.

A census graph on V vertices keeps the rotation at every vertex fixed to a
standard 4-cycle (vertex v owns darts 4v..4v+3) and is given by the
direction-reversal involution, a perfect matching of the 4V darts.  The
census at V=1 walks those matchings.  Every larger level grows from the
class representatives one level down: a new vertex goes in across every
pair of distinct edges (its darts joined to the four cut ends) and onto
every single edge with a loop at the new vertex, in every way up to
rotating the new vertex.  This reaches every class: deleting a suitable
vertex of a connected graph and rejoining its partners leaves a connected
graph one level down, and the insertions above undo every such deletion.

A candidate is deduplicated by one rooted walk (:func:`_rooted_walk`) from
the least dart on its shortest faces, looked up among the walks of the
classes found so far from every dart on their shortest faces.  Only the
first candidate of a class pays for its canonical code
(:func:`canonical_code`), which gives the class's key and automorphism
count; its shortest-face roots are walked once, for the lookup set and
the canonical code alike, and the canonical code walks only the other
starts.

Each level is certified by the orbit-counting mass formula, in integers:
each class's orbit size 4^V V! / |Aut| must be whole, and their sum must
be the number of connected matchings on 4V darts, which follows from
(4V-1)!! alone.  A census that missed or split a class, or miscounted
its automorphisms, fails it and raises :class:`CensusError`.

Each row's invariants are read from its witness graph
(:func:`matching_to_graph`): the signature, the face and curve lengths,
the filling verdict and ``omega_max`` come from :class:`FatGraph` and
:func:`intersection_graph`, the same routines every other caller uses.

The census is the independent side of the bound checks: it never calls the
synthesis builders, and its graphs exercise the operation formulas through
:func:`verify_formula_by_recompute`.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb, factorial, prod

from .core import (FatGraph, InvariantError, MalformedGraphError,
                   _rooted_walk, canonical_code)
from . import families
from .analysis import intersection_graph
from .ops import (connected_sum, join, plumbing, new_join_face_lengths,
                  OperationError)

EXHAUSTIVE_CEILING = 4


class CensusRangeError(ValueError):
    pass


class CensusError(InvariantError):
    """The census failed its mass-formula certificate."""


class CensusRow(namedtuple("CensusRow", (
        "key", "vertex_count", "edge_count", "genus", "boundary_count",
        "standard_cycle_count", "boundary_lengths", "cycle_lengths",
        "filling", "omega_max", "count", "witness", "automorphisms"))):
    """One census class.  ``key`` is its canonical form, identical to
    :meth:`FatGraph.canonical_form`; the fields up to ``omega_max`` are
    read from the witness graph, :meth:`graph`.  ``count`` is the number
    of matchings of :func:`iter_matchings` in the class, ``witness`` the
    first of them as a partner tuple, and ``automorphisms`` the order of
    the automorphism group."""

    __slots__ = ()

    def graph(self):
        return matching_to_graph(self.vertex_count, self.witness)


def iter_matchings(V, connected_only=False):
    """Yield perfect matchings of the 4V darts as partner tuples, in
    lexicographic order.

    The partner of dart 0 is restricted to {1, 2, 4} (adjacent loop,
    opposite loop, least dart of another vertex), a symmetry break that
    still reaches every isomorphism class.  With ``connected_only``, a
    matching is kept when the walk from dart 0 reaches all 4V darts.
    """
    n = 4 * V
    match = [-1] * n
    rot = standard_rotation(V)

    def first_free(lo):
        for k in range(lo, n):
            if match[k] < 0:
                return k
        return -1

    def rec(lo):
        d = first_free(lo)
        if d < 0:
            if (not connected_only
                    or len(_rooted_walk(rot, match, 0)[0]) == n):
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


def matching_to_graph(V, match):
    """FatGraph for a matching on the standard rotation.

    Edge k is the k-th matched pair in order of its lower dart, which is
    the edge's forward dart; it is labeled ``m{k}``.  Raises
    :class:`MalformedGraphError` unless ``match`` pairs the 4V darts."""
    n = 4 * V
    dart = [0] * n  # census dart -> graph dart
    k = 0
    if len(match) == n:
        for a, b in enumerate(match):
            if a < b < n and match[b] == a:
                dart[a], dart[b] = 2 * k, 2 * k + 1
                k += 1
    if 2 * k != n:
        # the pairs kept are disjoint, so they cover every dart only when
        # match pairs every dart with its partner
        raise MalformedGraphError(
            f"{match!r} is not a perfect matching of {n} darts")
    sigma0 = [0] * n
    for a in range(n):
        sigma0[dart[a]] = dart[_s0(a)]
    return FatGraph(sigma0, [f"m{i}" for i in range(n // 2)])


def _s0(d):
    """The standard rotation: the next dart at the same vertex."""
    return (d & ~3) | ((d + 1) & 3)


def standard_rotation(V):
    return tuple(_s0(d) for d in range(4 * V))


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

    A start's first tuple entry, its partner's new number, is read
    without a walk: ``(match[d] - d) & 3`` at the same vertex, else 4.
    Only the starts with the least first entry are walked.
    """
    n = 4 * V
    first = [(q - d) & 3 if q >> 2 == d >> 2 else 4
             for d, q in enumerate(match)]
    least = min(first)
    best = None
    for start in range(n):
        if first[start] != least:
            continue
        lab = [-1] * n  # old dart -> new dart
        old = []  # new dart -> old dart
        _number_vertex(start, lab, old)
        out = []
        tie = best  # the least tuple so far while out is a prefix of it
        for p in range(n):
            q = match[old[p]]
            if lab[q] < 0:
                _number_vertex(q, lab, old)
            x = lab[q]
            if tie is not None and x != tie[p]:
                if x > tie[p]:
                    break
                tie = None
            out.append(x)
        else:
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
    A = B = 0
    for d, q in enumerate(match):
        if q >> 2 != d >> 2:
            B += 1
        elif (q - d) & 3 in (1, 2):
            A += 1
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
    """canonical code -> (automorphisms, first matching) for level V.

    A candidate is rooted at the least dart of its shortest faces, which
    :func:`_shortest_face_darts` finds by counting face lengths, and
    walked once (:func:`_rooted_walk`); its code is looked up among the
    rooted codes of the classes found so far, taken from every dart on
    their shortest faces.  An isomorphism maps shortest-face darts to
    shortest-face darts, and two rooted walks give equal codes only when
    an isomorphism maps one root to the other, so a hit is exactly a
    candidate of a known class.  Only a miss pays for
    :func:`canonical_code`, which gives the class's key and automorphism
    count.  Each root of a miss is walked once: the lookup walk and full
    walks from the other roots give the codes registered for the class,
    and :func:`canonical_code` takes them as walked, so it walks only the
    starts off the shortest faces, each against the least code so far.
    """
    rot = standard_rotation(V)
    if V == 1:
        found = iter_matchings(1, connected_only=True)
    else:
        found = (m for row in census(V - 1) for m in _grown(V, row.witness))
    classes = {}
    rooted = set()  # codes of the classes found, from their roots
    for match in found:
        roots = _shortest_face_darts(rot, match)
        code = _rooted_walk(rot, match, roots[0])[1]
        if bytes(code) in rooted:
            continue
        walked = {roots[0]: code}
        for root in roots[1:]:
            walked[root] = _rooted_walk(rot, match, root)[1]
        key, automorphisms = canonical_code(rot, match, walked)
        if key in classes:
            raise CensusError(
                f"census at V={V}: rooted lookup missed the class of "
                f"{tuple(match)!r}")
        classes[key] = (automorphisms, tuple(match))
        rooted.update(map(bytes, walked.values()))
    return classes


def _shortest_face_darts(rot, match):
    """The darts on the shortest faces (orbits of d -> rot[match[d]]) of
    the census graph ``match``, the least of them first.  One walk counts
    the length of every face; only the shortest faces are walked again,
    from their least darts, to list their darts."""
    n = len(match)
    seen = bytearray(n)
    shortest = n + 1
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = 1
        length = 1
        d = rot[match[s]]
        while d != s:
            seen[d] = 1
            length += 1
            d = rot[match[d]]
        if length < shortest:
            shortest = length
            starts = [s]
        elif length == shortest:
            starts.append(s)
    out = []
    for s in starts:
        out.append(s)
        d = rot[match[s]]
        while d != s:
            out.append(d)
            d = rot[match[d]]
    return out


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
    mass = 0
    for automorphisms, match in classes.values():
        orbit, rest = divmod(labelings, automorphisms)
        if rest:
            raise CensusError(
                f"census at V={V}: the class of {match!r} has "
                f"{automorphisms} automorphisms, which do not divide "
                f"{labelings} labelings")
        mass += orbit
    want = connected_matchings(V)
    if mass != want:
        raise CensusError(
            f"census at V={V}: {len(classes)} classes of total orbit size "
            f"{mass}, but there are {want} connected matchings")
    rows = []
    for key in sorted(classes):
        automorphisms, match = classes[key]
        witness = _least_relabeling(V, match)
        graph = matching_to_graph(V, witness)
        sig = graph.signature()
        filling = graph.is_filling_system()[0]
        omega = intersection_graph(graph).omega_max() if filling else None
        rows.append(CensusRow(
            key=key, vertex_count=sig.vertex_count,
            edge_count=sig.edge_count, genus=sig.genus,
            boundary_count=sig.boundary_count,
            standard_cycle_count=sig.standard_cycle_count,
            boundary_lengths=_descending(graph.face_lengths),
            cycle_lengths=_descending(graph.curve_lengths),
            filling=filling, omega_max=omega,
            count=_class_count(V, witness, automorphisms), witness=witness,
            automorphisms=automorphisms))
    return tuple(rows)


def _descending(lengths):
    return tuple(sorted(lengths, reverse=True))


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


class OpAudit:
    """The tallies of one operation's audit in
    :func:`verify_formula_by_recompute`: trials, hard predicted-vs-
    recomputed failures (``mismatches``), cases, join's corollary
    violations (a new boundary of length <= 2), and the connected sum's
    printed-table and s-law checks."""

    def __init__(self, op, trials=0, mismatches=0, case_counts=None,
                 corollary_violations=0, printed_checked=0,
                 printed_matched=0, printed_reliable_misses=0,
                 unreliable_miss_cases=None, s_law_checked=0,
                 s_law_misses=0):
        self.op = op
        self.trials = trials
        self.mismatches = mismatches
        self.case_counts = {} if case_counts is None else case_counts
        self.corollary_violations = corollary_violations
        self.printed_checked = printed_checked
        self.printed_matched = printed_matched
        self.printed_reliable_misses = printed_reliable_misses
        self.unreliable_miss_cases = ({} if unreliable_miss_cases is None
                                      else unreliable_miss_cases)
        self.s_law_checked = s_law_checked
        self.s_law_misses = s_law_misses

    def record_case(self, case):
        self.case_counts[case] = self.case_counts.get(case, 0) + 1


def _operand_pool(max_census_v, census_cap):
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


def verify_formula_by_recompute(max_census_v=3, census_cap=24):
    """Exercise the operations across catalog and census operands.

    Join and plumbing splice every pair of operands at each pair of their
    first nine edges; the connected sum joins every pair at each pair of
    vertices in each of the four alignments.

    Every trial rechecks the operation's own prediction (an exception there
    counts as a mismatch).  For the connected sum the four-branch
    indicator-sum table is additionally audited: the two structurally
    forced branches must match the recomputation on every trial; the other
    two record match rates, since their printed values are known to depend
    on interleaving data the indicator sums do not see.
    """
    pool = _operand_pool(max_census_v, census_cap)

    def fresh(gl, gr):
        # operands are disjoint copies; remake the value on the diagonal
        return FatGraph(gr.sigma0, gr.labels) if gl is gr else gr

    def monogon_splice(gl, gr, x, y):
        # the length > 2 corollary presumes no spliced dart sits on a
        # monogon face (two monogons can merge into a new bigon)
        for g, lab in ((gl, x), (gr, y)):
            comp, lengths = g.boundary_component_of, g.face_lengths
            for d in g.darts_of(lab):
                if lengths[comp[d]] < 2:
                    return True
        return False

    edge_ops = [(op, fn, OpAudit(op)) for op, fn in
                (("join", join), ("plumb", plumbing))]
    audits = {op: a for op, _, a in edge_ops}
    for _, gl in pool:
        for _, gr in pool:
            gr = fresh(gl, gr)
            for x in gl.labels[:9]:
                for y in gr.labels[:9]:
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
                            continue
                        for length in new_join_face_lengths(rep):
                            if length <= 2:
                                a.corollary_violations += 1
    a = audits["consum"] = OpAudit("consum")
    for _, gl in pool:
        for _, gr in pool:
            gr = fresh(gl, gr)
            for w, u, align in product(range(gl.num_vertices),
                                       range(gr.num_vertices), range(4)):
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
                    if chi["printed_b"] == rep.recomputed.boundary_count:
                        a.printed_matched += 1
                    elif chi["reliable"]:
                        a.printed_reliable_misses += 1
                    else:
                        misses = a.unreliable_miss_cases
                        misses[rep.case] = misses.get(rep.case, 0) + 1
                if chi["s_law_premise"]:
                    a.s_law_checked += 1
                    ls, rs = rep.left_signature, rep.right_signature
                    want = (ls.standard_cycle_count
                            + rs.standard_cycle_count - 2)
                    if rep.recomputed.standard_cycle_count != want:
                        a.s_law_misses += 1
    return audits
