"""Shared test helpers: the synthesis grid, a reference canonical code, a
reference isomorphism invariant, a reference walk for the census lookup
of the search, a reference census witness, a reference pair search,
the cycle walk of the tests (:func:`cycles`) and the faces, boundary
words and curves walked with it, the boundary words the paper prints for
three catalog families, the surface invariants and
straight-ahead successor read from those cycle tuples, and the census's
and the pair search's face screens read from the face tuples, and the
plan text of the standard library's indenting JSON encoder; the
earlier forms of five library routines, kept as references: the
two-pass plan reader, the per-dart ``shuffled``, the isomorphism test
without face screening, the pair candidates built whole, none
skipped by symmetry, and the connected sum's prediction by splicing
and relabelling both operands' whole successor maps; the three
surgeries built from label tokens, and a plan replayed through them;
and relabeling, path and degree readings that no library module
needs."""

import itertools
import json

from fillgraph import families
from fillgraph.core import FatGraph, _rooted_walk, canonical_code
from fillgraph.formats import (_STEP_FIELDS, _STEP_TYPES, PLAN_FORMAT,
                               FormatError, _require, plan_to_document)
from fillgraph.oracle import iter_matchings, matching_to_graph
from fillgraph.synthesis import (Step, SynthesisPlan, _run_step, filling,
                                 lower_bound, tight_omega_filling,
                                 upper_bound)


def grid_targets(gmax, bmax, tight_gmax):
    """(builder, args) of every admissible (g, b, s) with g <= gmax and
    b <= bmax, then of the tight plans with g <= tight_gmax, in a fixed
    order."""
    for g in range(2, gmax + 1):
        for b in range(1, bmax + 1):
            for s in range(lower_bound(g, b), upper_bound(g, b) + 1):
                if (g, b, s) != (2, 1, 2):
                    yield filling, (g, b, s)
    for g in range(2, tight_gmax + 1):
        for s in range(lower_bound(g, 1), 2 * g + 1):
            yield tight_omega_filling, (g, s)


def reference_plan_text(plan):
    """The plan file text that ``json.dumps`` writes from the plan's
    document: what :func:`fillgraph.formats.dumps_plan` must write, byte
    for byte."""
    return json.dumps(plan_to_document(plan), indent=2) + "\n"


def grid_plans(gmax, bmax, tight_gmax):
    """The plans of :func:`grid_targets`, each built when the generator
    reaches it."""
    for build, args in grid_targets(gmax, bmax, tight_gmax):
        yield build(*args)


def full_scan_code(sigma0, sigma1):
    """(code, automorphisms) by brute force: the full breadth-first code
    from every start dart, with no early stop, packed as
    :func:`fillgraph.core.canonical_code` packs its codes; the least of
    them and the number of starts that reach it."""
    n = len(sigma0)
    codes = []
    for start in range(n):
        num = {start: 0}
        order = [start]
        code = []
        for d in order:
            for e in (sigma0[d], sigma1[d]):
                if e not in num:
                    num[e] = len(order)
                    order.append(e)
                code.append(num[e])
        codes.append(code)
    best = min(codes)
    width = max(1, ((n - 1).bit_length() + 7) // 8)
    return (b"".join(x.to_bytes(width, "big") for x in best),
            codes.count(best))


def component_codes(graph):
    """Sorted canonical codes of the connected components: two graphs are
    isomorphic exactly when these lists are equal."""
    n = graph.num_darts
    s0 = graph.sigma0
    seen = [False] * n
    codes = []
    for s in range(n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        for d in comp:
            for e in (s0[d], d ^ 1):
                if not seen[e]:
                    seen[e] = True
                    comp.append(e)
        local = {d: i for i, d in enumerate(comp)}
        codes.append(canonical_code([local[s0[d]] for d in comp],
                                    [local[d ^ 1] for d in comp])[0])
    return sorted(codes)


def first_matching_graph(V, target):
    """The first graph of a walk over the connected matchings on V
    vertices that is a filling with signature ``target``, or None: the
    brute-force search that the census lookup of ``search_filling``
    replaces."""
    for match in iter_matchings(V, connected_only=True):
        graph = matching_to_graph(V, match)
        if (graph.is_filling_system()[0]
                and graph.signature().triple == tuple(target)):
            return graph
    return None


def full_scan_relabeling(V, match):
    """The lexicographically least partner tuple isomorphic to ``match``
    by brute force: the relabeled tuple of every start dart, each numbered
    to the end with no early stop, and the least of them.  Vertices are
    numbered in the order a scan of the new darts 0, 1, 2, ... first
    reaches them, each with the reaching dart at offset 0."""
    n = 4 * V
    tuples = []
    for start in range(n):
        lab = {}  # old dart -> new dart
        old = []  # new dart -> old dart

        def number(d):
            for j in range(4):
                e = (d & ~3) | ((d + j) & 3)
                lab[e] = len(old)
                old.append(e)

        number(start)
        for p in range(n):
            if match[old[p]] not in lab:
                number(match[old[p]])
        tuples.append(tuple(lab[match[old[p]]] for p in range(n)))
    return min(tuples)


def pair_search_reference(V, target):
    """(vertex tokens or None, examined) of the two-curve pair search as
    a loop over every candidate of :func:`reference_pair_candidates`,
    none skipped by symmetry, that builds each as a :class:`FatGraph`
    and screens it by its boundary cycles: the first filling with
    signature ``target`` among the candidates, and the number of
    candidates up to it (all of them when none is found)."""
    b = target[1]
    labels = [f"a{v}" for v in range(V)] + [f"b{j}" for j in range(V)]
    examined = 0
    for sigma0 in reference_pair_candidates(V):
        examined += 1
        graph = FatGraph(sigma0, labels)
        faces = face_cycles(graph)
        if len(faces) != b or min(map(len, faces)) < 3:
            continue
        if (graph.is_filling_system()[0]
                and graph.signature().triple == tuple(target)):
            return graph.to_vertex_cycle_tokens(), examined
    return None, examined


def cycles(succ):
    """Cycles of the permutation ``succ`` of 0..n-1 as tuples, each
    starting at its least element, listed in increasing order of that
    element: the walk of the tests, so that the references below use no
    library walk."""
    seen = [False] * len(succ)
    out = []
    for s in range(len(succ)):
        if not seen[s]:
            cyc = []
            d = s
            while not seen[d]:
                seen[d] = True
                cyc.append(d)
                d = succ[d]
            out.append(tuple(cyc))
    return tuple(out)


def face_cycles(graph):
    """The boundary components of ``graph`` as dart tuples in word order
    (successor ``d -> sigma0[d ^ 1]``), each starting at its least dart,
    listed in increasing order of that dart: face k is the face that the
    library numbers k."""
    s0 = graph.sigma0
    return cycles([s0[d ^ 1] for d in range(len(s0))])


def face_words(graph):
    """The boundary word of each face of :func:`face_cycles`: the signed
    names of its darts, in word order."""
    return [tuple(graph.dart_name(d) for d in face)
            for face in face_cycles(graph)]


def gamma_g_boundary_word(g):
    """The single boundary word P(g) Q(g) R(g) S(g) of Gamma_g, as the
    paper prints it, in signed labels."""
    P = []
    for i in range(1, g):
        P += [f"e{4*i-1}-", f"e{4*i}+"]
    P += [f"e{4*g-2}-"]
    Q = [f"e{i}-" for i in range(4 * g - 4, 0, -2)] + ["e1-"]
    R = ["e2+"]
    for i in range(1, g):
        R += [f"e{4*i+1}-", f"e{4*i+2}+"]
    S = [f"e{i}+" for i in range(4 * g - 3, 0, -2)]
    return tuple(P + Q + R + S)


def gamma2b_boundary_words(b):
    """The b boundary words of Gamma(2,b) as printed, as signed labels."""
    words = [tuple([f"e1+", f"f1-", f"e{b+2}-", f"f{b}-", f"e{b-1}-",
                    f"f{b-1}+", f"e{b}+", f"f{b+2}+"])]
    for j in range(2, b):
        words.append((f"e{j}+", f"f{j}-", f"e{j-1}-", f"f{j-1}+"))
    words.append((f"f{b+2}-", f"e{b+1}+", f"f{b+1}+", f"e{b}-",
                  f"f{b}+", f"e{b+1}-", f"f{b+1}-", f"e{b+2}+"))
    return words


# the two boundary words of the (2, 2, 3) example graph, as printed
EXAMPLE_5_2_BOUNDARY_WORDS = (
    ("x1+", "y2+", "z1-", "x3+", "y1+", "x1-", "y3-", "z2+", "x2-", "y1-"),
    ("x2+", "z1+", "y3+", "x3-", "z2-", "y2-"),
)


def edges(cycle):
    """The undirected edge of each dart of ``cycle``."""
    return tuple(d >> 1 for d in cycle)


def tuple_invariants(graph):
    """The invariants that the counting kernel of
    :meth:`FatGraph.signature` computes, read from the cycle tuples
    instead: vertex count, boundary count, curve count (None unless every
    degree is even), connectivity by a breadth-first search over the
    vertex cycles, 4-regularity, even degrees, the boundary component of
    each dart as an index into :func:`face_cycles`, and the length of each
    boundary component; the vertex of each dart, read from
    ``vertex_cycles`` here, not from the library's ``vertex_of``; on a
    decorated graph also :func:`reference_successor`, the first dart of
    each curve of :func:`tuple_curves`, the curves' lengths, first
    revisit and edge map."""
    vertices = graph.vertex_cycles
    vertex_of = vertex_map(graph)
    reached = {0}
    stack = [0]
    while stack:
        for d in vertices[stack.pop()]:
            w = vertex_of[d ^ 1]
            if w not in reached:
                reached.add(w)
                stack.append(w)
    decorated = all(len(c) % 2 == 0 for c in vertices)
    faces = face_cycles(graph)
    component = [None] * graph.num_darts
    for i, face in enumerate(faces):
        for d in face:
            component[d] = i
    out = {
        "V": len(vertices),
        "b": len(faces),
        "s": None,
        "connected": len(reached) == len(vertices),
        "four_regular": all(len(c) == 4 for c in vertices),
        "decorated": decorated,
        "boundary_component_of": tuple(component),
        "face_lengths": tuple(map(len, faces)),
        "vertex_of": tuple(vertex_of),
    }
    if decorated:
        curves = tuple_curves(graph)
        out.update(s=len(curves), curve_starts=tuple(c[0] for c in curves),
                   standard_successor=reference_successor(graph),
                   curve_lengths=tuple(map(len, curves)),
                   first_revisit=tuple_revisit(graph, curves),
                   curve_of_edge=tuple(
                       next(i for i, c in enumerate(curves)
                            if k in edges(c))
                       for k in range(graph.num_edges)))
    return out


def vertex_map(graph):
    """dart -> index of its vertex in ``graph.vertex_cycles``."""
    vertex_of = [None] * graph.num_darts
    for i, cyc in enumerate(graph.vertex_cycles):
        for d in cyc:
            vertex_of[d] = i
    return vertex_of


def reference_successor(graph):
    """The straight-ahead successor by the opposite-dart rule over
    ``vertex_cycles``: at a vertex cycle ``c`` of degree 2k, the dart
    entering through ``c[i]`` (that is ``c[i] ^ 1``) leaves through the
    opposite dart ``c[i + k]``, which is ``c[i - k]``.  The graph must
    be decorated."""
    succ = [None] * graph.num_darts
    for cyc in graph.vertex_cycles:
        k = len(cyc) // 2
        for i, d in enumerate(cyc):
            succ[d ^ 1] = cyc[i - k]
    return tuple(succ)


def spliced_orbit_count(succ_l, w_darts, succ_r, u_darts):
    """Number of orbits of a successor map on the connected sum, spliced
    from the maps ``succ_l``/``succ_r`` of the two operands and counted
    by a walk over the whole spliced map.

    Darts of the spliced map: left dart d is d, right dart d is n1 + d,
    and merged edge g_i has darts g + 2i (g_i+) and g + 2i + 1 (g_i-).
    Strand i of w (dart e_i) merges with strand 3-i of u (dart f_{3-i}):
    g_i+ replaces the pair (rev e_i, f_{3-i}) and g_i- replaces
    (rev f_{3-i}, e_i).  The darts of both deleted vertices and their
    reverses drop out: each is marked walked before the count starts.
    Neither vertex carries a loop, so no surviving dart steps onto a
    dropped one."""
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
    seen = bytearray(len(nxt))
    for e in (*w_darts, *(n1 + f for f in u_darts)):
        seen[e] = seen[e ^ 1] = 1
    orbits = 0
    for s in range(len(nxt)):
        if not seen[s]:
            orbits += 1
            d = s
            while not seen[d]:
                seen[d] = 1
                d = nxt[d]
    return orbits


def reference_sum_prediction(left, right, w, u, align):
    """The (g, b, s) of ``ops.connected_sum(left, right, w, u, align)``
    by splicing both operands' whole boundary and straight-ahead
    successor maps and relabelling every orbit
    (:func:`spliced_orbit_count`), the prediction the library made
    before it kept side records; s is None unless both operands are
    decorated, and the answer is None where w or u is not a loop-free
    4-valent vertex.  The operands must be connected."""
    w_darts, u_darts = left.vertex_cycles[w], right.vertex_cycles[u]
    for darts in (w_darts, u_darts):
        if len(darts) != 4 or any(d ^ 1 in darts for d in darts):
            return None
    u_darts = u_darts[align:] + u_darts[:align]
    b = spliced_orbit_count([left.sigma0[d ^ 1] for d in range(left.num_darts)],
                            w_darts,
                            [right.sigma0[d ^ 1]
                             for d in range(right.num_darts)], u_darts)
    V = len(left.vertex_cycles) + len(right.vertex_cycles) - 2
    m = left.num_edges + right.num_edges - 4
    s = None
    if all(len(c) % 2 == 0 for g in (left, right) for c in g.vertex_cycles):
        s = spliced_orbit_count(reference_successor(left), w_darts,
                                reference_successor(right), u_darts) // 2
    return (2 - b - V + m) // 2, b, s


def tuple_curves(graph):
    """The curves as the orbits of :func:`reference_successor` (from
    :func:`cycles`) whose least dart is less than every reversed dart of
    the orbit, so each pair of mirror orbits gives the one that starts
    first."""
    orbits = cycles(reference_successor(graph))
    return tuple(orb for orb in orbits if orb[0] < min(d ^ 1 for d in orb))


def tuple_revisit(graph, curves):
    """(curve, vertex) for the first of ``curves`` that passes a vertex
    twice, naming its first vertex along the curve that it passes twice,
    by a walk over :func:`vertex_map`; None when every curve is simple."""
    vertex_of = vertex_map(graph)
    for i, cyc in enumerate(curves):
        visits = [vertex_of[d] for d in cyc]
        if len(set(visits)) != len(visits):
            return i, next(v for v in visits if visits.count(v) > 1)
    return None


def tuple_shortest_face_darts(rot, match):
    """The darts on the shortest faces of the census graph ``match``
    (orbits of d -> rot[match[d]]), read from the face tuples of
    :func:`cycles`, face by face in their order."""
    faces = cycles([rot[e] for e in match])
    shortest = min(map(len, faces))
    return [d for face in faces if len(face) == shortest for d in face]


def tuple_face_screen(sigma0, b):
    """The pair search's face screen from the face tuples: exactly b
    faces (orbits of d -> sigma0[d ^ 1]), none shorter than 3."""
    lengths = [len(face) for face in
               cycles([sigma0[d ^ 1] for d in range(len(sigma0))])]
    return len(lengths) == b and min(lengths) >= 3


def reference_plan_from_document(doc):
    """:func:`fillgraph.formats.plan_from_document` as two passes: the
    whole document is checked field by field through ``_require``, then
    read, each step through the :class:`Step` constructor with every
    field given."""
    if not isinstance(doc, dict) or doc.get("format") != PLAN_FORMAT:
        raise FormatError(f"not a {PLAN_FORMAT} document")
    t = doc.get("target")
    _require("plan target", t, dict)
    for k in ("g", "b", "s"):
        _require(f"target {k}", t.get(k), int)
    _require("expect_filling", doc.get("expect_filling", True), bool)
    if doc.get("expect_omega") is not None:
        _require("expect_omega", doc["expect_omega"], int)
    _require("plan steps", doc.get("steps"), list)
    for i, d in enumerate(doc["steps"]):
        _require(f"step {i}", d, dict)
        _require(f"step {i} op", d.get("op"), str)
        for k, kind in _STEP_TYPES.items():
            if d.get(k) is not None:
                _require(f"step {i} {k}", d[k], kind)
        for k in d:
            if k not in _STEP_TYPES:
                raise FormatError(
                    f"step {i} ({d['op']}) has unknown field {k!r}")
        for k in _STEP_FIELDS.get(d["op"], ()):
            if d.get(k) is None:
                raise FormatError(f"step {i} ({d['op']}) needs field {k!r}")
        for c in d.get("vertices") or ():
            _require(f"step {i} vertex cycle", c, list)
    plan = SynthesisPlan(target=(t["g"], t["b"], t["s"]),
                         expect_filling=doc.get("expect_filling", True),
                         expect_omega=doc.get("expect_omega"))
    for d in doc["steps"]:
        vertices = d.get("vertices")
        if vertices is not None:
            vertices = tuple(tuple(c) for c in vertices)
        plan.add(Step(op=d["op"], family=d.get("family"),
                      param=d.get("param"), vertices=vertices,
                      left=d.get("left"), right=d.get("right"),
                      x=d.get("x"), y=d.get("y"),
                      w=d.get("w"), u=d.get("u"),
                      align=d.get("align", 0), flip=d.get("flip", False),
                      arg=d.get("arg")))
    return plan


def reference_shuffled(graph, rng):
    """:meth:`FatGraph.shuffled` computing each dart's image on the fly
    and building the result through the checks of ``FatGraph(...)``; the
    same draws from ``rng`` in the same order."""
    m = graph.num_edges
    edge_perm = list(range(m))
    rng.shuffle(edge_perm)
    flip = [rng.random() < 0.5 for _ in range(m)]

    def img(d):
        k, r = d >> 1, d & 1
        return 2 * edge_perm[k] + (r ^ flip[k])

    n = graph.num_darts
    s0 = [0] * n
    for d in range(n):
        s0[img(d)] = img(graph.sigma0[d])
    labels = [None] * m
    for k in range(m):
        labels[edge_perm[k]] = graph.labels[k]
    return FatGraph(s0, labels)


def reference_is_isomorphic(a, b):
    """:meth:`FatGraph.is_isomorphic` without face screening: each
    component of ``a``, walked from its least dart, is sought in ``b`` by
    the walk from every dart not matched yet."""
    n = a.num_darts
    if n != b.num_darts:
        return False
    s0, t0 = a.sigma0, b.sigma0
    reverse = [d ^ 1 for d in range(n)]
    matched = [False] * n
    free = [True] * n
    for root in range(n):
        if matched[root]:
            continue
        comp, code = _rooted_walk(s0, reverse, root)
        for start in range(n):
            if free[start]:
                image = _rooted_walk(t0, reverse, start, code)
                if image[1] == code:
                    break
        else:
            return False
        for d in comp:
            matched[d] = True
        for d in image[0]:
            free[d] = False
    return True


def reference_pair_candidates(V):
    """The candidates of :func:`fillgraph.synthesis._pair_candidates`
    before it skips any by symmetry, each built whole: for each visit
    order of curve b in the direction kept and each flag tuple of
    ``itertools.product``, all 4V entries of ``sigma0``."""
    if V == 1:
        orders = [(0,)]
    else:
        orders = [(0,) + rest for rest in itertools.permutations(range(1, V))]
    for beta in orders:
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
            yield sigma0


def relabeled(graph, mapping):
    """``graph`` with its edge labels renamed by the total map
    ``mapping``, through the checks of ``FatGraph(...)``."""
    return FatGraph(graph.sigma0, [mapping[nm] for nm in graph.labels])


def dumbbells():
    """Two dumbbells with disjoint labels.  The centre, vertex 0, is a cut
    vertex: strands 1, 2 hold one lobe and strands 3, 4 the other.  It is
    the only vertex without a loop, and the connected sum of the two
    centres disconnects the graph at aligns 0 and 2, where the crosswise
    splice pairs the four lobes into two separate components."""
    dumbbell = FatGraph.from_vertex_cycles([
        ["e1+", "e2+", "e3+", "e4+"],
        ["e1-", "e2-", "a+", "a-"],
        ["e3-", "e4-", "b+", "b-"],
    ])
    return dumbbell, relabeled(dumbbell, {n: n + "'" for n in dumbbell.labels})


def degree_profile(wig):
    """The weighted degree of each curve of the intersection graph
    ``wig``, by curve: the total weight of the pairs that hold it."""
    return [sum(w for (i, j), w in wig.weights.items() if v in (i, j))
            for v in range(wig.num_curves)]


def is_path(wig):
    """True iff the simple graph underlying the intersection graph
    ``wig`` is a path on all its curves."""
    if not wig.is_connected():
        return False
    degs = sorted(len({j for (a, b) in wig.weights for j in (a, b)
                       if v in (a, b) and (j != v)})
                  for v in range(wig.num_curves))
    if wig.num_curves == 1:
        return True
    if wig.num_curves == 2:
        return len(wig.weights) == 1
    return degs[:2] == [1, 1] and all(d == 2 for d in degs[2:])


# -- reference: the label-token construction -------------------------------
#
# Each operation used to write its result as signed label tokens and parse
# them back with FatGraph.from_vertex_cycles.  The dart-level surgery must
# build exactly the same graph: the same sigma0 and the same labels.


def _fresh(name, used):
    while name in used:
        name += "'"
    used.add(name)
    return name


def token_reference(op, left, right, a, b, c):
    """Result graph of ``op(left, right, a, b, c)`` built from tokens."""
    used = set()
    ren_l = {nm: _fresh(nm, used) for nm in left.labels}
    ren_r = {nm: _fresh(nm, used) for nm in right.labels}

    def tokens(g, ren, sub, skip):
        out = []
        for vi, cyc in enumerate(g.vertex_cycles):
            if vi != skip:
                toks = [(g.labels[d >> 1], 1 - 2 * (d & 1)) for d in cyc]
                out.append([sub.get(t, (ren[t[0]], t[1])) for t in toks])
        return out

    extra, skip = [], (None, None)
    if op == "join":
        e, f = _fresh("e", used), _fresh("f", used)
        sub_l = {(a, 1): (e, 1), (a, -1): (f, -1)}
        sub_r = {(b, 1): (e, -1), (b, -1): (f, 1)}
    elif op == "plumb":
        x1, x2, y1, y2 = [_fresh(nm, used)
                          for nm in (a + "1", a + "2", b + "1", b + "2")]
        sub_l = {(a, 1): (x1, 1), (a, -1): (x2, -1)}
        sub_r = {(b, 1): (y1, 1), (b, -1): (y2, -1)}
        extra = [[(x1, -1), (y1, -1), (x2, 1), (y2, 1)]]
    else:
        g = [_fresh(f"g{i + 1}", used) for i in range(4)]
        u_cyc = right.vertex_cycles[b]
        # the reverse of dart i at w becomes g_i+, of dart j at u g_(3-j)-
        sub_l = {(left.labels[d >> 1], 2 * (d & 1) - 1): (g[i], 1)
                 for i, d in enumerate(left.vertex_cycles[a])}
        sub_r = {(right.labels[d >> 1], 2 * (d & 1) - 1): (g[3 - j], -1)
                 for j, d in enumerate(u_cyc[c:] + u_cyc[:c])}
        skip = (a, b)
    if op != "consum" and c:  # flip reverses y before the splice
        sub_r = {(nm, -sg): t for (nm, sg), t in sub_r.items()}
    return FatGraph.from_vertex_cycles(
        tokens(left, ren_l, sub_l, skip[0])
        + tokens(right, ren_r, sub_r, skip[1]) + extra)


def reference_replay(plan):
    """Run ``plan`` step by step twice: through the library's step
    executor, whose surgeries are those of ``ops``, and through
    :func:`token_reference`, each family member and literal built anew
    and each smoothing by :meth:`FatGraph.smoothed` on the reference's
    own graphs.  Returns the index of the first step whose two graphs
    differ in ``sigma0`` or labels, None when every step agrees, and the
    reference's last graph."""
    graphs, ref = [], []
    for i, step in enumerate(plan.steps):
        got = _run_step(step, graphs, [])
        if step.op == "family":
            want = families.build(step.family, step.param)
        elif step.op == "graph":
            want = FatGraph.from_vertex_cycles(step.vertices)
        elif step.op == "smooth":
            want = ref[step.arg].smoothed()
        elif step.op == "consum":
            want = token_reference("consum", ref[step.left],
                                   ref[step.right], step.w, step.u,
                                   step.align)
        else:
            want = token_reference(step.op, ref[step.left], ref[step.right],
                                   step.x, step.y, step.flip)
        ref.append(want)
        if (got.sigma0, got.labels) != (want.sigma0, want.labels):
            return i, want
    return None, ref[-1]
