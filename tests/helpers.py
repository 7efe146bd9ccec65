"""Shared test helpers: the synthesis grid, a reference isomorphism
invariant and a reference walk for the census lookup of the search."""

from fillgraph.core import canonical_code
from fillgraph.oracle import iter_matchings, matching_to_graph
from fillgraph.synthesis import (_diff_boundary_edge, _same_boundary_edge,
                                 filling, lower_bound, minimal_filling,
                                 tight_omega_filling, upper_bound)


def grid_plans(gmax, bmax, tight_gmax):
    """Plans of every admissible (g, b, s) with g <= gmax and b <= bmax,
    then the tight plans with g <= tight_gmax, in a fixed order; each plan
    is built when the generator reaches it."""
    for g in range(2, gmax + 1):
        for b in range(1, bmax + 1):
            for s in range(lower_bound(g, b), upper_bound(g, b) + 1):
                if (g, b, s) != (2, 1, 2):
                    yield (minimal_filling(g, s) if b == 1
                           else filling(g, b, s))
    for g in range(2, tight_gmax + 1):
        for s in range(lower_bound(g, 1), 2 * g + 1):
            yield tight_omega_filling(g, s)


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


def first_matching_graph(V, target, need_same_boundary_edge=False,
                         need_diff_boundary_edge=False):
    """The first graph of a walk over the connected matchings on V
    vertices that is a filling with signature ``target`` and passes the
    boundary-edge flags, or None: the brute-force search that the census
    lookup of ``search_filling`` replaces."""
    for match in iter_matchings(V, connected_only=True):
        graph = matching_to_graph(V, match)
        if not graph.is_filling_system()[0]:
            continue
        if graph.signature().triple != tuple(target):
            continue
        if need_same_boundary_edge and _same_boundary_edge(graph) is None:
            continue
        if need_diff_boundary_edge and _diff_boundary_edge(graph) is None:
            continue
        return graph
    return None
