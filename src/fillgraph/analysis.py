"""Weighted intersection graphs and the intersection-number checkers.

Intersection weights are read off vertex-locally: at a 4-valent vertex the
two opposite strand pairs belong to two curves, and that vertex contributes
one crossing between them: an upper bound on the geometric intersection
number.  Banning bigon *faces*, as the filling predicate does, makes it
exact only when b = 1, where a bigon or annulus between curves would be the
whole surface.  With b >= 2 a third curve can cut a bigon of two curves into
triangles, and two parallel curves can bound an annulus cut into squares.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import FatGraph, FatGraphError, InvariantError


class AnalysisPreconditionError(FatGraphError):
    pass


@dataclass(frozen=True)
class WeightedIntersectionGraph:
    """Vertices are curve indices; weights count pairwise crossings."""

    num_curves: int
    weights: dict  # (i, j) with i < j -> positive int

    def omega_max(self):
        return max(self.weights.values(), default=0)

    def total_weight(self):
        return sum(self.weights.values())

    def is_connected(self):
        if self.num_curves <= 1:
            return True
        adj = {v: set() for v in range(self.num_curves)}
        for (i, j) in self.weights:
            adj[i].add(j)
            adj[j].add(i)
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.num_curves

    def as_matrix(self):
        mat = [[0] * self.num_curves for _ in range(self.num_curves)]
        for (i, j), w in self.weights.items():
            mat[i][j] = mat[j][i] = w
        return mat


def intersection_graph(graph: FatGraph) -> WeightedIntersectionGraph:
    """Pairwise crossing counts of the standard cycles.

    Requires a decorated 4-regular graph whose curves are simple; a curve
    crossing itself is rejected by name.
    """
    if not graph.is_decorated:
        raise AnalysisPreconditionError("graph is not decorated")
    if not graph.is_four_regular:
        raise AnalysisPreconditionError("graph is not 4-regular")
    revisit = graph.first_revisit()
    if revisit is not None:
        raise AnalysisPreconditionError(
            f"standard cycle {revisit[0]} crosses itself")
    coe = graph.curve_of_edge
    weights = {}
    for cyc in graph.vertex_cycles:
        a = coe[cyc[0] >> 1]
        b = coe[cyc[1] >> 1]
        if a == b:
            raise InvariantError(
                "simple curves cannot share both strands of a vertex")
        key = (a, b) if a < b else (b, a)
        weights[key] = weights.get(key, 0) + 1
    return WeightedIntersectionGraph(len(graph.curve_lengths), weights)


def _require_filling(graph, b_required=None):
    ok, diags = graph.is_filling_system()
    if not ok:
        raise AnalysisPreconditionError(f"not a filling system: {diags[0]}")
    sig = graph.signature()
    if b_required is not None and sig.boundary_count != b_required:
        raise AnalysisPreconditionError(
            f"need b={b_required}, graph has b={sig.boundary_count}")
    return sig


@dataclass(frozen=True)
class BoundCheck:
    name: str
    value: int
    bound: int
    passed: bool
    details: dict

    def __str__(self):
        verdict = "ok" if self.passed else "FAIL"
        return f"{self.name}: {self.value} vs {self.bound} [{verdict}]"


def check_max_weight_bound(graph: FatGraph) -> BoundCheck:
    """On a minimal filling of genus g with s curves, the largest pairwise
    intersection number is at most 2g-s+1."""
    sig = _require_filling(graph, b_required=1)
    wig = intersection_graph(graph)
    bound = 2 * sig.genus - sig.standard_cycle_count + 1
    wmax = wig.omega_max()
    return BoundCheck(
        name="omega_max <= 2g-s+1", value=wmax, bound=bound,
        passed=wmax <= bound,
        details={"signature": sig.triple, "connected_wig": wig.is_connected(),
                 "equality": wmax == bound})


def check_euler_identity(graph: FatGraph) -> BoundCheck:
    """Total pairwise intersection number of a filling equals 2g-2+b."""
    sig = _require_filling(graph)
    wig = intersection_graph(graph)
    total = wig.total_weight()
    want = 2 * sig.genus - 2 + sig.boundary_count
    return BoundCheck(
        name="sum of weights = 2g-2+b", value=total, bound=want,
        passed=total == want,
        details={"signature": sig.triple, "vertex_count": sig.vertex_count})


def check_kn_bound(graph: FatGraph) -> BoundCheck:
    """Advisory: with k the max pairwise intersection number and n the size,
    a minimal filling satisfies k(n^2 - n) >= 4g - 2 (cited result)."""
    sig = _require_filling(graph, b_required=1)
    wig = intersection_graph(graph)
    k = wig.omega_max()
    n = sig.standard_cycle_count
    lhs = k * (n * n - n)
    rhs = 4 * sig.genus - 2
    return BoundCheck(
        name="k(n^2-n) >= 4g-2 (advisory)", value=lhs, bound=rhs,
        passed=lhs >= rhs, details={"k": k, "n": n})
