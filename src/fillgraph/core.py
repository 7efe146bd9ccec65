"""Fat graphs as permutation pairs on directed edges.

A fat graph is stored as a rotation permutation ``sigma0`` on a dense set of
directed edges (darts).  Undirected edge ``k`` owns the two darts ``2k`` and
``2k + 1``; direction reversal is the fixed point free involution
``d -> d ^ 1``, which therefore never needs to be stored.

Derived structure:

* vertices are the cycles of ``sigma0``;
* boundary components are the cycles of ``sigma1 * sigma0^-1``, traversed and
  printed here in word order, i.e. by the successor ``d -> sigma0[d ^ 1]``
  (same orbits, and the traversal reproduces boundary words of the source
  constructions literally);
* standard cycles (the curves of a filling system) are the orbits of the
  straight-ahead successor ``d -> sigma0^k(d ^ 1)`` at a degree ``2k`` vertex,
  taken up to orientation reversal.

Graphs are immutable; every operation returns a fresh value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


class FatGraphError(ValueError):
    """Base class for malformed input or unsupported structure."""


class MalformedGraphError(FatGraphError):
    pass


class DegreeError(FatGraphError):
    pass


class NotDecoratedError(FatGraphError):
    """Raised when an odd degree vertex blocks a curve computation."""


class DisconnectedError(FatGraphError):
    pass


class InvariantError(AssertionError):
    """An internal invariant failed: a bug, not bad input.  Raised
    explicitly so that it survives ``python -O``."""


def _parse_token(tok):
    """Signed edge label -> (name, sign, occurrence).

    Accepts "x+", "x-", and the loop disambiguated forms "x+#0" / "x+#1"
    (same signed label twice at one vertex).  Unicode minus is tolerated.
    """
    if isinstance(tok, tuple):
        name, sign = tok
        return str(name), (1 if sign > 0 else -1), None
    s = str(tok)
    occ = None
    if "#" in s:
        s, _, tag = s.partition("#")
        if tag not in ("0", "1"):
            raise MalformedGraphError(f"bad occurrence tag in {tok!r}")
        occ = int(tag)
    s = s.replace("−", "-")
    if len(s) < 2 or s[-1] not in "+-":
        raise MalformedGraphError(f"signed edge label expected, got {tok!r}")
    return s[:-1], (1 if s[-1] == "+" else -1), occ


@dataclass(frozen=True)
class SurfaceSignature:
    """Bookkeeping triple of a connected fat graph plus structural flags.

    Satisfies V - m + b = 2 - 2g.  ``s`` is None when the graph is not
    decorated (some vertex of odd degree).  Whether the graph is a filling
    system is :meth:`FatGraph.is_filling_system`'s answer, not part of the
    signature.
    """

    genus: int
    boundary_count: int
    standard_cycle_count: int | None
    vertex_count: int
    edge_count: int
    is_four_regular: bool
    is_decorated: bool

    @property
    def triple(self):
        return (self.genus, self.boundary_count, self.standard_cycle_count)

    def __str__(self):
        s = "-" if self.standard_cycle_count is None else self.standard_cycle_count
        return f"g={self.genus} b={self.boundary_count} s={s}"


def _orbits(succ, make=tuple):
    """Cycles of the permutation ``succ`` of 0..n-1, each starting at its
    least element and passed through ``make``, listed in increasing order
    of that element."""
    n = len(succ)
    seen = [False] * n
    out = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        cyc = [s]
        d = succ[s]
        while d != s:
            seen[d] = True
            cyc.append(d)
            d = succ[d]
        out.append(make(cyc))
    return tuple(out)


class BoundaryCycle(tuple):
    """Orbit of the boundary permutation, as a dart tuple in word order."""

    def word(self, graph):
        return tuple(graph.dart_name(d) for d in self)

    def length(self):
        return len(self)


class StandardCycle(tuple):
    """One curve: darts along a straight-ahead traversal, one per edge used."""

    def edges(self):
        return tuple(d >> 1 for d in self)

    def word(self, graph):
        return tuple(graph.dart_name(d) for d in self)


def canonical_code(sigma0, sigma1):
    """(code, automorphisms) of the connected map (sigma0, sigma1).

    From every start dart, darts are numbered in breadth-first order of
    first sight along sigma0 then sigma1, and the code lists the numbers
    of each dart's two images.  The code is the lexicographically least
    over all starts; it determines the pair of permutations up to dart
    relabeling.  Two starts give the same code exactly when an
    automorphism maps one to the other, so the number of starts reaching
    the least code is the order of the automorphism group.

    The code packs one byte per number up to 256 darts and the fewest
    big-endian bytes that hold ``n - 1`` beyond; the length of a code
    therefore fixes its dart count and width, so codes of different sizes
    never collide.
    """
    n = len(sigma0)
    best = None
    automorphisms = 0
    for start in range(n):
        newlab = [-1] * n
        newlab[start] = 0
        order = [start]
        code = []
        tied = best is not None  # equal to best on the code emitted so far
        worse = False
        for cur in order:  # order grows while it is walked
            for img in (sigma0[cur], sigma1[cur]):
                lab = newlab[img]
                if lab < 0:
                    lab = newlab[img] = len(order)
                    order.append(img)
                if tied:
                    ref = best[len(code)]
                    if lab > ref:
                        worse = True
                        break
                    tied = lab == ref
                code.append(lab)
            if worse:
                break
        if worse:
            continue
        if best is None and len(order) < n:
            raise DisconnectedError(
                "canonical code of a disconnected graph is not defined")
        if tied:
            automorphisms += 1
        else:
            best, automorphisms = code, 1
    width = ((n - 1).bit_length() + 7) // 8
    if width <= 1:
        return bytes(best), automorphisms
    return b"".join(lab.to_bytes(width, "big") for lab in best), automorphisms


def _rooted_walk(sigma0, root, code=None):
    """(darts, code) of the component of ``root``.

    The darts are listed in breadth-first order of first sight along
    sigma0 then ``d -> d ^ 1``, numbered by that order, and the code lists
    the numbers of each dart's two images: the code of one start in
    :func:`canonical_code`.  Given the ``code`` of another walk, this walk
    returns None at the first number that differs from it.  A walk that
    returns has reproduced ``code`` whole, so numbering by the two walks
    is an isomorphism between the two components, sending root to root.
    """
    lab = [-1] * len(sigma0)
    lab[root] = 0
    order = [root]
    out = [] if code is None else code
    pos = 0
    for cur in order:  # order grows while it is walked
        for img in (sigma0[cur], cur ^ 1):
            num = lab[img]
            if num < 0:
                num = lab[img] = len(order)
                order.append(img)
            if code is None:
                out.append(num)
            elif code[pos] != num:
                return None
            pos += 1
    return order, out


class FatGraph:
    """Immutable fat graph; construct via :meth:`from_vertex_cycles`."""

    def __init__(self, sigma0, labels):
        sigma0 = tuple(sigma0)
        n = len(sigma0)
        if not n:
            raise MalformedGraphError("a fat graph needs at least one edge")
        if n % 2:
            raise MalformedGraphError("odd number of darts")
        if sorted(sigma0) != list(range(n)):
            raise MalformedGraphError("sigma0 is not a permutation of the darts")
        self._sigma0 = sigma0
        self._labels = tuple(labels)
        if len(self._labels) != n // 2:
            raise MalformedGraphError("one label per undirected edge required")
        if len(set(self._labels)) != len(self._labels):
            raise MalformedGraphError("duplicate edge labels")
        self._signature = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_vertex_cycles(cls, vertex_cycles, labels=None):
        """Build from cyclic sequences of signed edge labels.

        Each undirected label must appear exactly twice over all cycles; a
        label seen as "x+" pairs with "x-", and a loop written with one sign
        twice needs "#0"/"#1" occurrence tags.  Cycles shorter than 2 are
        rejected.
        """
        edge_ids: dict[str, int] = {}
        used: dict[int, bool] = {}
        dart_cycles = []
        for cyc in vertex_cycles:
            cyc = list(cyc)
            if len(cyc) < 2:
                raise DegreeError(
                    f"vertex cycle {cyc!r} has degree {len(cyc)} < 2")
            darts = []
            for tok in cyc:
                name, sign, occ = _parse_token(tok)
                if name not in edge_ids:
                    edge_ids[name] = len(edge_ids)
                k = edge_ids[name]
                d = 2 * k + (0 if sign > 0 else 1)
                if occ is not None:
                    # tagged loop occurrence: #0 is the forward dart
                    d = 2 * k + occ
                if used.get(d):
                    if occ is None and not used.get(d ^ 1):
                        raise MalformedGraphError(
                            f"edge {name!r} appears twice with the same sign; "
                            "use '#0'/'#1' occurrence tags")
                    raise MalformedGraphError(
                        f"edge {name!r} appears more than twice")
                used[d] = True
                darts.append(d)
            dart_cycles.append(darts)
        n = 2 * len(edge_ids)
        if len(used) != n:
            missing = [nm for nm, k in edge_ids.items()
                       if not (used.get(2 * k) and used.get(2 * k + 1))]
            raise MalformedGraphError(
                f"edges appearing only once: {sorted(missing)}")
        sigma0 = [0] * n
        for darts in dart_cycles:
            for i, d in enumerate(darts):
                sigma0[d] = darts[(i + 1) % len(darts)]
        names = [None] * (n // 2)
        for nm, k in edge_ids.items():
            names[k] = nm
        return cls(sigma0, names)

    # -- basic structure ---------------------------------------------------

    @property
    def sigma0(self):
        return self._sigma0

    @property
    def labels(self):
        return self._labels

    @property
    def num_darts(self):
        return len(self._sigma0)

    @property
    def num_edges(self):
        return len(self._sigma0) // 2

    def edge_id(self, label):
        try:
            return self._labels.index(label)
        except ValueError:
            raise MalformedGraphError(f"no edge named {label!r}") from None

    def has_edge(self, label):
        return label in self._labels

    def darts_of(self, label):
        k = self.edge_id(label)
        return 2 * k, 2 * k + 1

    def dart_name(self, d):
        return self._labels[d >> 1] + ("+" if d % 2 == 0 else "-")

    @cached_property
    def vertex_cycles(self):
        """sigma0 orbits as dart tuples, each starting at its least dart,
        listed in increasing order of that least dart."""
        return _orbits(self._sigma0)

    @cached_property
    def vertex_of(self):
        vo = [0] * self.num_darts
        for i, cyc in enumerate(self.vertex_cycles):
            for d in cyc:
                vo[d] = i
        return tuple(vo)

    @property
    def num_vertices(self):
        return len(self.vertex_cycles)

    def degree(self, v):
        return len(self.vertex_cycles[v])

    @cached_property
    def is_connected(self):
        nv = self.num_vertices
        if nv <= 1:
            return True
        vo = self.vertex_of
        cycles = self.vertex_cycles
        seen = [False] * nv
        seen[0] = True
        stack = [0]
        cnt = 1
        while stack:
            for d in cycles[stack.pop()]:
                w = vo[d ^ 1]
                if not seen[w]:
                    seen[w] = True
                    cnt += 1
                    stack.append(w)
        return cnt == nv

    @cached_property
    def is_decorated(self):
        return all(len(c) % 2 == 0 for c in self.vertex_cycles)

    @cached_property
    def is_four_regular(self):
        return all(len(c) == 4 for c in self.vertex_cycles)

    def loops_at(self, v):
        darts = self.vertex_cycles[v]
        return [d >> 1 for d in darts if (d ^ 1) in darts and d % 2 == 0]

    # -- derived cycles ----------------------------------------------------

    @cached_property
    def boundary_successor(self):
        """Word-order boundary successor d -> sigma0[d ^ 1], by dart."""
        s0 = self._sigma0
        return tuple([s0[d ^ 1] for d in range(len(s0))])

    @cached_property
    def boundary_cycles(self):
        """Cycles of sigma1 * sigma0^-1 in word order (successor
        d -> sigma0[d ^ 1]), each starting at its least dart."""
        return _orbits(self.boundary_successor, BoundaryCycle)

    @cached_property
    def boundary_component_of(self):
        """dart -> index into boundary_cycles."""
        out = [0] * self.num_darts
        for i, cyc in enumerate(self.boundary_cycles):
            for d in cyc:
                out[d] = i
        return tuple(out)

    @cached_property
    def standard_successor(self):
        """Straight-ahead successor d -> sigma0^k(d ^ 1) at a degree 2k
        vertex, by dart.  Raises :class:`NotDecoratedError` when some
        vertex has odd degree.

        At a vertex cycle ``c`` of degree 2k, the dart entering through
        ``c[i]`` (that is ``c[i] ^ 1``) leaves through the opposite dart
        ``c[i + k]``, which is ``c[i - k]``."""
        out = [0] * self.num_darts
        for vi, cyc in enumerate(self.vertex_cycles):
            k, odd = divmod(len(cyc), 2)
            if odd:
                raise NotDecoratedError(
                    f"vertex {vi} has odd degree {len(cyc)}")
            for i, d in enumerate(cyc):
                out[d ^ 1] = cyc[i - k]
        return tuple(out)

    @cached_property
    def standard_orbits(self):
        """All orbits of the straight-ahead successor (2s of them)."""
        return _orbits(self.standard_successor)

    @cached_property
    def standard_cycles(self):
        """Curves: orbits quotiented by orientation reversal.  Each curve is
        reported once, traversed from its least dart.

        Reversing an orbit gives an orbit, so an orbit is kept exactly when
        its mirror comes later in ``standard_orbits``.
        """
        orbits = self.standard_orbits
        orbit_of = [0] * self.num_darts
        for i, orb in enumerate(orbits):
            for d in orb:
                orbit_of[d] = i
        reps = []
        for i, orb in enumerate(orbits):
            mirror = orbit_of[orb[0] ^ 1]
            if mirror == i:
                raise InvariantError(
                    "orientation reversal fixes a curve orbit")
            if mirror > i:
                reps.append(StandardCycle(orb))
        return tuple(reps)

    @cached_property
    def curve_of_edge(self):
        """undirected edge -> index into standard_cycles."""
        out = [None] * self.num_edges
        for i, cyc in enumerate(self.standard_cycles):
            for d in cyc:
                out[d >> 1] = i
        return tuple(out)

    # -- signature and validity --------------------------------------------

    def signature(self):
        """The graph's :class:`SurfaceSignature`, computed on the first
        call and returned as the same value after it.  A disconnected graph
        raises :class:`DisconnectedError` on every call."""
        if self._signature is None:
            self._signature = self._compute_signature()
        return self._signature

    def _compute_signature(self):
        if not self.is_connected:
            raise DisconnectedError(
                "genus of a disconnected thickening is not defined")
        V = self.num_vertices
        m = self.num_edges
        b = len(self.boundary_cycles)
        twog = 2 - b - V + m
        if twog % 2 or twog < 0:
            raise InvariantError(f"bad Euler data V={V} m={m} b={b}")
        s = len(self.standard_cycles) if self.is_decorated else None
        return SurfaceSignature(
            genus=twog // 2, boundary_count=b, standard_cycle_count=s,
            vertex_count=V, edge_count=m,
            is_four_regular=self.is_four_regular,
            is_decorated=self.is_decorated)

    def is_filling_system(self):
        """(verdict, diagnostics).  True iff connected, 4-regular, all curves
        simple, and no boundary face of length < 3 (monogon or bigon)."""
        diags = []
        if not self.is_connected:
            diags.append("not connected")
        elif not self.is_four_regular:
            bad = next(i for i, c in enumerate(self.vertex_cycles)
                       if len(c) != 4)
            diags.append(f"not 4-regular: vertex {bad} has degree "
                         f"{self.degree(bad)}")
        else:
            revisit = self.first_revisit()
            if revisit is not None:
                curve, v = revisit
                diags.append(f"curve {curve} revisits vertex {v}")
            else:
                for i, cyc in enumerate(self.boundary_cycles):
                    if len(cyc) < 3:
                        diags.append(
                            f"boundary face {i} has length {len(cyc)} < 3")
                        break
        return (not diags), diags

    def first_revisit(self):
        """(curve, vertex) for the first standard cycle that passes some
        vertex twice, naming the first such vertex along the curve; None
        when every curve is simple.  Raises :class:`NotDecoratedError`
        when some vertex has odd degree."""
        vo = self.vertex_of
        for i, cyc in enumerate(self.standard_cycles):
            visits = [vo[d] for d in cyc]
            if len(set(visits)) != len(visits):
                return i, next(v for v in visits if visits.count(v) > 1)
        return None

    # -- isomorphism --------------------------------------------------------

    def canonical_form(self):
        """Lexicographically least BFS relabeling code over all start darts.

        The code determines (sigma0, sigma1) up to dart relabeling, so equal
        codes mean isomorphic fat graphs.  Raises :class:`DisconnectedError`
        for a disconnected graph, whose code would describe one component.
        """
        return canonical_code(self._sigma0,
                              [d ^ 1 for d in range(self.num_darts)])[0]

    def is_isomorphic(self, other):
        """True iff a dart bijection carries ``sigma0`` to ``other.sigma0``
        and commutes with ``d -> d ^ 1``.

        Each component of this graph is walked once from its least dart
        (:func:`_rooted_walk`).  Its code is then sought in ``other`` by
        the same walk from each dart not matched yet, and the first start
        that reproduces it matches the two components.  Isomorphism of
        components is an equivalence relation, so this greedy pairing
        succeeds exactly when the components pair up isomorphically.
        """
        n = self.num_darts
        if n != other.num_darts:
            return False
        s0, t0 = self._sigma0, other._sigma0
        matched = [False] * n  # darts of self in a matched component
        free = [True] * n  # darts of other outside every matched component
        for root in range(n):
            if matched[root]:
                continue
            comp, code = _rooted_walk(s0, root)
            for start in range(n):
                if free[start]:
                    image = _rooted_walk(t0, start, code)
                    if image is not None:
                        break
            else:
                return False
            for d in comp:
                matched[d] = True
            for d in image[0]:
                free[d] = False
        return True

    # -- transformations ----------------------------------------------------

    def to_vertex_cycle_tokens(self):
        """Vertex cycles as signed label tokens, in a canonical order:
        each cycle starts at its lexicographically least rotation and the
        cycles are sorted.  Reparsing the tokens and serializing again is
        the identity, which makes file round trips byte exact."""
        out = []
        for cyc in self.vertex_cycles:
            toks = [self.dart_name(d) for d in cyc]
            k = min(range(len(toks)), key=lambda i: toks[i:] + toks[:i])
            out.append(toks[k:] + toks[:k])
        out.sort()
        return out

    def relabeled(self, mapping):
        """New graph with edge labels renamed via ``mapping`` (total map)."""
        return FatGraph(self._sigma0, [mapping[nm] for nm in self._labels])

    def shuffled(self, rng):
        """Random dart relabeling preserving the graph, for tests."""
        m = self.num_edges
        edge_perm = list(range(m))
        rng.shuffle(edge_perm)
        flip = [rng.random() < 0.5 for _ in range(m)]

        def img(d):
            k, r = d >> 1, d & 1
            return 2 * edge_perm[k] + (r ^ flip[k])

        n = self.num_darts
        s0 = [0] * n
        for d in range(n):
            s0[img(d)] = img(self._sigma0[d])
        labels = [None] * m
        for k in range(m):
            labels[edge_perm[k]] = self._labels[k]
        return FatGraph(s0, labels)

    def smoothed(self):
        """Suppress all degree 2 vertices by merging their edge pairs.

        Needed after plumbing with the sphere circle, whose vertex is a plain
        curve point rather than a crossing once the graphs merge.
        The merged edge keeps the label of the lower numbered edge.
        """
        cycles = [list(c) for c in self.vertex_cycles]
        while True:
            idx = next((i for i, c in enumerate(cycles) if len(c) == 2), None)
            if idx is None:
                break
            a, b = cycles[idx]
            if a == (b ^ 1):
                raise DegreeError(
                    "cannot smooth a bivalent vertex whose edges coincide")
            # the curve runs rev(a) -> vertex -> b: identify rev(a) with b
            # by replacing darts of edge max(a,b)>>1 with those of the other
            keep, drop = (a ^ 1, b) if (a >> 1) < (b >> 1) else (b ^ 1, a)
            # keep and drop point the same way along the curve
            sub = {drop: keep, drop ^ 1: keep ^ 1}
            del cycles[idx]
            cycles = [[sub.get(d, d) for d in c] for c in cycles]
        kept_edges = sorted({d >> 1 for c in cycles for d in c})
        renum = {k: i for i, k in enumerate(kept_edges)}
        n = 2 * len(kept_edges)
        s0 = [0] * n
        for c in cycles:
            for i, d in enumerate(c):
                nd = 2 * renum[d >> 1] + (d & 1)
                nx = c[(i + 1) % len(c)]
                s0[nd] = 2 * renum[nx >> 1] + (nx & 1)
        labels = [self._labels[k] for k in kept_edges]
        return FatGraph(s0, labels)

    # -- dunder -------------------------------------------------------------

    def __copy__(self):
        """A distinct graph equal to this one that shares every structure
        computed so far (all of it immutable) instead of recomputing it."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        return twin

    def __eq__(self, other):
        return (isinstance(other, FatGraph)
                and self._sigma0 == other._sigma0
                and self._labels == other._labels)

    def __hash__(self):
        return hash((self._sigma0, self._labels))

    def __repr__(self):
        cyc = ", ".join(
            "(" + " ".join(self.dart_name(d) for d in c) + ")"
            for c in self.vertex_cycles)
        return f"FatGraph[{cyc}]"
