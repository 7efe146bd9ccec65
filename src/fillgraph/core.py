"""Fat graphs as permutation pairs on directed edges.

A fat graph is stored as a rotation permutation ``sigma0`` on a dense set of
directed edges (darts).  Undirected edge ``k`` owns the two darts ``2k`` and
``2k + 1``; direction reversal is the fixed point free involution
``d -> d ^ 1``, which therefore never needs to be stored.

Derived structure:

* vertices are the cycles of ``sigma0``;
* boundary components (faces) are the cycles of ``sigma1 * sigma0^-1``,
  labelled here by the word-order successor ``d -> sigma0[d ^ 1]`` (same
  orbits; along it a face reads as the boundary words of the source
  constructions);
* standard cycles (the curves of a filling system) are the orbits of the
  straight-ahead successor ``d -> sigma0^k(d ^ 1)`` at a degree ``2k`` vertex,
  taken up to orientation reversal.

Faces and curves are numbered by least dart: face ``k`` is the ``k``-th
face in increasing order of its least dart, and curve ``k`` the ``k``-th
kept straight-ahead orbit in that order.

The signature (g, b, s) is counted, not listed: one breadth-first walk
over the vertices (:func:`_vertex_walk`), then one labeller,
:func:`_orbit_labels`, marks each dart with its boundary component and
with its straight-ahead orbit in flat arrays, building no cycle tuple.
Each successor has one cached record, which all its readers read:
``_face_orbits`` (the face labels) and ``_curve_orbits`` (the curve
labels, the straight-ahead successor and the orbit kept of each mirror
pair), and ``_positions`` holds each dart's place along both orbits,
for the connected sum's side records.  Faces and curves exist only as
these labels; the one cycle tuple is ``vertex_cycles``, built by
:func:`_orbits` when a caller reads it.

Graphs are immutable; every operation returns a fresh value.
"""

from __future__ import annotations

from collections import namedtuple


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


class _cached:
    """A read-only attribute computed by the wrapped method on the first
    read and stored in the instance ``__dict__``, where every later read
    finds it without calling this descriptor.

    Unlike :class:`functools.cached_property` (CPython 3.11) it takes no
    lock.  The library is single-threaded, and the values cached are
    immutable functions of the graph, so two threads reading one
    attribute for the first time at once would at worst compute the same
    value twice."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def _parse_token(tok):
    """Signed edge label -> (name, sign, occurrence).

    Accepts "x+", "x-", the loop disambiguated forms "x+#0" / "x+#1"
    (same signed label twice at one vertex), and the tuples (name, 1) and
    (name, -1).  Unicode minus is tolerated.
    """
    if isinstance(tok, tuple):
        if len(tok) != 2 or tok[1] not in (1, -1):
            raise MalformedGraphError(
                f"(name, 1) or (name, -1) expected, got {tok!r}")
        return str(tok[0]), (1 if tok[1] > 0 else -1), None
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


class SurfaceSignature(namedtuple("SurfaceSignature", (
        "genus", "boundary_count", "standard_cycle_count", "vertex_count",
        "edge_count", "is_four_regular", "is_decorated"))):
    """Bookkeeping triple of a connected fat graph plus structural flags.

    Satisfies V - m + b = 2 - 2g.  ``s`` is None when the graph is not
    decorated (some vertex of odd degree).  Whether the graph is a filling
    system is :meth:`FatGraph.is_filling_system`'s answer, not part of the
    signature.
    """

    __slots__ = ()

    @property
    def triple(self):
        return (self.genus, self.boundary_count, self.standard_cycle_count)

    def __str__(self):
        s = "-" if self.standard_cycle_count is None else self.standard_cycle_count
        return f"g={self.genus} b={self.boundary_count} s={s}"


def _orbits(succ, count=None):
    """Cycles of the permutation ``succ`` of 0..n-1 as tuples, each
    starting at its least element, listed in increasing order of that
    element; with ``count``, only the first ``count`` of them, walking
    no other."""
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
        out.append(tuple(cyc))
        if len(out) == count:
            break
    return tuple(out)


def _vertex_walk(sigma0):
    """(V, connected, four_regular, decorated) of the map with rotation
    ``sigma0`` and reversal ``d -> d ^ 1``.

    The vertices are walked breadth first from dart 0 across ``d ^ 1``;
    the map is connected when that walk marks every dart.  The vertices it
    missed are walked after it, so V and the two degree flags (every
    degree 4; every degree even) cover the whole map either way.  Each
    sigma0 orbit is traversed once.
    """
    n = len(sigma0)
    seen = bytearray(n)
    V = 0
    four = even = connected = True
    queue = [0]
    while True:
        for start in queue:  # queue grows while it is walked
            if seen[start]:
                continue
            V += 1
            seen[start] = 1
            queue.append(start ^ 1)
            deg = 1
            d = sigma0[start]
            while d != start:
                seen[d] = 1
                queue.append(d ^ 1)
                deg += 1
                d = sigma0[d]
            if deg != 4:
                four = False
                if deg & 1:
                    even = False
        rest = seen.find(0)
        if rest < 0:
            return V, connected, four, even
        connected = False
        queue = [rest]


def _face_successor(sigma0):
    """The boundary successor d -> sigma0[d ^ 1] as a list, by slices."""
    succ = list(sigma0)
    succ[::2] = sigma0[1::2]
    succ[1::2] = sigma0[::2]
    return succ


def _orbit_labels(succ):
    """(starts, labels) of the permutation ``succ`` of 0..n-1: the least
    element of each cycle in increasing order, and by element the index
    of its cycle in ``starts``, so cycles are numbered as :func:`_orbits`
    lists them."""
    labels = [-1] * len(succ)
    starts = []
    for s in range(len(succ)):
        if labels[s] < 0:
            k = len(starts)
            starts.append(s)
            d = s
            while labels[d] < 0:
                labels[d] = k
                d = succ[d]
    return starts, labels


def _orbit_positions(succ, starts):
    """By element, its place along its cycle of the permutation ``succ``,
    counted from the cycle's element in ``starts`` (one per cycle, as
    :func:`_orbit_labels` lists them), which is at place 0."""
    pos = [0] * len(succ)
    for s in starts:
        i = 1
        d = succ[s]
        while d != s:
            pos[d] = i
            i += 1
            d = succ[d]
    return pos


def canonical_code(sigma0, sigma1, walked=None):
    """(code, automorphisms) of the connected map (sigma0, sigma1).

    The code of a start dart is :func:`_rooted_walk`'s code from it, and
    the canonical code is the lexicographically least over all starts; it
    determines the pair of permutations up to dart relabeling.  Two
    starts give the same code exactly when an automorphism maps one to
    the other, so the number of starts reaching the least code is the
    order of the automorphism group.

    ``walked`` maps start darts to their full codes, walked already by
    the caller (the census passes its shortest-face roots); without it,
    dart 0 is walked in full.  Every other start is walked against the
    least code so far, so it stops at its first dart that differs from
    it, and only a start with a smaller code is walked again in full.
    The least code and the number of starts reaching it do not depend on
    the order the starts are taken in, so the result is the same with or
    without ``walked``.  Raises :class:`DisconnectedError` when a full
    walk misses a dart.

    The code packs one byte per number up to 256 darts and the fewest
    big-endian bytes that hold ``n - 1`` beyond; the length of a code
    therefore fixes its dart count and width, so codes of different sizes
    never collide.
    """
    n = len(sigma0)
    if not walked:
        walked = {0: _rooted_walk(sigma0, sigma1, 0)[1]}
    best = min(walked.values())
    if len(best) < 2 * n:
        raise DisconnectedError(
            "canonical code of a disconnected graph is not defined")
    automorphisms = sum(code == best for code in walked.values())
    for start in range(n):
        if start in walked:
            continue
        code = _rooted_walk(sigma0, sigma1, start, best)[1]
        if code == best:
            automorphisms += 1
        elif code < best:
            best = _rooted_walk(sigma0, sigma1, start)[1]
            automorphisms = 1
    width = ((n - 1).bit_length() + 7) // 8
    if width <= 1:
        return bytes(best), automorphisms
    return b"".join(lab.to_bytes(width, "big") for lab in best), automorphisms


def _rooted_walk(sigma0, sigma1, root, code=None):
    """(darts, code) of the component of ``root`` in the map (sigma0,
    sigma1).

    The darts are listed in breadth-first order of first sight along
    sigma0 then sigma1 and numbered by that order; the code lists the
    numbers of each dart's two images.  Given the ``code`` of another
    walk, this walk stops after the first dart whose two numbers differ
    from it, so the code returned equals ``code`` only when the walk
    reproduced it whole, and otherwise compares with ``code`` as the full
    code would.  Two walks with equal codes number an isomorphism between
    the two components, sending root to root.
    """
    lab = [-1] * len(sigma0)
    lab[root] = 0
    order = [root]
    out = []
    pos = 0
    for cur in order:  # order grows while it is walked
        img = sigma0[cur]
        a = lab[img]
        if a < 0:
            a = lab[img] = len(order)
            order.append(img)
        img = sigma1[cur]
        b = lab[img]
        if b < 0:
            b = lab[img] = len(order)
            order.append(img)
        out.append(a)
        out.append(b)
        if code is not None:
            if code[pos] != a or code[pos + 1] != b:
                break
            pos += 2
    return order, out


def _packed(numbers, bound):
    """The tuple ``numbers``, each below ``bound``, as bytes: one byte a
    number when ``bound`` is at most 256, two (in the machine's order) up
    to 65,536, and beyond that the tuple itself.  :func:`_unpacked` reads
    it back."""
    if bound <= 256:
        return bytes(numbers)
    if bound <= 65536:
        # imported here: no graph of the benchmarks or of a plain start
        # reaches 256 darts, and loading the module costs start-up time
        from array import array
        return array("H", numbers).tobytes()
    return numbers


def _unpacked(packed, bound):
    """The tuple of numbers below ``bound`` that :func:`_packed` made."""
    if 256 < bound <= 65536:
        from array import array
        return tuple(array("H", packed))
    return tuple(packed)


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
        for label in self._labels:
            # the graph file writes a label with a sign, "#" starts an
            # occurrence tag and U+2212 reads back as "-"
            if not (isinstance(label, str) and label) or "#" in label \
                    or "−" in label:
                raise MalformedGraphError(
                    "an edge label is a non-empty string without '#' or "
                    f"'−', got {label!r}")
        if len(set(self._labels)) != len(self._labels):
            raise MalformedGraphError("duplicate edge labels")
        self._signature = None

    # -- construction ------------------------------------------------------

    @classmethod
    def _built(cls, sigma0, labels):
        """The graph on ``sigma0`` and ``labels`` without the checks of
        ``FatGraph(...)``, for a builder that proves them itself.

        The callers, each with the proof in its docstring that ``sigma0``
        is a permutation of ``0..2m-1`` and the ``m >= 1`` labels are
        distinct.  Their labels are valid because they are made from the
        labels of graphs that hold them: a surgery primes them with
        ``'`` or appends a digit, and :meth:`shuffled` permutes them.

        * :func:`fillgraph.ops._restored`, called by
          :func:`fillgraph.ops._rewired`, which builds every surgery
          result, raising :class:`InvariantError` wherever a step of its
          proof fails (a construction walked before is read from the
          walk kept once its proof passed), and by
          :meth:`fillgraph.synthesis._Builder.reuse`,
          which rebuilds a chain rung's result from the key (the packed
          darts) and labels that ``synthesis._subplans`` keeps of a graph
          built before; it then presets the key, and the signature, face
          record and vertex walk of a ``sigma0`` found in the ops memo;
        * :meth:`shuffled`, whose result conjugates ``sigma0`` by a dart
          bijection and permutes the labels of this graph."""
        graph = object.__new__(cls)
        graph._sigma0 = tuple(sigma0)
        graph._labels = tuple(labels)
        graph._signature = None
        return graph

    @classmethod
    def from_vertex_cycles(cls, vertex_cycles):
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

    @_cached
    def vertex_cycles(self):
        """sigma0 orbits as dart tuples, each starting at its least dart,
        listed in increasing order of that least dart."""
        return _orbits(self._sigma0)

    def _vertex_darts(self, v):
        """``vertex_cycles[v]``, read from the cycles once they are built,
        else walked over the vertices up to v alone, keeping nothing: on
        a large graph the first vertices cost O(1)."""
        cycles = self.__dict__.get("vertex_cycles")
        if cycles is None:
            cycles = _orbits(self._sigma0, v + 1)
        return cycles[v]

    @_cached
    def vertex_of(self):
        """dart -> index into vertex_cycles, by :func:`_orbit_labels`."""
        return tuple(_orbit_labels(self._sigma0)[1])

    @_cached
    def _key(self):
        """``sigma0`` packed by :func:`_packed`: the key of the rotation's
        entry in the ops memo, and the darts a synthesis sub-plan keeps of
        its result.  :func:`fillgraph.ops._restored` presets it when its
        caller has packed it already."""
        return _packed(self._sigma0, len(self._sigma0))

    @_cached
    def _walk(self):
        """(V, connected, four_regular, decorated) of :func:`_vertex_walk`."""
        return _vertex_walk(self._sigma0)

    @property
    def num_vertices(self):
        return self._walk[0]

    def degree(self, v):
        return len(self.vertex_cycles[v])

    @property
    def is_connected(self):
        return self._walk[1]

    @property
    def is_four_regular(self):
        return self._walk[2]

    @property
    def is_decorated(self):
        return self._walk[3]

    def loops_at(self, v):
        darts = self.vertex_cycles[v]
        return [d >> 1 for d in darts if (d ^ 1) in darts and d % 2 == 0]

    # -- derived cycles ----------------------------------------------------

    @_cached
    def _face_orbits(self):
        """(starts, labels as a tuple) of :func:`_orbit_labels` over the
        boundary successor :func:`_face_successor`: the least dart of
        each face, and by dart the number of its face, faces numbered by
        least dart."""
        starts, labels = _orbit_labels(_face_successor(self._sigma0))
        return starts, tuple(labels)

    @property
    def boundary_component_of(self):
        """dart -> number of its face, faces numbered by least dart."""
        return self._face_orbits[1]

    @_cached
    def face_lengths(self):
        """Length of each boundary component, faces numbered by least
        dart, counted from the face labels."""
        starts, labels = self._face_orbits
        lengths = [0] * len(starts)
        for k in labels:
            lengths[k] += 1
        return tuple(lengths)

    @_cached
    def curve_lengths(self):
        """Length of each curve, curves numbered by the least dart of
        their kept orbit, counted from the curve labels."""
        starts, labels, _, kept = self._curve_orbits
        lengths = [0] * len(starts)
        for k in labels:
            lengths[k] += 1
        return tuple(lengths[k] for k in kept)

    @_cached
    def _curve_orbits(self):
        """(starts, labels, successor, kept): :func:`_orbit_labels` over
        the straight-ahead successor (2s orbits, two mirrors per curve),
        that successor as a list, and the orbits kept, one per curve:
        those whose mirror's label comes later.  On a 4-regular graph the
        successor is ``d -> sigma0[sigma0[d ^ 1]]``, sigma0 after the face
        successor; otherwise the dart entering a vertex cycle ``c`` of
        degree 2k through ``c[i]`` leaves through ``c[i - k]``, and an odd
        degree raises :class:`NotDecoratedError`.

        Reversing an orbit gives the orbit of the reversed darts, so
        orientation reversal fixes an orbit exactly when it holds the
        reverse of its least dart; that is an :class:`InvariantError`."""
        s0 = self._sigma0
        if self.is_four_regular:
            succ = [s0[e] for e in _face_successor(s0)]
        else:
            succ = [0] * len(s0)
            for vi, cyc in enumerate(self.vertex_cycles):
                k, odd = divmod(len(cyc), 2)
                if odd:
                    raise NotDecoratedError(
                        f"vertex {vi} has odd degree {len(cyc)}")
                for i, d in enumerate(cyc):
                    succ[d ^ 1] = cyc[i - k]
        starts, labels = _orbit_labels(succ)
        kept = []
        for k, d in enumerate(starts):
            mirror = labels[d ^ 1]
            if mirror > k:
                kept.append(k)
            elif mirror == k:
                raise InvariantError(
                    "orientation reversal fixes a curve orbit")
        return starts, labels, succ, kept

    @_cached
    def _positions(self):
        """(face positions, curve positions): by dart, its place along
        its face and along its straight-ahead orbit
        (:func:`_orbit_positions`), each counted from the orbit's least
        dart; the curve positions are None when some vertex has odd
        degree.  Read only where :func:`fillgraph.ops._side` makes a
        connected sum's side record of a vertex of this graph."""
        faces = _orbit_positions(_face_successor(self._sigma0),
                                 self._face_orbits[0])
        if not self.is_decorated:
            return faces, None
        starts, _, succ, _ = self._curve_orbits
        return faces, _orbit_positions(succ, starts)

    @_cached
    def curve_of_edge(self):
        """undirected edge -> number of its curve, curves numbered as in
        :attr:`curve_lengths`, read from the curve labels: the darts of an
        edge lie on two mirror orbits, and the curve is the kept one, the
        one with the smaller label."""
        _, labels, _, kept = self._curve_orbits
        index = {k: i for i, k in enumerate(kept)}
        return tuple(index[min(labels[d], labels[d ^ 1])]
                     for d in range(0, len(labels), 2))

    # -- signature and validity --------------------------------------------

    def signature(self):
        """The graph's :class:`SurfaceSignature`, computed on the first
        call and returned as the same value after it.  A disconnected graph
        raises :class:`DisconnectedError` on every call."""
        if self._signature is None:
            self._signature = self._compute_signature()
        return self._signature

    def _compute_signature(self):
        """Count V, b and s in the three passes of the kernel and check
        the two invariants that Euler's formula and the curves rest on."""
        V, connected, four, even = self._walk
        if not connected:
            raise DisconnectedError(
                "genus of a disconnected thickening is not defined")
        m = len(self._sigma0) // 2
        b = len(self._face_orbits[0])
        twog = 2 - b - V + m
        if twog % 2 or twog < 0:
            raise InvariantError(f"bad Euler data V={V} m={m} b={b}")
        s = len(self._curve_orbits[3]) if even else None
        return SurfaceSignature(
            genus=twog // 2, boundary_count=b, standard_cycle_count=s,
            vertex_count=V, edge_count=m, is_four_regular=four,
            is_decorated=even)

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
                for i, length in enumerate(self.face_lengths):
                    if length < 3:
                        diags.append(
                            f"boundary face {i} has length {length} < 3")
                        break
        return (not diags), diags

    def first_revisit(self):
        """(curve, vertex) for the first standard cycle that passes some
        vertex twice, naming the first such vertex along the curve; None
        when every curve is simple.  Raises :class:`NotDecoratedError`
        when some vertex has odd degree.

        One walk over the curve record answers on every decorated graph,
        taking the kept orbits in order.  Orbit k passes the vertex of its
        dart ``d`` on the strand from ``p ^ 1`` to ``d``, where ``p`` is
        the dart there with ``succ[p ^ 1] == d``.  The darts strictly
        between ``d`` and ``p`` in the rotation hold one dart of each
        other strand, so the curve passes the vertex twice exactly when
        one of them lies on orbit k or its mirror (at degree 4 that is
        ``sigma0[d]``, at degree 2 there is none).  ``vertex_of`` names
        the vertex."""
        s0 = self._sigma0
        starts, labels, succ, kept = self._curve_orbits
        for curve, k in enumerate(kept):
            d = start = starts[k]
            mirror = labels[d ^ 1]
            while True:
                e = s0[d]
                while succ[e ^ 1] != d:
                    if labels[e] == k or labels[e] == mirror:
                        return curve, self.vertex_of[d]
                    e = s0[e]
                d = succ[d]
                if d == start:
                    break
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

        Such a bijection maps each face onto a face of the same length and
        commutes with reversal, so graphs whose multisets of face lengths
        differ are not isomorphic, and a dart can only map to a dart whose
        face, and whose reverse's face, have the lengths of its own face
        and of its reverse's face.  Each component of this graph is walked
        once (:func:`_rooted_walk`): the first from the least dart of a
        face of the length that the fewest darts share (faces of that
        length times the length), the others from their least dart.  Its
        code is then sought in ``other`` by the same walk from each dart
        not matched yet whose two face lengths are the root's, and the
        first start that reproduces it matches the two components.
        Isomorphism of components is an equivalence relation, and the
        image of the root under any isomorphism is among the starts
        tried, so this greedy pairing succeeds exactly when the
        components pair up isomorphically.  A component holding every
        dart (a connected graph) has an image holding every dart of
        ``other``, so the answer is True as soon as the first root's code
        is matched, before any dart is marked.
        """
        n = self.num_darts
        if n != other.num_darts:
            return False
        lengths, other_lengths = self.face_lengths, other.face_lengths
        if sorted(lengths) != sorted(other_lengths):
            return False
        faces, face_of = self._face_orbits
        other_face_of = other._face_orbits[1]
        darts_on = {}  # face length -> darts on the faces of that length
        for length in lengths:
            darts_on[length] = darts_on.get(length, 0) + length
        rare = min(darts_on, key=lambda length: (darts_on[length], length))
        # the two face lengths of each dart of other: its own, its reverse's
        ends = [other_lengths[k] for k in other_face_of]
        s0, t0 = self._sigma0, other._sigma0
        reverse = [d ^ 1 for d in range(n)]
        matched = [False] * n  # darts of self in a matched component
        free = [True] * n  # darts of other outside every matched component
        for root in (faces[lengths.index(rare)], *range(n)):
            if matched[root]:
                continue
            want = lengths[face_of[root]]
            want_back = lengths[face_of[root ^ 1]]
            comp, code = _rooted_walk(s0, reverse, root)
            for start in range(n):
                if (free[start] and ends[start] == want
                        and ends[start ^ 1] == want_back):
                    image = _rooted_walk(t0, reverse, start, code)
                    if image[1] == code:
                        break
            else:
                return False
            if len(comp) == n:  # one component: the whole graph matched
                return True
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

    def shuffled(self, rng):
        """Random dart relabeling preserving the graph, for tests.

        ``rng`` shuffles the edge numbers, then draws one flip per edge in
        edge order, so one rng state gives one graph.  The dart image
        table ``img`` sends the darts ``2k`` and ``2k + 1`` of edge ``k``
        onto the two darts of edge ``perm[k]``, in an order the flip
        picks.  So ``img`` is a bijection of the darts that commutes with
        ``d -> d ^ 1``, the new rotation ``img . sigma0 . img^-1`` is a
        permutation, and the labels, moved by ``perm``, stay distinct:
        the checks of ``FatGraph(...)`` hold by construction, and the
        result is built by :meth:`_built`."""
        m = len(self._labels)
        perm = list(range(m))
        rng.shuffle(perm)
        img = []
        for k in perm:
            d = 2 * k + (rng.random() < 0.5)
            img.append(d)
            img.append(d ^ 1)
        s0 = [0] * (2 * m)
        for d, e in zip(img, self._sigma0):
            s0[d] = img[e]
        labels = [None] * m
        for k, name in zip(perm, self._labels):
            labels[k] = name
        return FatGraph._built(s0, labels)

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
        computed so far instead of recomputing it."""
        copy = object.__new__(type(self))
        copy.__dict__.update(self.__dict__)
        return copy

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
