"""Catalog of the explicit fat graph families.

Every member is validated against its one record of documented signature
(and curve lengths where stated), the record :func:`catalog` lists, so a
transcription error surfaces as a loud :class:`FamilyValidationError`
instead of a wrong graph.  Parameter ranges follow the source
constructions; a parameter out of range, or not an int, raises
:class:`FamilyRangeError`.

Each family member is built and validated once per process; :func:`build`
hands out distinct copies of it, which share the structure computed on it.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .core import FatGraph, FatGraphError, InvariantError


class FamilyRangeError(FatGraphError):
    """An unknown family, or a parameter missing, unexpected or out of
    range: bad input, so a plan naming it fails like any malformed step."""


class FamilyValidationError(InvariantError):
    """A built graph misses its documented signature: a transcription
    bug, so an :class:`InvariantError` (and an ``AssertionError``)."""


G1 = "g1"
GAMMA0 = "gamma0"
G2 = "g2"
GAMMA_G = "gamma_g"
GIRTH_2GM1 = "girth"
QUADRUPLE_F3 = "quadruple_f3"
GAMMA_2_B = "gamma2b"
EXAMPLE_5_2 = "example_5_2"
TORUS_PAIR = "torus_pair"
SPHERE_CIRCLE = "sphere_circle"

PARAMETRIC = {GAMMA_G: "genus", GIRTH_2GM1: "genus", GAMMA_2_B: "boundaries"}

ALL_FAMILIES = (G1, GAMMA0, G2, GAMMA_G, GIRTH_2GM1, QUADRUPLE_F3,
                GAMMA_2_B, EXAMPLE_5_2, TORUS_PAIR, SPHERE_CIRCLE)


# each fixed member: the (g, b, s) and curve lengths it must have, and its
# vertex cycles as transcribed from the source
_FIXED = {
    G1: ((2, 1, 3), (3, 2, 1),
         ("f1+ f2+ f3+ f4+", "f3- f4- f5+ f2-", "f5- f6+ f1- f6-")),
    # the genus 3 triple figure
    GAMMA0: ((3, 1, 3), (5, 3, 2),
             ("f1+ f2+ f3+ f4+", "f3- f5+ f6+ f7+", "f6- f8+ f9+ f4-",
              "f7- f9- f5- f10+", "f1- f2- f10- f8-")),
    # the genus 2 pair-with-4-discs figure
    G2: ((2, 4, 2), (6, 6),
         ("x6- y1+ x1+ y6-", "y1- x3+ y2+ x2-", "y2- x2+ y3+ x1-",
          "x4+ y3- x3- y4+", "y5+ x5- y4- x6+", "y6+ x4- y5- x5+")),
    QUADRUPLE_F3: ((3, 1, 4), (5, 3, 1, 1),
                   ("f1+ f2+ f3+ f2-", "f3- f4+ f5+ f6+", "f6- f9- f10- f1-",
                    "f5- f7+ f8+ f7-", "f4- f9+ f10+ f8-")),
    EXAMPLE_5_2: ((2, 2, 3), (3, 3, 2),
                  ("x3- y1+ x1+ y3-", "x2+ y1- x1- y2+", "z1+ x3+ z2- x2-",
                   "z1- y3+ z2+ y2-")),
    TORUS_PAIR: ((1, 1, 2), (1, 1), ("a+ b+ a- b-",)),
    SPHERE_CIRCLE: ((0, 2, 1), (1,), ("a+ a-",)),
}


def _expected(family, p):
    """The (g, b, s) and the curve lengths, or None where they are not
    pinned, of the member ``family`` with parameter ``p``: the one record
    that :func:`catalog` lists and :func:`_validated` checks."""
    if family == GAMMA_G:
        return (p, 1, 2 * p), None
    if family == GIRTH_2GM1:
        return (p, 1, 2 * p - 1), None
    if family == GAMMA_2_B:
        return (2, p, 2), (p + 2, p + 2)
    return _FIXED[family][:2]


def _gamma_g_cycles(g):
    if g < 1:
        raise FamilyRangeError("gamma_g needs genus g >= 1")
    if g == 1:
        return _FIXED[TORUS_PAIR][2]
    cycles = ["e1+ e2+ e1- e3-"]
    for j in range(2, 2 * g - 1):
        cycles.append(f"e{2*j-1}+ e{2*j}+ e{2*j-2}- e{2*j+1}-")
    # edge 4g-2 is a loop at the last vertex, as written in the source list
    cycles.append(f"e{4*g-3}+ e{4*g-2}+ e{4*g-4}- e{4*g-2}-")
    return cycles


def _girth_cycles(g):
    if g < 3:
        raise FamilyRangeError("girth family needs genus g >= 3")
    cycles = ["e1+ e2+ e3+ e2-", "e3- e5+ e4+ e6+"]
    for j in range(3, 2 * g - 1):
        cycles.append(f"e{2*j}- e{2*j+2}+ e{2*j-1}- e{2*j+1}+")
    cycles.append(f"e{4*g-3}- e4- e{4*g-2}- e1-")
    return cycles


def _gamma2b_cycles(b):
    if b < 2:
        raise FamilyRangeError("gamma2b needs b >= 2 boundary components")
    cycles = [f"e1+ f1+ e{b+2}- f{b+2}-"]
    for j in range(2, b + 1):
        cycles.append(f"e{j-1}- f{j-1}- e{j}+ f{j}+")
    cycles.append(f"e{b}- f{b+2}+ e{b+1}+ f{b+1}-")
    cycles.append(f"e{b+1}- f{b+1}+ e{b+2}+ f{b}-")
    return cycles


_PARAMETRIC_CYCLES = {GAMMA_G: _gamma_g_cycles, GIRTH_2GM1: _girth_cycles,
                      GAMMA_2_B: _gamma2b_cycles}


def build(family, param=None):
    """Instantiate a family member; parametric families need an int
    ``param`` (not a bool), and the others none.

    Every call returns a distinct graph, so two members of one family can
    be the two operands of an operation, which rejects ``left is right``.
    The copies share the structure computed when the member was validated
    (graphs are immutable), so only the first call builds and checks it.
    """
    if family not in ALL_FAMILIES:
        raise FamilyRangeError(
            f"unknown family {family!r}; choose from {ALL_FAMILIES}")
    if family in PARAMETRIC and (isinstance(param, bool)
                                 or not isinstance(param, int)):
        raise FamilyRangeError(
            f"family {family!r} needs an integer {PARAMETRIC[family]} "
            f"parameter, got {param!r}")
    if family not in PARAMETRIC and param is not None:
        raise FamilyRangeError(f"family {family!r} takes no parameter")
    return _validated(family, param).__copy__()


@lru_cache(maxsize=256)
def _validated(family, param):
    """The member built and checked against :func:`_expected`, with its
    vertex cycles and its key (:attr:`FatGraph._key`) made so that every
    copy shares them (a connected sum's side record is made from the
    cycles, and every surgery on a copy reads the key); a range error is
    raised, not cached.

    A wrong transcription raises :class:`FamilyValidationError`, and so
    does a ``gamma2b`` member whose defining anchor, edge ``f{b+1}``, has
    its two directions in two boundary components."""
    cycles = (_FIXED[family][2] if param is None
              else _PARAMETRIC_CYCLES[family](param))
    graph = FatGraph.from_vertex_cycles(map(str.split, cycles))
    name = family if param is None else f"{family}({param})"
    triple, lengths = _expected(family, param)
    got = graph.signature().triple
    if got != triple:
        raise FamilyValidationError(
            f"{name}: built signature {got} != expected {triple}")
    if lengths is not None:
        got = sorted(graph.curve_lengths, reverse=True)
        if got != sorted(lengths, reverse=True):
            raise FamilyValidationError(
                f"{name}: curve lengths {got} != expected {list(lengths)}")
    if family == GAMMA_2_B:
        comp = graph.boundary_component_of
        d0, d1 = graph.darts_of(f"f{param+1}")
        if comp[d0] != comp[d1]:
            raise FamilyValidationError(
                f"{name}: f{param+1} directions not in one boundary "
                "component")
    graph.vertex_cycles
    graph._key
    return graph


class CatalogRow(namedtuple("CatalogRow",
                            ("family", "param", "triple", "lengths"))):
    """A catalog instance: ``triple`` is its (g, b, s) and ``lengths``
    its curve length multiset where pinned, else None."""

    __slots__ = ()

    def build(self):
        return build(self.family, self.param)


def catalog(gmax=8, bmax=8):
    """Golden table of catalog instances with their expected data.

    Parametric families are instantiated over the verification ranges:
    gamma_g for 1..gmax, the girth family for 3..gmax, gamma2b for 2..bmax.
    """
    members = [(family, None) for family in _FIXED]
    members += [(GAMMA_G, g) for g in range(1, gmax + 1)]
    members += [(GIRTH_2GM1, g) for g in range(3, gmax + 1)]
    members += [(GAMMA_2_B, b) for b in range(2, bmax + 1)]
    return [CatalogRow(family, p, *_expected(family, p))
            for family, p in members]
