"""Catalog of the explicit fat graph families.

Every constructor validates the built graph against its documented signature
(and curve length data where stated) before returning, so a transcription
error surfaces as a loud :class:`FamilyValidationError` instead of a wrong
graph.  Parameter ranges follow the source constructions; out of range
parameters raise :class:`FamilyRangeError`.

Each family member is built and validated once per process; :func:`build`
hands out distinct copies of it, which share the structure computed on it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
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


def _cyc(spec):
    return spec.split()


def _check(graph, name, triple, lengths=None):
    sig = graph.signature()
    if sig.triple != triple:
        raise FamilyValidationError(
            f"{name}: built signature {sig.triple} != expected {triple}")
    if lengths is not None:
        got = sorted(graph.curve_lengths, reverse=True)
        if got != sorted(lengths, reverse=True):
            raise FamilyValidationError(
                f"{name}: curve lengths {got} != expected {lengths}")
    return graph


def _build_g1():
    g = FatGraph.from_vertex_cycles([
        _cyc("f1+ f2+ f3+ f4+"),
        _cyc("f3- f4- f5+ f2-"),
        _cyc("f5- f6+ f1- f6-"),
    ])
    return _check(g, "G1", (2, 1, 3), [3, 2, 1])


def _build_gamma0():
    # transcribed from the genus 3 triple figure; validated below
    g = FatGraph.from_vertex_cycles([
        _cyc("f1+ f2+ f3+ f4+"),
        _cyc("f3- f5+ f6+ f7+"),
        _cyc("f6- f8+ f9+ f4-"),
        _cyc("f7- f9- f5- f10+"),
        _cyc("f1- f2- f10- f8-"),
    ])
    return _check(g, "Gamma0", (3, 1, 3), [5, 3, 2])


def _build_g2():
    # transcribed from the genus 2 pair-with-4-discs figure; validated below
    g = FatGraph.from_vertex_cycles([
        _cyc("x6- y1+ x1+ y6-"),
        _cyc("y1- x3+ y2+ x2-"),
        _cyc("y2- x2+ y3+ x1-"),
        _cyc("x4+ y3- x3- y4+"),
        _cyc("y5+ x5- y4- x6+"),
        _cyc("y6+ x4- y5- x5+"),
    ])
    return _check(g, "G2", (2, 4, 2), [6, 6])


def _build_torus_pair():
    g = FatGraph.from_vertex_cycles([_cyc("a+ b+ a- b-")])
    return _check(g, "torus pair", (1, 1, 2), [1, 1])


def _build_sphere_circle():
    g = FatGraph.from_vertex_cycles([_cyc("a+ a-")])
    return _check(g, "sphere circle", (0, 2, 1), [1])


def _build_gamma_g(g):
    if g is None or g < 1:
        raise FamilyRangeError("gamma_g needs genus g >= 1")
    if g == 1:
        return _build_torus_pair()
    cycles = [_cyc("e1+ e2+ e1- e3-")]
    for j in range(2, 2 * g - 1):
        cycles.append(_cyc(f"e{2*j-1}+ e{2*j}+ e{2*j-2}- e{2*j+1}-"))
    # edge 4g-2 is a loop at the last vertex, as written in the source list
    cycles.append(_cyc(f"e{4*g-3}+ e{4*g-2}+ e{4*g-4}- e{4*g-2}-"))
    graph = FatGraph.from_vertex_cycles(cycles)
    return _check(graph, f"Gamma_{g}", (g, 1, 2 * g))


def gamma_g_boundary_word(g):
    """The single boundary word P(g) Q(g) R(g) S(g), as signed labels."""
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


def _build_girth(g):
    if g is None or g < 3:
        raise FamilyRangeError("girth family needs genus g >= 3")
    cycles = [_cyc("e1+ e2+ e3+ e2-"), _cyc("e3- e5+ e4+ e6+")]
    for j in range(3, 2 * g - 1):
        cycles.append(_cyc(f"e{2*j}- e{2*j+2}+ e{2*j-1}- e{2*j+1}+"))
    cycles.append(_cyc(f"e{4*g-3}- e4- e{4*g-2}- e1-"))
    graph = FatGraph.from_vertex_cycles(cycles)
    return _check(graph, f"girth_{g}", (g, 1, 2 * g - 1))


def _build_quadruple_f3():
    g = FatGraph.from_vertex_cycles([
        _cyc("f1+ f2+ f3+ f2-"),
        _cyc("f3- f4+ f5+ f6+"),
        _cyc("f6- f9- f10- f1-"),
        _cyc("f5- f7+ f8+ f7-"),
        _cyc("f4- f9+ f10+ f8-"),
    ])
    return _check(g, "quadruple_f3", (3, 1, 4), [5, 3, 1, 1])


def _build_gamma2b(b):
    if b is None or b < 2:
        raise FamilyRangeError("gamma2b needs b >= 2 boundary components")
    cycles = [_cyc(f"e1+ f1+ e{b+2}- f{b+2}-")]
    for j in range(2, b + 1):
        cycles.append(_cyc(f"e{j-1}- f{j-1}- e{j}+ f{j}+"))
    cycles.append(_cyc(f"e{b}- f{b+2}+ e{b+1}+ f{b+1}-"))
    cycles.append(_cyc(f"e{b+1}- f{b+1}+ e{b+2}+ f{b}-"))
    graph = FatGraph.from_vertex_cycles(cycles)
    _check(graph, f"Gamma(2,{b})", (2, b, 2), [b + 2, b + 2])
    # defining anchor: edge f_{b+1} has both directions in one boundary
    comp = graph.boundary_component_of
    d0, d1 = graph.darts_of(f"f{b+1}")
    if comp[d0] != comp[d1]:
        raise FamilyValidationError(
            f"Gamma(2,{b}): f{b+1} directions not in one boundary component")
    return graph


def gamma2b_boundary_words(b):
    """The b boundary words of Gamma(2,b) as printed, as signed labels."""
    words = [tuple([f"e1+", f"f1-", f"e{b+2}-", f"f{b}-", f"e{b-1}-",
                    f"f{b-1}+", f"e{b}+", f"f{b+2}+"])]
    for j in range(2, b):
        words.append((f"e{j}+", f"f{j}-", f"e{j-1}-", f"f{j-1}+"))
    words.append((f"f{b+2}-", f"e{b+1}+", f"f{b+1}+", f"e{b}-",
                  f"f{b}+", f"e{b+1}-", f"f{b+1}-", f"e{b+2}+"))
    return words


def _build_example_5_2():
    g = FatGraph.from_vertex_cycles([
        _cyc("x3- y1+ x1+ y3-"),
        _cyc("x2+ y1- x1- y2+"),
        _cyc("z1+ x3+ z2- x2-"),
        _cyc("z1- y3+ z2+ y2-"),
    ])
    return _check(g, "example_5_2", (2, 2, 3), [3, 3, 2])


EXAMPLE_5_2_BOUNDARY_WORDS = (
    ("x1+", "y2+", "z1-", "x3+", "y1+", "x1-", "y3-", "z2+", "x2-", "y1-"),
    ("x2+", "z1+", "y3+", "x3-", "z2-", "y2-"),
)


_BUILDERS = {
    G1: lambda p: _build_g1(),
    GAMMA0: lambda p: _build_gamma0(),
    G2: lambda p: _build_g2(),
    GAMMA_G: _build_gamma_g,
    GIRTH_2GM1: _build_girth,
    QUADRUPLE_F3: lambda p: _build_quadruple_f3(),
    GAMMA_2_B: _build_gamma2b,
    EXAMPLE_5_2: lambda p: _build_example_5_2(),
    TORUS_PAIR: lambda p: _build_torus_pair(),
    SPHERE_CIRCLE: lambda p: _build_sphere_circle(),
}


def build(family, param=None):
    """Instantiate a family member; parametric families need ``param``.

    Every call returns a distinct graph, so two members of one family can
    be the two operands of an operation, which rejects ``left is right``.
    The copies share the structure computed when the member was validated
    (graphs are immutable), so only the first call builds and checks it.
    """
    if family not in _BUILDERS:
        raise FamilyRangeError(
            f"unknown family {family!r}; choose from {ALL_FAMILIES}")
    if family in PARAMETRIC and param is None:
        raise FamilyRangeError(
            f"family {family!r} needs a {PARAMETRIC[family]} parameter")
    if family not in PARAMETRIC and param is not None:
        raise FamilyRangeError(f"family {family!r} takes no parameter")
    return copy.copy(_validated(family, param))


@lru_cache(maxsize=256)
def _validated(family, param):
    """The validated member, with its vertex cycles built so that every
    copy shares them (the connected-sum selectors read them); a range
    error is raised, not cached."""
    graph = _BUILDERS[family](param)
    graph.vertex_cycles
    return graph


@dataclass(frozen=True)
class CatalogRow:
    family: str
    param: int | None
    triple: tuple  # (g, b, s)
    lengths: tuple | None  # curve length multiset where pinned

    def build(self):
        return build(self.family, self.param)


def catalog(gmax=8, bmax=8):
    """Golden table of catalog instances with their expected data.

    Parametric families are instantiated over the verification ranges:
    gamma_g for 1..gmax, the girth family for 3..gmax, gamma2b for 2..bmax.
    """
    rows = [
        CatalogRow(G1, None, (2, 1, 3), (3, 2, 1)),
        CatalogRow(GAMMA0, None, (3, 1, 3), (5, 3, 2)),
        CatalogRow(G2, None, (2, 4, 2), (6, 6)),
        CatalogRow(QUADRUPLE_F3, None, (3, 1, 4), (5, 3, 1, 1)),
        CatalogRow(EXAMPLE_5_2, None, (2, 2, 3), (3, 3, 2)),
        CatalogRow(TORUS_PAIR, None, (1, 1, 2), (1, 1)),
        CatalogRow(SPHERE_CIRCLE, None, (0, 2, 1), (1,)),
    ]
    for g in range(1, gmax + 1):
        rows.append(CatalogRow(GAMMA_G, g, (g, 1, 2 * g), None))
    for g in range(3, gmax + 1):
        rows.append(CatalogRow(GIRTH_2GM1, g, (g, 1, 2 * g - 1), None))
    for b in range(2, bmax + 1):
        rows.append(CatalogRow(GAMMA_2_B, b, (2, b, 2), (b + 2, b + 2)))
    return rows
