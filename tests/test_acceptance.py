"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` or through the CLI's
``verify`` subcommand, which exercises the same machinery.
"""

import hashlib
import io
import random
import time
from contextlib import redirect_stdout

import pytest

from fillgraph import cli, families, formats, oracle, synthesis
from fillgraph.analysis import check_euler_identity, intersection_graph
from fillgraph.families import (EXAMPLE_5_2_BOUNDARY_WORDS, catalog,
                                gamma2b_boundary_words, gamma_g_boundary_word)
from fillgraph.synthesis import (ImpossibleSignatureError, filling,
                                 lower_bound, max_filling, minimal_filling,
                                 tight_omega_filling, upper_bound)


def report(num, text, elapsed=None):
    extra = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"criterion {num}: PASS  {text}{extra}")


def rotations(word):
    w = list(word)
    return {tuple(w[i:] + w[:i]) for i in range(len(w))}


def test_criterion_1_catalog_golden():
    t0 = time.time()
    for row in catalog(gmax=8, bmax=8):
        graph = row.build()
        assert graph.signature().triple == row.triple, row
        if row.lengths is not None:
            got = sorted((len(c) for c in graph.standard_cycles),
                         reverse=True)
            assert got == sorted(row.lengths, reverse=True), row
    for g in range(2, 9):
        graph = families.build(families.GAMMA_G, g)
        (bnd,) = graph.boundary_cycles
        assert tuple(gamma_g_boundary_word(g)) in rotations(bnd.word(graph))
    for b in range(2, 9):
        graph = families.build(families.GAMMA_2_B, b)
        got = [c.word(graph) for c in graph.boundary_cycles]
        for want in gamma2b_boundary_words(b):
            hit = next((w for w in got if tuple(want) in rotations(w)), None)
            assert hit is not None, (b, want)
            got.remove(hit)
    graph = families.build(families.EXAMPLE_5_2)
    got = [c.word(graph) for c in graph.boundary_cycles]
    for want in EXAMPLE_5_2_BOUNDARY_WORDS:
        assert any(tuple(want) in rotations(w) for w in got)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, "catalog signatures, curve lengths and boundary words",
           elapsed)


def test_criterion_2_maximal_size():
    t0 = time.time()
    for g in range(2, 6):
        for b in range(1, 5):
            plan = max_filling(g, b)
            graph, _ = plan.replay()
            sig = graph.signature()
            assert sig.triple == (g, b, 2 * g + b - 1)
            ok, _ = graph.is_filling_system()
            assert ok
    # exhaustive census rules out any larger filling where V <= 4
    for g, b in ((2, 1), (2, 2)):
        V = 2 * g - 2 + b
        rows = oracle.census_filter(V, genus=g, b=b, filling=True)
        assert rows, (g, b)
        assert max(r.standard_cycle_count for r in rows) == 2 * g + b - 1
        assert not [r for r in rows
                    if r.standard_cycle_count >= 2 * g + b]
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(2, "max filling size 2g+b-1 built for 2<=g<=5, 1<=b<=4; census "
              "refutes size 2g+b at (2,1) and (2,2)", elapsed)


GRID_GRAPHS = {}


def _grid():
    if not GRID_GRAPHS:
        for g in range(2, 6):
            for b in range(1, 5):
                for s in range(lower_bound(g, b), upper_bound(g, b) + 1):
                    plan = (minimal_filling(g, s) if b == 1
                            else filling(g, b, s))
                    graph, _ = plan.replay()
                    GRID_GRAPHS[(g, b, s)] = graph
    return GRID_GRAPHS


def test_criterion_3_all_sizes():
    t0 = time.time()
    for (g, b, s), graph in _grid().items():
        sig = graph.signature()
        assert sig.triple == (g, b, s)
        ok, diags = graph.is_filling_system()
        assert ok, (g, b, s, diags)
    with pytest.raises(ImpossibleSignatureError):
        filling(2, 1, 2)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(3, f"{len(GRID_GRAPHS)} signatures (2<=g<=5, 1<=b<=4, all "
              "admissible s) synthesized and verified; (2,1,2) impossible",
           elapsed)


def test_criterion_4_euler_identity():
    t0 = time.time()
    for (g, b, s), graph in _grid().items():
        chk = check_euler_identity(graph)
        assert chk.passed, (g, b, s)
        assert chk.value == 2 * g - 2 + b
    report(4, f"sum of pairwise intersections = 2g-2+b on all "
              f"{len(GRID_GRAPHS)} grid graphs", time.time() - t0)


def test_criterion_5_operation_laws():
    t0 = time.time()
    audits = oracle.verify_formula_by_recompute()
    a = audits["join"]
    assert a.mismatches == 0
    assert set(a.case_counts) == {"SAME/SAME", "OTHER"}
    assert a.corollary_violations == 0
    a = audits["plumb"]
    assert a.mismatches == 0
    assert set(a.case_counts) == {"ALL-DIFFERENT", "OTHER"}
    a = audits["consum"]
    assert a.mismatches == 0
    assert len(a.case_counts) == 4
    assert all(v > 0 for v in a.case_counts.values())
    assert a.printed_reliable_misses == 0
    assert a.printed_matched > 0
    assert a.s_law_checked > 0 and a.s_law_misses == 0
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(5, "all operation branches exercised with zero prediction "
              "mismatches; indicator-table audit clean on its reliable "
              "branches", elapsed)


def test_criterion_6_weight_bound_and_tightness():
    t0 = time.time()
    for V in range(1, 5):
        for row in oracle.census(V):
            if row.filling and row.boundary_count == 1:
                bound = 2 * row.genus - row.standard_cycle_count + 1
                assert row.omega_max <= bound
    for g in range(2, 7):
        for s in range(lower_bound(g, 1), 2 * g + 1):
            bound = 2 * g - s + 1
            graph, _ = minimal_filling(g, s).replay()
            assert intersection_graph(graph).omega_max() <= bound, (g, s)
            tight, _ = tight_omega_filling(g, s).replay()
            assert intersection_graph(tight).omega_max() == bound, (g, s)
    elapsed = time.time() - t0
    report(6, "omega_max <= 2g-s+1 on census and builders for 2<=g<=6; "
              "equality attained on the full tight grid", elapsed)


def test_criterion_7_no_genus_two_minimal_pair():
    t0 = time.time()
    rows = oracle.census_filter(3, genus=2, b=1, s=2, filling=True)
    assert rows == []
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(7, "exhaustive V=3 census holds no (g=2, b=1, s=2) filling",
           elapsed)


def _capture(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_criterion_8_determinism_and_roundtrip():
    t0 = time.time()
    runs = []
    for _ in range(2):
        code, out = _capture(["verify", "ops"])
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    # the audit's stdout is pinned: its trial, case and table counts
    assert hashlib.sha256(runs[0].encode()).hexdigest() == (
        "fd4e5ec1e3cd3ca7530c97ed45f5976f7f72b2952fb76a6193c830397182e2ec")
    runs = []
    for _ in range(2):
        code, out = _capture(["enumerate", "-V", "3", "--format", "csv"])
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]

    rng = random.Random(8)
    rows = [r for V in (1, 2, 3, 4) for r in oracle.census(V)]
    for _ in range(1000):
        row = rng.choice(rows)
        g = row.graph().shuffled(rng)
        text = formats.dumps_graph(g)
        h = formats.loads_graph(text)
        assert formats.dumps_graph(h) == text
        assert sorted(h.labels) == sorted(g.labels)
    report(8, "verify and enumerate byte-identical across runs; 1000 "
              "randomized census graphs round-trip", time.time() - t0)
