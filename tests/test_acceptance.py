"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria 2-6 are the
suites of :mod:`fillgraph.verify`, the one place their checks live: the
CLI's ``verify`` subcommand prints the same results, and these tests
assert that they have no failures and hold their time bounds.
"""

import hashlib
import io
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from helpers import (EXAMPLE_5_2_BOUNDARY_WORDS, face_words,
                     gamma2b_boundary_words, gamma_g_boundary_word)

import fillgraph
from fillgraph import cli, families, formats, oracle, verify
from fillgraph.families import catalog


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
            got = sorted(graph.curve_lengths, reverse=True)
            assert got == sorted(row.lengths, reverse=True), row
    for g in range(2, 9):
        graph = families.build(families.GAMMA_G, g)
        (bnd,) = face_words(graph)
        assert tuple(gamma_g_boundary_word(g)) in rotations(bnd)
    for b in range(2, 9):
        graph = families.build(families.GAMMA_2_B, b)
        got = face_words(graph)
        for want in gamma2b_boundary_words(b):
            hit = next((w for w in got if tuple(want) in rotations(w)), None)
            assert hit is not None, (b, want)
            got.remove(hit)
    graph = families.build(families.EXAMPLE_5_2)
    got = face_words(graph)
    for want in EXAMPLE_5_2_BOUNDARY_WORDS:
        assert any(tuple(want) in rotations(w) for w in got)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, "catalog signatures, curve lengths and boundary words",
           elapsed)


def test_criterion_2_maximal_size():
    t0 = time.time()
    res = verify.theorem1()
    assert res.failures == 0, res.text()
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(2, "max filling size 2g+b-1 built for 2<=g<=5, 1<=b<=4; census "
              "refutes size 2g+b at (2,1) and (2,2)", elapsed)


def test_criterion_3_all_sizes():
    t0 = time.time()
    res = verify.theorem2()
    assert res.failures == 0, res.text()
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(3, "all admissible signatures (2<=g<=5, 1<=b<=4) synthesized "
              "and verified; (2,1,2) impossible", elapsed)


def test_criterion_4_euler_identity():
    t0 = time.time()
    res = verify.euler()
    assert res.failures == 0, res.text()
    report(4, "sum of pairwise intersections = 2g-2+b on all grid graphs",
           time.time() - t0)


@pytest.fixture(scope="module")
def ops_run():
    """One run of the operation audit and its seconds, shared by
    criteria 5 and 8."""
    t0 = time.time()
    res = verify.ops()
    return res, time.time() - t0


def test_criterion_5_operation_laws(ops_run):
    res, elapsed = ops_run
    assert res.failures == 0, res.text()
    assert elapsed < 60.0
    report(5, "all operation branches exercised with zero prediction "
              "mismatches; indicator-table audit clean on its reliable "
              "branches", elapsed)


def test_criterion_6_weight_bound_and_tightness():
    t0 = time.time()
    res = verify.theorem3(verify.THEOREM3_GMAX)
    assert res.failures == 0, res.text()
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


def test_criterion_8_determinism_and_roundtrip(ops_run):
    t0 = time.time()
    # a second, independent audit run, through the CLI
    code, out = _capture(["verify", "ops"])
    assert code == 0
    assert out == ops_run[0].text()
    # the audit's stdout is pinned: its trial, case and table counts
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fd4e5ec1e3cd3ca7530c97ed45f5976f7f72b2952fb76a6193c830397182e2ec")
    # enumerate in two fresh interpreters with different hash seeds, so
    # neither reads the census cache of this process or another's hash
    # order, and once in this process
    argv = ["enumerate", "-V", "3", "--format", "csv"]
    code, here = _capture(argv)
    assert code == 0
    src = str(Path(fillgraph.__file__).resolve().parents[1])
    path = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    fresh = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "fillgraph", *argv], capture_output=True,
            text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed))
        assert proc.returncode == 0, proc.stderr
        fresh.append(proc.stdout)
    assert fresh[0] == fresh[1] == here

    rng = random.Random(8)
    rows = [r for V in (1, 2, 3, 4) for r in oracle.census(V)]
    for _ in range(1000):
        row = rng.choice(rows)
        g = row.graph().shuffled(rng)
        text = formats.dumps_graph(g)
        h = formats.loads_graph(text)
        assert formats.dumps_graph(h) == text
        assert sorted(h.labels) == sorted(g.labels)
    report(8, "verify byte-identical across runs, enumerate across two "
              "fresh interpreters; 1000 randomized census graphs "
              "round-trip", time.time() - t0)
