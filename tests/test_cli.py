import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fillgraph
from fillgraph import oracle
from fillgraph.cli import main
from fillgraph.ops import (JOIN_OTHER, JOIN_SAME_SAME, PLUMB_ALL_DIFF,
                           PLUMB_OTHER, SUM_ALL4_ONE, SUM_BLOCKS4, SUM_OTHER,
                           SUM_TWO_SAME)
from fillgraph.oracle import OpAudit


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFamily:
    def test_gamma_g(self, capsys):
        code, out, _ = run(capsys, "family", "--name", "gamma_g",
                           "--genus", "3")
        assert code == 0
        assert "g=3 b=1 s=6" in out

    def test_gamma2b(self, capsys):
        code, out, _ = run(capsys, "family", "--name", "gamma2b",
                           "--boundaries", "4")
        assert code == 0
        assert "g=2 b=4 s=2" in out

    def test_torus(self, capsys):
        code, out, _ = run(capsys, "family", "--name", "torus_pair")
        assert code == 0
        assert "g=1 b=1 s=2" in out

    def test_range_error_exit_2(self, capsys):
        code, _, err = run(capsys, "family", "--name", "gamma2b",
                           "--boundaries", "1")
        assert code == 2
        assert "b >= 2" in err

    def test_writes_file(self, capsys, tmp_path):
        out_file = tmp_path / "g.json"
        code, _, _ = run(capsys, "family", "--name", "g1",
                         "-o", str(out_file))
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["format"] == "fatgraph/1"


class TestAnalyze:
    @pytest.fixture()
    def g1_file(self, capsys, tmp_path):
        path = tmp_path / "g1.json"
        run(capsys, "family", "--name", "g1", "-o", str(path))
        return str(path)

    def test_text_output(self, capsys, g1_file):
        code, out, _ = run(capsys, "analyze", g1_file)
        assert code == 0
        assert "boundary lengths: [12]" in out
        assert "cycle lengths: [3, 2, 1]" in out
        assert "filling: yes" in out

    def test_json_output(self, capsys, g1_file):
        code, out, _ = run(capsys, "analyze", g1_file, "--json")
        info = json.loads(out)
        assert info["signature"]["g"] == 2
        assert info["omega_max"] == 2

    def test_expect_pass_and_fail(self, capsys, g1_file):
        for verdict in ("yes", "true", "1"):
            code, _, _ = run(capsys, "analyze", g1_file,
                             "--expect", f"g=2,b=1,s=3,filling={verdict}")
            assert code == 0
        code, _, err = run(capsys, "analyze", g1_file, "--expect", "g=3")
        assert code == 1
        assert "expect failed" in err

    @pytest.mark.parametrize("spec", ["foo=1", "g"])
    def test_bad_expect_exit_2(self, capsys, g1_file, spec):
        # an unknown key, and an item without "="
        code, out, err = run(capsys, "analyze", g1_file, "--expect", spec)
        assert code == 2
        assert out == ""
        assert "bad --expect" in err

    def test_non_filling_diagnostic(self, capsys, tmp_path):
        path = tmp_path / "sphere.json"
        run(capsys, "family", "--name", "sphere_circle", "-o", str(path))
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert "filling: no" in out and "4-regular" in out

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code, _, _ = run(capsys, "analyze", str(bad))
        assert code == 2


class TestOp:
    @pytest.fixture()
    def graphs(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(capsys, "family", "--name", "gamma_g", "--genus", "2",
            "-o", str(a))
        run(capsys, "family", "--name", "torus_pair", "-o", str(b))
        return str(a), str(b)

    def test_join(self, capsys, graphs):
        a, b = graphs
        code, out, _ = run(capsys, "op", "join", "--left", a, "--right", b,
                           "--x", "e1", "--y", "a")
        assert code == 0
        assert "case=SAME/SAME" in out
        assert "b:1+1→2" in out
        assert "s:4+2→5" in out

    def test_plumb(self, capsys, graphs, tmp_path):
        a, b = graphs
        out_path = tmp_path / "res.json"
        code, out, _ = run(capsys, "op", "plumb", "--left", a, "--right", b,
                           "--x", "e1", "--y", "a", "-o", str(out_path))
        assert code == 0
        assert "g:2+1→3" in out
        assert out_path.exists()

    def test_consum(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(capsys, "family", "--name", "gamma0", "-o", str(a))
        run(capsys, "family", "--name", "g2", "-o", str(b))
        code, out, _ = run(capsys, "op", "consum", "--left", str(a),
                           "--right", str(b), "--w", "0", "--u", "1")
        assert code == 0
        assert "s:3+2→3" in out

    def test_bad_selector_exit_2(self, capsys, graphs):
        a, b = graphs
        code, _, _ = run(capsys, "op", "join", "--left", a, "--right", b,
                         "--x", "nope", "--y", "a")
        assert code == 2


class TestSynth:
    def test_success(self, capsys, tmp_path):
        out_file = tmp_path / "f.json"
        plan_file = tmp_path / "p.json"
        code, out, _ = run(capsys, "synth", "-g", "3", "-b", "2", "-s", "7",
                           "-o", str(out_file), "--plan-out", str(plan_file))
        assert code == 0
        assert "g=3 b=2 s=7" in out
        assert json.loads(plan_file.read_text())["format"] == "fillplan/1"

    def test_impossible_exit_3(self, capsys):
        code, _, err = run(capsys, "synth", "-g", "2", "-b", "1", "-s", "2")
        assert code == 3
        assert "impossible" in err

    def test_tight(self, capsys):
        code, out, _ = run(capsys, "synth", "-g", "4", "-s", "5", "--tight")
        assert code == 0
        assert "omega_max=4" in out

    def test_out_of_range_exit_2(self, capsys):
        code, _, _ = run(capsys, "synth", "-g", "3", "-b", "1", "-s", "99")
        assert code == 2


class TestReplay:
    @pytest.fixture()
    def plan_doc(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        run(capsys, "synth", "-g", "3", "-b", "3", "-s", "4",
            "--plan-out", str(path))
        return json.loads(path.read_text())

    def write(self, tmp_path, doc):
        path = tmp_path / "q.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_success(self, capsys, tmp_path, plan_doc):
        out_file = tmp_path / "g.json"
        code, out, _ = run(capsys, "replay", self.write(tmp_path, plan_doc),
                           "-o", str(out_file))
        assert code == 0
        assert "g=3 b=3 s=4" in out
        assert json.loads(out_file.read_text())["format"] == "fatgraph/1"

    def test_missing_target_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "replay",
                           self.write(tmp_path, {"format": "fillplan/1"}))
        assert code == 2
        assert "target" in err

    def test_step_out_of_range_exit_2(self, capsys, tmp_path, plan_doc):
        step = next(st for st in plan_doc["steps"] if "left" in st)
        step["left"] = 99
        code, _, err = run(capsys, "replay", self.write(tmp_path, plan_doc))
        assert code == 2
        assert "99" in err

    def test_missing_field_exit_2(self, capsys, tmp_path):
        # a consum step without w and u used to crash with a TypeError
        doc = {"format": "fillplan/1", "target": {"g": 4, "b": 7, "s": 2},
               "steps": [{"op": "family", "family": "g2"},
                         {"op": "family", "family": "g2"},
                         {"op": "consum", "left": 0, "right": 1}]}
        code, _, err = run(capsys, "replay", self.write(tmp_path, doc))
        assert code == 2
        assert "'w'" in err

    def test_empty_graph_step_exit_2(self, capsys, tmp_path):
        # a graph step without darts used to replay to g=1 b=0 s=0 and exit 0
        doc = {"format": "fillplan/1", "target": {"g": 1, "b": 0, "s": 0},
               "expect_filling": False,
               "steps": [{"op": "graph", "vertices": []}]}
        code, out, err = run(capsys, "replay", self.write(tmp_path, doc))
        assert code == 2
        assert out == ""
        assert "at least one edge" in err

    def test_wrong_target_exit_1(self, capsys, tmp_path, plan_doc):
        plan_doc["target"]["s"] = 5
        code, _, err = run(capsys, "replay", self.write(tmp_path, plan_doc))
        assert code == 1
        assert "verification failed" in err


class TestEnumerate:
    def test_filter_empty(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-V", "3",
                           "--filter", "g=2,b=1,s=2,filling=true")
        assert code == 0
        assert len(out.strip().split("\n")) == 1  # header only

    def test_one_vertex(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-V", "1")
        assert code == 0
        assert len(out.strip().split("\n")) == 3

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-V", "1",
                           "--format", "json")
        assert len(json.loads(out)) == 2

    def test_ceiling_exit_2(self, capsys):
        code, _, _ = run(capsys, "enumerate", "-V", "9")
        assert code == 2

    @pytest.mark.parametrize("spec", ["g=x", "g", "filling=maybe"])
    def test_bad_filter_exit_2(self, capsys, spec):
        code, out, err = run(capsys, "enumerate", "-V", "2", "--filter", spec)
        assert code == 2
        assert out == ""
        assert "bad --filter" in err

    @pytest.mark.parametrize("fmt, digest", [
        ("csv",
         "eb53f0661e588b39551f6b0b3af250f69a7884595c07ccbc93d6a41c1ddfb758"),
        ("json",
         "e1266c612a9ad3cadce0e1bcc014c6a461ae5fb09996564192e97b4da9456155"),
    ], ids=["csv", "json"])
    def test_four_vertices_pinned(self, capsys, fmt, digest):
        # sha256 of the whole V=4 census listing: keys, invariants, counts
        code, out, _ = run(capsys, "enumerate", "-V", "4", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestExport:
    def test_dot(self, capsys, tmp_path):
        path = tmp_path / "g1.json"
        run(capsys, "family", "--name", "g1", "-o", str(path))
        code, out, _ = run(capsys, "export", str(path), "--format", "dot")
        assert code == 0
        assert out.startswith("graph fatgraph {")
        assert out.count(" -- ") == 6

    def test_json(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        run(capsys, "family", "--name", "torus_pair", "-o", str(path))
        code, out, _ = run(capsys, "export", str(path), "--format", "json")
        assert json.loads(out)["format"] == "fatgraph/1"


def _clean_audits():
    """Audits that pass every rule of ``verify ops``."""
    join = OpAudit("join", trials=2,
                   case_counts={JOIN_SAME_SAME: 1, JOIN_OTHER: 1})
    plumb = OpAudit("plumb", trials=2,
                    case_counts={PLUMB_ALL_DIFF: 1, PLUMB_OTHER: 1})
    consum = OpAudit("consum", trials=4,
                     case_counts={SUM_ALL4_ONE: 1, SUM_BLOCKS4: 1,
                                  SUM_TWO_SAME: 1, SUM_OTHER: 1},
                     printed_checked=2, printed_matched=2, s_law_checked=3)
    return {"join": join, "plumb": plumb, "consum": consum}


class TestVerifySmall:
    def test_ops_s_law_miss_fails(self, capsys, monkeypatch):
        audits = _clean_audits()
        monkeypatch.setattr(oracle, "verify_formula_by_recompute",
                            lambda: audits)
        code, out, _ = run(capsys, "verify", "ops")
        assert code == 0
        assert out.splitlines()[-1] == "verify ops: ALL PASS"
        audits["consum"].s_law_misses = 1
        code, out, _ = run(capsys, "verify", "ops")
        assert code == 1
        assert out.splitlines()[-1] == "verify ops: 1 FAILURES"

    @pytest.mark.parametrize("op, fault", [
        ("join", {"case_counts": {JOIN_SAME_SAME: 1, "GHOST": 1}}),
        ("plumb", {"case_counts": {PLUMB_ALL_DIFF: 1, "GHOST": 1}}),
        ("consum", {"case_counts": {SUM_ALL4_ONE: 1, SUM_BLOCKS4: 1,
                                    SUM_TWO_SAME: 0, SUM_OTHER: 1}}),
        ("consum", {"s_law_checked": 0}),
    ], ids=["join-cases", "plumb-cases", "consum-cases", "s-law-unchecked"])
    def test_ops_pass_rule(self, capsys, monkeypatch, op, fault):
        audits = _clean_audits()
        for k, v in fault.items():
            setattr(audits[op], k, v)
        monkeypatch.setattr(oracle, "verify_formula_by_recompute",
                            lambda: audits)
        code, out, _ = run(capsys, "verify", "ops")
        assert code == 1
        assert out.splitlines()[-1] == "verify ops: 1 FAILURES"

    def test_grid_guard(self, capsys):
        code, _, err = run(capsys, "verify", "theorem1", "--gmax", "9")
        assert code == 2
        assert "unsafe-large" in err

    @pytest.mark.parametrize("argv", [
        ("theorem2", "--gmax", "1"),
        ("euler", "--gmax", "-3", "--bmax", "-1"),
        ("theorem1", "--bmax", "0"),
        ("theorem3", "--gmax", "1"),
    ], ids=["theorem2-g1", "euler-negative", "theorem1-b0", "theorem3-g1"])
    def test_empty_grid_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert "empty grid" in err

    @pytest.mark.parametrize("argv", [
        ("ops", "--gmax", "5"),
        ("ops", "--bmax", "4"),
        ("ops", "--unsafe-large"),
        ("theorem3", "--bmax", "4"),
        ("theorem3", "--gmax", "7"),
        ("theorem3", "--gmax", "7", "--unsafe-large"),
    ], ids=["ops-gmax", "ops-bmax", "ops-unsafe", "theorem3-bmax",
            "theorem3-g7", "theorem3-g7-unsafe"])
    def test_unread_option_exit_2(self, capsys, argv):
        # a suite accepts only the options it reads; theorem3 checks
        # g <= 6 and used to stop there silently
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.strip()

    @pytest.mark.parametrize("what, digest", [
        ("theorem1",
         "6aedd221c4fe2b64d3733b55fc08093a8855623aea1abddd5ffb90a44dc4d822"),
        ("theorem2",
         "128a5ad86277651110b5ecc04c0e849908f59245dc04fd85355e12833b9beb28"),
        ("theorem3",
         "4adf3e6ade0174b672430f28fa115adf34fde883db85809231ac1e63e75d9695"),
        ("euler",
         "486ce7b0492000e4328c58c15e07fc1f66ff4fe72365aab145619a9e0faab34b"),
    ])
    def test_default_grid_pinned(self, capsys, what, digest):
        # sha256 of the whole stdout on the default grid; verify ops is
        # pinned by criterion 8 of test_acceptance.py
        code, out, _ = run(capsys, "verify", what)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_python_m_fillgraph():
    # the package runs as a module, with this checkout's source first
    src = str(Path(fillgraph.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "fillgraph", "verify", "theorem2"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "verify theorem2: ALL PASS"


def test_bare_start_up_imports_no_code_generators():
    # the records are named tuples and plain classes, and the census
    # certificate is integer arithmetic, so importing the command line
    # loads none of these; -S keeps a site-packages .pth file from
    # importing one first
    src = str(Path(fillgraph.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import fillgraph.cli; "
            "print([m for m in ('dataclasses', 'inspect', 'typing', "
            "'fractions') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
