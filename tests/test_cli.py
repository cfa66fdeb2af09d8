"""Command-line surface: table/JSON output, schema conformance, exit
codes, environment-variable overrides, and byte-level determinism."""
import hashlib
import json
from pathlib import Path

import jsonschema
import pytest

from satake.cli import main

SCHEMA_DIR = Path(__file__).parent.parent / "src" / "satake" / "schemas"


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDescribe:
    def test_pgl2(self, capsys):
        code, out, _ = run(capsys, "describe", "--group", "PGL(2)")
        assert code == 0
        assert "modified dual group: GL(2)" in out
        assert "dual group: SL(2)" in out
        assert "nontrivial" in out

    def test_sl2_direct_product(self, capsys):
        code, out, _ = run(capsys, "describe", "--group", "SL(2)")
        assert code == 0
        assert "direct product" in out

    def test_torus_has_no_roots(self, capsys):
        code, out, _ = run(capsys, "describe", "--group", "torus(1)")
        assert code == 0
        assert "simple roots:   []" in out

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "describe", "--group", "GL(2)", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["pi1"] == {"free_rank": 1, "torsion_order": 1}
        assert doc["dual_group"] == "GL(2)"

    def test_unknown_group_exit_code(self, capsys):
        code, _, err = run(capsys, "describe", "--group", "E(8)")
        assert code == 2
        assert "error" in err

    def test_negative_bound_rejected(self, capsys):
        code, _, err = run(capsys, "describe", "--group", "GL(2)", "--bound", "-1")
        assert code == 2


class TestHeckeMul:
    def test_quadratic(self, capsys):
        code, out, _ = run(capsys, "hecke-mul", "--group", "SL(2)", "0", "0")
        assert code == 0
        assert "(-1 + q)" in out
        assert "(q)" in out

    def test_unit_factor(self, capsys):
        code, out, _ = run(capsys, "hecke-mul", "--group", "SL(3)", "e", "0,1")
        assert code == 0
        assert "T[t[0,0]*s0.s1]" in out


class TestIcConvolve:
    def test_gl2_table(self, capsys):
        code, out, _ = run(capsys, "ic-convolve", "--group", "GL(2)",
                           "--mu", "1,0", "--lam", "1,0", "--json")
        assert code == 0
        doc = json.loads(out)
        rows = {tuple(r["nu"]): r for r in doc["rows"]}
        assert rows[(2, 0)]["twist"] == 0
        assert rows[(1, 1)]["twist"] == -1
        assert all(r["weight_additive"] for r in doc["rows"])
        assert all(r["multiplicity"] == 1 for r in doc["rows"])

    def test_rejects_non_dominant(self, capsys):
        code, _, err = run(capsys, "ic-convolve", "--group", "GL(2)",
                           "--mu", "0,1", "--lam", "0,0")
        assert code == 2


class TestSatakeTable:
    def test_pgl2_text(self, capsys):
        code, out, _ = run(capsys, "satake-table", "--group", "PGL(2)", "--bound", "4")
        assert code == 0
        assert "f[2] = c[0] + c[2]" in out
        assert "f[0](-1) = q*c[0]" in out

    def test_json_schemas(self, capsys):
        code, out, _ = run(capsys, "satake-table", "--group", "GL(2)",
                           "--bound", "4", "--json")
        assert code == 0
        doc = json.loads(out)
        fn_schema = load_schema("satake_function.schema.json")
        g1_schema = load_schema("g1_element.schema.json")
        assert doc["rows"]
        for row in doc["rows"]:
            jsonschema.validate(row["trace_function"], fn_schema)
            jsonschema.validate(row["transform"], g1_schema)
        jsonschema.validate(doc["unit_twisted"], fn_schema)


class TestInputErrors:
    @pytest.mark.parametrize("argv", [
        ("hecke-mul", "--group", "SL(2)", "7"),
        ("hecke-mul", "--group", "SL(2)", "-1"),
        ("hecke-mul", "--group", "SL(2)", "a"),
        ("ic-convolve", "--group", "GL(2)", "--mu", "a,b", "--lam", "0,0"),
        ("hecke-mul", "--group", "SL(2)", ",".join(str(k % 2) for k in range(66))),
        ("hecke-mul", "--group", "torus(1)", "0"),
    ])
    def test_one_line_error_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestVerify:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--group", "PGL(2)", "--bound", "4")
        assert code == 0
        assert "FAIL" not in out
        assert "cross-path oracle equality" in out

    def test_bound_zero_vacuous(self, capsys):
        code, out, _ = run(capsys, "verify", "--group", "SL(3)", "--bound", "0")
        assert code == 0

    def test_fault_injection_detected(self, capsys):
        code, out, _ = run(capsys, "verify", "--group", "PGL(2)", "--bound", "4",
                           "--inject-fault")
        assert code == 1
        assert "PASS  fault injection negative control" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "verify", "--group", "SL(2)", "--bound", "4", "--json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("verify_report.schema.json"))
        assert all(r["passed"] for r in doc["results"])


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("satake-table", "--group", "PGL(2)", "--bound", "6", "--json"),
        ("verify", "--group", "SL(3)", "--bound", "4", "--seed", "1"),
        ("describe", "--group", "Sp(4)", "--json"),
    ])
    def test_byte_identical_reruns(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestGoldenBytes:
    """sha256 of satake-table stdout.  Each table has rows whose keys sort
    differently as text and as numbers, so a re-sorted table fails."""

    @pytest.mark.parametrize("argv, digest", [
        (("--group", "PGL(2)"),
         "9c90788f0f2f8ac8a50b6a81a0603698f4132dfc82c7ca5da93606b66e15fe58"),
        (("--group", "PGL(2)", "--json"),
         "4d1a61e312061a87d41ed1c4908c4a40ddbfc2a82ebae70f0c1cdb9337c9ecac"),
        (("--group", "GL(2)", "--signed-trace"),
         "ed73990f960535cea53610e28eba0574e7095186ed61676dd13edeece2f237dc"),
        (("--group", "GL(2)", "--signed-trace", "--json"),
         "0d2755ef800afc71a7a87f884736536e13520bebc2c84cde9e6b6c456449d7a8"),
    ])
    def test_satake_table(self, capsys, argv, digest):
        code, out, _ = run(capsys, "satake-table", "--bound", "12", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestEnvironmentOverrides:
    def test_group_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("SATAKE_GROUP", "SL(2)")
        code, out, _ = run(capsys, "describe")
        assert code == 0
        assert "group: SL(2)" in out

    def test_json_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("SATAKE_JSON", "1")
        _, out, _ = run(capsys, "describe", "--group", "GL(2)")
        json.loads(out)
