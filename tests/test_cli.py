"""Command-line surface: table/JSON output, schema conformance, exit
codes, the flags each command takes, independence from the environment,
and byte-level determinism."""
import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from satake.cli import build_parser, main
from satake.root_datum import MAX_RANK, catalog, dual
from satake.weyl import MAX_W0_ORDER, AffineWeylGroup, WeylError

SRC_DIR = Path(__file__).parent.parent / "src"
SCHEMA_DIR = SRC_DIR / "satake" / "schemas"
BENCH_CHILD = Path(__file__).parent.parent / "bench" / "child.py"


def load_bench_child():
    """bench/child.py as a module, for its verify cells and reference
    paths; importing it runs no benchmark."""
    spec = importlib.util.spec_from_file_location("bench_child", BENCH_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_child = load_bench_child()


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

    def test_python_dash_m(self, capsys):
        _, expected, _ = run(capsys, "describe", "--group", "GL(2)")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC_DIR)] + ([path] if path else [])))
        proc = subprocess.run([sys.executable, "-m", "satake", "describe", "--group", "GL(2)"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout == expected


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
        ("ic-convolve", "--group", "SL(2)", "--mu", "1", "--lam", "1", "--n", "x"),
        ("verify", "--group", "SL(2)", "--bound", "x"),
        ("verify", "--group", "SL(2)", "--seed", "1.5"),
        ("ic-convolve", "--group", "SL(2)", "--mu", "1"),
        ("frobnicate",),
        (),
        ("verify", "--group", "SL(2)", "--bound", "66"),
        ("verify", "--group", "GL(2)", "--bound", "65"),
        ("verify", "--group", "SL(2)", "--bound", "66", "--inject-fault"),
    ])
    def test_one_line_error_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["satake-table", "verify"])
    def test_negative_bound_rejected(self, capsys, command):
        code, out, err = run(capsys, command, "--group", "GL(2)", "--bound", "-1")
        assert code == 2 and out == ""
        assert err == "error: bound must be >= 0\n"


class TestFlagsPerCommand:
    """Each command takes only the flags it reads; any other flag, or a
    prefix of one, is refused."""

    @pytest.mark.parametrize("argv", [
        ("describe", "--bound", "4"),
        ("describe", "--seed", "1"),
        ("describe", "--signed-trace"),
        ("hecke-mul", "--bound", "4", "0"),
        ("ic-convolve", "--mu", "1,0", "--lam", "1,0", "--signed-trace"),
        ("satake-table", "--seed", "1"),
        ("satake-table", "--s"),
        ("verify", "--sig", "--bound", "2"),
    ])
    def test_unread_flag_refused(self, capsys, argv):
        code, out, err = run(capsys, argv[0], "--group", "GL(2)", *argv[1:])
        assert code == 2 and out == ""
        assert err.startswith("error: satake: unrecognized arguments: ")
        assert err.count("\n") == 1


def test_internal_weyl_fault_is_not_reported_as_bad_input(monkeypatch):
    """An internal fault of the group tables raises out of ``main``; only
    refused input is an ``error:`` line with exit 2.  The fault is raised
    where products read their reduced words, the group's word memo."""
    def fault(self, s):
        raise WeylError("no descent for positive-length element")
    monkeypatch.setattr(AffineWeylGroup, "_word", fault)
    with pytest.raises(WeylError, match="no descent"):
        main(["hecke-mul", "--group", "SL(2)", "0"])


class TestRankBound:
    """A group whose rank is above ``MAX_RANK`` is refused from its name,
    before any matrix is built."""

    @pytest.mark.parametrize("group", ["GL(1000)", "torus(100000)",
                                       f"torus({MAX_RANK + 1})", "GL(10)*SL(12)"])
    @pytest.mark.parametrize("command", ["describe", "satake-table"])
    def test_refused_at_once(self, capsys, command, group):
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--group", group)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"above the bound {MAX_RANK}" in err

    def test_torsion_of_a_wide_product_is_quick(self, capsys):
        """pi_1 of a rank-20 product whose coroots span a rank-10 lattice:
        20-choose-10 minors if read as their gcd."""
        start = time.perf_counter()
        code, out, _ = run(capsys, "describe", "--group", "torus(10)*SL(11)")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert "pi_1: free rank 10, torsion order 1\n" in out

    def test_bound_itself_is_accepted(self, capsys):
        code, out, _ = run(capsys, "describe", "--group", f"torus({MAX_RANK})")
        assert code == 0
        assert f"(rank {MAX_RANK})" in out


class TestW0OrderBound:
    """GL(9), the first GL(n) whose |W_0| = 9! is above ``MAX_W0_ORDER``,
    is refused from its root heights, before any element of W_0 is built."""

    @pytest.mark.parametrize("argv", [("verify", "--group", "GL(9)", "--bound", "0"),
                                      ("hecke-mul", "--group", "GL(9)", "e")])
    def test_refused_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"exceeds bound {MAX_W0_ORDER}" in err


# every row of the catalog at its least n and above it, and all six rows
# in one product
FAMILY_NAMES = ["GL(1)", "GL(2)", "GL(3)", "GL(6)", "SL(2)", "SL(3)", "SL(7)", "PGL(2)",
                "PGL(3)", "PGL(7)", "Sp(4)", "SO(5)", "torus(1)", "torus(2)", "torus(3)",
                "GL(2)*SL(3)*PGL(2)*Sp(4)*SO(5)*torus(1)"]
# each row's first refused n on either side, the rank bound's included;
# the last name has more digits than int() converts
OUT_OF_RANGE_NAMES = ["GL(0)", "SL(0)", "SL(1)", "PGL(1)", "Sp(2)", "Sp(3)", "Sp(5)", "Sp(6)",
                      "SO(3)", "SO(4)", "SO(6)", "SO(7)", "torus(0)", "GL(9)",
                      f"GL({MAX_RANK + 1})", f"SL({MAX_RANK + 2})", f"PGL({MAX_RANK + 2})",
                      f"torus({MAX_RANK + 1})", "torus(100000)",
                      "E(8)", "GL(2", "gl(2)", "", f"GL({'9' * 5000})"]
# comma strings: decreasing weights (dominant for GL), small integers, or
# entries that may not parse
COMMA_TEXT = st.one_of(
    st.lists(st.integers(0, 2), min_size=1, max_size=3).map(
        lambda v: [str(c) for c in sorted(v, reverse=True)]),
    st.lists(st.integers(-1, 3).map(str), max_size=5),
    st.lists(st.sampled_from(["0", "1", "2", "-1", "3", "", "x", " 1", "e"]), max_size=4),
).map(",".join)


@st.composite
def argvs(draw):
    """One satake command line: any subcommand, a catalog or malformed
    group (products included), small bounds and weights, and only the
    flags the subcommand reads."""
    names = st.sampled_from(FAMILY_NAMES)
    group = draw(st.one_of(names, st.sampled_from(OUT_OF_RANGE_NAMES),
                           st.tuples(names, names).map("*".join)))
    command = draw(st.sampled_from(["describe", "hecke-mul", "ic-convolve",
                                    "satake-table", "verify"]))
    argv = [command, "--group", group]
    if command == "hecke-mul":
        argv += draw(st.lists(st.one_of(COMMA_TEXT, st.just("e")), min_size=1, max_size=3))
    elif command == "ic-convolve":
        argv += ["--mu", draw(COMMA_TEXT), "--lam", draw(COMMA_TEXT),
                 "--n", str(draw(st.integers(-2, 2)))]
    elif command in ("satake-table", "verify"):
        argv += ["--bound", str(draw(st.integers(0, 6)))]
        argv += ["--signed-trace"] if draw(st.booleans()) else []
        if command == "verify":
            argv += ["--seed", str(draw(st.integers(0, 3)))]
            argv += ["--inject-fault"] if draw(st.booleans()) else []
    argv += ["--json"] if draw(st.booleans()) else []
    return argv


@functools.lru_cache(maxsize=None)
def fresh_process_run(argv: tuple[str, ...]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``python -m satake`` on argv."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC_DIR)] + ([path] if path else [])))
    proc = subprocess.run([sys.executable, "-m", "satake", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


class TestOneParser:
    """``build_parser`` builds the parser once per process, and parsing
    leaves no trace in it: after a refused command line, an accepted one
    prints and returns what it does in a fresh process."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("accepted", [
        ("verify", "--group", "SL(2)", "--bound", "2"),
        ("satake-table", "--group", "GL(2)", "--bound", "4", "--json"),
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("refused", [
        ("verify", "--group", "SL(2)", "--bound", "-1", "--seed", "3", "--signed-trace"),
        ("verify", "--seed", "x", "--json"),
        ("satake-table", "--bound", "2", "--signed-trace", "--seed", "1"),
        ("describe", "--json", "--bound", "3"),
        ("hecke-mul", "--group", "SL(3)"),
        ("nonsense",),
    ])
    def test_refused_then_accepted_parses_as_fresh(self, capsys, refused, accepted):
        code, out, err = run(capsys, *refused)
        assert code == 2 and out == "" and err.startswith("error: ")
        assert run(capsys, *accepted) == fresh_process_run(accepted)


class TestArgvFuzz:
    @settings(max_examples=150, deadline=None)
    @given(argvs())
    def test_exit_code_and_one_error_line(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2), argv
        if code == 2:
            assert out == "", argv
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        else:
            assert err == "", (argv, err)


class TestVerify:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--group", "PGL(2)", "--bound", "4")
        assert code == 0
        assert "FAIL" not in out
        assert "cross-path oracle equality" in out

    def test_torus_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--group", "torus(1)", "--bound", "4")
        assert code == 0
        assert "FAIL" not in out

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

    def test_json_names_the_catalog_group(self, capsys):
        """``--json`` names the group as the catalog does, as ``describe``
        and ``satake-table --json`` do, not as the ``--group`` text."""
        code, out, _ = run(capsys, "verify", "--group", " GL(2) ", "--bound", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("verify_report.schema.json"))
        assert doc["group"] == catalog(" GL(2) ").name == "GL(2)"


class TestBenchReferences:
    """``satake verify`` stdout of the benchmark's verify cells must equal
    the references the benchmark checks it against, so a change to a
    suite's text fails here before it fails the benchmark."""

    @pytest.mark.parametrize("group, bound", bench_child.VERIFY_CELLS)
    def test_verify_matches_bench_reference(self, capsys, group, bound):
        ref = Path(bench_child.REFERENCE) / f"verify-{bench_child.slug(group)}-b{bound}.txt"
        code, out, _ = run(capsys, "verify", "--group", group, "--bound", str(bound), "--seed", "1")
        assert code == 0
        assert out == ref.read_text()

    @pytest.mark.parametrize("workload, seed", [("iwahori-words", 0), ("iwahori-words", 1),
                                                ("dual-table", 1)])
    def test_workload_matches_bench_reference(self, workload, seed):
        """The benchmark's own body and check of the other two workloads,
        run in this process: no operation may fail."""
        import satake
        body, check = bench_child.WORKLOADS[workload]
        results = body(satake, seed, "none", bench_child.Marks())
        out = bench_child.Outcome()
        check(satake, seed, "none", bench_child.load_references(workload), results, out)
        assert out.attempted > 0 and out.failed == 0, (out.attempted, out.failed)


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


class TestDescribeGoldenBytes:
    """sha256 of describe stdout, text then --json, per group."""

    @pytest.mark.parametrize("group, text_digest, json_digest", [
        ("GL(2)", "7fd8893f90a5b4449a2ad807b817b6956beb122b3c499e115d494a8d32b5961a",
         "805ba04ce3e97a75df7ee5b3505b3835d8206ae6729e4541b43d78ac0e6218c1"),
        ("GL(3)", "e2ecbbba3f4a67be13399d99dd0172e367bda17927ada16d34bcb714f0c59e17",
         "5c5d47ea26eb35a075755e08dc2ae472a270481bb66554f8740216a947abb134"),
        ("SL(2)", "37add07b10e3a984c8fced3410e8f9101164ca51a9537197dbd0c52ff7df14e9",
         "10fa7f2d00d4c9f8c4ccd9212002b2405a5391dab24d9164d5f5b1d0da58776f"),
        ("SL(3)", "fb9b7d9f78cec8cd1e13721b22d3eed7eae96ea94f0000f1a5645a4e9d4c8575",
         "9493ba5305657573646bebb23c39240baaeb62b0e745c65fd5655d64ced53c8b"),
        ("PGL(2)", "21f48a65d97e4913a5d2c014992ba865c678b88339bae33b81b83d2785e5db3f",
         "575995c8b4175e93bad1d847a746337f1f516fd585fa86cf4824d9083a21813a"),
        ("PGL(3)", "33ad1fb7bd70cb0cf69ca66a026c85b3b0f9042c8bfd3b82948e2b896c0dbe36",
         "a7ba078a3a7d7777c8fc6fa18f5f7dcc6f082feed9b90b58c2f5d766ce4681b8"),
        ("Sp(4)", "6c34a125c063bb3f747bbfc5e27d5cc6769fcaf01543272b81de40c62c394c45",
         "25cfff7f7d5318aa43c4f0410223ecd8cf508ee892a3d0a6857e6c68d7c70fb1"),
        ("SO(5)", "64fbef210a727cc5ce340f45baea22144bd5df745c49a3e6a6482fb304c524e5",
         "156c113f2ada0eb0d3fbe036d98c463cf2e26fb32468f9c66926f491d5e137fc"),
        ("torus(1)", "51c076c9c924b4e62b97cf9db24968654dd3fa97811092da49e0ce8d64da4e9e",
         "5d12f7e43b2f8341eda6b32a1be4051caa7b5ee495a3f47d2ffef6ae7a5909e7"),
        ("Sp(4)*SL(2)", "948dca8ca8ea4713a97d68df2ba3a748acd8a81b92ab1d89870647e5bafdfcd5",
         "cbacc36c70a8f700a8483db8f87ec52e47380c9232aeecae39a5b7118277cfad"),
        ("SO(5)*PGL(3)*torus(2)",
         "1428096d563c045eaf02889563957824b84cf1357c82197681c896c9b188f6e4",
         "58e2aafaa2d44639c64f617eedd0e6cc6c31323a36895404ed6eed59c996f7e1"),
        ("GL(20)", "38c48968a4e3d26695fab90a8eab5242b182cf19e67af243b06f903e3c808ec7",
         "0b3988753e6ea10acc60a8fde7d0f5536b029c633e033409ed524593f3ba2426"),
    ])
    def test_describe(self, capsys, group, text_digest, json_digest):
        for extra, digest in (((), text_digest), (("--json",), json_digest)):
            code, out, _ = run(capsys, "describe", "--group", group, *extra)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, extra


@pytest.mark.parametrize("group", FAMILY_NAMES + ["Sp(4)*SL(2)", "SL(3)*GL(2)*SL(2)",
                                   "SO(5)*PGL(3)*torus(2)"])
def test_describe_json_reads_one_epsilon_and_the_dual_name(capsys, group):
    """The two epsilon keys are one fact, and the dual group is named as
    the dual root datum names itself."""
    code, out, _ = run(capsys, "describe", "--group", group, "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["epsilon_trivial"] == doc["direct_product"]
    assert doc["dual_group"] == dual(catalog(group)).name


class TestEnvironmentIgnored:
    """No ``SATAKE_*`` variable, well-formed or not, changes what a
    command prints or returns, not even where the command line leaves the
    group or the bound at its default."""

    @pytest.mark.parametrize("argv", [("describe",), ("satake-table", "--bound", "4"),
                                      ("verify", "--group", "SL(2)")],
                             ids=lambda argv: argv[0])
    def test_satake_variables_change_nothing(self, capsys, monkeypatch, argv):
        expected = run(capsys, *argv)
        for var, valid in [("GROUP", "SL(3)"), ("BOUND", "2"), ("SIGNED_TRACE", "1"),
                           ("JSON", "1"), ("SEED", "3")]:
            for value in (valid, "x"):
                with monkeypatch.context() as m:
                    m.setenv(f"SATAKE_{var}", value)
                    assert run(capsys, *argv) == expected, (var, value)
