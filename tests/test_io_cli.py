import hashlib
import json
import pathlib
import resource
import subprocess
import sys

import jsonschema
import pytest

from trihom import io as gio
from trihom import multigraph as mg
from trihom.cli import main
from trihom.errors import MalformedPairing

SCHEMA_DIR = None


def _schema(name):
    import importlib.resources as res

    with res.files("trihom.schemas").joinpath(name).open() as fh:
        return json.load(fh)


def test_graph_text_roundtrip(theta, dumbbell, k4):
    for g in (theta, dumbbell, k4):
        text = gio.to_graph_text(g)
        assert gio.from_graph_text(text) == g


def test_graph_text_comments_and_errors():
    g = gio.from_graph_text("# theta\nk 1\ne 0 3 # inline\ne 1 4\ne 2 5\n")
    assert g.num_vertices == 2
    with pytest.raises(MalformedPairing):
        gio.from_graph_text("e 0 3\n")  # no header
    with pytest.raises(MalformedPairing):
        gio.from_graph_text("k 1\nq 0 3\n")
    with pytest.raises(MalformedPairing):
        gio.from_graph_text("k 0\n")
    with pytest.raises(MalformedPairing, match="needs 3 edge lines, got 2"):
        gio.from_graph_text("k 1\ne 0 3\ne 1 4\n")
    # the edge count is checked before any dart array is built, so a huge
    # `k` fails at once instead of asking for memory
    with pytest.raises(MalformedPairing, match="needs 3000000000000000 edge"):
        gio.from_graph_text("k 1000000000000000\n")


def test_dot_and_jsonl(theta):
    dot = gio.to_dot(theta)
    assert "graph" in dot and dot.count("--") == 3
    rec = json.loads(gio.to_jsonl_record(theta))
    jsonschema.validate(rec, _schema("enumerate-record.schema.json"))


def _json_dumps_record(g):
    """The record as `json.dumps` writes it, keys sorted and no spaces
    between tokens: the reference that `to_jsonl_record` must match."""
    rec = {
        "k": g.k,
        "pairing": [list(e) for e in g.edges],
        "canonical_code": " ".join(str(x) for x in mg.canonical_code(g)),
    }
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("policy", list(mg.TadpolePolicy))
def test_jsonl_record_matches_json_dumps(policy, rng):
    """Each record is byte for byte what `json.dumps` writes, for every
    class with k <= 5 and for random relabellings of the classes with
    k <= 4, which are not canonical and so reach the minimal-code search."""
    for k in range(1, 6):
        for rep in mg.enumerate_trivalent(k, policy):
            assert gio.to_jsonl_record(rep) == _json_dumps_record(rep)
            if k <= 4:
                g = mg.relabel(rep, mg.random_relabelling(rep, rng))
                assert not g._canonical
                assert gio.to_jsonl_record(g) == _json_dumps_record(g)


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "trihom.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc


def run_cli_ok(*argv):
    """stdout of a run that must exit 0 and print something."""
    proc = run_cli(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    return proc.stdout


def test_cli_enumerate_counts():
    out = run_cli("enumerate", "--k", "1", "--tadpoles", "exclude", "--format", "jsonl")
    assert out.returncode == 0
    assert len(out.stdout.strip().splitlines()) == 1
    out = run_cli("enumerate", "--k", "2", "--tadpoles", "exclude")
    assert out.returncode == 0
    assert len(out.stdout.strip().splitlines()) == 2


def test_cli_enumerate_bad_k():
    out = run_cli("enumerate", "--k", "0")
    assert out.returncode == 2


def test_cli_enumerate_formats(tmp_path):
    out = run_cli("enumerate", "--k", "1", "--format", "graph-text")
    assert out.stdout.startswith("k 1\n")
    out = run_cli("enumerate", "--k", "1", "--format", "dot")
    assert "graph G0" in out.stdout


def test_cli_dim_report_schema():
    out = run_cli("dim", "--k", "1", "--convention", "odd")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["dimension"] == 1
    jsonschema.validate(doc, _schema("report.schema.json"))
    out = run_cli("dim", "--k", "1", "--convention", "even")
    assert json.loads(out.stdout)["dimension"] == 0


def test_cli_dim_certify_schema():
    out = run_cli("dim", "--k", "2", "--convention", "even", "--certify")
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    jsonschema.validate(doc, _schema("report.schema.json"))
    assert len(doc["certificates"]) == len(doc["classes"])
    kinds = {c.get("kind") or c["type"] for c in doc["certificates"]}
    # mixed zero witnesses and nonzero functionals
    assert kinds == {"sign-witness", "nonzero"}


def test_cli_dim_oracle_check():
    out = run_cli("dim", "--k", "2", "--convention", "even", "--oracle-check")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["oracle_check"]["agrees"] is True
    out = run_cli("dim", "--k", "3", "--convention", "even", "--oracle-check")
    assert out.returncode == 2  # oracle capped at k <= 2


def test_cli_oracle_failure_exit_code(monkeypatch, capsys):
    """An oracle that places no IHX term in its class list ends in one
    `error:` line and the oracle-mismatch exit code, not a traceback."""
    from trihom import oracle

    groups, _ = oracle._representatives(1)
    monkeypatch.setattr(oracle, "_representatives", lambda k: (groups, {}))
    assert main(["dim", "--k", "1", "--convention", "odd", "--oracle-check"]) == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


_NO_NUMPY = """
import sys
sys.modules["numpy"] = None  # any `import numpy` now raises ImportError
from trihom import homology
from trihom.cli import main
homology.dimension = None  # the oracle import is checked before any work
sys.exit(main(["dim", "--k", "1", "--convention", "odd", "--oracle-check"]))
"""


def test_cli_oracle_check_without_numpy():
    """Without numpy, `--oracle-check` stops with one `error:` line naming
    the `oracle` extra and the bad-input exit code, before any report."""
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY], capture_output=True, text=True
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: --oracle-check needs numpy and scipy "
        "(pip install 'trihom[oracle]')\n"
    )


@pytest.mark.parametrize("module", ["trihom", "trihom.cli"])
def test_import_loads_no_numpy_or_scipy(module):
    """Only the k <= 2 oracle needs numpy and scipy, and it is imported
    where `--oracle-check` runs, so importing the package or its CLI loads
    neither."""
    code = (
        f"import sys, {module}; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"


def test_cli_dump_matrix(tmp_path):
    path = tmp_path / "rel.mtx"
    out = run_cli(
        "dim", "--k", "2", "--convention", "odd", "--dump-matrix", str(path),
        "--json", str(tmp_path / "r.json"),
    )
    assert out.returncode == 0
    assert path.read_text().startswith("%%MatrixMarket")


def test_cli_plan(tmp_path, theta):
    gfile = tmp_path / "theta.g"
    gfile.write_text(gio.to_graph_text(theta))
    out = run_cli("plan", "--graph", str(gfile), "--ambient-dim", "4")
    assert out.returncode == 0
    assert "ambient dimension d=4" in out.stdout

    out = run_cli("plan", "--graph", str(gfile), "--ambient-dim", "3")
    assert out.returncode == 2

    out = run_cli(
        "plan", "--graph", str(gfile), "--ambient-dim", "5", "--format", "json"
    )
    doc = json.loads(out.stdout)
    jsonschema.validate(doc, _schema("plan.schema.json"))
    assert doc["family_dim"] == 2

    out = run_cli("plan", "--graph", str(tmp_path / "missing.g"), "--ambient-dim", "4")
    assert out.returncode == 2

    bad = tmp_path / "bad.g"
    bad.write_bytes(b"\xff\xfe\x00bad")  # not UTF-8 text
    out = run_cli("plan", "--graph", str(bad), "--ambient-dim", "4")
    assert out.returncode == 2
    assert "cannot read graph file" in out.stderr


def test_cli_plan_k4_json(tmp_path, k4):
    gfile = tmp_path / "k4.g"
    gfile.write_text(gio.to_graph_text(k4))
    out = run_cli(
        "plan", "--graph", str(gfile), "--ambient-dim", "5", "--format", "json"
    )
    doc = json.loads(out.stdout)
    assert doc["family_dim"] == 4


@pytest.mark.parametrize("d", [4, 5])
def test_cli_plan_every_graph_k_le_2(tmp_path, capsys, d):
    """`plan` succeeds on every graph with k <= 2, loops included, in an
    even and an odd ambient dimension: no graph lacks a vertex typing."""
    graphs = [
        g for k in (1, 2) for g in mg.enumerate_trivalent(k, mg.TadpolePolicy.INCLUDE)
    ]
    assert len(graphs) == 7
    for i, g in enumerate(graphs):
        gfile = tmp_path / f"g{i}.g"
        gfile.write_text(gio.to_graph_text(g))
        rc = main(["plan", "--graph", str(gfile), "--ambient-dim", str(d)])
        assert rc == 0, capsys.readouterr().err
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--k", "1", "--output"),
        ("dim", "--k", "1", "--convention", "odd", "--json"),
        ("dim", "--k", "1", "--convention", "odd", "--dump-matrix"),
        ("plan", "--ambient-dim", "4", "--output"),
    ],
    ids=["enumerate-output", "dim-json", "dim-dump-matrix", "plan-output"],
)
def test_cli_unwritable_output_exit_code(tmp_path, theta, argv):
    if argv[0] == "plan":
        gfile = tmp_path / "theta.g"
        gfile.write_text(gio.to_graph_text(theta))
        argv = (argv[0], "--graph", str(gfile), *argv[1:])
    path = tmp_path / "missing" / "out"
    out = run_cli(*argv, str(path))
    assert out.returncode == 2
    assert out.stderr.startswith(f"error: cannot write {path}: ")
    assert out.stderr.count("\n") == 1 and "Traceback" not in out.stderr


def test_cli_resource_limit_exit_code(monkeypatch):
    """Enumeration streams its classes, and a ceiling that the second class
    of k=2 passes still exits 4 with nothing on stdout."""
    monkeypatch.setenv("AK_MAX_CLASSES", "1")
    dim = ("dim", "--k", "2", "--convention", "odd")
    for argv in (("enumerate", "--k", "2"), dim):
        out = subprocess.run(
            [sys.executable, "-m", "trihom.cli", *argv],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 4
        assert out.stdout == "" and "AK_MAX_CLASSES=1" in out.stderr


def test_cli_matrix_limit_exit_code(monkeypatch):
    monkeypatch.setenv("AK_MAX_MATRIX", "10")
    out = run_cli("dim", "--k", "4", "--convention", "odd", "--certify")
    assert out.returncode == 4
    assert out.stderr.startswith("error: matrix ") and "AK_MAX_MATRIX" in out.stderr
    assert "Traceback" not in out.stderr and out.stdout == ""


def _cap_address_space():
    """Cap the child's address space at 2 GiB, so that an allocation that
    does go through fails at once instead of taking the host's memory."""
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize(
    "argv",
    [("enumerate",), ("dim", "--convention", "even")],
    ids=["enumerate", "dim"],
)
def test_cli_huge_k_exit_code(argv):
    """A k whose dart array cannot be allocated exits 4 with an error line,
    not a traceback."""
    out = subprocess.run(
        [sys.executable, "-m", "trihom.cli", *argv, "--k", str(10**18)],
        capture_output=True,
        text=True,
        preexec_fn=_cap_address_space,
    )
    assert out.returncode == 4
    assert out.stderr == "error: out of memory\n" and out.stdout == ""


@pytest.mark.parametrize(
    "var, argv",
    [
        ("AK_MAX_CLASSES", ("enumerate", "--k", "2")),
        ("AK_MAX_MATRIX", ("dim", "--k", "2", "--convention", "odd")),
    ],
)
def test_cli_malformed_limit_exit_code(monkeypatch, var, argv):
    # The child sees the value only if it inherits os.environ, and the
    # message quoting it back shows that it did.
    monkeypatch.setenv(var, "ten")
    out = run_cli(*argv)
    assert out.returncode == 2
    assert out.stderr == f"error: {var}='ten' is not an integer\n"
    assert out.stdout == ""


@pytest.mark.parametrize(
    "var, argv",
    [
        ("AK_MAX_CLASSES", ("enumerate", "--k", "3")),
        ("AK_MAX_MATRIX", ("dim", "--k", "2", "--convention", "odd")),
    ],
)
def test_cli_negative_limit_exit_code(monkeypatch, var, argv):
    """A negative ceiling is bad input, not a limit every run exceeds."""
    monkeypatch.setenv(var, "-1")
    out = run_cli(*argv)
    assert out.returncode == 2
    assert out.stderr == f"error: {var}='-1' must be >= 0\n"
    assert out.stdout == ""


def test_cli_byte_determinism():
    a = run_cli_ok("dim", "--k", "2", "--convention", "even", "--certify")
    b = run_cli_ok("dim", "--k", "2", "--convention", "even", "--certify")
    assert a == b
    a = run_cli_ok("enumerate", "--k", "3")
    b = run_cli_ok("enumerate", "--k", "3")
    assert a == b


# sha256 of `trihom enumerate --format jsonl` stdout: a change of canonical
# code or class order changes the bytes.
ENUMERATE_SHA256 = {
    (4, "exclude"): "1bc92b0ffbad082afc284fc3091a718ab1346dcad708863f810573aa7f87c675",
    (4, "include"): "2f9ee9da5f60d82ce271e20bad3ec247b9a75f6c59801d754836c2f3b0821186",
    (5, "exclude"): "978624f7800da79559bce95b4c3e8f14f4d85902e1a8f11ddc76e32d4ed9542b",
    (5, "include"): "7ce0eb5b2b0b1aea5fe6d3e14d7d60b9e04cf4b40bfda4129d6854c3669bbdc6",
}


@pytest.mark.parametrize("k, tadpoles", sorted(ENUMERATE_SHA256))
def test_cli_enumerate_bytes_pinned(k, tadpoles):
    out = run_cli_ok("enumerate", "--k", str(k), "--tadpoles", tadpoles, "--format", "jsonl")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == ENUMERATE_SHA256[k, tadpoles]


def test_enumerate_jsonl_runs_no_canonical_search(monkeypatch, capsys, rng):
    """`trihom enumerate --format jsonl` writes the code that each
    enumerated representative carries and runs no minimal-code search; the
    record of a relabelled representative is searched and still carries
    its representative's code."""
    searches = []
    search = mg._min_code_ties

    def counted(partner):
        searches.append(tuple(partner))
        return search(partner)

    monkeypatch.setattr(mg, "_min_code_ties", counted)
    argv = ["enumerate", "--k", "4", "--tadpoles", "include", "--format", "jsonl"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_SHA256[4, "include"]
    assert searches == []
    reps = list(mg.enumerate_trivalent(3, mg.TadpolePolicy.INCLUDE))
    for rep in reps:
        g = mg.relabel(rep, mg.random_relabelling(rep, rng))
        assert json.loads(gio.to_jsonl_record(g))["canonical_code"] == rep.code_str()
    assert len(searches) == len(reps)


# sha256 of `trihom dim --certify` stdout: a change of class order,
# witness map or certificate changes the bytes.
CERTIFY_SHA256 = {
    (3, "even", "exclude"): "3a17880d21eac17d791a70a57669bc2573a56fce8e1ca4ba119d0a7ddb2c9b29",
    (3, "even", "include"): "135ffa2ba168beadfbe8ece31f30b863a04119cc777679a2bbc4909a2b7082f6",
    (3, "odd", "exclude"): "f19aebc96ee492ca237117c6713652e2d79d56d426eedb4c796f78ed33ef379a",
    (3, "odd", "include"): "b7c04822f5c971c665528c4441b8e5bcc7b74ac7aa7971039b9fa0f081efef40",
    (4, "odd", "exclude"): "6f5ee2f2a39f6c75e3a833a0bcf917e758b473bd457f2c5780f6975298811e47",
}


@pytest.mark.parametrize(
    "k, convention, tadpoles",
    [
        # k=3 cases are named by convention and policy alone
        pytest.param(k, c, t, id=f"{c}-{t}" if k == 3 else f"k{k}-{c}-{t}")
        for k, c, t in sorted(CERTIFY_SHA256)
    ],
)
def test_cli_dim_certify_bytes_pinned(k, convention, tadpoles):
    out = run_cli_ok(
        "dim", "--k", str(k), "--convention", convention,
        "--tadpoles", tadpoles, "--certify",
    )
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == CERTIFY_SHA256[k, convention, tadpoles]


def test_build_census_help_writes_nothing():
    """`--help` prints usage and exits before any regeneration, so the
    census is left as it was."""
    root = pathlib.Path(__file__).resolve().parent.parent
    census = root / "data" / "census.json"
    before = census.read_bytes(), census.stat().st_mtime_ns
    proc = subprocess.run(
        [sys.executable, str(root / "tools" / "build_census.py"), "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:") and "--out" in proc.stdout
    assert (census.read_bytes(), census.stat().st_mtime_ns) == before
