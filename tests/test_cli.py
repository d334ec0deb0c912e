import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bruhatkit import fflab
from bruhatkit.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, args):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, args):
    rc, out, err = run(capsys, args)
    return rc, json.loads(out) if out.strip() else None, err


def test_phi_table_json_golden(capsys):
    rc, payload, _ = run_json(capsys, ["phi", "BC", "2"])
    assert rc == 0
    assert payload == {
        "family": "BC",
        "rank": 2,
        "order": 8,
        "classes": [
            {"class_label": [[1, 1], []], "size": 1, "d_C": 0, "elliptic": False,
             "phi": [1, 1, 1, 1]},
            {"class_label": [[1], [1]], "size": 2, "d_C": 1, "elliptic": False,
             "phi": [2, 1, 1]},
            {"class_label": [[2], []], "size": 2, "d_C": 1, "elliptic": False,
             "phi": [2, 2]},
            {"class_label": [[], [2]], "size": 2, "d_C": 2, "elliptic": True,
             "phi": [4]},
            {"class_label": [[], [1, 1]], "size": 1, "d_C": 4, "elliptic": True,
             "phi": [2, 2]},
        ],
    }


def test_phi_a2_and_out_of_scope_d(capsys):
    rc, payload, _ = run_json(capsys, ["phi", "A", "2"])
    assert rc == 0
    assert len(payload["classes"]) == 3
    assert all(r["class_label"] == r["phi"] for r in payload["classes"])
    rc, _, err = run(capsys, ["phi", "D", "3"])
    assert rc == 2
    assert "out of scope" in err


def test_classes_d_has_no_phi_column(capsys):
    rc, payload, _ = run_json(capsys, ["classes", "D", "3"])
    assert rc == 0
    assert all(r["phi"] is None for r in payload["classes"])
    assert sum(r["size"] for r in payload["classes"]) == 24


def test_order_command(capsys):
    rc, payload, _ = run_json(capsys, ["order", "A", "2", "--gl", "--q", "2"])
    assert rc == 0 and payload["order"] == 168
    rc, payload, _ = run_json(capsys, ["order", "BC", "2", "--q", "3"])
    assert rc == 0 and payload["order"] == 51840
    rc, _, err = run(capsys, ["order", "BC", "2", "--gl", "--q", "3"])
    assert rc == 2 and "family A" in err
    rc, _, err = run(capsys, ["order", "A", "2", "--q", "6"])
    assert rc == 2 and "prime power" in err


M61 = 2**61 - 1  # a Mersenne prime


@pytest.mark.parametrize("q,rc", [
    (4, 0), (8, 0), (9, 0), (3**20, 0), (M61, 0), (M61**2, 0),
    (1, 2), (6, 2), (12, 2), (6 * M61, 2),
    (2**89 - 1, 2),  # prime, but beyond the range is_prime certifies
])
def test_order_prime_power_check_is_fast(capsys, q, rc):
    # trial division took minutes on 2^61 - 1
    start = time.perf_counter()
    code, _, err = run(capsys, ["order", "A", "1", "--q", str(q)])
    assert time.perf_counter() - start < 1.0
    assert code == rc
    assert (err == "") == (rc == 0)


def test_poincare_command(capsys):
    rc, payload, _ = run_json(capsys, ["poincare", "A", "2"])
    assert rc == 0
    assert payload["coefficients"] == [1, 2, 2, 1]
    assert payload["pretty"] == "q^3 + 2*q^2 + 2*q + 1"
    rc, out, _ = run(capsys, ["--format", "table", "poincare", "BC", "2"])
    assert rc == 0 and out.strip() == "q^4 + 2*q^3 + 2*q^2 + 2*q + 1"


def test_hecke_command(capsys):
    rc, payload, _ = run_json(capsys, ["hecke", "1", "1", "A", "2"])
    assert rc == 0
    assert payload["pretty"] == "q*T[e] + (q - 1)*T[2,1,3]"
    terms = {tuple(t["window"]): t["coefficients"] for t in payload["terms"]}
    assert terms == {(1, 2, 3): [0, 1], (2, 1, 3): [-1, 1]}
    rc, payload, _ = run_json(capsys, ["hecke", "1 2 1", "2 1 2", "A", "2"])
    assert rc == 0
    rc, _, err = run(capsys, ["hecke", "9", "1", "A", "2"])
    assert rc == 2 and "generators outside" in err


def test_decompose_command(capsys):
    matrix = json.dumps({"field": {"p": 2}, "rows": 2, "cols": 2,
                         "entries": [[1, 0], [1, 1]]})
    rc, payload, _ = run_json(capsys, ["decompose", matrix])
    assert rc == 0
    assert payload["w"] == [2, 1]
    assert payload["reduced_word"] == [1]
    assert payload["verified"] is True
    assert payload["b1"]["field"] == {"p": 2}


def test_decompose_errors(capsys):
    singular = json.dumps({"field": "Q", "rows": 2, "cols": 2,
                           "entries": [[1, 2], [2, 4]]})
    rc, _, err = run(capsys, ["decompose", singular])
    assert rc == 2
    assert "column 2" in err
    rc, _, err = run(capsys, ["decompose", '{"field": "Q", "rows": 2'])
    assert rc == 2
    assert "parse error" in err and "line 1" in err


@pytest.mark.parametrize("field, entries", [
    ("Q", 5),                     # not a list of rows
    ("Q", [[1.5, 0], [0, 1]]),    # float entry
    ("Q", [["1/0", 0], [0, 1]]),  # zero denominator
    ({"p": 5}, [[True, 0], [0, 1]]),  # JSON true is not the integer 1
    ({"p": 5}, [[1.0, 0], [0, 1]]),
], ids=["not-rows", "float-q", "zero-denominator", "bool", "float-gf"])
def test_decompose_rejects_malformed_entries(field, entries):
    matrix = json.dumps({"field": field, "rows": 2, "cols": 2, "entries": entries})
    proc = subprocess.run([sys.executable, "-m", "bruhatkit", "decompose", matrix],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


ONE_BY_ONE = json.dumps({"field": "Q", "rows": 1, "cols": 1, "entries": [[2]]})


@pytest.mark.parametrize("args,message", [
    (["decompose", "[[1,0],[0,1]]"], "matrix JSON must be an object"),
    (["decompose", ONE_BY_ONE], "need a matrix of size at least 2, got 1x1"),
    (["relpos", ONE_BY_ONE, ONE_BY_ONE], "need a matrix of size at least 2, got 1x1"),
    # a name too long for the file system is no file either
    (["decompose", "a" * 300], "neither inline JSON nor an existing file"),
], ids=["inline-array", "decompose-1x1", "relpos-1x1", "long-name"])
def test_matrix_input_messages(capsys, args, message):
    rc, out, err = run(capsys, args)
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err


@pytest.mark.parametrize("args,message", [
    # not a plain negative number, so argparse takes it for an option
    (["decompose", "-1e-05"], "the following arguments are required: matrix"),
    (["verify", "gl", "3", "--q", "3", "--workers", "2"], "unrecognized arguments: --workers 2"),
    (["relpos", "{}"], "the following arguments are required: flag2"),
], ids=["dash-matrix", "unknown-option", "missing-positional"])
def test_usage_errors_return_2_with_one_line(capsys, args, message):
    rc, out, err = run(capsys, args)
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["decompose", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: bruhatkit decompose")


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_deeply_nested_matrix_json_exits_2(tmp_path, capsys, monkeypatch, source):
    depth = 100_000
    text = '{"field": "Q", "rows": 2, "cols": 2, "entries": ' + "[" * depth + "]" * depth + "}"
    if source == "file":
        path = tmp_path / "deep.json"
        path.write_text(text)
        arg = str(path)
    else:
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        arg = "-"
    rc, out, err = run(capsys, ["decompose", arg])
    assert rc == 2 and out == ""
    assert err == "error: matrix JSON is nested too deeply\n"


def test_decompose_from_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"field": "Q", "rows": 3, "cols": 3,
                                "entries": [[0, 0, 1], [0, 1, 0], [1, 0, 0]]}))
    rc, payload, _ = run_json(capsys, ["decompose", str(path)])
    assert rc == 0
    assert payload["w"] == [3, 2, 1]
    assert payload["length"] == 3


def test_relpos_command(capsys):
    ident = json.dumps({"field": {"p": 5}, "rows": 3, "cols": 3,
                        "entries": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    anti = json.dumps({"field": {"p": 5}, "rows": 3, "cols": 3,
                       "entries": [[0, 0, 1], [0, 1, 0], [1, 0, 0]]})
    rc, payload, _ = run_json(capsys, ["relpos", ident, anti])
    assert rc == 0 and payload["w"] == [3, 2, 1]
    rc, payload, _ = run_json(capsys, ["relpos", ident, ident])
    assert rc == 0 and payload["w"] == [1, 2, 3]


def test_cell_count_command(capsys):
    rc, payload, _ = run_json(
        capsys, ["cell-count", "BC", "2", "--w=-1,-2", "--q", "3", "--enumerate"])
    assert rc == 0
    assert payload["length"] == 4
    assert payload["cell_order"] == 3**4 * 324
    assert payload["enumerated"] == payload["cell_order"]
    rc, payload, _ = run_json(capsys, ["cell-count", "A", "2", "--word", "1 2", "--q", "2"])
    assert rc == 0 and payload["cell_order"] == 2**2 * 8
    rc, _, err = run(capsys, ["cell-count", "A", "2", "--q", "2"])
    assert rc == 2 and "exactly one" in err
    rc, _, err = run(capsys, ["cell-count", "A", "2", "--w", "2,1,3", "--q", "4"])
    assert rc == 2 and "prime" in err


def test_verify_command_small(capsys):
    rc, payload, _ = run_json(capsys, ["verify", "sl", "2", "--q", "3", "--seed", "5"])
    assert rc == 0
    assert payload["ok"] is True
    section = payload["theorem_a"][0]
    assert section["all_match"] and section["integrity"]["order_check"]["ok"]
    assert section["spot_checks"]["seed"] == 5


def test_verify_sl3_f2(capsys):
    rc, payload, _ = run_json(capsys, ["verify", "sl", "3", "--q", "2"])
    assert rc == 0
    section = payload["theorem_a"][0]
    assert len(section["classes"]) == 3
    assert all(r["match"] for r in section["classes"])


def test_verify_bad_prime_and_override(capsys):
    rc, _, err = run(capsys, ["verify", "sp", "4", "--q", "2"])
    assert rc == 2 and "bad prime" in err
    rc, payload, _ = run_json(
        capsys, ["verify", "sp", "4", "--q", "2", "--allow-bad-prime", "--no-property-d"])
    assert rc == 0
    assert payload["theorem_a"][0]["advisory"] is True


@pytest.mark.parametrize("args", [
    ["sl", "2", "--q", "3", "--no-theorem-a"],
    ["sl", "2", "--q", "3", "--q", "5", "--no-theorem-a", "--no-property-d"],
])
def test_verify_with_nothing_to_check_exits_2(capsys, args):
    rc, out, err = run(capsys, ["verify", *args])
    assert rc == 2 and not out
    assert err.count("\n") == 1 and err.startswith("error: nothing to verify")


def test_verify_exits_1_when_a_spot_check_fails(capsys, monkeypatch):
    real = fflab._spot_checks

    def failing(*args, **kwargs):
        return {**real(*args, **kwargs), "ok": False}

    monkeypatch.setattr(fflab, "_spot_checks", failing)
    rc, payload, _ = run_json(capsys, ["verify", "sl", "2", "--q", "3", "--seed", "1"])
    assert rc == 1 and payload["ok"] is False
    assert payload["theorem_a"][0]["all_match"] and payload["theorem_a"][0]["ok"] is False


def test_verify_refuses_property_d_on_gl_before_theorem_a(capsys, monkeypatch):
    def no_theorem_a(*args, **kwargs):
        raise AssertionError("theorem A ran before property D refused GL")

    monkeypatch.setattr(fflab, "verify_theorem_a", no_theorem_a)
    rc, out, err = run(capsys, ["verify", "gl", "3", "--q", "3", "--q", "5"])
    assert rc == 2 and not out
    assert err.count("\n") == 1 and err.startswith("error: the centralizer-dimension statement")


def test_verify_budget_message(capsys, monkeypatch):
    # a tight budget pushes the run into cell mode, whose unipotent census
    # then refuses with the size it needed: |W| * |B| = 6 * 216 matrices
    rc, _, err = run(capsys, ["verify", "gl", "3", "--q", "3", "--budget", "100"])
    assert rc == 2
    assert "budget" in err and "1296" in err
    monkeypatch.setenv("BRUHATKIT_BUDGET", "100")
    rc, _, err = run(capsys, ["verify", "gl", "3", "--q", "3"])
    assert rc == 2 and "1296" in err
    # the census budget is checked before any slice is scanned, so it is the
    # one reported when the cell budget is over too
    rc, _, err = run(capsys, ["verify", "sp", "4", "--q", "5", "--cell-budget", "1000"])
    assert rc == 2 and "unipotent census" in err and "80000" in err
    # and the cell budget bounds the Borel grid of |B| = 10000 matrices of
    # Sp_4(F_5) the scans share, once the census (80000) is in budget
    monkeypatch.delenv("BRUHATKIT_BUDGET")
    rc, _, err = run(capsys, ["verify", "sp", "4", "--q", "5", "--cell-budget", "1000"])
    assert rc == 2 and "budget" in err and "10000" in err
    assert "unipotent census" not in err


def test_class_bfs_over_the_cell_budget_exits_2(capsys, monkeypatch):
    # a commutant too large to enumerate sends every class to the BFS, which
    # the cell budget bounds: a Coxeter class of Sp_4(F_5) has 187,200 elements
    monkeypatch.setattr(fflab, "_commutant",
                        lambda a, b, p: np.zeros((99, *a.shape), dtype=np.int64))
    rc, out, err = run(capsys, ["verify", "sp", "4", "--q", "5", "--q", "7", "--no-theorem-a",
                                "--cell-budget", "100000"])
    assert rc == 2 and not out
    assert err.count("\n") == 1 and "conjugation orbit reached" in err
    assert "elements, over budget 100000" in err


def test_closure_past_int64_codes_exits_2(capsys):
    # the orbits of Sp_8 at the bad prime 2 would need 2^64 codes.  The cell
    # budget is raised past |B| = 688,747,536 of Sp_8(F_3), which the default
    # refuses before any scan; the q = 2 pass must then fail before the
    # q = 3 grid (about 350 GB) is built
    rc, out, err = run(capsys, ["verify", "sp", "8", "--q", "2", "--q", "3", "--no-theorem-a",
                                "--allow-bad-prime", "--cell-budget", "1000000000"])
    assert rc == 2 and not out
    assert err.count("\n") == 1 and "8x8 matrices over GF(2)" in err


@pytest.mark.parametrize("env,args,source", [
    ("abc", ["verify", "sl", "2", "--q", "3"], "BRUHATKIT_BUDGET"),
    ("-5", ["verify", "sl", "2", "--q", "3"], "BRUHATKIT_BUDGET"),
    ("0", ["verify", "sl", "2", "--q", "3"], "BRUHATKIT_BUDGET"),
    (None, ["verify", "sl", "2", "--q", "3", "--budget", "0"], "--budget"),
    (None, ["verify", "sl", "2", "--q", "3", "--budget", "1e6"], "--budget"),
    ("100", ["verify", "sl", "2", "--q", "3", "--budget", "-5"], "--budget"),
    (None, ["verify", "sl", "2", "--q", "3", "--cell-budget", "-1"], "--cell-budget"),
    (None, ["verify", "sl", "2", "--q", "3", "--cell-budget", "many"], "--cell-budget"),
    (None, ["cell-count", "A", "1", "--w", "2,1", "--q", "3", "--cell-budget", "0"],
     "--cell-budget"),
])
def test_bad_budgets_exit_2_naming_the_source(capsys, monkeypatch, env, args, source):
    if env is None:
        monkeypatch.delenv("BRUHATKIT_BUDGET", raising=False)
    else:
        monkeypatch.setenv("BRUHATKIT_BUDGET", env)
    rc, out, err = run(capsys, args)
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {source} must be a positive integer")


@pytest.mark.parametrize("args,digest", [
    (["sp", "4", "--q", "3", "--q", "5"],
     "a878612f4467d9018d4388094ffa821a7f50319058e88f30b701440ac17351b2"),
    (["sl", "3", "--q", "3", "--q", "5"],
     "ade987cff8c3e138e4d8a8e1517fd323f205e2d6b62c719d2882404f1694638b"),
])
def test_property_d_report_bytes_are_pinned(capsys, args, digest):
    # SHA-256 of the whole stdout, the same bytes perfbench's digests pin
    rc, out, _ = run(capsys, ["verify", *args, "--no-theorem-a"])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sl4_property_d_report_bytes_are_pinned(capsys):
    # the only property-D run on SL_4, whose elliptic classes split into
    # rational forms that the commutant route sizes; it exits 1, as the raw
    # B(F_q)-orbit counts move with q where the centre has more F_q-points
    rc, out, _ = run(capsys, ["verify", "sl", "4", "--q", "3", "--q", "5", "--no-theorem-a"])
    assert rc == 1
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "6486233d5163c11efb9ff72dd5b54a32f5f024b1dcc08fa7c313cc3dbcca42b2")


@pytest.mark.parametrize("args,digest", [
    (["sp", "4", "--q", "5"], "0e631ab22aa2142f6303adb16a962b3aee3c413f358d626ba06c30b100379d57"),
    # the whole-group table path
    (["sl", "3", "--q", "3"], "7e970dbd9a01c7fc58e1e92023466cb0f6eb869ce8c419ab1f69810624a11df1"),
    (["gl", "4", "--q", "3"], "f0a12e2b6d5aea8c2546ee56d809e551429ada7e261ce5cbf9880621dda06c87"),
    (["sl", "4", "--q", "5"], "59d3ee162afae87d339d0adc71f32c19800392d99a1ba8a370fedfc372cf81f5"),
    # the benchmark's table workload: its spot checks index the group in code order
    (["sl", "3", "--q", "5"], "4f6f79d40d1c11eb70ecb3e0bcc1ad624051ddbfc2e96de21e6d730879faa8e7"),
    # a symplectic table, and a GL table whose closure takes the torus generator
    (["sp", "4", "--q", "3"], "791aeba2160a3a031579deb233d02c1d4776d52e370fdb728cf1f3a3bebe09f3"),
    (["gl", "3", "--q", "3"], "6089729728175311035b9529e6dfb8b03e7aaef9765f0909b50a2865cf16b0e9"),
    # the cell walk's reach: a rank-3 symplectic group and a rank-5 linear one
    (["sp", "6", "--q", "3"], "c8dfdab0ad87b9cdd1a1b34535581e9d886aef76b620af457e1261697733682f"),
    (["sl", "5", "--q", "2"], "79e17027687235113e0d05bb1fa4c712094f26158d810c74c7014f5fe20a4a5d"),
])
def test_theorem_a_report_bytes_are_pinned(capsys, args, digest):
    # SHA-256 of the whole stdout of the theorem-A run
    rc, out, _ = run(capsys, ["verify", *args, "--seed", "1"])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_does_not_import_numpy_ma():
    # in numpy 2.x a plain np.unique(x), without return_index or
    # return_inverse, imports numpy.ma, which costs about 25 ms in a cold run
    script = ("import sys\nfrom bruhatkit.cli import main\n"
              "rc = main(['verify', 'sl', '3', '--q', '3', '--seed', '1'])\n"
              "print(rc, 'numpy.ma' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.stderr.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("args,digest", [
    (["classes", "BC", "6"], "0ae86be8dde6f7a3ac4c014c397588b7051144efaf863e0a90009378820550ea"),
    (["classes", "D", "6"], "b367fb29ca7e81407688f0859052c18d4f558142cbda25d1576a1f9ec0f49a15"),
    (["phi", "A", "6"], "3180b648b924562b003bfb5a54ffa41284d86d40bab74fb6176cc26f6b533cdf"),
])
def test_class_listing_bytes_are_pinned(capsys, args, digest):
    # SHA-256 of the whole stdout: order, sizes, labels, d_C, elliptic flags, phi
    rc, out, _ = run(capsys, args)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_seed_reproducibility(capsys):
    rc1, out1, _ = run(capsys, ["verify", "sl", "2", "--q", "3", "--seed", "9"])
    rc2, out2, _ = run(capsys, ["verify", "sl", "2", "--q", "3", "--seed", "9"])
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_verify_multi_prime_runs_property_d(capsys):
    rc, payload, _ = run_json(
        capsys, ["verify", "sl", "2", "--q", "3", "--q", "5"])
    assert rc == 0
    assert payload["property_d"] is not None
    assert payload["property_d"]["all_match"]
    assert len(payload["theorem_a"]) == 2


def test_verify_report_written_to_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    rc, payload, _ = run_json(
        capsys, ["verify", "sl", "2", "--q", "3", "--out", str(out_path)])
    assert rc == 0
    assert json.loads(out_path.read_text()) == payload


def test_table_format_smoke(capsys):
    for args in (["--format", "table", "phi", "BC", "2"],
                 ["--format", "table", "verify", "sl", "2", "--q", "3"],
                 ["--format", "table", "decompose",
                  '{"field": "Q", "rows": 2, "cols": 2, "entries": [[0, 1], [1, 0]]}']):
        rc, out, _ = run(capsys, args)
        assert rc == 0 and out
