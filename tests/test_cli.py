import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from simpade import cli
from simpade.cli import (EXIT_EMPTY, EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION,
                         EXIT_VERIFY, emit_instance, instance_hash,
                         parse_instance)

from conftest import EX1_G, EX1_N, EX1_S

EX1_DOC = {"p": 2, "S": EX1_S, "g": EX1_G, "N": list(EX1_N)}


@pytest.fixture
def ex1_file(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(EX1_DOC))
    return str(path)


def _solve(ex1_file, tmp_path, algo, name="spec.json"):
    out = str(tmp_path / name)
    code = cli.main(["solve", "--input", ex1_file, "--algo", algo,
                     "--output", out])
    return code, out


def test_instance_roundtrip():
    inst = parse_instance(json.dumps(EX1_DOC))
    again = parse_instance(emit_instance(inst))
    assert emit_instance(again) == emit_instance(inst)
    assert instance_hash(again) == instance_hash(inst)


def test_parse_rejections(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for text in ["not json", "[1]", '{"p": 2, "S": [[1]], "g": [[0,1]]}',
                 '{"p": 2, "S": [[1]], "g": [[0,1]], "N": [1, -1]}',
                 '{"p": 2, "S": [["x"]], "g": [[0,1]], "N": [1, 0]}',
                 # not prime: a ValidationError, not a ParseError; same exit
                 '{"p": 4, "S": [[1]], "g": [[0,1]], "N": [1, 0]}']:
        bad.write_text(text)
        assert cli.main(["solve", "--input", str(bad), "--algo", "direct",
                         "--output", str(tmp_path / "o.json")]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("algo", ["direct", "duality", "recursive"])
def test_solve_and_verify_roundtrip(ex1_file, tmp_path, algo, capsys):
    code, out = _solve(ex1_file, tmp_path, algo)
    assert code == EXIT_OK
    doc = json.loads(open(out).read())
    assert doc["deltas"] == [-1, -1]
    assert doc["instance_sha256"]
    assert cli.main(["verify", "--input", ex1_file, "--spec", out]) == EXIT_OK
    report = capsys.readouterr().out
    assert "FAIL" not in report and "matches-oracle" in report


def test_solve_is_deterministic(ex1_file, tmp_path):
    _, out1 = _solve(ex1_file, tmp_path, "direct", "a.json")
    _, out2 = _solve(ex1_file, tmp_path, "direct", "b.json")
    assert open(out1).read() == open(out2).read()


def test_solve_oracle_output(ex1_file, tmp_path):
    code, out = _solve(ex1_file, tmp_path, "oracle")
    assert code == EXIT_OK
    doc = json.loads(open(out).read())
    assert doc["dim"] == 2 and len(doc["basis"]) == 2


def test_solve_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    out = str(tmp_path / "o.json")
    assert cli.main(["solve", "--input", str(bad), "--algo", "direct",
                     "--output", out]) == EXIT_PARSE
    assert cli.main(["solve", "--input", str(tmp_path / "missing.json"),
                     "--algo", "direct", "--output", out]) == EXIT_PARSE


@pytest.mark.parametrize("field, path, message", [
    ("S", (0, 0), "S[0] must"), ("g", (0, 5), "g[0] must"),
    ("N", (2,), "N must"), ("p", (), "field 'p'")])
def test_solve_rejects_a_boolean_where_an_integer_is_expected(
        tmp_path, capsys, field, path, message):
    # json loads true as True, a subclass of int equal to 1
    doc = json.loads(json.dumps(EX1_DOC))
    if path:
        target = doc[field]
        for idx in path[:-1]:
            target = target[idx]
        target[path[-1]] = True
    else:
        doc[field] = True
    bad = tmp_path / "bool.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["solve", "--input", str(bad), "--algo", "direct",
                     "--output", str(tmp_path / "o.json")]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field, message", [("lambdas", "lambdas[0] must"),
                                            ("deltas", "deltas must")])
def test_verify_rejects_a_boolean_where_an_integer_is_expected(
        ex1_file, tmp_path, capsys, field, message):
    code, out = _solve(ex1_file, tmp_path, "direct")
    assert code == EXIT_OK
    doc = json.loads(open(out).read())
    if field == "lambdas":
        lam = doc["lambdas"][0]
        lam[lam.index(1)] = True
    else:
        doc["deltas"][0] = True
    bad = tmp_path / "bool-spec.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["verify", "--input", ex1_file,
                     "--spec", str(bad)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and message in captured.err
    assert "Traceback" not in captured.err and "ok" not in captured.out


def test_solve_duality_precondition(tmp_path):
    doc = {"p": 2, "S": [[1], [1]], "g": [[0, 0, 1], [0, 0, 0, 1]],
           "N": [2, 1, 1]}
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "o.json")
    assert cli.main(["solve", "--input", str(path), "--algo", "duality",
                     "--output", out]) == EXIT_PRECONDITION
    assert cli.main(["solve", "--input", str(path), "--algo", "direct",
                     "--output", out]) == EXIT_OK


def test_solve_empty_solution_set(tmp_path):
    doc = {"p": 2, "S": [[0, 1]], "g": [[0, 0, 1]], "N": [1, 1]}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "o.json")
    assert cli.main(["solve", "--input", str(path), "--algo", "direct",
                     "--output", out]) == EXIT_EMPTY
    assert json.loads(open(out).read())["lambdas"] == []


def test_solve_rejects_a_modulus_from_2_to_the_64(tmp_path, capsys):
    # used to crash every solver with OverflowError while packing coefficients
    p = 2**89 - 1
    doc = {"p": p, "S": [[p - 1] * 64] * 2, "g": [[0] * 64 + [1]] * 2,
           "N": [33, 32, 32]}
    path = tmp_path / "bigp.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "o.json")
    for algo in ["direct", "duality", "recursive"]:
        assert cli.main(["solve", "--input", str(path), "--algo", algo,
                         "--output", out]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "2^64" in err
        assert "Traceback" not in err


def test_verify_fails_an_empty_claim_the_oracle_cannot_check(tmp_path,
                                                             capsys):
    # 1000 * 2 * 1000 oracle cells exceed the 10^6 guard, and a spec with
    # no lambdas leaves no rows to check
    doc = {"p": 2, "S": [[1]], "g": [[0] * 1000 + [1]], "N": [1000, 0]}
    inst = tmp_path / "big.json"
    inst.write_text(json.dumps(doc))
    spec = tmp_path / "empty.json"
    spec.write_text(json.dumps({"lambdas": [], "deltas": []}))
    assert cli.main(["verify", "--input", str(inst),
                     "--spec", str(spec)]) == EXIT_VERIFY
    report = capsys.readouterr().out
    assert "skip matches-oracle" in report
    assert "FAIL empty-claim" in report and "unverified" in report


def test_verify_fails_a_lambda_that_crosses_n0(ex1_file, tmp_path, capsys):
    # delta = -3 expands x^4 + 1 to degree 6 >= N_0 = 5; the oracle itself
    # is small enough to run, so this is a failure, not a skip
    spec = tmp_path / "cross.json"
    spec.write_text(json.dumps({"lambdas": [[1, 0, 0, 0, 1]],
                                "deltas": [-3]}))
    assert cli.main(["verify", "--input", ex1_file,
                     "--spec", str(spec)]) == EXIT_VERIFY
    report = capsys.readouterr().out
    assert "FAIL matches-oracle" in report
    assert "skip" not in report


def test_verify_rejects_a_delta_below_minus_n0_at_once(ex1_file, tmp_path,
                                                       capsys):
    # no nonzero row has shifted degree below -N_0; expanding a zero lambda
    # over 10^9 shifts used to exhaust memory in the oracle
    spec = tmp_path / "deep.json"
    spec.write_text(json.dumps({"lambdas": [[]], "deltas": [-10**9]}))
    start = time.process_time()
    assert cli.main(["verify", "--input", ex1_file,
                     "--spec", str(spec)]) == EXIT_PARSE
    assert time.process_time() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and "-N_0" in err
    assert "Traceback" not in err


def test_verify_rejects_tampered_spec(ex1_file, tmp_path, capsys):
    code, out = _solve(ex1_file, tmp_path, "direct")
    assert code == EXIT_OK
    doc = json.loads(open(out).read())
    doc["lambdas"][0] = [1, 1]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    assert cli.main(["verify", "--input", ex1_file,
                     "--spec", str(tampered)]) == EXIT_VERIFY
    assert "FAIL" in capsys.readouterr().out


def test_verify_rejects_stale_hash(ex1_file, tmp_path, capsys):
    code, out = _solve(ex1_file, tmp_path, "direct")
    doc = json.loads(open(out).read())
    doc["instance_sha256"] = "0" * 64
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps(doc))
    assert cli.main(["verify", "--input", ex1_file,
                     "--spec", str(stale)]) == EXIT_VERIFY
    assert "FAIL instance-hash" in capsys.readouterr().out


def test_verify_rejects_positive_delta(ex1_file, tmp_path, capsys):
    _, out = _solve(ex1_file, tmp_path, "direct")
    doc = json.loads(open(out).read())
    doc["deltas"] = [-1, 1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["verify", "--input", ex1_file,
                     "--spec", str(bad)]) == EXIT_VERIFY
    assert "FAIL deltas-negative" in capsys.readouterr().out


def test_bench_runs_and_reports(capsys):
    assert cli.main(["bench", "--n", "2", "--d", "8", "--p", "2",
                     "--seed", "7", "--algos", "direct,recursive,oracle"]) \
        == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "algo,n,d,wall_time,k,sum_neg_delta"
    assert len(lines) == 4
    assert lines[1].startswith("direct,2,8,")


def test_bench_instances_have_solutions(capsys):
    assert cli.main(["bench", "--n", "3", "--d", "16", "--p", "97",
                     "--seed", "1", "--algos", "direct,recursive"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split(",")[-1] for line in lines[1:]] == ["4", "4"]


def test_bench_duality_allowed(capsys):
    # bench instances use a common power-of-x modulus, so duality applies
    assert cli.main(["bench", "--n", "3", "--d", "6", "--p", "97",
                     "--seed", "1", "--algos", "duality"]) == EXIT_OK


def test_bench_degenerate_order(capsys):
    assert cli.main(["bench", "--n", "1", "--d", "1", "--p", "2",
                     "--seed", "0", "--algos", "direct"]) == EXIT_OK


def test_bench_oracle_above_its_size_guard_is_a_precondition_error(capsys):
    # n = 4, d = 1024 needs 2 626 560 cells, above the 10^6-cell guard
    assert cli.main(["bench", "--n", "4", "--d", "1024", "--p", "97",
                     "--seed", "1", "--algos", "oracle"]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.startswith("error: instance too large for the dense oracle")
    assert "Traceback" not in err


def test_bench_bad_parameters(capsys):
    assert cli.main(["bench", "--n", "2", "--d", "8", "--p", "91",
                     "--seed", "7", "--algos", "direct"]) == EXIT_PARSE
    assert cli.main(["bench", "--n", "0", "--d", "8", "--p", "2",
                     "--seed", "7", "--algos", "direct"]) == EXIT_PARSE
    assert cli.main(["bench", "--n", "2", "--d", "8", "--p", "2",
                     "--seed", "7", "--algos", "sideways"]) == EXIT_PARSE


def test_usage_errors_do_not_raise(capsys):
    assert cli.main([]) == EXIT_PARSE
    assert cli.main(["solve"]) == EXIT_PARSE
    assert cli.main(["--help"]) == EXIT_OK


def test_module_entry_point_reports_a_missing_input(tmp_path):
    # python -m simpade.cli runs the same commands as the console script
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "simpade.cli", "verify",
         "--input", str(tmp_path / "missing.json"),
         "--spec", str(tmp_path / "spec.json")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_PARSE
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
