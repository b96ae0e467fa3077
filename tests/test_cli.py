import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from freemarkov.cli import main
from freemarkov.entropy import f_markov
from freemarkov.transition import flip_system, from_json_dict, to_json_dict

RUN = [sys.executable, "-m", "freemarkov.cli"]
SRC = str(Path(__file__).resolve().parents[1] / "src")


def shell(cmd: str) -> subprocess.CompletedProcess:
    """Run a shell pipeline that can import the package from this checkout."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(cmd, shell=True, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


@pytest.fixture
def wsf_file(tmp_path):
    path = tmp_path / "wsf.json"
    assert main(["example", "wsf", "--rank", "2", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture
def off_flip_file(tmp_path):
    """flip(0.3) with pi off by 1e-7: valid at tolerance 1e-6, not at 1e-9."""
    doc = to_json_dict(flip_system(2, 0.3))
    doc["pi"] = [0.5 + 1e-7, 0.5 - 1e-7]
    path = tmp_path / "off_flip.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def cycle_file(tmp_path):
    path = tmp_path / "cycle.json"
    code = main(["example", "perm", "--rank", "2", "--n", "3",
                 "--perms", "1,2,0;1,2,0", "-o", str(path)])
    assert code == 0
    return str(path)


class TestExampleAndValidate:
    @pytest.mark.parametrize("args", [
        "example wsf --rank 2", "example matching --rank 3",
        "example flip --eps 0.25", "example bernoulli --p 0.3,0.7",
        "example bernoulli --p 0.2,0.8 --kind semigroup",
        "example perm --n 4 --perms 1,2,3,0",
    ])
    def test_pipe_into_validate(self, args):
        proc = shell(f"{' '.join(RUN)} {args} | {' '.join(RUN)} validate")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("OK")

    @pytest.mark.parametrize("p", ["nan,0.5", "0.7,0.7", "1.2,-0.2"])
    def test_bernoulli_p_refused_exit_2(self, tmp_path, capsys, p):
        out = tmp_path / "b.json"
        assert main(["example", "bernoulli", f"--p={p}", "-o", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: p must be a probability vector")

    def test_example_writes_loadable_json(self, wsf_file):
        with open(wsf_file) as fh:
            ts = from_json_dict(json.load(fh))
        assert ts.n_states == 4

    def test_validate_reports_violations(self, tmp_path, wsf_file):
        with open(wsf_file) as fh:
            doc = json.load(fh)
        doc["pi"] = [0.4, 0.2, 0.2, 0.2]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        proc = shell(f"{' '.join(RUN)} validate {bad}")
        assert proc.returncode == 1
        assert "steady_state" in proc.stdout


class TestFinv:
    def test_wsf_value(self, wsf_file, capsys):
        assert main(["finv", wsf_file]) == 0
        out = capsys.readouterr().out
        first = out.splitlines()[0]
        assert first.startswith("f = ")
        assert abs(float(first.split("=")[1]) - 1.2163953243244932) < 1e-9
        assert "F(alpha^0)" in out and "F(alpha^1)" in out

    def test_flip_half_log_base_2(self, tmp_path, capsys):
        path = tmp_path / "flip.json"
        main(["example", "flip", "--rank", "2", "--eps", "0.5", "-o", str(path)])
        assert main(["finv", str(path), "--log-base", "2"]) == 0
        val = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
        assert abs(val - 1.0) < 1e-9

    def test_invalid_system_exits_1(self, tmp_path, wsf_file, capsys):
        with open(wsf_file) as fh:
            doc = json.load(fh)
        doc["pi"] = [1.0, 0.0, 0.0, 0.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["finv", str(bad)]) == 1

    def test_tol_reaches_f_markov(self, off_flip_file, capsys):
        assert main(["finv", off_flip_file, "--tol", "1e-6"]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        ts = from_json_dict(json.loads(open(off_flip_file).read()))
        assert first == f"f = {f_markov(ts, validate_tol=1e-6)!r}"

    def test_tol_process_exit_codes(self, off_flip_file):
        run = " ".join(RUN)
        assert shell(f"{run} validate {off_flip_file} --tol 1e-6").stdout.startswith("OK")
        proc = shell(f"{run} finv {off_flip_file} --tol 1e-6")
        assert proc.returncode == 0, proc.stderr
        proc = shell(f"{run} finv {off_flip_file}")
        assert proc.returncode == 1 and proc.stdout.startswith("INVALID")


    @pytest.mark.parametrize("cmd", ["validate", "finv"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tolerance_not_finite_and_nonnegative_exit_2(self, tmp_path, cmd, tol):
        # a Bernoulli system whose pi sums to 1.4
        doc = to_json_dict(flip_system(2, 0.5))
        doc["pi"] = [0.7, 0.7]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        proc = shell(f"{' '.join(RUN)} {cmd} {bad} --tol={tol}")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: tolerance must be finite and nonnegative")


class TestFseq:
    def test_markov_csv(self, wsf_file, capsys):
        assert main(["fseq", wsf_file, "--nmax", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,H_ball,H_pair_s1,H_pair_s2,F,Fstar"
        assert len(lines) == 3
        f0 = float(lines[1].split(",")[-2])
        f1 = float(lines[2].split(",")[-2])
        assert abs(f0 - f1) < 1e-9

    def test_one_state_coarsening_prints_positive_zeros(self, tmp_path, capsys):
        path = tmp_path / "flip.json"
        path.write_text(json.dumps(to_json_dict(flip_system(2, 0.3))))
        assert main(["fseq", str(path), "--coarsen", "x,x", "--nmax", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1:] == ["0,0.0,0.0,0.0,0.0,", "1,0.0,0.0,0.0,0.0,"]

    def test_coarsened_drop(self, cycle_file, capsys):
        assert main(["fseq", cycle_file, "--coarsen", "0,1,1",
                     "--nmax", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        f0 = float(lines[1].split(",")[-2])
        f1 = float(lines[2].split(",")[-2])
        assert f0 - f1 > 1e-3

    def test_star_column(self, wsf_file, capsys):
        assert main(["fseq", wsf_file, "--nmax", "0", "--star",
                     "--star-m", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        row = lines[1].split(",")
        assert abs(float(row[-1]) - float(row[-2])) < 1e-9

    def test_log_base_2_rescales(self, wsf_file, capsys):
        main(["fseq", wsf_file, "--nmax", "0"])
        nats = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[-2])
        main(["fseq", wsf_file, "--nmax", "0", "--log-base", "2"])
        bits = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[-2])
        assert abs(bits - nats / math.log(2)) < 1e-12


class TestMarginalAndSample:
    def test_marginal_json(self, wsf_file, tmp_path):
        out = tmp_path / "marg.json"
        assert main(["marginal", wsf_file, "--radius", "1", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["domain"] == ["e", "a", "A", "b", "B"]
        assert doc["encoding"] == "dense"
        assert abs(sum(doc["probs"]) - 1.0) < 1e-9

    def test_sparse_marginal_past_64_vertices(self, cycle_file, capsys):
        assert main(["marginal", cycle_file, "--coarsen", "0,1,1",
                     "--radius", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["encoding"] == "sparse" and len(doc["domain"]) == 161
        assert len(doc["probs"]) == 3

    def test_one_state_source(self, tmp_path, capsys):
        # 161 vertices at radius 4: one pattern, in a dense table of one cell
        path = str(tmp_path / "one.json")
        assert main(["example", "bernoulli", "--p", "1.0", "-o", path]) == 0
        assert main(["marginal", path, "--radius", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["domain"]) == 161
        assert (doc["encoding"], doc["probs"]) == ("dense", [1.0])
        assert main(["fseq", path, "--nmax", "4"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert [float(row.split(",")[-2]) for row in rows] == [0.0] * 5

    def test_sample_rows(self, wsf_file, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(["sample", wsf_file, "--radius", "1", "--count", "10",
                     "--seed", "3", "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "e,a,A,b,B"
        assert len(lines) == 11
        assert set(lines[1].split(",")) <= {"a", "A", "b", "B"}

    def test_sample_invalid_system_exits_1(self, wsf_file, tmp_path, capsys):
        with open(wsf_file) as fh:
            doc = json.load(fh)
        doc["pi"] = [0.5, 0.5, 0.5, 0.5]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["sample", str(bad), "--radius", "1", "--count", "10"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("INVALID: ")
        assert "  pi_sum at (): residual 1" in out

    def test_identical_seed_identical_bytes(self, wsf_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sample", wsf_file, "--radius", "2", "--count", "50",
                "--seed", "11"]
        assert main(argv + ["-o", str(a)]) == 0
        assert main(argv + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestApprox:
    def test_writes_system_and_f(self, cycle_file, tmp_path, capsys):
        out = tmp_path / "approx.json"
        assert main(["approx", cycle_file, "--coarsen", "0,1,1",
                     "--depth", "1", "-o", str(out)]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("f = ")
        assert abs(float(printed.split("=")[1]) + math.log(3)) < 1e-9
        ts = from_json_dict(json.loads(out.read_text()))
        assert ts.n_states == 3  # three alive coarsened patterns on B(e,1)

    def test_stdout_json_pipes_into_validate(self, cycle_file):
        cmd = (f"{' '.join(RUN)} approx {cycle_file} --coarsen 0,1,1 --depth 0"
               f" | {' '.join(RUN)} validate")
        proc = shell(cmd)
        assert proc.returncode == 0, proc.stderr

    def test_capability_refusal_exit_3(self, wsf_file):
        assert main(["approx", wsf_file, "--depth", "2"]) == 3


class TestCheck:
    def test_clean_build_exits_0(self, tmp_path, capsys):
        summary = tmp_path / "report.json"
        assert main(["check", "--seed", "1729", "--json", str(summary)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        doc = json.loads(summary.read_text())
        assert all(entry["passed"] for entry in doc)

    def test_only_filter(self, capsys):
        assert main(["check", "--only", "ow87"]) == 0
        out = capsys.readouterr().out
        assert "ow87" in out and "structural" not in out

    def test_unknown_filter_is_usage_error(self):
        assert main(["check", "--only", "no_such_check"]) == 2


class TestErrorPaths:
    def test_missing_file_exit_4(self):
        assert main(["finv", "/nonexistent/system.json"]) == 4

    def test_malformed_json_exit_4(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", str(bad)]) == 4

    @pytest.mark.parametrize("cmd", ["validate", "finv", "fseq --nmax 1"])
    def test_non_finite_document_exit_4(self, tmp_path, wsf_file, cmd):
        doc = json.loads(open(wsf_file).read())
        doc["pi"][0] = math.nan
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc))
        assert "NaN" in bad.read_text()
        assert main(cmd.split() + [str(bad)]) == 4

    @pytest.mark.parametrize("rank", [2.5, 2.0, "2", True])
    def test_non_integer_rank_exit_4(self, tmp_path, wsf_file, capsys, rank):
        doc = json.loads(open(wsf_file).read())
        doc["group"]["rank"] = rank
        bad = tmp_path / "rank.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 4
        assert f"group rank must be a JSON integer, got {rank!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("states", 4), ("states", [{"x": 1}, "y", "z", "w"]),
        ("states", [[0, [1]], "y", "z", "w"]), ("states", "abcd"),
        ("P", [[0.5, 0.5], [0.5, 0.5]]),
    ], ids=["states_number", "states_object", "states_nested", "states_string", "P_list"])
    def test_wrong_field_type_exit_4(self, tmp_path, wsf_file, capsys, key, value):
        doc = json.loads(open(wsf_file).read())
        doc[key] = value
        bad = tmp_path / "field.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 4
        assert "malformed transition-system document" in capsys.readouterr().err

    def test_wrong_schema_exit_4(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"states": [0, 1]}))
        assert main(["validate", str(bad)]) == 4

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["fseq"])  # missing required --nmax
        assert exc.value.code == 2

    def test_unknown_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,name", [
        ("fseq --nmax -1", "depth must be nonnegative"),
        ("sample --radius 1 --count -1", "count must be nonnegative"),
    ])
    def test_negative_argument_exit_2(self, wsf_file, capsys, argv, name):
        cmd, *rest = argv.split()
        assert main([cmd, wsf_file] + rest) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and name in captured.err

    @pytest.mark.parametrize("argv", ["fseq --nmax 18", "sample --radius 19 --count 1"])
    def test_ball_past_the_limit_exit_3(self, wsf_file, capsys, argv):
        cmd, *rest = argv.split()
        assert main([cmd, wsf_file] + rest) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("refused: ball B(e,") and "4194304" in captured.err

    def test_sample_table_past_the_limit_exit_3(self, wsf_file, capsys):
        # 100,000 samples on the 13,121-vertex B(e,8): 1.3e9 table cells
        assert main(["sample", wsf_file, "--radius", "8", "--count", "100000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("refused: 100000 samples on B(e,8)")
        assert "1312100000" in captured.err and "33554432" in captured.err

    def test_bad_coarsen_length_exit_4(self, wsf_file):
        assert main(["fseq", wsf_file, "--coarsen", "0,1", "--nmax", "0"]) == 4
