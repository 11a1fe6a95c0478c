import hashlib
import json
import math

import numpy as np
import pytest

from wignerscope import fockspace as fs
from wignerscope import sampler as sp
from wignerscope.cli import parse_rule, parse_state, run
from wignerscope.errors import ValidationError
from wignerscope.estimator import BandwidthRule
from wignerscope.tomography import SmoothnessClass


def sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


class TestParseState:
    def test_fock(self):
        assert parse_state("fock:2") == fs.StateSpec.fock(2)

    def test_coherent(self):
        assert parse_state("coherent:3,0") == fs.StateSpec.coherent(3.0, 0.0)

    def test_squeezed(self):
        assert parse_state("squeezed:0.5") == fs.StateSpec.squeezed(0.5)

    def test_cat_with_axis(self):
        assert parse_state("cat:3,axis=p") == fs.StateSpec.cat(3.0, axis="p")

    def test_file(self, tmp_path):
        rho = fs.materialize(fs.StateSpec.fock(1))
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(rho.to_json_dict()))
        spec = parse_state(f"file:{path}")
        assert spec.kind == "custom"
        assert spec.params["matrix"].dim == rho.dim

    def test_bad_kind(self):
        with pytest.raises(ValidationError):
            parse_state("thermal:1")


class TestParseRule:
    @pytest.mark.parametrize("name,kind", [
        ("opt", "opt"), ("h1", "h1"), ("h2", "h2"), ("r2", "r2_closed"),
    ])
    def test_class_rules(self, name, kind):
        cls = SmoothnessClass(0.2, 2.0, 1.0)
        assert parse_rule(name, 0.2, 2.0, 1.0) == BandwidthRule(kind, cls=cls)

    def test_adaptive_needs_no_class(self):
        assert parse_rule("adaptive", None, None, None) == BandwidthRule("adaptive")

    @pytest.mark.parametrize("value", ["0.35", 0.35])
    def test_number_is_fixed(self, value):
        assert parse_rule(value, None, None, None) == BandwidthRule("fixed", h=0.35)

    @pytest.mark.parametrize("value", ["1.5", "0", "-0.2", "nan", "inf", "fixed", "r2_closed"])
    def test_refused(self, value):
        with pytest.raises(ValidationError):
            parse_rule(value, 0.2, 2.0, 1.0)

    def test_class_rule_without_class(self):
        with pytest.raises(ValidationError, match="--beta, --r and --L"):
            parse_rule("opt", 0.2, None, 1.0)


class TestSimulate:
    def test_writes_dataset_and_manifest(self, tmp_path):
        out = tmp_path / "d.csv"
        rc = run(["simulate", "--state", "fock:1", "--n", "5000", "--eta", "0.9",
                  "--seed", "7", "--out", str(out)])
        assert rc == 0
        ds = sp.read_dataset(out)
        assert ds.n == 5000
        manifest = json.loads((tmp_path / "d.csv.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["outputs"][str(out)] == sha(out)

    def test_manifest_replay_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["simulate", "--state", "cat:3", "--n", "2000", "--eta", "0.95",
                "--seed", "123"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert sha(a) == sha(b)

    def test_eta_validation_exit_1(self, tmp_path):
        rc = run(["simulate", "--state", "fock:0", "--n", "10", "--eta", "1.5",
                  "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    def test_unknown_flag_exit_1(self, tmp_path):
        rc = run(["simulate", "--state", "fock:0", "--n", "10", "--eta", "0.9",
                  "--seed", "1", "--frobnicate", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    @pytest.mark.parametrize("seed", [-5, 2**64])
    def test_seed_out_of_range_exit_1(self, tmp_path, capsys, seed):
        # -5 and 2**64 - 5 must not alias to the same data
        out = tmp_path / "x.csv"
        rc = run(["simulate", "--state", "fock:0", "--n", "10", "--eta", "0.9",
                  f"--seed={seed}", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("\n") == 1 and "--seed" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("state", ["fock:2500", "coherent:42,0"])
    def test_state_past_order_budget_exit_1(self, tmp_path, capsys, state):
        # refused before the dense matrix is built (fock:2500 took 6.6 s
        # and 276 MB to fail one layer down)
        out = tmp_path / "x.csv"
        rc = run(["simulate", "--state", state, "--n", "10", "--eta", "0.9",
                  "--seed", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("\n") == 1 and err.startswith("error:") and "exceeds" in err
        assert not out.exists()

    def test_missing_file_exit_1(self, tmp_path):
        rc = run(["estimate", "--data", str(tmp_path / "absent.csv"), "--h", "0.4",
                  "--grid", "0:1:2,0:1:2", "--out", str(tmp_path / "o.csv")])
        assert rc == 1


class TestEstimateAndCut:
    @pytest.fixture()
    def dataset(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run(["simulate", "--state", "fock:1", "--n", "4000", "--eta", "0.9",
                    "--seed", "7", "--out", str(out)]) == 0
        return out

    def test_estimate_grid_csv(self, dataset, tmp_path):
        out = tmp_path / "grid.csv"
        rc = run(["estimate", "--data", str(dataset), "--h", "0.35",
                  "--grid=-2:2:5,-1:1:3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "q,p,west"
        assert len(lines) == 1 + 5 * 3

    def test_estimate_with_rule(self, dataset, tmp_path):
        out = tmp_path / "grid.csv"
        rc = run(["estimate", "--data", str(dataset), "--h", "r2", "--beta", "0.2",
                  "--r", "2", "--L", "1.0", "--grid=0:1:2,0:1:2", "--out", str(out)])
        assert rc == 0

    def test_rule_requires_class_params(self, dataset, tmp_path):
        rc = run(["estimate", "--data", str(dataset), "--h", "opt",
                  "--grid=0:1:2,0:1:2", "--out", str(tmp_path / "o.csv")])
        assert rc == 1

    def test_invalid_r_exit_1(self, dataset, tmp_path):
        rc = run(["estimate", "--data", str(dataset), "--h", "opt", "--beta", "0.2",
                  "--r", "2.5", "--L", "1.0", "--grid=0:1:2,0:1:2",
                  "--out", str(tmp_path / "o.csv")])
        assert rc == 1

    def test_cut_columns_and_truth(self, dataset, tmp_path):
        out = tmp_path / "cut.csv"
        rc = run(["cut", "--data", str(dataset), "--p", "0", "--qmin=-4",
                  "--qmax", "4", "--steps", "17", "--h", "0.35", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "q,west,wtrue"
        rho = fs.materialize(fs.StateSpec.fock(1))
        q0, west0, wtrue0 = map(float, lines[1].split(","))
        assert q0 == -4.0
        assert wtrue0 == pytest.approx(fs.wigner_eval(rho, (-4.0, 0.0)), rel=1e-12)

    def test_cut_truth_column_non_diagonal_state(self, tmp_path):
        # one wigner_eval_many call gives the per-point values exactly
        data = tmp_path / "d.csv"
        assert run(["simulate", "--state", "coherent:1,0.8", "--n", "2000", "--eta", "0.9",
                    "--seed", "3", "--out", str(data)]) == 0
        out = tmp_path / "cut.csv"
        assert run(["cut", "--data", str(data), "--p", "0.3", "--qmin=-3", "--qmax", "3",
                    "--steps", "41", "--h", "0.35", "--out", str(out)]) == 0
        rho = fs.materialize(fs.StateSpec.coherent(1.0, 0.8))
        assert rho.dim > 1 and np.any(np.diagonal(rho.entries, offset=1))
        for line in out.read_text().splitlines()[1:]:
            q, _, wtrue = map(float, line.split(","))
            assert wtrue == fs.wigner_eval(rho, (q, 0.3))

    @pytest.mark.parametrize("argv", [
        ["estimate", "--grid=0:1:0,0:1:3"],
        ["estimate", "--grid=0:1:3,0:1:0"],
        ["estimate", "--grid=0:1:-2,0:1:3"],
        ["cut", "--p", "0", "--qmin", "0", "--qmax", "1", "--steps", "0"],
        ["cut", "--p", "0", "--qmin", "0", "--qmax", "1", "--steps", "-3"],
    ])
    def test_empty_or_negative_grid_exit_1(self, dataset, tmp_path, capsys, argv):
        out = tmp_path / "o.csv"
        rc = run([*argv, "--data", str(dataset), "--h", "0.35", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("\n") == 1 and "steps" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["estimate", "--grid=0:1:100000,0:1:100000"],
        ["cut", "--p", "0", "--qmin", "0", "--qmax", "1", "--steps", "10000000000"],
    ])
    def test_oversized_grid_exit_1(self, dataset, tmp_path, capsys, argv):
        # refused before the point arrays are allocated (74.5 GiB for the
        # estimate grid)
        out = tmp_path / "o.csv"
        rc = run([*argv, "--data", str(dataset), "--h", "0.35", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("\n") == 1 and err.startswith("error:") and "points" in err
        assert not out.exists()

    def test_numeric_guard_exit_2(self, dataset, tmp_path):
        rc = run(["estimate", "--data", str(dataset), "--h", "0.002",
                  "--grid=0:1:2,0:1:2", "--out", str(tmp_path / "o.csv")])
        assert rc == 2


class TestRisk:
    def test_risk_report(self, tmp_path):
        out = tmp_path / "risk.json"
        rc = run(["risk", "--state", "fock:0", "--eta", "0.9", "--n", "1000",
                  "--reps", "3", "--points", "0,0;1,0", "--rule", "r2",
                  "--beta", "0.2", "--r", "2", "--L", "1", "--seed", "5",
                  "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert len(report["per_point_mse"]) == 2
        assert len(report["per_point_se"]) == 2
        assert len(report["per_rep_losses"]) == 3
        assert report["meta"]["seed"] == 5

    @pytest.mark.parametrize("seed", [-5, 2**64])
    def test_seed_out_of_range_exit_1(self, tmp_path, capsys, seed):
        out = tmp_path / "risk.json"
        rc = run(["risk", "--state", "fock:0", "--eta", "0.9", "--n", "100",
                  "--reps", "2", "--points", "0,0", "--rule", "fixed",
                  "--hfixed", "0.4", f"--seed={seed}", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("\n") == 1 and "--seed" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestParseErrors:
    @pytest.fixture()
    def bad_json(self, tmp_path):
        path = tmp_path / "rho.json"
        path.write_text('{"dim": 2, "re": [[1, 0], [0, 0]')
        return path

    @pytest.mark.parametrize("state,points", [
        ("fock:0", "0,0;zz"),
        ("fock:0", ""),
        ("fock:0", "1,2,3"),
        ("fock:x", "0,0"),
        ("coherent:a,b", "0,0"),
        ("squeezed:", "0,0"),
        ("cat:q", "0,0"),
        ("file:{bad_json}", "0,0"),
    ])
    def test_risk_parse_error_exit_1(self, tmp_path, capsys, bad_json, state, points):
        out = tmp_path / "risk.json"
        rc = run(["risk", "--state", state.format(bad_json=bad_json), "--eta", "0.9",
                  "--n", "100", "--reps", "2", "--points", points, "--rule", "fixed",
                  "--hfixed", "0.4", "--seed", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_file_state_without_fields(self, tmp_path):
        path = tmp_path / "rho.json"
        path.write_text('{"dim": 2}')
        with pytest.raises(ValidationError):
            parse_state(f"file:{path}")


class TestKernelTableCli:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "kt.csv"
        rc = run(["kernel-table", "--h", "0.5", "--eta", "0.9", "--variant",
                  "sharp", "--umax", "5", "--step", "0.0625", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "u,value"
        u0, v0 = map(float, lines[1].split(","))
        assert u0 == 0.0
        gamma = 0.1 / 3.6
        assert v0 == pytest.approx(
            math.expm1(gamma / 0.25) / (4 * math.pi * gamma), rel=1e-6
        )

    def test_guard_exit_2(self, tmp_path):
        rc = run(["kernel-table", "--h", "0.003", "--eta", "0.5", "--umax", "1",
                  "--step", "0.0001", "--out", str(tmp_path / "kt.csv")])
        assert rc == 2

    def test_oversized_table_exit_1(self, tmp_path, capsys):
        # the node count of u_max / step = 1e301 used to reach np.arange
        out = tmp_path / "kt.csv"
        rc = run(["kernel-table", "--h", "0.25", "--eta", "0.9", "--umax", "1e300",
                  "--step", "0.1", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("\n") == 1 and err.startswith("error:") and "table nodes" in err
        assert not out.exists()


class TestLbVerify:
    def test_fixture_report(self, tmp_path):
        from wignerscope.lowerbound import FROZEN_FIXTURE as fx

        out = tmp_path / "lb.json"
        rc = run(["lb-verify", "--alpha", str(fx["alpha"]), "--xi", str(fx["xi"]),
                  "--beta", str(fx["beta"]), "--r", str(fx["r"]), "--L", str(fx["L"]),
                  "--eta", str(fx["eta"]), "--n", "1e120", "--delta", str(fx["delta"]),
                  "--bigD", str(fx["big_d"]), "--kmax", "500", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert set(report["verdicts"]) == {"positivity", "class", "separation", "chi2"}

    def test_invalid_alpha_exit_1(self, tmp_path):
        rc = run(["lb-verify", "--alpha", "1.5", "--xi", "0.9", "--beta", "0.1",
                  "--r", "2", "--L", "1", "--eta", "0.9", "--n", "1e6",
                  "--out", str(tmp_path / "lb.json")])
        assert rc == 1


# the README commands at small sizes; {data} is a fock:1 dataset of 200
# records, {out} the output path
SMALL_ARGV = {
    "simulate": "simulate --state fock:1 --n 200 --eta 0.9 --seed 7 --out {out}",
    "estimate": "estimate --data {data} --h r2 --beta 0.2 --r 2 --L 1 "
                "--grid=-4:4:3,-4:4:3 --out {out}",
    "cut": "cut --data {data} --p 0 --qmin=-4 --qmax 4 --steps 3 --h 0.35 --out {out}",
    "risk": "risk --state cat:3 --eta 0.95 --n 200 --reps 2 --points 0,0;3,0 --rule r2 "
            "--beta 0.08 --r 2 --L 1 --seed 11 --out {out}",
    "kernel-table": "kernel-table --h 0.25 --eta 0.9 --variant modified --umax 50 "
                    "--step 0.03125 --out {out}",
    "lb-verify": "lb-verify --alpha 0.2 --xi 0.94 --beta 0.111111111111 --r 2 --L 7.6 "
                 "--eta 0.2 --n 1e120 --delta 0.5 --bigD 5 --kmax 200 --out {out}",
}

# every parsed flag, plus what the command resolved
MANIFEST_FLAGS = {
    "simulate": {"state", "n", "eta", "seed", "out"},
    "estimate": {"data", "h", "beta", "r", "L", "variant", "grid", "resolved_rule", "out"},
    "cut": {"data", "p", "qmin", "qmax", "steps", "h", "beta", "r", "L", "variant",
            "resolved_rule", "out"},
    "risk": {"state", "eta", "n", "reps", "points", "rule", "hfixed", "beta", "r", "L",
             "variant", "seed", "out"},
    "kernel-table": {"h", "eta", "variant", "umax", "step", "out"},
    "lb-verify": {"alpha", "xi", "beta", "r", "L", "eta", "n", "delta", "bigD", "kmax", "out"},
}

NUMERIC_FLAGS = [
    (command, token)
    for command, line in SMALL_ARGV.items()
    for token in line.split()
    if token.startswith("--")
    and token.split("=")[0] not in ("--state", "--data", "--grid", "--points", "--rule",
                                    "--variant", "--out")
]

BAD_VALUES = ["-1", "0", "nan", "inf", "-inf", "1e400", "x"]


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "d.csv"
    assert run(SMALL_ARGV["simulate"].format(out=path).split()) == 0
    return path


def small_argv(command, data, out):
    return SMALL_ARGV[command].format(data=data, out=out).split()


class TestCliContract:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", BAD_VALUES)
    @pytest.mark.parametrize("command,flag", NUMERIC_FLAGS)
    def test_bad_numeric_value_one_line(self, small_data, tmp_path, capsys,
                                        command, flag, value):
        argv = small_argv(command, small_data, tmp_path / "out")
        i = argv.index(flag)
        name = flag.split("=")[0]
        # --flag=value, so that "-inf" and "-1" reach the flag's own parsing
        argv[i:i + (1 if "=" in flag else 2)] = [f"{name}={value}"]
        rc = run(argv)
        err = capsys.readouterr().err
        assert rc in (0, 1, 2)
        assert err.count("\n") <= 1 and "Traceback" not in err
        assert (rc == 0) == (err == "")

    @pytest.mark.parametrize("command", SMALL_ARGV)
    def test_manifest_holds_every_flag(self, small_data, tmp_path, command):
        out = tmp_path / "out"
        assert run(small_argv(command, small_data, out)) == 0
        manifest = json.loads((tmp_path / "out.manifest.json").read_text())
        assert manifest["command"] == command
        assert set(manifest["flags"]) == MANIFEST_FLAGS[command]
        assert manifest["flags"]["out"] == str(out)
        expect_inputs = [str(small_data)] if "data" in MANIFEST_FLAGS[command] else []
        assert list(manifest["inputs"]) == expect_inputs
        assert manifest["outputs"] == {str(out): sha(out)}

    def test_risk_fixed_manifest_replays(self, tmp_path):
        out = tmp_path / "risk.json"
        assert run(["risk", "--state", "cat:3", "--eta", "0.95", "--n", "500",
                    "--reps", "2", "--points", "0,0;3,0", "--rule", "fixed",
                    "--hfixed", "0.4", "--seed", "11", "--out", str(out)]) == 0
        sidecar = tmp_path / "risk.json.manifest.json"
        report, manifest = out.read_bytes(), sidecar.read_bytes()
        flags = json.loads(manifest)["flags"]
        assert flags["hfixed"] == 0.4 and flags["rule"] == "fixed"
        replay = ["risk"] + [f"--{k}={v}" for k, v in flags.items() if v is not None]
        assert run(replay) == 0
        assert out.read_bytes() == report
        assert sidecar.read_bytes() == manifest

    @pytest.mark.parametrize("h", ["1.5", "0", "nan", "inf"])
    def test_estimate_numeric_h_outside_unit_interval_exit_1(self, small_data, tmp_path,
                                                             capsys, h):
        out = tmp_path / "grid.csv"
        rc = run(["estimate", "--data", str(small_data), f"--h={h}",
                  "--grid=0:1:2,0:1:2", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1 and "(0, 1]" in err
        assert not out.exists()

    @pytest.mark.parametrize("command,path_flag,target", [
        ("estimate", "--data", "directory"),
        ("estimate", "--data", "non-utf8-file"),
        ("simulate", "--out", "directory"),
        ("simulate", "--state", "directory"),
    ])
    def test_unreadable_path_one_line(self, small_data, tmp_path, capsys,
                                      command, path_flag, target):
        path = tmp_path / "target"
        if target == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"# meta: {}\n1.0,0.5 \xb5m\n")
        argv = small_argv(command, small_data, tmp_path / "out")
        i = argv.index(path_flag) + 1
        argv[i] = f"file:{path}" if path_flag == "--state" else str(path)
        rc = run(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,needle", [
        (["simulate", "--state", "fock:0", "--n", "nan", "--eta", "0.9", "--seed", "1"],
         "--n"),
        (["simulate", "--state", "fock:0", "--n", "10", "--eta", "-inf", "--seed", "1"],
         "--eta"),
        (["cut", "--data", "d.csv", "--p", "0"], "required"),
        (["kernel-table", "--h", "0.5", "--eta", "0.9", "--variant", "boxcar",
          "--umax", "5", "--step", "0.1"], "--variant"),
    ])
    def test_argparse_errors_one_line(self, tmp_path, capsys, argv, needle):
        rc = run(argv + ["--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert needle in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["--help"], ["risk", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        assert run(argv) == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("text,n,recorded", [
        ("1e120", 10**120, 1e120),
        ("1.234560e120", 123456 * 10**115, 1.23456e120),
        # no double reads back as this integer, so the manifest keeps its digits
        ("12345678901234567891", 12345678901234567891, 12345678901234567891),
    ])
    def test_lb_verify_n_is_exact(self, tmp_path, monkeypatch, text, n, recorded):
        import wignerscope.cli as cli

        seen = []

        class Report:
            def to_json_dict(self):
                return {}

        def fake_verify_pair(axi, bump, cls, noise, n, *, k_max):
            seen.append(n)
            return Report()

        monkeypatch.setattr(cli, "verify_pair", fake_verify_pair)
        out = tmp_path / "lb.json"
        argv = ["lb-verify", "--alpha", "0.2", "--xi", "0.94", "--beta", "0.1", "--r", "2",
                "--L", "7.6", "--eta", "0.2", "--n", text, "--out", str(out)]
        assert run(argv) == 0
        assert seen == [n] and type(seen[0]) is int
        # the manifest's n replays to the same exact integer
        flags = json.loads((tmp_path / "lb.json.manifest.json").read_text())["flags"]
        assert flags["n"] == recorded and type(flags["n"]) is type(recorded)
        assert run(argv[:-4] + ["--n", repr(flags["n"]), "--out", str(out)]) == 0
        assert seen == [n, n]

    def test_python_m_runs_the_cli(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        out = tmp_path / "kt.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "wignerscope.cli", "kernel-table", "--h", "0.5",
             "--eta", "0.9", "--umax", "5", "--step", "0.0625", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert out.read_text().startswith("u,value\n")
        assert (tmp_path / "kt.csv.manifest.json").exists()
