import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from wignerscope import cli
from wignerscope import estimator as es
from wignerscope import fockspace as fs
from wignerscope import sampler as sp
from wignerscope.cli import parse_rule, parse_state, run
from wignerscope.errors import ValidationError
from wignerscope.estimator import BandwidthRule, risk_eval
from wignerscope.tomography import NoiseModel, SmoothnessClass


def sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON (RFC 8259)."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


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

    @pytest.mark.parametrize("text,message", [
        ("fock:2001", "order 2001 exceeds stability budget 2000"),
        ("coherent:100,0", r"mean photon number 5e\+03 exceeds the dim cap 2001"),
    ])
    def test_state_past_a_cap_refused_at_parse(self, text, message):
        with pytest.raises(ValidationError, match=message):
            parse_state(text)


class TestParseRule:
    @pytest.mark.parametrize("name,kind", [
        ("opt", "opt"), ("h1", "h1"), ("h2", "h2"), ("r2", "r2"),
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

    @pytest.mark.parametrize("value", ["0.35", "adaptive"])
    @pytest.mark.parametrize("beta,r,L", [(0.2, 2.0, 1.0), (math.nan, None, None),
                                          (None, None, -1.0)])
    def test_class_flag_beside_a_rule_without_class(self, value, beta, r, L):
        with pytest.raises(ValidationError, match="takes no --beta, --r or --L"):
            parse_rule(value, beta, r, L)


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
        assert err == f"error: seed must be an integer in [0, 2**64), got {seed}\n"
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
                  "--reps", "2", "--points", "0,0", "--rule", "0.4",
                  f"--seed={seed}", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error: seed must be an integer in [0, 2**64), got {seed}\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_loss_exit_2(self, tmp_path, capsys):
        # K(0) is about e^657 at h = 0.0195, eta = 0.5, so the squared loss
        # overflows: one numeric-guard line, no numpy warning, no report
        out = tmp_path / "risk.json"
        rc = run(["risk", "--state", "fock:0", "--eta", "0.5", "--n", "200", "--reps", "2",
                  "--points", "0,0", "--rule", "0.0195", "--seed", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("numeric guard: ") and err.count("\n") == 1
        assert not out.exists()


class TestParseErrors:
    @pytest.fixture()
    def bad_json(self, tmp_path):
        path = tmp_path / "rho.json"
        path.write_text('{"dim": 2, "re": [[1, 0], [0, 0]')
        return path

    @pytest.fixture()
    def nan_json(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"dim": 2, "tail_mass": 0.0, "re": [[0.5, NaN], [NaN, 0.5]], '
                        '"im": [[0, 0], [0, 0]]}')
        return path

    @pytest.fixture()
    def dim_inf_json(self, tmp_path):
        path = tmp_path / "dim_inf.json"
        path.write_text('{"dim": 1e400, "tail_mass": 0.0, "re": [[1.0]], "im": [[0.0]]}')
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
        ("file:{nan_json}", "0,0"),
        ("file:{dim_inf_json}", "0,0"),
    ])
    def test_risk_parse_error_exit_1(self, tmp_path, capsys, bad_json, nan_json, dim_inf_json,
                                     state, points):
        out = tmp_path / "risk.json"
        state = state.format(bad_json=bad_json, nan_json=nan_json, dim_inf_json=dim_inf_json)
        rc = run(["risk", "--state", state, "--eta", "0.9",
                  "--n", "100", "--reps", "2", "--points", points, "--rule", "0.4",
                  "--seed", "1", "--out", str(out)])
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
                  "--bigD", str(fx["big_d"]), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert set(report["verdicts"]) == {"positivity", "class", "separation", "chi2"}
        assert report["diagnostics"]["k_max"] == fs.MAX_ORDER

    def test_degenerate_model_report_is_json(self, tmp_path):
        # p_1^eta turns negative: chi^2 is infinite, and the report says why
        # with null, never Infinity or NaN (RFC 8259)
        out = tmp_path / "lb.json"
        rc = run(["lb-verify", "--alpha", "0.2", "--xi", "0.94", "--beta", "0.111111111111",
                  "--r", "2", "--L", "1e9", "--eta", "0.2", "--n", "1e6", "--delta", "0.5",
                  "--bigD", "5", "--out", str(out)])
        assert rc == 0

        report = strict_json(out.read_text())
        assert report["verdicts"]["chi2"] is False and report["chi2_times_n"] is None
        diag = report["diagnostics"]
        assert diag["chi2_error"] == "p_1^eta not positive on the quadrature range"
        # the L2 and tail-control terms do not depend on p_1^eta
        assert math.isfinite(diag["l2_term"]) and math.isfinite(diag["tail_control_term"])

    @pytest.mark.parametrize("flags,converged", [
        ("--beta 3", True),
        ("--beta 10", False),   # 2 beta > (1 + xi) / (2 (1 - xi)): the integral diverges
        ("--beta 1 --n 1e300 --bigD 300", True),
        ("--alpha 1e-17", True),   # W~'s small-t difference rounds to <= 0
    ])
    def test_class_weight_past_the_doubles(self, tmp_path, capsys, flags, converged):
        # e^{2 beta t^r} overflows where |W~|^2 (or J^2) underflows; joined in
        # log space the class integrals stay finite, with no RuntimeWarning
        out = tmp_path / "lb.json"
        argv = SMALL_ARGV["lb-verify"].format(out=out).split()
        for flag, value in zip(flags.split()[::2], flags.split()[1::2]):
            argv[argv.index(flag) + 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 0
        assert capsys.readouterr().err == ""
        report = json.loads(out.read_text())
        diag = report["diagnostics"]
        assert diag["base_class_converged"] is converged
        assert report["verdicts"]["class"] is converged
        assert ("base_class_diagnostic" in diag) is not converged
        if converged:
            assert math.isfinite(diag["base_class_integral"])
            assert math.isfinite(diag["perturbation_class_integral"])
            assert report["class_lhs"] <= report["class_rhs"]
        else:
            assert diag["base_class_diagnostic"].startswith("integrand overflows on t in")

    def test_invalid_alpha_exit_1(self, tmp_path):
        rc = run(["lb-verify", "--alpha", "1.5", "--xi", "0.9", "--beta", "0.1",
                  "--r", "2", "--L", "1", "--eta", "0.9", "--n", "1e6",
                  "--out", str(tmp_path / "lb.json")])
        assert rc == 1

    @pytest.mark.parametrize("flags", [
        "--alpha 0.2 --xi 0.95 --beta 0.5 --r 1 --L 1 --eta 0.9 --n 1e100 --delta 0.1 --bigD 1",
        "--alpha 0.2 --xi 0.94 --beta 0.111111111111 --r 2 --L 7.6 --eta 0.2 --n 1e120 "
        "--delta 0.5 --bigD 1000",
    ], ids=["readme-r1", "fixture-bigD-1000"])
    def test_report_same_at_one_and_two_blas_threads(self, tmp_path, flags):
        # OpenBLAS's dot product splits a long vector over its threads, and
        # J's and chi^2's rules reach 10^4 to 10^5 nodes here; their weighted
        # sums are numpy's own reduction, so the bytes do not depend on it
        import subprocess
        import sys

        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"lb-{threads}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "wignerscope.cli", "lb-verify", *flags.split(),
                 "--out", str(out)],
                env=dict(_child_env(), OPENBLAS_NUM_THREADS=threads),
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


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
                 "--eta 0.2 --n 1e120 --delta 0.5 --bigD 5 --out {out}",
}

# every parsed flag, plus what the command resolved
MANIFEST_FLAGS = {
    "simulate": {"state", "n", "eta", "seed", "out"},
    "estimate": {"data", "h", "beta", "r", "L", "variant", "grid", "resolved_rule", "out"},
    "cut": {"data", "p", "qmin", "qmax", "steps", "h", "beta", "r", "L", "variant",
            "resolved_rule", "out"},
    "risk": {"state", "eta", "n", "reps", "points", "rule", "beta", "r", "L",
             "variant", "seed", "out"},
    "kernel-table": {"h", "eta", "variant", "umax", "step", "out"},
    "lb-verify": {"alpha", "xi", "beta", "r", "L", "eta", "n", "delta", "bigD", "out"},
}

# flags the CLI no longer has: the truncation is fockspace.MAX_ORDER, and
# risk --rule takes a fixed bandwidth as a number
REMOVED_FLAGS = [("lb-verify", "--kmax"), ("risk", "--hfixed")]

# class flags beside a bandwidth whose rule takes none: cut's number, and
# risk --rule 0.4 (the sweep's "risk-fixed")
FIXED_RISK = SMALL_ARGV["risk"].replace("--rule r2 --beta 0.08 --r 2 --L 1", "--rule 0.4")
UNUSED_CLASS_FLAGS = [(command, flag) for command in ("cut", "risk-fixed")
                      for flag in ("--beta", "--r", "--L")]

NUMERIC_FLAGS = [
    (command, token)
    for command, line in SMALL_ARGV.items()
    for token in line.split()
    if token.startswith("--")
    and token.split("=")[0] not in ("--state", "--data", "--grid", "--points", "--rule",
                                    "--variant", "--out")
] + REMOVED_FLAGS + UNUSED_CLASS_FLAGS

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
        out = tmp_path / "out"
        line = FIXED_RISK if command == "risk-fixed" else SMALL_ARGV[command]
        argv = line.format(data=small_data, out=out).split()
        name = flag.split("=")[0]
        removed = (command, flag) in REMOVED_FLAGS
        unused = (command, flag) in UNUSED_CLASS_FLAGS
        # --flag=value, so that "-inf" and "-1" reach the flag's own parsing
        if removed or unused:
            argv.append(f"{name}={value}")
        else:
            i = argv.index(flag)
            argv[i:i + (1 if "=" in flag else 2)] = [f"{name}={value}"]
        rc = run(argv)
        err = capsys.readouterr().err
        assert rc in (0, 1, 2)
        assert err.count("\n") <= 1 and "Traceback" not in err
        assert (rc == 0) == (err == "")
        if rc == 0:
            strict_json((tmp_path / "out.manifest.json").read_text())
        if removed:
            assert rc == 1 and "unrecognized arguments" in err and not out.exists()
        if unused:
            assert rc == 1 and not out.exists()

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
        # --rule 0.4 is the fixed rule h = 0.4, as --h 0.4 is
        out = tmp_path / "risk.json"
        assert run(["risk", "--state", "cat:3", "--eta", "0.95", "--n", "500",
                    "--reps", "2", "--points", "0,0;3,0", "--rule", "0.4",
                    "--seed", "11", "--out", str(out)]) == 0
        expect = risk_eval(fs.StateSpec.cat(3.0), NoiseModel(0.95), BandwidthRule("fixed", h=0.4),
                           "sharp", [(0.0, 0.0), (3.0, 0.0)], 500, 2, 11)
        assert out.read_text() == json.dumps(expect.to_json_dict(), indent=2, sort_keys=True)
        sidecar = tmp_path / "risk.json.manifest.json"
        report, manifest = out.read_bytes(), sidecar.read_bytes()
        flags = json.loads(manifest)["flags"]
        assert flags["rule"] == "0.4"
        replay = ["risk"] + [f"--{k}={v}" for k, v in flags.items() if v is not None]
        assert run(replay) == 0
        assert out.read_bytes() == report
        assert sidecar.read_bytes() == manifest

    def test_risk_rule_fixed_exit_1(self, small_data, tmp_path, capsys):
        # a fixed bandwidth is the number itself: "fixed" names no rule
        out = tmp_path / "out"
        rc = run(small_argv("risk", small_data, out) + ["--rule", "fixed"])
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1 and err.startswith("error: ")
        assert not out.exists()

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

    @pytest.mark.parametrize("command", ["estimate", "cut"])
    @pytest.mark.parametrize("edit", [
        lambda meta: meta.update(eta="x"),
        lambda meta: meta.update(n="x"),
        lambda meta: meta["state"].update(params=["abc"]),
        lambda meta: meta.update(state={"kind": "custom", "dim": 2, "params": {"matrix": {
            "dim": 2, "tail_mass": 0.0, "re": [[1.0, 0.0], [0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}}}),
        lambda meta: meta["state"].update(kind="nosuch"),
        lambda meta: meta["state"].update(dim="x"),
        lambda meta: meta["state"].update(params={}),
        lambda meta: meta.update(state={"kind": "cat", "dim": None,
                                        "params": {"q0": 1.0, "axis": "z"}}),
        lambda meta: meta["state"].update(params={"n": 3000}),
        lambda meta: meta.update(state={"kind": "custom", "dim": 2, "params": {"matrix": {
            "dim": 2, "tail_mass": 0.0, "re": [[0.5, math.nan], [math.nan, 0.5]],
            "im": [[0.0, 0.0], [0.0, 0.0]]}}}),
        lambda meta: meta.update(n=math.inf),
        lambda meta: meta.update(seed=math.inf),
        lambda meta: meta["state"].update(params={"n": math.inf}),
        lambda meta: meta.update(n=meta["n"] + 0.9),
        lambda meta: meta.update(seed=meta["seed"] + 0.5),
        lambda meta: meta.update(n=True),
        lambda meta: meta.update(seed=False),
    ], ids=["eta", "n", "params", "ragged-matrix", "kind", "dim", "no-params", "cat-axis",
            "fock-past-budget", "nan-matrix", "n-past-ints", "seed-past-ints",
            "fock-n-past-ints", "n-fractional", "seed-fractional", "n-bool", "seed-bool"])
    def test_header_that_cannot_be_rebuilt_one_line(self, small_data, tmp_path, capsys,
                                                    monkeypatch, command, edit):
        # refused at line 1: no record is parsed, nothing estimated or built
        def reached(*args, **kwargs):
            raise AssertionError("reached")

        for name in ("read_dataset", "estimate_grid", "materialize"):
            monkeypatch.setattr(cli, name, reached)
        header, records = small_data.read_text().split("\n", 1)
        meta = json.loads(header[len("# meta: "):])
        edit(meta)
        data = tmp_path / "d.csv"
        # an infinite number is written as 1e400, a JSON number past a double
        header = json.dumps(meta).replace("Infinity", "1e400")
        data.write_text(f"# meta: {header}\n{records}")
        out = tmp_path / "out"
        rc = run(small_argv(command, data, out))
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: line 1: ") and err.count("\n") == 1, err
        assert not out.exists()

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
        # no double equals this integer: n is the double nearest to it
        ("12345678901234567891", 12345678901234567891, 1.2345678901234567e19),
    ])
    def test_lb_verify_n_is_exact(self, tmp_path, monkeypatch, text, n, recorded):
        import wignerscope.cli as cli

        seen = []

        class Report:
            def to_json_dict(self):
                return {"n": seen[-1]}

        def fake_verify_pair(axi, bump, cls, noise, n):
            seen.append(n)
            return Report()

        monkeypatch.setattr(cli, "verify_pair", fake_verify_pair)
        out = tmp_path / "lb.json"
        argv = ["lb-verify", "--alpha", "0.2", "--xi", "0.94", "--beta", "0.1", "--r", "2",
                "--L", "7.6", "--eta", "0.2", "--n", text, "--out", str(out)]
        assert run(argv) == 0
        assert recorded == float(n) and seen == [recorded] and type(seen[0]) is float
        # the manifest records n as that double, and a replay with it
        # rewrites the report and the manifest byte for byte
        sidecar = tmp_path / "lb.json.manifest.json"
        report, manifest = out.read_bytes(), sidecar.read_bytes()
        flags = json.loads(manifest)["flags"]
        assert flags["n"] == recorded and type(flags["n"]) is float
        assert run(argv[:-4] + ["--n", repr(flags["n"]), "--out", str(out)]) == 0
        assert seen == [recorded, recorded]
        assert out.read_bytes() == report and sidecar.read_bytes() == manifest

    def test_python_m_runs_the_cli(self, tmp_path):
        import subprocess
        import sys

        out = tmp_path / "kt.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "wignerscope.cli", "kernel-table", "--h", "0.5",
             "--eta", "0.9", "--umax", "5", "--step", "0.0625", "--out", str(out)],
            env=_child_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert out.read_text().startswith("u,value\n")
        assert (tmp_path / "kt.csv.manifest.json").exists()


class TestRuleNames:
    @pytest.mark.parametrize("name", ["opt", "h1", "h2", "r2", "adaptive"])
    def test_manifest_and_report_record_the_cli_name(self, small_data, tmp_path, name):
        # beta < gamma (eta = 0.9) keeps h1 and h2 defined at n = 200
        cls = [] if name == "adaptive" else ["--beta", "0.02", "--r", "2", "--L", "1"]
        grid, report = tmp_path / "grid.csv", tmp_path / "risk.json"
        assert run(["estimate", "--data", str(small_data), "--h", name, *cls,
                    "--grid=0:1:2,0:1:2", "--out", str(grid)]) == 0
        manifest = json.loads((tmp_path / "grid.csv.manifest.json").read_text())
        assert manifest["flags"]["resolved_rule"]["kind"] == name
        assert run(["risk", "--state", "fock:0", "--eta", "0.9", "--n", "200", "--reps", "1",
                    "--points", "0,0", "--rule", name, *cls, "--seed", "3",
                    "--out", str(report)]) == 0
        assert json.loads(report.read_text())["meta"]["rule"]["kind"] == name


class TestOversizedInputs:
    """An input that would size an allocation past a cap ends in one error
    line before the allocation.  Each runs in a child held to 1 GiB of
    address space, so an input that does allocate ends there in a
    MemoryError, not in the host's out-of-memory killer."""

    @pytest.mark.parametrize("command,flag,value", [
        ("simulate", "--n", "cap + 1"),     # sampler._MAX_RECORDS + 1 records
        ("risk", "--n", "cap + 1"),
        ("lb-verify", "--bigD", "1844"),    # tau's Laguerre table one panel past its cap
        ("lb-verify", "--bigD", "19900"),   # J's rule one panel past its cap
        ("lb-verify", "--bigD", "1e6"),
        ("lb-verify", "--bigD", "1e12"),
    ])
    def test_exit_1_before_allocating(self, tmp_path, command, flag, value):
        value = str(sp._MAX_RECORDS + 1) if value == "cap + 1" else value
        self._refused(tmp_path, command, {flag: value})

    @pytest.mark.parametrize("flags", [
        # J's noisy rule inside chi^2 past its cap (135,536 and 166,176 nodes)
        "--eta 0.01 --bigD 200",
        "--eta 0.002 --bigD 50",
        # chi^2's y rule past its cap (4.08e7 nodes, 327 MB a node array)
        "--beta 1e-6 --r 2 --L 1 --eta 0.999999 --n 1e300 --delta 1e-3 --bigD 5e-3",
    ])
    def test_chi2_caps_exit_1(self, tmp_path, flags):
        words = flags.split()
        self._refused(tmp_path, "lb-verify", dict(zip(words[::2], words[1::2])))

    @staticmethod
    def _refused(tmp_path, command, changes):
        import resource
        import subprocess
        import sys

        out = tmp_path / "out"
        argv = SMALL_ARGV[command].format(out=out).split()
        for flag, value in changes.items():
            argv[argv.index(flag) + 1] = value

        def limit():
            _, hard = resource.getrlimit(resource.RLIMIT_AS)
            resource.setrlimit(resource.RLIMIT_AS, (2**30, hard))

        proc = subprocess.run([sys.executable, "-m", "wignerscope.cli", *argv],
                              env=dict(_child_env(), OPENBLAS_NUM_THREADS="1"), preexec_fn=limit,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1 and proc.stderr.startswith("error:"), proc.stderr
        assert proc.stderr.count("\n") == 1
        assert not out.exists()


class TestRefusedBeforeWork:
    """A flag that needs no data is refused before the data is read, the
    state materialized or the sampler's table built; a bandwidth whose
    exponent no double holds is one numeric-guard line."""

    @pytest.mark.parametrize("command", ["estimate", "cut", "risk", "kernel-table"])
    def test_tiny_h_exit_2(self, small_data, tmp_path, capsys, monkeypatch, command):
        # h^2 underflows to 0 at h = 1e-200; estimate and cut build the
        # kernel from the dataset's header line and parse no record
        def read_dataset(path):
            raise AssertionError("read_dataset reached")

        monkeypatch.setattr(cli, "read_dataset", read_dataset)
        out = tmp_path / "out"
        argv = small_argv(command, small_data, out)
        flag = "--rule" if command == "risk" else "--h"
        argv[argv.index(flag) + 1] = "1e-200"
        for name in ("--beta", "--r", "--L"):   # a number takes no class flag
            if name in argv:
                del argv[argv.index(name):argv.index(name) + 2]
        rc = run(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("numeric guard: deconvolution exponent inf") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command,changes", [
        ("estimate", {"--h": "foo"}),
        ("estimate", {"--beta": None}),
        ("estimate", {"--grid=-4:4:3,-4:4:3": "--grid=0:1:0,0:1:3"}),
        ("estimate", {"--grid=-4:4:3,-4:4:3": "--grid=0:1"}),
        ("cut", {"--h": "foo"}),
        ("cut", {"--h": "opt"}),
    ], ids=["estimate-h", "estimate-no-class", "estimate-grid-steps", "estimate-grid-form",
            "cut-h", "cut-no-class"])
    def test_estimator_flags_refused_before_reading(self, small_data, tmp_path, capsys,
                                                    monkeypatch, command, changes):
        def read_dataset(path):
            raise AssertionError("read_dataset reached")

        monkeypatch.setattr(cli, "read_dataset", read_dataset)
        out = tmp_path / "out"
        argv = small_argv(command, small_data, out)
        for flag, value in changes.items():
            i = argv.index(flag)
            if value is None:           # drop the flag and its value
                del argv[i:i + 2]
            elif flag.startswith("--grid="):
                argv[i] = value
            else:
                argv[i + 1] = value
        rc = run(argv)
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    def test_risk_kernel_refused_before_materialize(self, tmp_path, capsys, monkeypatch):
        def materialize(spec):
            raise AssertionError("materialize reached")

        monkeypatch.setattr(es, "materialize", materialize)
        out = tmp_path / "risk.json"
        rc = run(["risk", "--state", "coherent:20,0", "--eta", "0.5", "--n", "100", "--reps", "1",
                  "--points", "0,0", "--rule", "0.01", "--seed", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("numeric guard:") and err.count("\n") == 1
        assert not out.exists()

    def test_risk_table_cap_before_sampler(self, tmp_path, capsys, monkeypatch):
        # a table out to |z| = 1e5 at step h/8 = 0.05 holds 2e6 nodes
        def sampler(rho):
            raise AssertionError("QuadratureSampler reached")

        monkeypatch.setattr(es, "QuadratureSampler", sampler)
        out = tmp_path / "risk.json"
        rc = run(["risk", "--state", "coherent:20,0", "--eta", "0.9", "--n", "100", "--reps", "1",
                  "--points", "100000,0", "--rule", "0.4", "--seed", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and "table nodes" in err and err.count("\n") == 1
        assert not out.exists()


def _child_env():
    import os
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def _child(code, *args, cwd=None):
    """Run ``code`` in a fresh interpreter and return its stdout."""
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=_child_env(),
                          cwd=cwd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestStartup:
    """No command needs scipy, and none imports it."""

    def test_import_loads_lowerbound_but_no_scipy(self):
        # lowerbound stays a module-level import of cli: the bench tracer
        # patches only modules already in sys.modules when tracing starts
        out = _child("import sys, wignerscope.cli; "
                     "print('scipy' in sys.modules, 'wignerscope.lowerbound' in sys.modules)")
        assert out.split() == ["False", "True"]

    def test_help_loads_no_scipy(self):
        code = ("import runpy, sys\n"
                "sys.argv = ['wignerscope', '--help']\n"
                "try:\n"
                "    runpy.run_module('wignerscope.cli', run_name='__main__')\n"
                "except SystemExit as exc:\n"
                "    assert exc.code == 0, exc.code\n"
                "print('scipy' in sys.modules)\n")
        assert _child(code).splitlines()[-1] == "False"

    def test_simulate_loads_no_scipy(self, tmp_path):
        code = ("import sys, wignerscope.cli as cli; "
                "code = cli.run(['simulate', '--state', 'fock:1', '--n', '200', '--eta', '0.9', "
                "'--seed', '7', '--out', 'd.csv']); "
                "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert _child(code, cwd=tmp_path).strip() == "0 []"
        assert (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["estimate", "--data", "d.csv", "--h", "r2", "--beta", "0.2", "--r", "2", "--L", "1",
         "--grid=-4:4:9,-4:4:9", "--out", "grid.csv"],
        ["cut", "--data", "d.csv", "--p", "0", "--qmin=-4", "--qmax", "4", "--steps", "17",
         "--h", "0.35", "--out", "cut.csv"],
        ["risk", "--state", "cat:3", "--eta", "0.95", "--n", "500", "--reps", "2",
         "--points", "0,0;3,0", "--rule", "r2", "--beta", "0.08", "--r", "2", "--L", "1",
         "--seed", "11", "--out", "report.json"],
        ["kernel-table", "--h", "0.25", "--eta", "0.9", "--variant", "modified",
         "--umax", "50", "--step", "0.03125", "--out", "kernel.csv"],
        ["kernel-table", "--h", "0.25", "--eta", "0.9", "--variant", "sharp",
         "--umax", "50", "--step", "0.03125", "--out", "kernel.csv"],
    ], ids=["estimate", "cut", "risk", "kernel-table-modified", "kernel-table-sharp"])
    def test_readme_command_loads_no_scipy(self, tmp_path, argv):
        # the README's commands at small sizes, after a simulate that writes d.csv
        sim = ["simulate", "--state", "fock:1", "--n", "200", "--eta", "0.9", "--seed", "7",
               "--out", "d.csv"]
        code = (f"import sys, wignerscope.cli as cli; codes = [cli.run({sim!r}), cli.run({argv!r})]; "
                "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert _child(code, cwd=tmp_path).strip() == "[0, 0] []"
        assert (tmp_path / argv[-1]).exists()

    def test_every_command_runs_without_scipy(self, tmp_path, monkeypatch):
        # a scipy package whose import fails stands in for scipy not installed;
        # the README's six commands, an opt estimate at r < 2 and the r = 1
        # lower bound all run there, and write what they write in this process
        import os
        import subprocess
        import sys

        argvs = [
            ["simulate", "--state", "fock:1", "--n", "5000", "--eta", "0.9", "--seed", "7",
             "--out", "d.csv"],
            ["estimate", "--data", "d.csv", "--h", "r2", "--beta", "0.2", "--r", "2", "--L", "1",
             "--grid=-4:4:81,-4:4:81", "--out", "grid.csv"],
            ["cut", "--data", "d.csv", "--p", "0", "--qmin=-4", "--qmax", "4", "--steps", "161",
             "--h", "0.35", "--out", "cut.csv"],
            ["risk", "--state", "cat:3", "--eta", "0.95", "--n", "10000", "--reps", "100",
             "--points", "0,0;3,0", "--rule", "r2", "--beta", "0.08", "--r", "2", "--L", "1",
             "--seed", "11", "--out", "report.json"],
            ["kernel-table", "--h", "0.25", "--eta", "0.9", "--variant", "modified",
             "--umax", "50", "--step", "0.03125", "--out", "kernel.csv"],
            ["lb-verify", "--alpha", "0.2", "--xi", "0.94", "--beta", "0.111111111111",
             "--r", "2", "--L", "7.6", "--eta", "0.2", "--n", "1e120", "--delta", "0.5",
             "--bigD", "5", "--out", "lb.json"],
            ["estimate", "--data", "d.csv", "--h", "opt", "--beta", "0.5", "--r", "1.5",
             "--L", "1", "--grid=-4:4:9,-4:4:9", "--out", "opt.csv"],
            ["lb-verify", "--alpha", "0.2", "--xi", "0.95", "--beta", "0.5", "--r", "1",
             "--L", "1", "--eta", "0.9", "--n", "1e100", "--delta", "0.1", "--bigD", "1",
             "--out", "lb_r1.json"],
        ]
        child_dir, here_dir = tmp_path / "child", tmp_path / "here"
        stub = tmp_path / "stub" / "scipy"
        for d in (child_dir, here_dir, stub):
            d.mkdir(parents=True)
        (stub / "__init__.py").write_text("raise ImportError('scipy is not installed')\n")
        env = _child_env()
        env["PYTHONPATH"] = os.pathsep.join([str(stub.parent), env["PYTHONPATH"]])
        code = ("import sys, wignerscope.cli as cli\n"
                f"print([cli.run(argv) for argv in {argvs!r}])\n"
                "try:\n"
                "    import scipy\n"
                "except ImportError:\n"
                "    print('no scipy')\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=child_dir,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [str([0] * len(argvs)), "no scipy"], proc.stderr
        monkeypatch.chdir(here_dir)
        assert [run(argv) for argv in argvs] == [0] * len(argvs)
        for argv in argvs:
            for name in (argv[-1], argv[-1] + ".manifest.json"):
                assert (child_dir / name).read_bytes() == (here_dir / name).read_bytes(), name
        readme, r1 = (json.loads((here_dir / name).read_text())["verdicts"]
                      for name in ("lb.json", "lb_r1.json"))
        assert all(readme.values())
        assert r1 == {"positivity": True, "class": True, "separation": False, "chi2": True}
