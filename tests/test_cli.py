"""End-to-end command-line checks, run in process through main(argv)."""

import json
import re

import numpy as np
import pytest

import marc_cap
from marc_cap import cli
from marc_cap.bounds import DomainError
from marc_cap.cli import main
from marc_cap.region import build_df_region, build_outer_region

MANIFEST = re.compile(r"^# manifest [0-9a-f]{64}$")

EX1 = {"K": 2, "P": [6.0, 4.0], "P_r": 4.0, "N_r": 1.0, "N_delta": 1.0}
EX1_SNR = {"snr_relay": [6.0, 4.0], "snr_dest": [3.0, 2.0], "snr_relay_dest": 2.0}
BOTTLENECK = {"K": 2, "P": [1.0, 1.0], "P_r": 100.0, "N_r": 1.0, "N_delta": 1.0}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sumcap_example1_reference_lines(tmp_path, capsys):
    cfg = write_config(tmp_path, EX1)
    code, out, err = run(capsys, "sumcap", cfg)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert MANIFEST.match(lines[0])
    assert lines[1] == "config K=2 P=6.000000,4.000000 P_r=4.000000 N_r=1.000000 N_delta=1.000000"
    assert lines[2] == "regime=Equalized root=0.408248 c=0.166667 R=1.660964 status=Exact"
    assert lines[3] == "scan family=inner resolution=0.001000 verdict=ActiveClass"
    assert lines[4] == "active alpha1=[0.833333,1.000000]"
    assert lines[5] == "active alpha2=[0.750000,1.000000]"


def test_sumcap_bottleneck_line(tmp_path, capsys):
    cfg = write_config(tmp_path, BOTTLENECK)
    code, out, _ = run(capsys, "sumcap", cfg)
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "regime=Bottleneck R=0.792481 status=Exact"
    assert len(lines) == 3


def test_sumcap_snr_form_equivalent(tmp_path, capsys):
    # Same channel in both config dialects: identical output below the
    # manifest line (the digest hashes the config path).
    code_p, out_p, _ = run(capsys, "sumcap", write_config(tmp_path, EX1, "p.json"))
    code_s, out_s, _ = run(capsys, "sumcap", write_config(tmp_path, EX1_SNR, "s.json"))
    assert code_p == code_s == 0
    assert out_p.splitlines()[1:] == out_s.splitlines()[1:]


def test_sumcap_resolution_validation(tmp_path, capsys):
    cfg = write_config(tmp_path, EX1)
    code, _, err = run(capsys, "sumcap", cfg, "--resolution", "0")
    assert code == 2
    assert "resolution must be positive" in err


@pytest.mark.parametrize("data, resolution, message", [
    (EX1, "nan", "resolution must be positive and finite, got nan"),
    (EX1, "inf", "resolution must be positive and finite, got inf"),
    (EX1, "-1", "resolution must be positive and finite, got -1.0"),
    (BOTTLENECK, "nan", "resolution must be positive and finite, got nan"),
    (BOTTLENECK, "inf", "resolution must be positive and finite, got inf"),
    (EX1, "1e-12", "resolution 1e-12 gives 1.66667e+11 sweep points, more than 2097152"),
    (EX1, "5e-324", "resolution 5e-324 gives inf sweep points, more than 2097152"),
])
def test_sumcap_rejects_resolutions_the_sweep_cannot_honour(tmp_path, capsys, data, resolution, message):
    # One error line and no stdout, in either regime; these used to raise
    # MemoryError, OverflowError or ValueError (exit 1), or run with inf.
    code, out, err = run(capsys, "sumcap", write_config(tmp_path, data), "--resolution", resolution)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("data,fragment", [
    ({**EX1, **EX1_SNR}, "mixes power and SNR"),
    ({**EX1, "bogus": 1}, "unknown config field(s): ['bogus']"),
    ({k: v for k, v in EX1.items() if k != "N_delta"}, "missing config field(s): ['N_delta']"),
    ({"snr_relay": [6.0, 4.0], "snr_dest": [3.0, 4.0], "snr_relay_dest": 2.0}, "inconsistent N_d"),
    ({"snr_relay": [6.0, 4.0], "snr_dest": [12.0, 8.0], "snr_relay_dest": 2.0}, "not degraded"),
    ({"snr_relay": [6.0, -4.0], "snr_dest": [3.0, 2.0], "snr_relay_dest": 2.0}, "must be positive"),
    ([1, 2, 3], "must be a JSON object"),
    ({**EX1_SNR, "bogus": 1}, "unknown config field(s): ['bogus']"),
    ({k: v for k, v in EX1_SNR.items() if k != "snr_dest"}, "missing config field(s): ['snr_dest']"),
    ({"snr_relay": [], "snr_dest": [], "snr_relay_dest": 2.0}, "snr_relay is empty"),
    ({"snr_relay": [6.0, 4.0], "snr_dest": [3.0], "snr_relay_dest": 2.0}, "snr_relay has 2 entries, snr_dest has 1"),
    ({**EX1_SNR, "snr_relay": [6.0, "high"]}, "config field error: snr_relay[2] must be a number, got 'high'"),
    ({**EX1, "P_r": "high"}, "config field error: P_r must be a number, got 'high'"),
    # Fields that used to be reshaped: K truncated or read as 1, strings
    # iterated character by character ("64" ran as P=(6, 4)).
    ({**EX1, "K": 2.7}, "error: K must be a positive integer, got 2.7\n"),
    ({**EX1, "K": True, "P": [6.0]}, "error: K must be a positive integer, got True\n"),
    ({**EX1, "P": "64"}, "error: config field error: P must be a list of numbers, got '64'\n"),
    ({**EX1_SNR, "snr_relay": "64"}, "error: config field error: snr_relay must be a list of numbers, got '64'\n"),
    ({**EX1_SNR, "snr_dest": "32"}, "error: config field error: snr_dest must be a list of numbers, got '32'\n"),
    # Booleans and numeric strings used to pass through float(): this config
    # ran as P=(1, 4), P_r=4.
    ({"P": [True, 4.0], "P_r": "4", "N_r": 1.0, "N_delta": 1.0}, "error: config field error: P[1] must be a number, got True\n"),
    ({**EX1, "P_r": "4"}, "error: config field error: P_r must be a number, got '4'\n"),
    ({**EX1, "N_r": True}, "error: config field error: N_r must be a number, got True\n"),
    ({**EX1, "N_delta": None}, "error: config field error: N_delta must be a number, got None\n"),
    ({**EX1, "N_delta": [1.0]}, "error: config field error: N_delta must be a number, got [1.0]\n"),
    ({**EX1, "P": [6.0, [4.0]]}, "error: config field error: P[2] must be a number, got [4.0]\n"),
    ({**EX1, "P_r": 10 ** 400}, "error: config field error: P_r is too large: int too large to convert to float\n"),
    ({**EX1_SNR, "snr_dest": [3.0, False]}, "error: config field error: snr_dest[2] must be a number, got False\n"),
    ({**EX1_SNR, "snr_relay_dest": "2"}, "error: config field error: snr_relay_dest must be a number, got '2'\n"),
    # Python's json reads NaN, and an ordered comparison is false on it.
    ({**EX1_SNR, "snr_dest": [3.0, float("nan")]}, "error: SNR values must be positive\n"),
    # Python's json reads Infinity too; it passes every positivity test.
    ({**EX1_SNR, "snr_relay": [float("inf"), float("inf")]}, "error: SNR values must be finite\n"),
    ({**EX1_SNR, "snr_dest": [3.0, float("inf")]}, "error: SNR values must be finite\n"),
    ({**EX1_SNR, "snr_relay_dest": float("inf")}, "error: SNR values must be finite\n"),
    ({**EX1, "P": [6.0, float("inf")]}, "error: P[2] must be finite, got inf\n"),
    ({**EX1, "P_r": float("inf")}, "error: P_r must be finite, got inf\n"),
    ({**EX1, "N_r": float("inf")}, "error: N_r must be finite, got inf\n"),
    ({**EX1, "N_delta": float("inf")}, "error: N_delta must be finite, got inf\n"),
    ({**EX1, "P_r": float("-inf")}, "error: P_r must be positive, got -inf\n"),
])
def test_config_errors(tmp_path, capsys, data, fragment):
    cfg = write_config(tmp_path, data)
    code, out, err = run(capsys, "sumcap", cfg)
    assert code == 2 and out == ""
    assert fragment in err and err.count("\n") == 1


def test_config_parse_and_read_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "sumcap", str(bad))
    assert code == 2 and "config parse error" in err
    code, _, err = run(capsys, "sumcap", str(tmp_path / "missing.json"))
    assert code == 2 and "cannot read config" in err


def test_config_validation_error_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, {**EX1, "P": [-6.0, 4.0]})
    code, _, err = run(capsys, "sumcap", cfg)
    assert code == 2 and err.startswith("error:")


def test_region_both_writes_two_files(tmp_path, capsys):
    cfg = write_config(tmp_path, EX1)
    out = tmp_path / "r.csv"
    code, stdout, _ = run(capsys, "region", cfg, "--step", "0.1", "--out", str(out))
    assert code == 0
    digest_line = stdout.splitlines()[0]
    assert MANIFEST.match(digest_line)
    config = marc_cap.ChannelConfig(2, (6.0, 4.0), 4.0, 1.0, 1.0)
    for name, build in (("inner", build_df_region), ("outer", build_outer_region)):
        path = tmp_path / f"r.{name}.csv"
        assert f"wrote {path} bound={name}" in stdout
        lines = path.read_text().splitlines()
        assert lines[0] == digest_line
        assert lines[1] == "R1,R2"
        got = np.array([[float(x) for x in ln.split(",")] for ln in lines[2:]])
        # %.17g round-trips float64 exactly.
        np.testing.assert_array_equal(got, build(config, 0.1).vertices)


def test_region_single_bound_uses_out_path(tmp_path, capsys):
    cfg = write_config(tmp_path, EX1)
    out = tmp_path / "inner_only.csv"
    code, stdout, _ = run(capsys, "region", cfg, "--bound", "inner", "--step", "0.25", "--out", str(out))
    assert code == 0
    assert out.exists()
    assert not (tmp_path / "inner_only.inner.csv").exists()
    assert f"wrote {out} bound=inner" in stdout


def test_region_rejects_bad_step_and_dimension(tmp_path, capsys):
    cfg = write_config(tmp_path, EX1)
    code, _, err = run(capsys, "region", cfg, "--step", "0")
    assert code == 2 and "step must be in" in err
    # A step the lattice cap rejects fails before any lattice is built and
    # before anything is printed.
    code, out, err = run(capsys, "region", cfg, "--step", "0.0009", "--out", str(tmp_path / "r.csv"))
    assert (code, out, err) == (2, "", "error: grid resolution 0.0009 needs more than 1048576 lattice points\n")
    assert not list(tmp_path.glob("r*.csv"))
    cfg3 = write_config(tmp_path, {"K": 3, "P": [1.0, 1.0, 1.0], "P_r": 1.0,
                                   "N_r": 1.0, "N_delta": 1.0}, "k3.json")
    code, _, err = run(capsys, "region", cfg3)
    assert code == 3 and "requires K=2" in err


@pytest.mark.parametrize("bound", ["inner", "both"])
def test_region_reports_an_unwritable_path(tmp_path, capsys, bound):
    cfg = write_config(tmp_path, EX1)
    out = tmp_path / "missing" / "r.csv"
    code, stdout, err = run(capsys, "region", cfg, "--bound", bound, "--step", "0.25", "--out", str(out))
    path = out if bound == "inner" else out.with_suffix(".inner.csv")
    assert code == 2 and stdout == ""
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("bound", ["inner", "both"])
@pytest.mark.parametrize("out", ["", ".", "/"])
def test_region_rejects_an_out_path_without_a_file_name(tmp_path, capsys, bound, out):
    cfg = write_config(tmp_path, EX1)
    code, stdout, err = run(capsys, "region", cfg, "--bound", bound, "--step", "0.25", "--out", out)
    assert (code, stdout) == (2, "")
    assert err == f"error: --out needs a file name, got {out!r}\n"


def test_classify_alpha_full_rule(tmp_path, capsys):
    cfg = write_config(tmp_path, EX1)
    code, out, _ = run(capsys, "classify", cfg, "--alpha", "0.9,0.9")
    assert code == 0
    assert "params alpha=0.900000,0.900000 beta=0.600000,0.400000" in out
    assert re.search(r"subset \{1\}: f1=\d+\.\d{6} f2=\d+\.\d{6}", out)
    assert re.search(r"subset \{1,2\}: f1=", out)
    assert "max_sum=1.660964 kind=Active" in out
    assert "case=3b" in out


def test_classify_solves_last_alpha(tmp_path, capsys):
    cfg = write_config(tmp_path, {"K": 2, "P": [6.0, 0.4], "P_r": 4.0, "N_r": 1.0, "N_delta": 1.0})
    code, out, _ = run(capsys, "classify", cfg, "--alpha", "0.99")
    assert code == 0
    assert "params alpha=0.990000,0.566198" in out
    assert "kind=Inactive" in out
    assert "argmin={1} case=2" in out
    assert "max_sum=1.273075" in out


def test_classify_gamma_route(tmp_path, capsys):
    cfg = write_config(tmp_path, EX1)
    code, out, _ = run(capsys, "classify", cfg, "--gamma", "0.0,0.25")
    assert code == 0
    assert "params gamma=0.000000,0.250000" in out
    assert "max_sum=1.660964 kind=Active" in out


def test_classify_solves_last_gamma(tmp_path, capsys):
    cfg = write_config(tmp_path, EX1)
    code, out, err = run(capsys, "classify", cfg, "--gamma", "0.05")
    assert code == 0 and err == ""
    assert "params gamma=0.050000,0.051139" in out
    assert "subset {1}: f1=1.402973 f2=1.370338" in out
    assert "max_sum=1.660964 kind=Active argmin={} case=3b" in out


EX2 = {"K": 2, "P": [6.0, 0.4], "P_r": 4.0, "N_r": 1.0, "N_delta": 1.0}
K3 = {"P": [3.0, 1.5, 0.7], "P_r": 2.0, "N_r": 1.0, "N_delta": 1.5}
K1 = {"P": [5.0], "P_r": 4.0, "N_r": 1.0, "N_delta": 3.0}


@pytest.mark.parametrize("data, flag, values, message", [
    (EX2, "--alpha", "0.5", "solved alpha_2=7.916198487095663 lies outside [0, 1]"),
    (K3, "--alpha", "0.5,0.5", "solved alpha_3=2.6118000669888133 lies outside [0, 1]"),
    (K3, "--alpha", "0.99,0.99", "solved alpha_3=-0.5381999330111871 lies outside [0, 1]"),
    (EX1, "--gamma", "0.9", "gamma prefix already exceeds the equalizing root 0.40824829046386296"),
    (K3, "--gamma", "0.0,0.0", "gamma[3]=1.6024856472969013 outside [0, 1]"),
    (BOTTLENECK, "--alpha", "0.5", "cannot solve the last alpha: the Bottleneck regime has no equalizing constraint"),
    (BOTTLENECK, "--gamma", "0.5", "cannot solve the last gamma: the Bottleneck regime has no equalizing constraint"),
    # The given prefix is checked before any load is computed from it: the
    # square root of a negative gamma warns, and a NaN alpha would be blamed
    # on the solved coordinate.
    (EX1, "--gamma", "-0.1", "gamma[1]=-0.1 outside [0, 1]"),
    (EX1, "--alpha", "nan", "alpha[1]=nan outside [0, 1]"),
])
@pytest.mark.filterwarnings("error")
def test_classify_last_coordinate_errors(tmp_path, capsys, data, flag, values, message):
    code, out, err = run(capsys, "classify", write_config(tmp_path, data), flag, values)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_classify_flag_errors(tmp_path, capsys):
    cfg = write_config(tmp_path, EX1)
    code, _, err = run(capsys, "classify", cfg)
    assert code == 2 and "exactly one of --alpha or --gamma" in err
    code, _, err = run(capsys, "classify", cfg, "--alpha", "0.9,0.9", "--gamma", "0.1,0.1")
    assert code == 2 and "exactly one of --alpha or --gamma" in err
    code, _, err = run(capsys, "classify", cfg, "--gamma", "0.1,0.1", "--beta", "0.5,0.5")
    assert code == 2 and "--beta applies to --alpha only" in err
    code, _, err = run(capsys, "classify", cfg, "--alpha", "0.9,0.9,0.9")
    assert code == 2 and "--alpha expects 2 values" in err
    code, _, err = run(capsys, "classify", cfg, "--gamma", "0.9,0.9")
    assert code == 2 and "sum(gamma)" in err
    code, _, err = run(capsys, "classify", cfg, "--gamma", "0.9")
    assert code == 2 and "already exceeds the equalizing root" in err
    code, _, err = run(capsys, "classify", cfg, "--alpha", "0.9,oops")
    assert code == 2 and "--alpha expects comma-separated numbers" in err
    code, _, err = run(capsys, "classify", cfg, "--alpha", "0.9,0.9", "--beta", "0.5")
    assert code == 2 and "--beta expects 2 values, got 1" in err


def test_classify_empty_beta_is_an_error(tmp_path, capsys):
    # An empty --beta was taken for no --beta: exit 0 with beta_star.
    code, out, err = run(capsys, "classify", write_config(tmp_path, EX1), "--alpha", "0.9,0.9", "--beta", "")
    assert (code, out, err) == (2, "", "error: --beta expects 2 values, got 0\n")


def test_examples_pass_and_are_deterministic(capsys):
    code1, out1, _ = run(capsys, "examples")
    code2, out2, _ = run(capsys, "examples")
    assert code1 == code2 == 0
    assert out1 == out2
    assert MANIFEST.match(out1.splitlines()[0])
    assert "examples result=PASS" in out1
    assert out1.count("-> PASS") >= 11
    assert "-> FAIL" not in out1


def test_verify_dominance_suite(tmp_path, capsys):
    cfg = write_config(tmp_path, EX1)
    code, out, _ = run(capsys, "verify", cfg, "--suite", "dominance")
    assert code == 0
    assert "PASS dominance trials=500" in out
    assert "verify result=PASS checks=1" in out


def test_verify_mc_suite_warns_on_low_n(tmp_path, capsys):
    cfg = write_config(tmp_path, EX1)
    code, out, _ = run(capsys, "verify", cfg, "--suite", "mc", "--n", "20000")
    assert code == 0
    assert "WARN mc sample count n=20000 is low" in out
    assert "PASS mc mode=1 S={1,2} target=4.000000" in out
    assert " degenerate" in out
    assert "verify result=PASS checks=5" in out


@pytest.mark.parametrize("n", ["0", "-5", "2"])
def test_verify_rejects_fewer_samples_than_regressors(tmp_path, capsys, n):
    # K=2: the regressions need n >= K + 1 = 3 rows.
    cfg = write_config(tmp_path, EX1)
    code, out, err = run(capsys, "verify", cfg, "--suite", "mc", "--n", n)
    assert code == 2 and out == ""
    assert err == f"error: --n must be at least K + 1 = 3, got {n}\n"


@pytest.mark.parametrize("suite", ["mc", "chords", "dominance", "all"])
def test_verify_rejects_a_negative_seed(tmp_path, capsys, suite):
    cfg = write_config(tmp_path, EX1)
    code, out, err = run(capsys, "verify", cfg, "--suite", suite, "--seed", "-1")
    assert (code, out, err) == (2, "", "error: --seed must be non-negative, got -1\n")


def test_verify_mc_runs_at_the_smallest_sample_count(tmp_path, capsys):
    cfg = write_config(tmp_path, EX1)
    code, out, err = run(capsys, "verify", cfg, "--suite", "mc", "--n", "3")
    assert code in (0, 1) and err == ""
    assert MANIFEST.match(out.split("\n", 1)[0])
    assert out.count(" mc mode=") == 5
    assert re.search(r"^verify result=(PASS|FAIL) checks=5$", out, re.M)


def test_verify_grid_suite(tmp_path, capsys):
    cfg = write_config(tmp_path, EX1)
    code, out, _ = run(capsys, "verify", cfg, "--suite", "grid")
    assert code == 0
    assert "PASS grid value=1.660964 closed_form=1.660964" in out
    assert "PASS grid refinement-monotone" in out
    assert "verify result=PASS checks=2" in out


def test_verify_grid_suite_warns_above_three_users(tmp_path, capsys):
    cfg = write_config(tmp_path, {"P": [5.0] * 4, "P_r": 3.0, "N_r": 1.0, "N_delta": 2.0})
    code, out, err = run(capsys, "verify", cfg, "--suite", "grid")
    assert code == 0 and err == ""
    assert out.splitlines()[2:] == [
        "WARN grid suite skipped: dense search supports K<=3, got K=4",
        "verify result=PASS checks=0",
    ]


def test_verify_chords_suite_with_negative_control(tmp_path, capsys):
    cfg = write_config(tmp_path, EX1)
    code, out, _ = run(capsys, "verify", cfg, "--suite", "chords", "--with-negative-control")
    assert code == 1
    for name in ("dest-cut-full", "relay-cut-sumstat", "dest-df-full", "relay-df-full"):
        assert f"PASS chords {name} trials=1000" in out
    assert "FAIL chords negative-control" in out
    assert "verify result=FAIL checks=5" in out


VERIFY_ALL_N20000 = {
    "ex1": (EX1, """\
config K=2 P=6.000000,4.000000 P_r=4.000000 N_r=1.000000 N_delta=1.000000
WARN mc sample count n=20000 is low; z-scores will be noisy
PASS mc mode=1 S={1,2} target=4.000000 estimate=4.001967 z=+0.049139
PASS mc mode=1 S={1} target=1.627928 estimate=1.601712 z=-1.636664
PASS mc mode=2 S={1,2} target=0.510312 estimate=0.510294 z=-0.003478
PASS mc mode=2 S={1} target=0.169835 estimate=0.166755 z=-1.846633
PASS mc mode=1 S={2} target=0.000000 estimate=0.000000 z=+0.000000 degenerate
PASS chords dest-cut-full trials=1000
PASS chords relay-cut-sumstat trials=1000
PASS chords dest-df-full trials=1000
PASS chords relay-df-full trials=1000
PASS grid value=1.660964 closed_form=1.660964 diff=0.000000
PASS grid refinement-monotone coarse=1.660964 fine=1.660964
PASS dominance trials=500 max_gap=2.50e-15
verify result=PASS checks=12
"""),
    "k3": ({"P": [3.0, 1.5, 0.7], "P_r": 2.0, "N_r": 1.0, "N_delta": 1.5}, """\
config K=3 P=3.000000,1.500000,0.700000 P_r=2.000000 N_r=1.000000 N_delta=1.500000
WARN mc sample count n=20000 is low; z-scores will be noisy
PASS mc mode=1 S={1,2,3} target=2.000000 estimate=2.017231 z=+0.854210
PASS mc mode=1 S={1} target=0.792518 estimate=0.787203 z=-0.675091
PASS mc mode=2 S={1,2,3} target=0.702371 estimate=0.705450 z=+0.436357
PASS mc mode=2 S={1} target=0.009979 estimate=0.010036 z=+0.564180
PASS mc mode=1 S={2,3} target=0.000000 estimate=0.000000 z=+0.000000 degenerate
PASS chords dest-cut-full trials=1000
PASS chords relay-cut-sumstat trials=1000
PASS chords dest-df-full trials=1000
PASS chords relay-df-full trials=1000
PASS grid value=1.172167 closed_form=1.172167 diff=0.000000
PASS grid refinement-monotone coarse=1.172167 fine=1.172167
PASS dominance trials=500 max_gap=7.77e-16
verify result=PASS checks=12
"""),
}


@pytest.mark.parametrize("name", sorted(VERIFY_ALL_N20000))
def test_verify_all_stdout_frozen(tmp_path, capsys, name):
    # Full stdout below the manifest line (which hashes the config path),
    # as the chord suite printed it when it evaluated one point per call.
    data, expected = VERIFY_ALL_N20000[name]
    code, out, err = run(capsys, "verify", write_config(tmp_path, data), "--suite", "all", "--n", "20000")
    assert code == 0 and err == ""
    head, rest = out.split("\n", 1)
    assert MANIFEST.match(head)
    assert rest == expected


EX2_LINE = "config K=2 P=6.000000,0.400000 P_r=4.000000 N_r=1.000000 N_delta=1.000000\n"
K3_LINE = "config K=3 P=3.000000,1.500000,0.700000 P_r=2.000000 N_r=1.000000 N_delta=1.500000\n"
STDOUT_FROZEN = {
    "sumcap-ex1": (EX1, ["sumcap", "--resolution", "1e-5"], """\
config K=2 P=6.000000,4.000000 P_r=4.000000 N_r=1.000000 N_delta=1.000000
regime=Equalized root=0.408248 c=0.166667 R=1.660964 status=Exact
scan family=inner resolution=0.000010 verdict=ActiveClass
active alpha1=[0.833333,1.000000]
active alpha2=[0.750000,1.000000]
"""),
    "sumcap-ex2": (EX2, ["sumcap", "--resolution", "1e-5"], EX2_LINE + """\
regime=Equalized root=0.197282 c=0.038920 R=1.420632 status=Exact
scan family=inner resolution=0.000010 verdict=ActiveClass
active alpha1=[0.961080,0.979540]
active alpha2=[0.723098,1.000000]
"""),
    "sumcap-k1": (K1, ["sumcap"], """\
config K=1 P=5.000000 P_r=4.000000 N_r=1.000000 N_delta=3.000000
regime=Equalized root=0.550990 c=0.303590 R=1.082080 status=Exact
scan family=inner resolution=0.000000 verdict=ActiveClass
"""),
    "classify-k3-alpha": (K3, ["classify", "--alpha", "0.9,0.95,0.97"], K3_LINE + """\
params alpha=0.900000,0.950000,0.970000 beta=0.757576,0.189394,0.053030
subset {1}: f1=0.871094 f2=0.943763
subset {2}: f1=0.457801 f2=0.638992
subset {1,2}: f1=1.040632 f2=1.178776
subset {3}: f1=0.221898 f2=0.373801
subset {1,3}: f1=0.944854 f2=1.065301
subset {2,3}: f1=0.583851 f2=0.817064
subset {1,2,3}: f1=1.099554 f2=1.268524
max_sum=1.099554 kind=Active argmin={1,2,3}
"""),
    "classify-k3-gamma": (K3, ["classify", "--gamma", "0.1,0.2,0.3"], K3_LINE + """\
params gamma=0.100000,0.200000,0.300000
subset {1}: f1=0.843458 f2=0.882767
subset {2}: f1=0.716393 f2=0.500000
subset {1,2}: f1=1.100716 f2=0.960283
subset {3}: f1=0.618922 f2=0.242713
subset {1,3}: f1=1.045111 f2=0.890156
subset {2,3}: f1=0.951160 f2=0.526750
subset {1,2,3}: f1=1.247568 f2=0.960339
max_sum=0.960339 kind=Active argmin={}
"""),
    "classify-k3-gamma-solved": (K3, ["classify", "--gamma", "0.05,0.02"], K3_LINE + """\
params gamma=0.050000,0.020000,0.355172
subset {1}: f1=0.824932 f2=0.955354
subset {2}: f1=0.591925 f2=0.646263
subset {1,2}: f1=0.990926 f2=1.162807
subset {3}: f1=0.685953 f2=0.259351
subset {1,3}: f1=1.046493 f2=0.981577
subset {2,3}: f1=0.882785 f2=0.723101
subset {1,2,3}: f1=1.172167 f2=1.172167
max_sum=1.172167 kind=Active argmin={}
"""),
}


@pytest.mark.parametrize("name", sorted(STDOUT_FROZEN))
def test_sumcap_and_classify_stdout_frozen(tmp_path, capsys, name):
    # Full stdout below the manifest line (which hashes the config path).
    data, (command, *flags), expected = STDOUT_FROZEN[name]
    code, out, err = run(capsys, command, write_config(tmp_path, data), *flags)
    assert code == 0 and err == ""
    head, rest = out.split("\n", 1)
    assert MANIFEST.match(head)
    assert rest == expected


def test_version_and_missing_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"marc-cap {marc_cap.__version__}"
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_public_names_resolve():
    namespace = {}
    exec("from marc_cap import *", namespace)
    assert set(marc_cap.__all__) <= set(namespace)
    assert marc_cap.__all__ == [
        "ACTIVE", "INACTIVE", "CertifyResult", "ChannelConfig", "ChordReport", "CorrelationVector",
        "DfPowerSplit", "DominanceReport", "DomainError", "GridMaxMin", "IntersectionOutcome",
        "MaxMinSolution", "McReport", "RegionPolytope", "RuleSetScan", "SubsetFunction", "ValidationError",
        "awgn_capacity", "beta_star", "bottleneck_check", "bound_functions", "build_df_region",
        "build_intersection", "build_outer_region", "certify", "chord_check", "dominance_check",
        "grid_maxmin", "hausdorff_distance", "intersection_max_sum", "mc_relay_conditional_variance",
        "scan_active_rules", "solve_equalizer", "subset_label", "sum_capacity",
    ]
    # Thin wrappers that are gone: each has one entry point behind it.
    for name in ("maxmin_rule_inner", "gamma_rule_outer", "df_to_correlation", "symmetric", "validate"):
        assert not hasattr(marc_cap, name)


def test_sumcap_tiny_second_power_exits_zero(tmp_path, capsys):
    # lambda_2 = 1e-8 used to push the partner alpha_2 past 1 by rounding.
    cfg = write_config(tmp_path, {"P": [1e5, 1e-3], "P_r": 4.0, "N_r": 1.0, "N_delta": 1.0})
    code, out, err = run(capsys, "sumcap", cfg)
    assert code == 0 and err == ""
    assert "status=Exact" in out
    assert "active alpha2=[1.000000,1.000000]" in out


def test_classify_gamma_high_power_dust_is_zero(tmp_path, capsys):
    # gamma proportional to the powers with unit mass: the full-set relay
    # SNR is exactly 0 by Cauchy-Schwarz, up to rounding dust that grows
    # with power.
    cfg = write_config(tmp_path, {"P": [1e5, 3e5], "P_r": 4.0, "N_r": 1.0, "N_delta": 1.0})
    code, out, err = run(capsys, "classify", cfg, "--gamma", "0.25,0.75")
    assert code == 0 and err == ""
    assert "subset {1,2}: f1=8.809379 f2=0.000000" in out


K5_WITNESS = {
    "P": [0.2270536711210418, 0.043630259084022655, 0.022102891705732267, 0.012669700688172988, 0.01331918342024507],
    "P_r": 2.338600283146414, "N_r": 1.0, "N_delta": 8.343551536260373,
}
K2_WITNESS = {"P": [0.2140153465175589, 0.011944506523696795], "P_r": 0.18903472952110514, "N_r": 1.0,
              "N_delta": 0.8390037741230447}


@pytest.mark.parametrize("resolution", ["1e-3", "1e-5"])
def test_sumcap_is_exact_by_the_uniform_split(tmp_path, capsys, resolution):
    # Neither config has an Active rule that the sampler (K=5) or the sweep
    # (K=2) finds; the uniform power split is Active. For K=2 it is printed
    # as the one-point run of both coordinates.
    code, out, err = run(capsys, "sumcap", write_config(tmp_path, K5_WITNESS), "--resolution", resolution)
    assert code == 0 and err == ""
    assert out.splitlines()[2:] == [
        "regime=Equalized root=0.175504 c=0.030802 R=0.195764 status=Exact",
        "scan family=inner resolution=0.000000 verdict=ActiveClass",
    ]
    code, out, err = run(capsys, "sumcap", write_config(tmp_path, K2_WITNESS), "--resolution", resolution)
    assert code == 0 and err == ""
    assert out.splitlines()[2:] == [
        "regime=Equalized root=0.001357 c=0.000002 R=0.146956 status=Exact",
        f"scan family=inner resolution={float(resolution):.6f} verdict=ActiveClass",
        "active alpha1=[0.999998,0.999998]",
        "active alpha2=[0.999998,0.999998]",
    ]


OVERFLOW = {"P": [1e-300, 1e300], "P_r": 4.0, "N_r": 1.0, "N_delta": 3.0}


@pytest.mark.parametrize("data, argv, message", [
    # The equalizer's coefficient products overflow, so its root is inf.
    (OVERFLOW, ["sumcap"], "equalizing root inf is not finite"),
    (OVERFLOW, ["classify", "--alpha", "0.5"], "equalizing root inf is not finite"),
    # A Bottleneck config whose relay sum SNR, 2e308, overflows: this
    # printed R=inf status=Exact.
    ({"P": [1e308, 1e308], "P_r": 1.0, "N_r": 1.0, "N_delta": 1e-300}, ["sumcap"], "sum rate inf is not finite"),
])
def test_equalizer_overflow_exits_2(tmp_path, capsys, data, argv, message):
    command, *flags = argv
    code, out, err = run(capsys, command, write_config(tmp_path, data), *flags)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_many_users_exit_2_before_building_tables(tmp_path, capsys):
    # 2^64 subsets: numpy raised "Maximum allowed dimension exceeded" here.
    cfg = write_config(tmp_path, {"P": [1.0] * 64, "P_r": 2.0, "N_r": 1.0, "N_delta": 1.0})
    code, out, err = run(capsys, "sumcap", cfg)
    assert code == 2 and out == ""
    assert err == "error: K=64 needs 1 x 2^64 bound table cells, more than 67108864\n"


def test_verify_checks_every_suite_table_before_printing(tmp_path, capsys):
    # The chords suite's first batch, 3,000 rows of 2^64 subsets, raised after
    # the mc suite had printed its five PASS lines, and no result line came.
    cfg = write_config(tmp_path, {"P": [1.0] * 64, "P_r": 2.0, "N_r": 1.0, "N_delta": 1.0})
    for suite, rows in (("all", 3000), ("chords", 3000), ("dominance", 500)):
        code, out, err = run(capsys, "verify", cfg, "--suite", suite, "--n", "1000")
        assert (code, out) == (2, ""), suite
        assert err == f"error: K=64 needs {rows} x 2^64 bound table cells, more than 67108864\n"
    code, out, err = run(capsys, "verify", cfg, "--suite", "mc", "--n", "1000")
    assert code == 0 and out.splitlines()[-1] == "verify result=PASS checks=5"


def test_late_verify_failure_leaves_stdout_empty(tmp_path, capsys, monkeypatch):
    # The dominance suite runs last, after eleven check lines.
    def fail(*args, **kwargs):
        raise DomainError("late failure")

    monkeypatch.setattr(cli, "dominance_check", fail)
    code, out, err = run(capsys, "verify", write_config(tmp_path, EX1), "--suite", "all", "--n", "1000")
    assert (code, out, err) == (2, "", "error: late failure\n")


def test_late_examples_failure_leaves_stdout_empty(capsys, monkeypatch):
    solve = cli.sum_capacity

    def fail_on_example2(config, **kwargs):
        if config == cli.EXAMPLE_CONFIGS[2]:
            raise DomainError("late failure")
        return solve(config, **kwargs)

    monkeypatch.setattr(cli, "sum_capacity", fail_on_example2)
    code, out, err = run(capsys, "examples")
    assert (code, out, err) == (2, "", "error: late failure\n")


SUBNORMAL = {"P": [5e-324, 4.0], "P_r": 4.0, "N_r": 1.0, "N_delta": 1.0}
HIGH_SNR = {"P": [1316549.961301616, 72627520.47426227], "P_r": 112876.48408104481, "N_r": 1.0,
            "N_delta": 64225742.78875685}


# Equalized, but its relay sum SNR cancels to -1.9e-9 at the root.
CANCELLED_BELOW_ZERO = {"P": [0.0004311144470135939, 1.8736666114614312e-10], "P_r": 0.04749958689439228,
                        "N_r": 2.8469010330081816e-11, "N_delta": 181519811676.94296}


def test_subnormal_source_power_writes_regions_and_passes_chords(tmp_path, capsys):
    # The relay cutset table raised ValueError here: no CSV, and a traceback.
    cfg = write_config(tmp_path, SUBNORMAL)
    out_path = tmp_path / "region.csv"
    code, out, err = run(capsys, "region", cfg, "--out", str(out_path))
    assert code == 0 and err == ""
    assert out.splitlines()[2:] == [
        f"wrote {tmp_path / 'region.inner.csv'} bound=inner vertices=2",
        f"wrote {tmp_path / 'region.outer.csv'} bound=outer vertices=2",
    ]
    code, out, err = run(capsys, "verify", cfg, "--suite", "chords")
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "verify result=PASS checks=4"


def test_high_snr_config_solves_without_an_equalizer_alarm(tmp_path, capsys):
    # These raised RuntimeError: equalizer gap -1.297e-08.
    cfg = write_config(tmp_path, HIGH_SNR)
    code, out, err = run(capsys, "sumcap", cfg)
    assert code == 0 and err == ""
    assert out.splitlines()[2] == "regime=Equalized root=1.009023 c=1.018127 R=0.582727 status=Exact"
    code, out, err = run(capsys, "verify", cfg, "--suite", "grid")
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "verify result=PASS checks=2"
    # alpha_1 = 0.5 leaves alpha_2 the load 1.009 > lambda_2 = 1: a domain error.
    code, out, err = run(capsys, "classify", cfg, "--alpha", "0.5")
    assert code == 2 and out == ""
    assert err.startswith("error: solved alpha_2=-0.00906")


def test_relay_sum_snr_cancelled_below_zero_solves(tmp_path, capsys):
    # This raised ValueError: negative SNR argument, with a traceback.
    cfg = write_config(tmp_path, CANCELLED_BELOW_ZERO)
    code, out, err = run(capsys, "sumcap", cfg)
    assert code == 0 and err == ""
    assert out.splitlines()[2] == "regime=Equalized root=1.000000 c=1.000000 R=0.000000 status=Exact"
