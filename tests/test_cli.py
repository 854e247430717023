import hashlib
import json
import pathlib
import shlex
import sys

import numpy as np
import pytest

import opucz.mc as mc
from opucz.cli import main, parse_region
from opucz.errors import UsageError
from opucz.zerocount import count_in_region, roots


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_variance_limit_closed_print(capsys):
    code, out, _ = run(capsys, "variance-limit", "--s", "0", "--t", "0.5",
                       "--method", "closed")
    assert code == 0
    assert out.strip() == "0.266666666667"


def test_variance_limit_methods_agree(capsys):
    vals = []
    for method in ("closed", "series", "quadrature"):
        code, out, _ = run(capsys, "variance-limit", "--s", "1.5", "--t",
                           "2.0", "--method", method)
        assert code == 0
        vals.append(float(out))
    assert max(vals) - min(vals) < 1e-6
    assert vals[0] == pytest.approx(0.4038461538, abs=1e-9)


def test_kernel_free_case(capsys):
    code, out, _ = run(capsys, "kernel", "--alphas", "zero", "--n", "1",
                       "--z", "0.5", "--w", "0.5")
    assert code == 0
    lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
    assert complex(lines["K"]) == pytest.approx(1.25)
    assert complex(lines["K01"]) == pytest.approx(0.5)
    assert complex(lines["K11"]) == pytest.approx(1.0)


def test_kernel_routes_match(capsys):
    outs = []
    for route in ("direct", "cd"):
        code, out, _ = run(capsys, "kernel", "--alphas", "constant:0.4",
                           "--n", "9", "--z", "0.3+0.2j", "--w", "-0.1",
                           "--route", route)
        assert code == 0
        outs.append(out)
    a = [complex(line.split()[1]) for line in outs[0].splitlines()]
    b = [complex(line.split()[1]) for line in outs[1].splitlines()]
    assert a == pytest.approx(b, rel=1e-9)


def test_intensity_at_origin(capsys):
    code, out, _ = run(capsys, "intensity", "--alphas", "zero", "--n", "5",
                       "--z", "0")
    assert code == 0
    assert float(out) == pytest.approx(1 / np.pi, abs=1e-12)


def test_intensity_limit_pair(capsys):
    code, out, _ = run(capsys, "intensity", "--limit", "--z", "0",
                       "--w", "0.5")
    assert code == 0
    assert float(out) == pytest.approx(0.0788053650551516, abs=1e-12)


def test_degree_n_commands_accept_a_file_of_n_coefficients(tmp_path, capsys):
    # phi_0..phi_n need alpha_0..alpha_{n-1}; only the closed-form kernel
    # route reads phi_{n+1}, and so alpha_n
    path = tmp_path / "ten.txt"
    path.write_text("".join(f"{0.1 * (-1) ** j} 0\n" for j in range(10)))
    common = ("--alphas", f"file:{path}", "--n", "10", "--z", "0.3")
    for argv in (("basis", "--alphas", f"file:{path}", "--n", "10"),
                 ("intensity", *common),
                 ("intensity", *common, "--w", "0.2j"),
                 ("kernel", *common, "--w", "0.2j", "--route", "direct")):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out
    code, out, err = run(capsys, "kernel", *common, "--w", "0.2j",
                         "--route", "cd")
    assert (code, out) == (2, "")
    assert "holds 10 coefficients, need 11" in err


def test_basis_report_decreasing_epsilon(capsys):
    code, out, _ = run(capsys, "basis", "--alphas", "decay:1:1", "--n", "12",
                       "--report")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,epsilon_k,nevai_proxy"
    eps = {int(row.split(",")[0]): float(row.split(",")[1])
           for row in lines[1:]}
    assert eps[12] < eps[2]


def test_basis_report_for_off_pi_jacobi_weight(capsys):
    # a jacobi weight whose angle is not pi jumps at the seam 0 = 2 pi;
    # its moments converge, and the command builds and reports the basis
    code, out, err = run(capsys, "basis", "--alphas", "weight:jacobi:1:1",
                         "--n", "12", "--report")
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0] == "k,epsilon_k,nevai_proxy"
    assert len(lines) == 13


def test_simulate_artifacts_and_rerun(tmp_path, capsys):
    args = ["simulate", "--alphas", "zero", "--n", "12", "--model",
            "gaussian", "--region", "annulus:0:0.5", "--trials", "40",
            "--seed", "42"]
    code, _, _ = run(capsys, *args, "--out", str(tmp_path / "a"))
    assert code == 0
    code, _, _ = run(capsys, *args, "--out", str(tmp_path / "b"))
    assert code == 0

    a = (tmp_path / "a.counts.csv").read_bytes()
    b = (tmp_path / "b.counts.csv").read_bytes()
    assert a == b
    text = a.decode()
    assert text.startswith("trial,count\n")
    assert "\r" not in text
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert len(text.strip().splitlines()) == 41  # header + one row per trial

    summary = json.loads((tmp_path / "a.summary.json").read_text())
    assert list(summary) == ["command", "config", "n", "trials", "seed",
                             "region", "mean", "variance", "se_mean",
                             "se_var", "excluded", "excluded_trials",
                             "exclusion_reasons", "audited", "audit_flagged",
                             "worst_residual", "timing"]
    assert summary["command"] == "simulate"
    assert summary["n"] == 12 and summary["trials"] == 40
    assert summary["seed"] == 42 and summary["excluded"] == 0
    assert summary["region"] == "annulus:0:0.5"
    assert summary["config"]["alphas"] == "zero"
    assert summary["excluded_trials"] == []
    assert summary["exclusion_reasons"] == []
    assert summary["audited"] + summary["audit_flagged"] == 1  # trial 0
    assert 0 < summary["worst_residual"] <= 1e-8  # no Newton-ground roots
    timing = summary["timing"]
    assert list(timing) == ["elapsed_seconds", "processes", "start_method",
                            "blocks_claimed", "peak_rss_mb"]
    assert 1 <= timing["processes"] <= summary["config"]["threads"]
    assert len(timing["blocks_claimed"]) == timing["processes"]
    assert len(timing["peak_rss_mb"]) == timing["processes"]
    assert all(mb > 1 for mb in timing["peak_rss_mb"])  # numpy alone is more
    assert sum(timing["blocks_claimed"]) == len(mc._blocks(40))
    assert timing["start_method"] == (
        None if timing["processes"] == 1 else
        "fork" if sys.platform.startswith("linux") else "spawn")


def test_simulate_thread_count_invariance(tmp_path, capsys, monkeypatch):
    # --threads alone sets the worker count: the environment is not read
    monkeypatch.setenv("OPUCZ_THREADS", "5")
    args = ["simulate", "--alphas", "zero", "--n", "10", "--region",
            "annulus:0:0.6", "--trials", "30", "--seed", "7"]
    code, _, _ = run(capsys, *args, "--out", str(tmp_path / "t1"),
                     "--threads", "1")
    assert code == 0
    s1 = json.loads((tmp_path / "t1.summary.json").read_text())
    assert s1["config"]["threads"] == 1 and s1["timing"]["processes"] == 1
    code, _, _ = run(capsys, *args, "--out", str(tmp_path / "t2"),
                     "--threads", "2")
    assert code == 0
    code, _, _ = run(capsys, *args, "--out", str(tmp_path / "t3"),
                     "--threads", "3")
    assert code == 0
    c1 = (tmp_path / "t1.counts.csv").read_bytes()
    assert c1 == (tmp_path / "t2.counts.csv").read_bytes()
    assert c1 == (tmp_path / "t3.counts.csv").read_bytes()
    s3 = json.loads((tmp_path / "t3.summary.json").read_text())
    assert s3["config"]["threads"] == 3
    assert s3["timing"]["processes"] == min(3, mc._cpus())
    assert sum(s3["timing"]["blocks_claimed"]) == 1  # 30 trials, one block
    s1 = json.loads((tmp_path / "t1.summary.json").read_text())
    assert s1["timing"]["processes"] == 1
    assert s1["timing"]["start_method"] is None
    assert s1["timing"]["blocks_claimed"] == [1]


def test_simulate_mass_point_family(tmp_path, capsys):
    # constant:0.5 puts a root within ulps of z = 1 in every sample; each
    # must be certified, or the ensemble would exceed its exclusion budget
    code, _, err = run(capsys, "simulate", "--alphas", "constant:0.5", "--n",
                       "100", "--region", "annulus:0:0.5", "--trials", "20",
                       "--seed", "7", "--out", str(tmp_path / "m"))
    assert code == 0, err
    summary = json.loads((tmp_path / "m.summary.json").read_text())
    assert summary["excluded"] == 0


def test_simulate_config_round_trip(tmp_path, capsys):
    code, _, _ = run(capsys, "simulate", "--alphas", "constant:0.3", "--n",
                     "10", "--region", "annulus:0:0.7", "--trials", "30",
                     "--seed", "9", "--out", str(tmp_path / "orig"))
    assert code == 0
    code, _, _ = run(capsys, "simulate", "--config",
                     str(tmp_path / "orig.summary.json"), "--out",
                     str(tmp_path / "redo"))
    assert code == 0
    assert (tmp_path / "orig.counts.csv").read_bytes() == \
        (tmp_path / "redo.counts.csv").read_bytes()

    # explicit flags still beat the config file
    code, _, _ = run(capsys, "simulate", "--config",
                     str(tmp_path / "orig.summary.json"), "--seed", "10",
                     "--out", str(tmp_path / "reseed"))
    assert code == 0
    assert (tmp_path / "orig.counts.csv").read_bytes() != \
        (tmp_path / "reseed.counts.csv").read_bytes()


def test_convergence_artifacts(tmp_path, capsys):
    code, out, _ = run(capsys, "convergence", "--alphas", "zero", "--region",
                       "sector:0.5:0:pi/2", "--ns", "10,20", "--trials",
                       "40", "--seed", "5", "--out", str(tmp_path / "c"))
    assert code == 0
    csv = (tmp_path / "c.csv").read_text()
    header = "n,mean_abs_dev,var_over_n2,envelope_sqrtlogn,envelope_eps14"
    assert csv.splitlines()[0] == header
    assert out.splitlines()[0] == header
    rows = [line.split(",") for line in csv.strip().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == [10, 20]
    for r in rows:
        for cell in r[1:]:
            assert np.isfinite(float(cell))

    svg = (tmp_path / "c.svg").read_text()
    assert svg.startswith("<svg")
    assert 'width="800"' in svg and 'height="600"' in svg
    assert svg.count("<polyline") == 3
    assert "degree n" in svg and "count deviation" in svg

    code, _, _ = run(capsys, "convergence", "--config",
                     str(tmp_path / "c.summary.json"), "--out",
                     str(tmp_path / "c2"))
    assert code == 0
    assert (tmp_path / "c.csv").read_bytes() == \
        (tmp_path / "c2.csv").read_bytes()
    summary = json.loads((tmp_path / "c.summary.json").read_text())
    assert list(summary)[-2:] == ["rows", "timing"]
    timing = summary["timing"]
    assert list(timing) == ["elapsed_seconds", "processes", "start_method",
                            "blocks_claimed", "peak_rss_mb"]
    assert len(timing["blocks_claimed"]) == timing["processes"]
    assert len(timing["peak_rss_mb"]) == timing["processes"]
    # one queue for the study: two degrees of two blocks of 20 trials
    assert sum(timing["blocks_claimed"]) == 2 * len(mc._blocks(40))


def test_pooled_convergence_prints_its_csv(tmp_path, capsys, monkeypatch):
    # with a helper forked from this process, stdout is still the CSV,
    # byte for byte, and the same CSV as one worker writes
    monkeypatch.setattr(mc, "_cpus", lambda: 2)
    argv = ["convergence", "--alphas", "zero", "--region",
            "sector:0.5:0:pi/2", "--ns", "10,20", "--trials", "70", "--seed",
            "5"]
    code, out, err = run(capsys, *argv, "--threads", "2", "--out",
                         str(tmp_path / "two"))
    assert code == 0, err
    assert out == (tmp_path / "two.csv").read_text()
    timing = json.loads((tmp_path / "two.summary.json").read_text())["timing"]
    assert timing["processes"] == 2
    assert sum(timing["blocks_claimed"]) == 2 * len(mc._blocks(70))
    # the helper's own peak, read in the helper: a number for each process
    assert len(timing["peak_rss_mb"]) == 2
    assert all(mb > 1 for mb in timing["peak_rss_mb"])
    code, _, err = run(capsys, *argv, "--threads", "1", "--out",
                       str(tmp_path / "one"))
    assert code == 0, err
    for suffix in (".csv", ".svg"):
        assert (tmp_path / f"one{suffix}").read_bytes() == \
            (tmp_path / f"two{suffix}").read_bytes()


def test_usage_errors_exit_2(tmp_path, capsys):
    cases = [  # (argv, a piece of the message)
        (("variance-limit", "--s", "0.5"), "--t"),  # missing --t
        (("variance-limit", "--s", "0.5", "--t", "1.5"), "touches"),
        (("simulate", "--alphas", "zero", "--n", "5", "--region",
          "annulus:0.5:0.2", "--trials", "4", "--out", str(tmp_path / "x")),
         "annulus"),
        (("simulate", "--alphas", "zero", "--n", "5", "--region",
          "blob:1:2", "--trials", "4", "--out", str(tmp_path / "x")),
         "--region"),
        (("simulate", "--alphas", "zero", "--n", "5", "--region",
          "annulus:0:0.5", "--trials", "4", "--model", "cauchy", "--out",
          str(tmp_path / "x")), "cauchy"),
        (("convergence", "--alphas", "zero", "--region", "sector:0.5:0:1",
          "--ns", "10,abc", "--trials", "4", "--out", str(tmp_path / "x")),
         "--ns"),
        (("intensity", "--alphas", "zero", "--n", "4", "--z", "spam"), "--z"),
        (("basis", "--alphas", "nonsense:3", "--n", "4"), "nonsense"),
        # weight:jacobi takes angle-exponent pairs, so an odd token count
        (("basis", "--alphas", "weight:jacobi:1:0.5:1.01", "--n", "4"),
         "weight:jacobi:1:0.5:1.01"),
        # non-finite numbers are refused before any work starts
        (("variance-limit", "--s", "0.1", "--t", "0.5", "--method", "series",
          "--tol", "nan"), "--tol"),
        (("variance-limit", "--s", "0.1", "--t", "0.5", "--method",
          "quadrature", "--target", "nan"), "--target"),
        (("variance-limit", "--s", "2", "--t", "inf"), "--t"),
        (("intensity", "--alphas", "zero", "--n", "5", "--z", "nan"), "--z"),
        (("kernel", "--alphas", "zero", "--n", "5", "--z", "0.1",
          "--w", "inf+1j"), "--w"),
    ]
    for argv, piece in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "usage error" in err and piece in err, (argv, err)


def test_non_finite_family_parameters_exit_2(tmp_path, capsys):
    # NaN and infinity are refused as family parameters and in coefficient
    # files, before any basis is built or any trial is run
    path = tmp_path / "nan.txt"
    path.write_text("nan 0\n0.1 0\n0.2 0\n0.3 0\n")
    for alphas in ("constant:nan", "constant:inf", "decay:nan:1",
                   "decay:1:nan", "weight:jacobi:nan:1", "weight:jacobi:pi:nan",
                   f"file:{path}"):
        code, out, err = run(capsys, "basis", "--alphas", alphas, "--n", "3")
        assert (code, out) == (2, ""), alphas
        assert "usage error" in err, (alphas, err)
    code, _, err = run(capsys, "simulate", "--alphas", f"file:{path}", "--n",
                       "4", "--region", "annulus:0:0.5", "--trials", "4",
                       "--threads", "1", "--out", str(tmp_path / "s"))
    assert code == 2 and "usage error" in err
    assert not (tmp_path / "s.summary.json").exists()


def test_unreadable_coefficient_file_exits_2(tmp_path, capsys):
    # a missing file is a usage error that names the path, not a traceback
    missing = tmp_path / "absent.txt"
    for argv in (("basis", "--alphas", f"file:{missing}", "--n", "3"),
                 ("simulate", "--alphas", f"file:{missing}", "--n", "3",
                  "--region", "annulus:0:0.5", "--trials", "4",
                  "--threads", "1", "--out", str(tmp_path / "s"))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "usage error" in err and str(missing) in err, err
    assert not (tmp_path / "s.summary.json").exists()


@pytest.mark.parametrize("command,sizes", [
    ("simulate", ("--n", "10")), ("convergence", ("--ns", "10,20"))])
def test_out_in_missing_or_unusable_directory_exits_2(tmp_path, capsys,
                                                      monkeypatch, command,
                                                      sizes):
    # refused as a usage error naming the path, before any trial runs
    import opucz.mc as mc
    solved = []
    monkeypatch.setattr(mc, "_block_counts", solved.append)
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    region = "annulus:0:0.5" if command == "simulate" else "sector:0.5:0:pi/2"
    for out in (tmp_path / "absent" / "run", blocker / "run"):
        code, stdout, err = run(capsys, command, "--alphas", "zero", *sizes,
                                "--region", region, "--trials", "4",
                                "--threads", "1", "--out", str(out))
        assert (code, stdout) == (2, ""), err
        assert "usage error: --out" in err and str(out) in err, err
    assert solved == []


def test_jacobi_exponent_below_one_exits_0(capsys):
    code, out, err = run(capsys, "basis", "--alphas", "weight:jacobi:pi:0.5",
                         "--n", "12")
    assert code == 0, err
    assert out.startswith("order 12\n")


def test_unknown_flag_and_subcommand_exit_2(capsys):
    assert main(["variance-limit", "--nope", "1"]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_computation_error_exit_1(capsys):
    code, _, err = run(capsys, "kernel", "--alphas", "zero", "--n", "3",
                       "--z", "0.5", "--w", "2", "--route", "cd")
    assert code == 1
    assert "NearDiagonalSingularity" in err


def test_audit_mismatch_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(mc, "count_by_argument_principle",
                        lambda basis, eta, region, near=None:
                        count_in_region(roots(basis, eta), region) + 1)
    code, _, err = run(capsys, "simulate", "--alphas", "zero", "--n", "8",
                       "--region", "annulus:0:0.5", "--trials", "120",
                       "--threads", "1", "--out", str(tmp_path / "x"))
    assert code == 1
    assert "AuditMismatch" in err and "trials 0, 100" in err
    assert not (tmp_path / "x.summary.json").exists()


def test_bad_threads_flag(capsys, tmp_path):
    # a count that is not an integer, or is below 1, names the flag
    for threads in ("many", "0", "-1"):
        code, _, err = run(capsys, "simulate", "--alphas", "zero", "--n", "5",
                           "--region", "annulus:0:0.5", "--trials", "4",
                           "--threads", threads, "--out", str(tmp_path / "x"))
        assert code == 2
        assert "--threads" in err
    assert not (tmp_path / "x.summary.json").exists()


def test_seed_outside_64_bits_exits_2(tmp_path, capsys):
    # seeds 5 and 2^64 + 5 would run one ensemble under two names
    args = ["--alphas", "zero", "--trials", "2", "--threads", "1",
            "--out", str(tmp_path / "x")]
    simulate = ["simulate", *args, "--n", "5", "--region", "annulus:0:0.5"]
    convergence = ["convergence", *args, "--ns", "5",
                   "--region", "sector:0.5:0:1"]
    for seed in ("-5", str(2 ** 64 + 5)):
        for command in (simulate, convergence):
            code, _, err = run(capsys, *command, "--seed", seed)
            assert code == 2 and "--seed" in err
    for seed in ("0", str(2 ** 64 - 1)):
        code, _, _ = run(capsys, *simulate, "--seed", seed)
        assert code == 0
        summary = json.loads((tmp_path / "x.summary.json").read_text())
        assert summary["seed"] == int(seed)


def test_bad_config_values_exit_2(tmp_path, capsys):
    base = {"alphas": "zero", "n": 5, "region": "annulus:0:0.5", "trials": 4,
            "seed": 1, "threads": 1, "out": str(tmp_path / "x")}
    conv = {"alphas": "zero", "region": "sector:0.5:0:1", "ns": [5, 10],
            "trials": 4, "seed": 1, "threads": 1, "out": str(tmp_path / "y")}
    cases = [
        ("simulate", {**base, "threads": "many"}, "--threads"),
        ("simulate", {**base, "threads": 0.5}, "--threads"),
        ("simulate", {**base, "trials": "four"}, "--trials"),
        ("simulate", {**base, "trials": 4.5}, "--trials"),
        ("simulate", {**base, "n": [5]}, "--n"),
        ("simulate", {**base, "seed": "x1"}, "--seed"),
        ("simulate", {**base, "seed": True}, "--seed"),
        ("convergence", {**conv, "ns": [5, "ten"]}, "--ns"),
        ("convergence", {**conv, "ns": [5, 10.5]}, "--ns"),
        ("convergence", {**conv, "ns": {"a": 5}}, "--ns"),
        ("basis", {"alphas": "zero", "n": "five"}, "--n"),
        ("kernel", {"alphas": "zero", "n": 2.5, "z": 0.1, "w": 0.2}, "--n"),
        ("intensity", {"alphas": "zero", "n": "4x", "z": 0.1}, "--n"),
        ("variance-limit", {"s": "low", "t": 0.5}, "--s"),
        ("variance-limit", {"s": 0.1, "t": 0.5, "method": "series",
                            "tol": [1]}, "--tol"),
        # checked even where --method does not use it
        ("variance-limit", {"s": 0.1, "t": 0.5, "method": "closed",
                            "tol": [1]}, "--tol"),
        ("variance-limit", {"s": 0.1, "t": 0.5, "method": "series",
                            "tol": "nan"}, "--tol"),
        ("variance-limit", {"s": True, "t": 0.5}, "--s"),
        ("variance-limit", {"s": 0.1, "t": float("inf")}, "--t"),
        ("intensity", {"alphas": "zero", "n": 5, "z": "nan"}, "--z"),
        ("intensity", {"alphas": "zero", "n": 5, "z": True}, "--z"),
        # a config switch is a JSON boolean, never read by truthiness
        ("basis", {"alphas": "zero", "n": 4, "report": "false"}, "--report"),
        ("intensity", {"z": 0.2, "limit": "no"}, "--limit"),
    ]
    for k, (command, cfg, flag) in enumerate(cases):
        path = tmp_path / f"bad{k}.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run(capsys, command, "--config", str(path))
        assert code == 2, (command, cfg)
        assert "usage error" in err and flag in err, (command, cfg, err)


def test_config_null_takes_default(tmp_path, capsys):
    cfg = {"alphas": "zero", "n": 5, "region": "annulus:0:0.5", "trials": 8,
           "threads": 1}
    runs = {"absent": cfg, "null": {**cfg, "model": None, "seed": None}}
    for name, conf in runs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(conf))
        code, _, err = run(capsys, "simulate", "--config", str(path), "--out",
                           str(tmp_path / name))
        assert code == 0, err
    assert (tmp_path / "absent.counts.csv").read_bytes() == \
        (tmp_path / "null.counts.csv").read_bytes()
    summary = json.loads((tmp_path / "null.summary.json").read_text())
    assert summary["config"]["model"] == "gaussian"
    assert summary["config"]["seed"] == 0


def test_integral_config_numbers_accepted(tmp_path, capsys):
    cfg = {"alphas": "zero", "n": 5.0, "region": "annulus:0:0.5",
           "trials": "4", "seed": 1, "threads": 1.0}
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(cfg))
    code, _, _ = run(capsys, "simulate", "--config", str(path), "--out",
                     str(tmp_path / "a"))
    assert code == 0
    code, _, _ = run(capsys, "simulate", "--alphas", "zero", "--n", "5",
                     "--region", "annulus:0:0.5", "--trials", "4", "--seed",
                     "1", "--threads", "1", "--out", str(tmp_path / "b"))
    assert code == 0
    assert (tmp_path / "a.counts.csv").read_bytes() == \
        (tmp_path / "b.counts.csv").read_bytes()
    summary = json.loads((tmp_path / "a.summary.json").read_text())
    assert summary["config"]["n"] == 5 and summary["config"]["threads"] == 1


def test_region_grammar_total():
    assert parse_region("annulus:0:0.5").params == (0.0, 0.5)
    sec = parse_region("sector:0.5:0:pi/2")
    assert sec.params[2] == pytest.approx(np.pi / 2)
    for bad in ("annulus:1", "annulus:0:0.5:9", "sector:0.5:0",
                "sector:0.5:0:junk", "blob:1:2", "annulus:x:0.5"):
        with pytest.raises(UsageError):
            parse_region(bad)


# the exact output of the README's commands (simulate and convergence
# with fewer trials and degrees); any change to these bytes is deliberate
README_PRINTED = {
    ("variance-limit", "--s", "0.3", "--t", "0.6", "--method", "closed"):
        "0.373505518735\n",
    ("basis", "--alphas", "decay:1:1", "--n", "12", "--report"):
        "k,epsilon_k,nevai_proxy\n"
        "1,0.143841036226,0.8\n"
        "2,0.101366277027,0.56437347549\n"
        "3,0.0783339382076,0.454222700231\n"
        "4,0.0638532029707,0.389893210352\n"
        "5,0.0538996500733,0.347826086957\n"
        "6,0.0466346489946,0.309090909091\n"
        "7,0.0410974389217,0.274247491639\n"
        "8,0.0367366665564,0.244509516837\n"
        "9,0.0332131667086,0.219570405728\n"
        "10,0.0303067901785,0.198711063373\n"
        "11,0.0278683851312,0.181188690133\n"
        "12,0.0257933003503,0.166358106321\n",
    ("kernel", "--alphas", "zero", "--n", "100", "--z", "0.3", "--w",
     "0.2+0.1j", "--route", "cd"):
        "K 1.06274731487-0.0339174674958j\n"
        "K01 0.338484438197-0.0216274185049j\n"
        "K11 1.2649844097-0.157675377477j\n",
    ("intensity", "--alphas", "decay:1:1", "--n", "160", "--z", "0.5"):
        "0.56568278812\n",
    ("intensity", "--limit", "--z", "0.2", "--w", "-0.3"):
        "0.052506504717\n",
}

README_SIMULATE = ("simulate", "--alphas", "zero", "--n", "100",
                   "--model", "gaussian", "--region", "annulus:0:0.5",
                   "--trials", "200", "--seed", "42")
README_CONVERGENCE = ("convergence", "--alphas", "zero", "--region",
                      "sector:0.5:0:pi/2", "--ns", "10,20", "--trials", "40",
                      "--seed", "42")


def test_readme_commands_golden(tmp_path, capsys):
    for argv, expected in README_PRINTED.items():
        code, out, err = run(capsys, *argv)
        assert (code, out) == (0, expected), (argv, err)

    sim, conv = tmp_path / "run1", tmp_path / "conv1"
    code, _, err = run(capsys, *README_SIMULATE, "--out", str(sim))
    assert code == 0, err
    code, _, err = run(capsys, *README_CONVERGENCE, "--out", str(conv))
    assert code == 0, err
    digests = {suffix: hashlib.sha256(
        (tmp_path / f"{stem}{suffix}").read_bytes()).hexdigest()
        for stem, suffix in (("run1", ".counts.csv"), ("conv1", ".csv"),
                             ("conv1", ".svg"))}
    assert digests == {
        ".counts.csv":
            "a55b16999ea1f2b0f8024c32a81c6ead1429d0393070cb7f76cfa3ce53f7d8f7",
        ".csv":
            "ce3c6dff8f170651b4e87e47c64761d89a6c84be5cf4d5ae7486d99958bfd260",
        ".svg":
            "b80a5346ef1bb942d3e3b73c88478fbe7ad981073be5ac85bdcbe64fedad90ba",
    }


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(heading):
    """The info string and body of the first fenced block under heading."""
    text = README.read_text(encoding="utf-8")
    fenced = text[text.index(f"\n{heading}\n"):].split("```")[1]
    lang, body = fenced.split("\n", 1)
    return lang, body


def _without(argv, *flags):
    """argv less each of flags and the value after it."""
    drop = {i + k for i, a in enumerate(argv) if a in flags for k in (0, 1)}
    return tuple(a for i, a in enumerate(argv) if i not in drop)


def test_readme_command_line_is_the_golden_commands():
    # the README's command block is what test_readme_commands_golden
    # freezes: its printing commands as they are, its two runs with other
    # --trials, --ns and --out
    _, body = _readme_block("## Command line")
    lines = [shlex.split(line) for line in
             body.replace("\\\n", " ").splitlines() if line.strip()]
    assert all(line[0] == "opucz" for line in lines)
    argvs = [tuple(line[1:]) for line in lines]
    assert argvs[:5] == list(README_PRINTED)
    runs = {argv[0]: argv for argv in argvs[5:]}
    assert len(argvs) == 7 and set(runs) == {"simulate", "convergence"}
    assert _without(runs["simulate"], "--trials", "--out") == \
        _without(README_SIMULATE, "--trials")
    assert _without(runs["convergence"], "--trials", "--ns", "--out") == \
        _without(README_CONVERGENCE, "--trials", "--ns")


def test_readme_library_tour_runs(capsys):
    # the tour as written, so it names no function or argument that is gone
    lang, body = _readme_block("## Library tour")
    assert lang == "python"
    exec(compile(body, str(README), "exec"), {})
    assert " vs " in capsys.readouterr().out
