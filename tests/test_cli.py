import json
import subprocess
import sys

import numpy as np

from leafwise.cli import main

FIG1_SMALL = {"p": [2, 3, 4], "rho_max": 1.5, "samples": 60}


def run_cli(args, config=None, cwd=None):
    argv = [sys.executable, "-m", "leafwise.cli", *args]
    inp = None if config is None else json.dumps(config)
    if config is not None:
        argv += ["--config", "-"]
    return subprocess.run(argv, input=inp, capture_output=True, text=True, cwd=cwd)


def test_profile_outputs(tmp_path):
    res = run_cli(["profile", "--out-dir", str(tmp_path)], FIG1_SMALL)
    assert res.returncode == 0, res.stderr
    for p in (2, 3, 4):
        csv = tmp_path / f"profile_p{p}.csv"
        assert csv.exists()
        lines = csv.read_text().splitlines()
        assert lines[0] == "rho,f,fprime,k1,kn"
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        rho, _, _, k1, kn = data.T
        assert np.max(np.abs(kn - (p - 1) * k1)) < 1e-8
    assert (tmp_path / "profiles.svg").exists()
    report = json.loads((tmp_path / "profile_report.json").read_text())
    assert report["command"] == "profile"
    assert all(r["pass"] for r in report["results"])


def test_profile_deterministic_output(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["profile", "--out-dir", str(a)], FIG1_SMALL).returncode == 0
    assert run_cli(["profile", "--out-dir", str(b)], FIG1_SMALL).returncode == 0
    assert (a / "profile_p2.csv").read_bytes() == (b / "profile_p2.csv").read_bytes()


def test_profile_roundtrip_from_emitted_csv(tmp_path):
    assert run_cli(["profile", "--out-dir", str(tmp_path)], FIG1_SMALL).returncode == 0
    lines = (tmp_path / "profile_p3.csv").read_text().splitlines()
    rho0, f0, f0prime, _, _ = (float(v) for v in lines[1].split(","))
    rerun_cfg = {"p": [3], "rho0": rho0, "f0": f0, "f0prime": f0prime,
                 "rho_max": 1.5, "samples": 60}
    out2 = tmp_path / "rerun"
    assert run_cli(["profile", "--out-dir", str(out2)], rerun_cfg).returncode == 0
    orig = np.array([[float(v) for v in ln.split(",")]
                     for ln in lines[1:]])
    rows2 = (out2 / "profile_p3.csv").read_text().splitlines()[1:]
    rerun = np.array([[float(v) for v in ln.split(",")] for ln in rows2])
    # compare f at the shared rho range via interpolation
    f_interp = np.interp(orig[:, 0], rerun[:, 0], rerun[:, 1])
    assert np.max(np.abs(f_interp - orig[:, 1])) < 1e-9


def test_profile_rejects_degenerate_exponent(tmp_path):
    res = run_cli(["profile", "--out-dir", str(tmp_path)],
                  {"n": 2, "p": [1], "rho_max": 1.0})
    assert res.returncode == 2
    assert "degenerate" in res.stderr


def test_eval_sphere_prints_four_pi(tmp_path):
    cfg = {"surface": {"id": "sphere", "params": {"n": 2, "m_polar": 32,
                                                  "m_azimuth": 48}},
           "functional": {"kind": "W_nps", "p": 2}, "tolerance": 1e-8}
    res = run_cli(["eval", "--out-dir", str(tmp_path)], cfg)
    assert res.returncode == 0, res.stderr
    assert "12.5663706144" in res.stdout
    assert "quadrature error estimate" in res.stdout


def test_elcheck_critical_profile(tmp_path):
    res = run_cli(["elcheck", "--out-dir", str(tmp_path)], {})
    assert res.returncode == 0, res.stderr
    report = json.loads((tmp_path / "elcheck_report.json").read_text())
    assert report["results"][0]["value"] < 1e-10


def test_confcheck_scaling(tmp_path):
    cfg = {"surface": {"id": "sheared-torus-3",
                       "params": {"m1": 6, "m2": 6, "m3": 6}},
           "mode": "scaling", "r": 2, "tolerance": 1e-12}
    res = run_cli(["confcheck", "--out-dir", str(tmp_path)], cfg)
    assert res.returncode == 0, res.stderr


def test_usage_errors(tmp_path):
    bad = run_cli(["eval", "--out-dir", str(tmp_path)])
    # default eval config is fine; malformed JSON is not
    proc = subprocess.run(
        [sys.executable, "-m", "leafwise.cli", "eval", "--config", "-"],
        input="{not json", capture_output=True, text=True)
    assert proc.returncode == 1
    proc = subprocess.run(
        [sys.executable, "-m", "leafwise.cli", "no-such-command"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert bad.returncode == 0
    # a misspelt key is rejected by name instead of falling back to defaults
    proc = run_cli(["eval", "--out-dir", str(tmp_path)], {"surfce": {"id": "plane"}})
    assert proc.returncode == 1
    assert "surfce" in proc.stderr and "Traceback" not in proc.stderr
    # a config that is not a JSON object
    proc = run_cli(["eval", "--out-dir", str(tmp_path)], [1])
    assert proc.returncode == 1
    assert "config error" in proc.stderr and "Traceback" not in proc.stderr
    # nested surface / functional objects are type-checked after merging
    for cfg in ({"surface": "sphere"}, {"functional": {"kind": "W_nps"}},
                {"surface": {"id": "sphere", "params": {"bogus": 1}}}):
        proc = run_cli(["eval", "--out-dir", str(tmp_path)], cfg)
        assert proc.returncode == 1, cfg
        assert proc.stderr.startswith("config error:") and "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1


def test_unknown_surface_is_compute_error(tmp_path):
    cfg = {"surface": {"id": "klein-bottle"}, "functional": {"kind": "W_nps", "p": 2}}
    res = run_cli(["eval", "--out-dir", str(tmp_path)], cfg)
    assert res.returncode == 2
    assert "klein-bottle" in res.stderr


def test_main_callable_in_process(tmp_path):
    assert main(["elcheck", "--out-dir", str(tmp_path)]) == 0
