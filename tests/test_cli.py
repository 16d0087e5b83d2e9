import io
import json
import subprocess
import sys

import numpy as np
import pytest

from leafwise.cli import DEFAULTS, main

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


def test_profile_of_a_falling_slope_passes(tmp_path, capsys, monkeypatch):
    # the closed form takes the sign of f0prime; it used to fail p=3 by 0.684
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"f0prime": -0.4, "p": [3]})))
    assert main(["profile", "--config", "-", "--out-dir", str(tmp_path)]) == 0
    assert "[PASS] p=3 ode_vs_closed_form" in capsys.readouterr().out


def test_profile_names_a_rho_max_below_rho0(tmp_path, capsys, monkeypatch):
    # rho0 = 0.4 by default; this used to report "rho0 outside rho range"
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"rho_max": 0.3})))
    assert main(["profile", "--config", "-", "--out-dir", str(tmp_path)]) == 2
    assert "rho range (0.4, 0.3) must be finite and increasing" in capsys.readouterr().err


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


def test_eval_refines_default_grid_beside_user_params(tmp_path):
    # radius is no grid size: the refined surface still gets 1.5x the default
    # m_polar and m_azimuth, so the estimate is not the same grid twice
    cfg = {"surface": {"id": "sphere", "params": {"radius": 2.0}}, "tolerance": 1e-30}
    res = run_cli(["eval", "--out-dir", str(tmp_path)], cfg)
    report = json.loads((tmp_path / "eval_report.json").read_text())
    estimate = {r["name"]: r["value"] for r in report["results"]}["quadrature_error_estimate"]
    assert estimate > 0
    assert res.returncode == 2, res.stderr


def test_eval_zero_tolerance_gates(tmp_path):
    # 0 is a tolerance no nonzero estimate meets; only null (the default,
    # exercised by test_usage_errors) switches the gate off
    res = run_cli(["eval", "--out-dir", str(tmp_path)], {"tolerance": 0})
    assert res.returncode == 2, res.stderr
    assert "[FAIL] quadrature_error_estimate" in res.stdout


def test_varcheck_csv_rows_name_their_case(tmp_path):
    res = run_cli(["varcheck", "--out-dir", str(tmp_path)], {})
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "varcheck_cases.csv").read_text().splitlines()
    assert lines[0] == "case,gap,naive_deviation"
    rows = {ln.split(",")[0]: [float(v) for v in ln.split(",")[1:]] for ln in lines[1:]}
    report = json.loads((tmp_path / "varcheck_report.json").read_text())
    assert list(rows) == [r["name"] for r in report["results"]][: len(lines) - 1]
    # tau_1 = sigma_1 = s H_F: one naive reading, one deviation
    naive = {case: row[-1] for case, row in rows.items()}
    assert abs(naive["tau_i[1]@bumpy-torus3"] - naive["sH_F[1]@bumpy-torus3"]) < 1e-12


def test_varcheck_gates_on_evolution_tolerance(tmp_path, capsys, monkeypatch):
    # the complex-step gaps are rounding, about 1e-16, so 1e-18 fails them
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"evolution_tolerance": 1e-18})))
    assert main(["varcheck", "--config", "-", "--out-dir", str(tmp_path)]) == 2
    assert "[FAIL] g_inv[1]@bumpy-torus3" in capsys.readouterr().out


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


def test_usage_errors(tmp_path, capsys, monkeypatch):
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
    # scalars and lists take the type of their default, checked before any work
    # (in process: an escaping exception fails the test like a traceback would)
    for command, cfg in (("eval", {"tolerance": "x"}), ("elcheck", {"tolerance": "x"}),
                         ("varcheck", {"seed": "x"}), ("varcheck", {"evolution_tolerance": "x"}),
                         ("varcheck", {"evolution_tolerance": [1e-10]}), ("profile", {"p": "x"}),
                         ("profile", {"samples": True}), ("confcheck", {"r": "x"}),
                         ("elcheck", {"profile": {"p": "x"}}), ("elcheck", {"profile": 3}),
                         ("elcheck", {"profile": {"bogus": 1}}),
                         ("elcheck", {"tolerance": None}),
                         # a non-finite number anywhere (json.dumps writes NaN,
                         # Infinity; 1e400 overflows to inf when parsed)
                         ("eval", {"functional": {"kind": "W_nps", "p": float("inf")}}),
                         ("eval", {"tolerance": float("nan")}),
                         ("eval", {"surface": {"id": "sphere",
                                               "params": {"radius": float("-inf")}}}),
                         ("confcheck", {"tolerance": "1e400"}),
                         # counts and indices are integers, samples >= 2, seed >= 0
                         ("profile", {"n": 2.5}), ("profile", {"samples": 0}),
                         ("profile", {"p": []}), ("secondvar", {"modes": [1.5]}),
                         ("secondvar", {"n": 0}), ("confcheck", {"r": 2.5}),
                         ("eval", {"functional": {"kind": "W_conf", "r": 2.5}}),
                         ("eval", {"functional": {"kind": "W_conf", "r": 0}}),
                         ("varcheck", {"seed": 1.5}), ("varcheck", {"seed": -1}),
                         ("elcheck", {"profile": {**DEFAULTS["elcheck"]["profile"],
                                                  "n": 2.5}}),
                         # a revolution hypersurface needs n >= 2 (s = n - 1 >= 1)
                         ("profile", {"n": 1}), ("secondvar", {"n": 1}),
                         ("elcheck", {"profile": {**DEFAULTS["elcheck"]["profile"],
                                                  "n": 1}}),
                         # string settings take strings
                         ("confcheck", {"mode": 3}), ("confcheck", {"mode": None}),
                         # a surface is null only where its default is
                         ("eval", {"surface": None}), ("confcheck", {"surface": None})):
        text = json.dumps(cfg).replace('"1e400"', "1e400")
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert main([command, "--config", "-", "--out-dir", str(tmp_path)]) == 1, cfg
        err = capsys.readouterr().err
        assert err.startswith("config error:") and len(err.strip().splitlines()) == 1
    # the t-ladder keys are gone: varcheck takes one complex step
    for key, value in (("t_values", [1e-3, 5e-4]), ("min_order", 1.9)):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({key: value})))
        assert main(["varcheck", "--config", "-", "--out-dir", str(tmp_path)]) == 1, key
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"unknown varcheck config key(s): {key}" in err


@pytest.mark.parametrize("surface, name, value", [
    ("sphere", "radius", "x"), ("sphere", "radius", None), ("sphere", "radius", True),
    ("sphere", "radius", [1]), ("torus-revolution", "big_radius", "2"),
    ("sheared-torus-3", "eps", "a")])
def test_surface_parameters_take_a_number_where_the_default_is_one(
        surface, name, value, tmp_path, capsys, monkeypatch):
    cfg = {"surface": {"id": surface, "params": {name: value}}}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(cfg)))
    assert main(["eval", "--config", "-", "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: surface {surface!r} parameter {name!r} must be a number\n"


def test_bad_grid_sizes_are_compute_errors(tmp_path, capsys, monkeypatch):
    for surface in ({"id": "sphere", "params": {"m_azimuth": 0}},
                    {"id": "sphere", "params": {"m_polar": 0}},
                    {"id": "sphere", "params": {"m_polar": 2.5}},
                    {"id": "sphere", "params": {"n": 0}},
                    {"id": "torus", "params": {"m_leaf": -3}}):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"surface": surface})))
        assert main(["eval", "--config", "-", "--out-dir", str(tmp_path)]) == 2, surface
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_unknown_surface_is_compute_error(tmp_path):
    cfg = {"surface": {"id": "klein-bottle"}, "functional": {"kind": "W_nps", "p": 2}}
    res = run_cli(["eval", "--out-dir", str(tmp_path)], cfg)
    assert res.returncode == 2
    assert "klein-bottle" in res.stderr


def test_main_callable_in_process(tmp_path):
    assert main(["elcheck", "--out-dir", str(tmp_path)]) == 0
