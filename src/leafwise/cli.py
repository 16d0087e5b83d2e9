"""Batch command-line front end.

Every command reads a single JSON config (path or '-' for stdin), writes
CSV/JSON/SVG artifacts into --out-dir and returns exit code 0 when all
checks pass, 1 on usage errors and 2 on computation or precondition
errors.  CSV output is deterministic: 17 significant digits, '.' decimal
separator, '\n' line endings, one header row.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import catalog, functionals as fl, revolution as rev, varcheck as vc
from .errors import LeafwiseError, ValidationError
from .operators import ScalarField
from .svgplot import svg_line_plot
from .variation import VariationField, random_trig_variation

USAGE_ERROR, COMPUTE_ERROR = 1, 2

#: the parameter of each functional kind the CLI builds, and its default
FUNCTIONAL_PARAMS = {"W_nps": ("p", None), "J_nps": ("p", None), "W_conf": ("r", 2)}

DEFAULTS = {
    "profile": {
        "n": 2, "p": [2, 3, 4, 5, 6, 7, 8], "rho0": 0.4, "f0": 1.0,
        "f0prime": 0.4, "rho_max": 3.0, "samples": 200,
        "agreement_tolerance": 1e-6, "residual_tolerance": 1e-8,
    },
    "eval": {
        "surface": {"id": "sphere", "params": {}},
        "functional": {"kind": "W_nps", "p": 2},
        "tolerance": None,
    },
    "elcheck": {
        "surface": None,
        "profile": {"n": 2, "p": 3, "rho0": 0.4, "f0": 1.0, "f0prime": 0.4,
                     "rho_max": 0.6},
        "functional": {"kind": "W_nps", "p": 3},
        "tolerance": 1e-8,
    },
    "varcheck": {
        "t_values": [1e-3, 5e-4, 2.5e-4],
        "seed": 20240811,
        "min_order": vc.MIN_ORDER,
        "identity_tolerance": 1e-8,
    },
    "confcheck": {
        "surface": {"id": "sheared-torus-3", "params": {}},
        "r": 2, "mode": "inversion", "tolerance": 1e-6,
    },
    "secondvar": {
        "n": 2, "p": 3, "rho0": 0.4, "f0": 1.0, "f0prime": 0.4,
        "rho_max": 0.62, "modes": [0, 1], "cross_tolerance": 1e-6,
    },
}


def fmt(x) -> str:
    return "%.17g" % float(x)


def write_csv(path: Path, header, rows):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_config(arg: str, command: str) -> dict:
    base = json.loads(json.dumps(DEFAULTS[command]))
    if arg is None:
        return base
    raw = sys.stdin.read() if arg == "-" else Path(arg).read_text()
    user = json.loads(raw)
    if not isinstance(user, dict):
        raise ValidationError(f"the {command} config must be a JSON object")
    unknown = sorted(set(user) - set(base))
    if unknown:
        raise ValidationError(f"unknown {command} config key(s): {', '.join(unknown)}")
    for key, value in user.items():
        default = base[key]
        # an object naming its own surface id or functional kind replaces the
        # default, whose parameters belong to the default id or kind
        if isinstance(default, dict) and isinstance(value, dict) and not (
                {"id", "kind"} & set(value)):
            value = {**default, **value}
        base[key] = value
    if base.get("surface") is not None:
        _check_surface(base["surface"])
    if "functional" in base:
        _check_functional(base["functional"])
    return base


def _check_surface(cfg) -> None:
    if not (isinstance(cfg, dict) and isinstance(cfg.get("id"), str)
            and isinstance(cfg.get("params", {}), dict) and set(cfg) <= {"id", "params"}):
        raise ValidationError('surface must be an object {"id": string, "params": object}')
    make = catalog.CATALOG.get(cfg["id"])
    if make is None:
        return  # catalog.build reports unknown ids
    unknown = sorted(set(cfg.get("params", {})) - set(inspect.signature(make).parameters))
    if unknown:
        raise ValidationError(f"unknown parameter(s) of surface {cfg['id']!r}: "
                              f"{', '.join(unknown)}")


def _check_functional(cfg) -> None:
    if not (isinstance(cfg, dict) and isinstance(cfg.get("kind"), str)):
        raise ValidationError('functional must be an object {"kind": string, ...}')
    if cfg["kind"] in FUNCTIONAL_PARAMS:  # build_functional reports other kinds
        name, default = FUNCTIONAL_PARAMS[cfg["kind"]]
        value = cfg.get(name, default)
        if set(cfg) - {"kind", name} or isinstance(value, bool) or not isinstance(
                value, (int, float)):
            raise ValidationError(
                f"a {cfg['kind']} functional takes \"kind\" and a numeric {name!r} only")


def build_surface(cfg: dict):
    return catalog.build(cfg["id"], **cfg.get("params", {}))


def build_functional(cfg: dict) -> fl.FunctionalSpec:
    kind = cfg["kind"]
    if kind not in FUNCTIONAL_PARAMS:
        raise LeafwiseError(
            f"CLI supports W_nps, J_nps and W_conf, not {kind!r} "
            "(callable-valued functionals are library-only)")
    name, default = FUNCTIONAL_PARAMS[kind]
    return fl.FunctionalSpec(kind=kind, **{name: cfg.get(name, default)})


def report(out_dir: Path, command: str, params: dict, results, t0: float,
           verbose: bool) -> int:
    payload = {
        "command": command,
        "params": params,
        "results": results,
        "timing": time.time() - t0,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{command}_report.json", "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    ok = all(r.get("pass", True) for r in results)
    for r in results:
        flag = "PASS" if r.get("pass", True) else "FAIL"
        line = f"[{flag}] {r['name']}: {r['value']:.12g}"
        if r.get("tolerance") is not None:
            line += f" (tolerance {r['tolerance']:g})"
        print(line)
    if verbose:
        print(f"report: {out_dir / (command + '_report.json')}")
    return 0 if ok else COMPUTE_ERROR


def cmd_profile(config: dict, out_dir: Path, verbose: bool) -> int:
    t0 = time.time()
    n = int(config["n"])
    p_list = config["p"] if isinstance(config["p"], list) else [config["p"]]
    rho0, f0, f0prime = config["rho0"], config["f0"], config["f0prime"]
    results = []
    series = []
    for p in p_list:
        if p == n - 1:
            print("degenerate: f'' == 0 (straight-line profile); refusing p = n-1",
                  file=sys.stderr)
            return COMPUTE_ERROR
        prof = rev.critical_ode_solve(n, p, rho0, f0, f0prime,
                                      (rho0, config["rho_max"]))
        c1 = rev.fit_constants(n, p, rho0, f0prime)
        (w_lo, w_hi), _ = rev.closed_form_window(n, p, c1)
        hi = min(prof.rho_max * (1 - 1e-9), w_hi)
        rho = np.linspace(rho0, hi, int(config["samples"]))
        closed = rev.critical_closed_form(n, p, c1, f0, rho)
        dev = float(np.max(np.abs(closed.f(rho) - prof.f(rho))))
        k1, kn = rev.principal_curvatures(prof, rho)
        resid = float(np.max(np.abs(kn - (p - n + 1) * k1)))
        write_csv(out_dir / f"profile_p{p}.csv",
                  ["rho", "f", "fprime", "k1", "kn"],
                  zip(rho, prof.f(rho), prof.f1(rho), k1, kn))
        series.append((f"p={p}", rho, prof.f(rho)))
        results.append({"name": f"p={p} ode_vs_closed_form", "value": dev,
                        "tolerance": config["agreement_tolerance"],
                        "pass": dev < config["agreement_tolerance"]})
        results.append({"name": f"p={p} criticality_residual", "value": resid,
                        "tolerance": config["residual_tolerance"],
                        "pass": resid < config["residual_tolerance"]})
        if verbose:
            print(f"p={p}: window [{rho0}, {hi:.6g}], ODE vs closed form {dev:.3e}")
    out_dir.mkdir(parents=True, exist_ok=True)
    svg_line_plot(series, out_dir / "profiles.svg",
                  title=f"critical profiles, n={n}", xlabel="rho", ylabel="f")
    return report(out_dir, "profile", config, results, t0, verbose)


def _refined(surface_cfg: dict):
    params = dict(surface_cfg.get("params", {}))
    refined = {k: (int(np.ceil(v * 1.5)) if isinstance(v, int) and k.startswith("m") else v)
               for k, v in params.items()}
    if not refined:
        builder = catalog.CATALOG[surface_cfg["id"]]
        for name, par in inspect.signature(builder).parameters.items():
            if name.startswith("m") and isinstance(par.default, int):
                refined[name] = int(np.ceil(par.default * 1.5))
    return catalog.build(surface_cfg["id"], **refined)


def cmd_eval(config: dict, out_dir: Path, verbose: bool) -> int:
    t0 = time.time()
    surface = build_surface(config["surface"])
    spec = build_functional(config["functional"])
    value = fl.evaluate(spec, surface)
    value_ref = fl.evaluate(spec, _refined(config["surface"]))
    quad_err = abs(value - value_ref)
    print(f"{spec.kind} on {config['surface']['id']}: {value:.10f} "
          f"(quadrature error estimate {quad_err:.2e})")
    results = [{"name": "value", "value": value, "tolerance": None, "pass": True},
               {"name": "quadrature_error_estimate", "value": quad_err,
                "tolerance": config.get("tolerance"),
                "pass": quad_err < config["tolerance"] if config.get("tolerance") else True}]
    write_csv(out_dir / "eval.csv", ["value", "quadrature_error_estimate"],
              [[value, quad_err]])
    return report(out_dir, "eval", config, results, t0, verbose)


def cmd_elcheck(config: dict, out_dir: Path, verbose: bool) -> int:
    t0 = time.time()
    spec = build_functional(config["functional"])
    if config.get("surface"):
        surface = build_surface(config["surface"])
    else:
        pc = config["profile"]
        surface = rev.critical_ode_solve(pc["n"], pc["p"], pc["rho0"], pc["f0"],
                                         pc["f0prime"], (pc["rho0"], pc["rho_max"]))
    resid = np.max(np.abs(fl.el_residual(spec, surface)))
    results = [{"name": "max_el_residual", "value": float(resid),
                "tolerance": config["tolerance"],
                "pass": bool(resid < config["tolerance"])}]
    return report(out_dir, "elcheck", config, results, t0, verbose)


def cmd_varcheck(config: dict, out_dir: Path, verbose: bool) -> int:
    t0 = time.time()
    t_values = tuple(config["t_values"])
    rng = np.random.default_rng(int(config["seed"]))
    p2 = catalog.bumpy_torus3(m_leaf=12, m_tube=12)
    p3 = catalog.sheared_torus4(m1=8, m2=8, m3=8)
    u2 = random_trig_variation(2, rng)
    u3 = random_trig_variation(3, rng)
    f2 = ScalarField.from_callable(
        lambda x: np.sin(x[:, 0] + 0.5 * x[:, 1]) + 0.3 * np.cos(2 * x[:, 1]), n=2)
    f3 = ScalarField.from_callable(
        lambda x: np.sin(x[:, 0] + 0.5 * x[:, 1]) + 0.3 * np.cos(x[:, 1] - 2 * x[:, 2]),
        n=3)
    plan = [
        (p2, u2, f2, "g", 1), (p2, u2, f2, "g_inv", 1), (p2, u2, f2, "h", 1),
        (p2, u2, f2, "norm_h_sq", 1), (p2, u2, f2, "nH", 1), (p2, u2, f2, "dV", 1),
        (p2, u2, f2, "sH_F", 1), (p2, u2, f2, "norm_hF_sq", 1),
        (p2, u2, f2, "norm_hmix_sq", 1), (p2, u2, f2, "lapF_f", 1),
        (p2, u2, f2, "tau_i", 1), (p2, u2, f2, "sigma_r", 1),
        (p2, u2, f2, "Christoffel", 1),
        (p3, u3, f3, "twoH_F", 1), (p3, u3, f3, "K_F", 1),
        (p3, u3, f3, "tau_i", 2), (p3, u3, f3, "sigma_r", 2),
        (p3, u3, f3, "lapF_f", 1), (p3, u3, f3, "norm_hmix_sq", 1),
    ]
    results, rows = [], []
    for patch, u, f_aux, quantity, idx in plan:
        case = vc.EvolutionCase(quantity=quantity, t_values=t_values, order_index=idx)
        rep = vc.verify_evolution(case, patch, u, f=f_aux)
        label = f"{quantity}[{idx}]@{patch.name}"
        results.append({"name": label, "value": rep.order_t,
                        "tolerance": config["min_order"], "pass": rep.passed})
        rows.append([rep.order_t, max(rep.errors), rep.richardson_error,
                     -1.0 if rep.naive_deviation is None else rep.naive_deviation])
    write_csv(out_dir / "varcheck_cases.csv",
              ["order_t", "max_error", "richardson_error", "naive_deviation"], rows)

    tor = catalog.torus_revolution(m_leaf=32, m_profile=32)
    fields = _identity_fields(tor, rng)
    for ident in vc.INTEGRAL_IDENTITIES:
        rep = vc.verify_integral_identity(ident, tor, threshold=config["identity_tolerance"],
                                          **fields)
        results.append({"name": f"{ident}@{tor.name}", "value": rep.discrepancy,
                        "tolerance": config["identity_tolerance"], "pass": rep.passed})
    return report(out_dir, "varcheck", config, results, t0, verbose)


def _identity_fields(patch, rng):
    from .operators import FullTensorField, LeafOneFormField

    n, s = patch.n, patch.s

    def f_a(x):
        return np.sin(x[:, 0]) + 0.4 * np.cos(x[:, 0] - 2 * x[:, -1])

    def f_b(x):
        return np.cos(2 * x[:, 0]) + 0.5 * np.sin(x[:, 0] + x[:, -1])

    from .operators import leaf_metric_multiple

    w_field = ScalarField.from_callable(
        lambda x: np.sin(x[:, 0]) + 0.3 * np.cos(x[:, -1]), n=n)

    def b_full_fn(x):
        w = np.cos(x[:, 0] - x[:, -1])
        return w[:, None, None] * patch.geometry(x).g

    def omega_fn(x):
        return np.stack([np.sin(x[:, 0]) + 0.2 * np.cos(x[:, -1])] * s, axis=1)

    return {
        "f1": ScalarField.from_callable(f_a, n=n),
        "f2": ScalarField.from_callable(f_b, n=n),
        "u": ScalarField.from_callable(f_b, n=n),
        "b_leaf": leaf_metric_multiple(patch, w_field),
        "b_full": FullTensorField(fn=b_full_fn, n=n, step=1e-3),
        "omega": LeafOneFormField(fn=omega_fn, s=s, step=1e-3),
    }


def cmd_confcheck(config: dict, out_dir: Path, verbose: bool) -> int:
    t0 = time.time()
    patch = build_surface(config["surface"])
    res = fl.conformal_density_check(patch, r=int(config["r"]), mode=config["mode"])
    tol = config["tolerance"]
    results = [
        {"name": f"{config['mode']}_density_deviation",
         "value": res["max_rel_deviation"], "tolerance": tol,
         "pass": res["max_rel_deviation"] < tol},
        {"name": "shape_operator_law_deviation",
         "value": res["shape_law_deviation"], "tolerance": tol,
         "pass": res["shape_law_deviation"] < tol},
    ]
    return report(out_dir, "confcheck", config, results, t0, verbose)


def cmd_secondvar(config: dict, out_dir: Path, verbose: bool) -> int:
    t0 = time.time()
    n, p = int(config["n"]), config["p"]
    prof = rev.critical_ode_solve(n, p, config["rho0"], config["f0"],
                                  config["f0prime"], (config["rho0"], config["rho_max"]))
    patch = rev.revolution_patch(prof, m_leaf=32, m_profile=40)
    results, rows = [], []
    for j in config["modes"]:
        d2 = rev.second_variation_revolution(prof, p, j)
        row = {"j": j, "d2_reduced": d2}
        if n == 2 and j in (0, 1):
            u = _leaf_mode_variation(j)
            d2_gen = fl.second_variation_analytic(fl.w_nps(p), patch, u)
            rel = abs(d2 - d2_gen) / max(abs(d2), 1e-300)
            results.append({"name": f"j={j} cross_path_rel", "value": rel,
                            "tolerance": config["cross_tolerance"],
                            "pass": rel < config["cross_tolerance"]})
            row["d2_general"] = d2_gen
        expected_sign = -1.0 if (j == 0 and p > n) else +1.0
        results.append({"name": f"j={j} second_variation", "value": d2,
                        "tolerance": None, "pass": d2 * expected_sign > 0})
        rows.append([j, d2])
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "secondvar.csv", ["j", "d2"], rows)
    return report(out_dir, "secondvar", config, results, t0, verbose)


def _leaf_mode_variation(j: int) -> VariationField:
    if j == 0:
        return VariationField(u=ScalarField.from_callable(
            lambda x: np.ones(x.shape[0]), n=2,
            grad=lambda x: np.zeros((x.shape[0], 2)),
            hess=lambda x: np.zeros((x.shape[0], 2, 2))))

    def grad(x):
        return np.stack([-np.sin(x[:, 0]), np.zeros(x.shape[0])], axis=1)

    def hess(x):
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 0, 0] = -np.cos(x[:, 0])
        return out

    return VariationField(u=ScalarField.from_callable(
        lambda x: np.cos(x[:, 0]), n=2, grad=grad, hess=hess))


COMMANDS = {
    "profile": cmd_profile,
    "eval": cmd_eval,
    "elcheck": cmd_elcheck,
    "varcheck": cmd_varcheck,
    "confcheck": cmd_confcheck,
    "secondvar": cmd_secondvar,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="leafwise",
        description="Curvature functionals and variation checks on foliated "
                    "hypersurfaces.",
        epilog="Config defaults per command: " + json.dumps(DEFAULTS),
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None,
                        help="JSON config path, or '-' for stdin")
    parser.add_argument("--out-dir", default="leafwise-out")
    parser.add_argument("--verbose", action="store_true")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        config = load_config(args.config, args.command)
    except (json.JSONDecodeError, OSError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        return COMMANDS[args.command](config, Path(args.out_dir), args.verbose)
    except LeafwiseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return COMPUTE_ERROR


if __name__ == "__main__":
    sys.exit(main())
