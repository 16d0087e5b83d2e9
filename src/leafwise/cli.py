"""Batch command-line front end.

Every command reads a single JSON config (path or '-' for stdin), writes
CSV/JSON/SVG artifacts into --out-dir and returns exit code 0 when all
checks pass, 1 on usage errors and 2 on computation or precondition
errors.  CSV output is deterministic: 17 significant digits, '.' decimal
separator, '\n' line endings, one header row; text cells (case labels) are
written as they are.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import catalog, functionals as fl, revolution as rev, varcheck as vc
from .errors import LeafwiseError, ValidationError
from .operators import Field
from .svgplot import svg_line_plot
from .variation import random_trig_variation

USAGE_ERROR, COMPUTE_ERROR = 1, 2

#: settings that count or index something, with their least value
INTEGER_SETTINGS = {"n": 2, "samples": 2, "seed": 0, "r": 1, "modes": 0}

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
        "seed": 20240811,
        "evolution_tolerance": vc.GAP_TOLERANCE,
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
        lines.append(",".join(v if isinstance(v, str) else fmt(v) for v in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_config(arg: str, command: str) -> dict:
    base = json.loads(json.dumps(DEFAULTS[command]))
    if arg is None:
        return base
    raw = sys.stdin.read() if arg == "-" else Path(arg).read_text()
    user = json.loads(raw, parse_float=_finite, parse_constant=_finite)
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
    _check_types(DEFAULTS[command], base, command)
    return base


def _finite(text: str) -> float:
    """A JSON number or constant (NaN, Infinity) as a float, if it is finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValidationError(f"non-finite number {text} in the config")
    return value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_types(defaults: dict, config: dict, command: str, where: str = "") -> None:
    """Each setting takes the type of its default: a string for a string, a
    number (never a bool) for a number, a non-empty list of numbers for a list
    (profile p also one number), a number or null for null, an object with the
    same keys for an object, checked key by key; surface (null only where the
    default is null) and functional have checks of their own.  The
    INTEGER_SETTINGS are stored as ints."""
    for key, default in defaults.items():
        value, name = config[key], where + key
        if key == "surface":
            if value is not None or default is not None:
                _check_surface(value)
        elif key == "functional":
            _check_functional(value)
        elif isinstance(default, dict) and isinstance(value, dict) and set(value) == set(default):
            _check_types(default, value, command, name + ".")
        elif isinstance(default, dict):
            raise ValidationError(f"{command} {name!r} must be an object with keys "
                                  f"{', '.join(default)}")
        elif isinstance(default, list):
            if not (isinstance(value, list) and value and all(map(_is_number, value)) or (
                    (command, name) == ("profile", "p") and _is_number(value))):
                raise ValidationError(f"{command} {name!r} must be a non-empty list of numbers")
        elif isinstance(default, str):
            if not isinstance(value, str):
                raise ValidationError(f"{command} {name!r} must be a string")
        elif not (_is_number(value) or value is default is None):
            raise ValidationError(f"{command} {name!r} must be a number")
        if key in INTEGER_SETTINGS:
            config[key] = _integers(value, INTEGER_SETTINGS[key], f"{command} {name!r}")


def _integers(value, least: int, what: str):
    """A number, or each number of a list, as an int, if integral and >= least."""
    values = value if isinstance(value, list) else [value]
    if not all((isinstance(v, int) or v.is_integer()) and v >= least for v in values):
        kind = "a list of integers" if isinstance(value, list) else "an integer"
        raise ValidationError(f"{what} must be {kind} >= {least}")
    ints = [int(v) for v in values]
    return ints if isinstance(value, list) else ints[0]


def _check_surface(cfg) -> None:
    """An object {"id": string, "params": object} whose params, for a
    catalog id, are parameters of its builder, each a number (never a bool)
    where the builder's default is a number."""
    if not (isinstance(cfg, dict) and isinstance(cfg.get("id"), str)
            and isinstance(cfg.get("params", {}), dict) and set(cfg) <= {"id", "params"}):
        raise ValidationError('surface must be an object {"id": string, "params": object}')
    make = catalog.CATALOG.get(cfg["id"])
    if make is None:
        return  # catalog.build reports unknown ids
    defaults = {name: p.default for name, p in inspect.signature(make).parameters.items()}
    params = cfg.get("params", {})
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValidationError(f"unknown parameter(s) of surface {cfg['id']!r}: "
                              f"{', '.join(unknown)}")
    for name, value in params.items():
        if _is_number(defaults[name]) and not _is_number(value):
            raise ValidationError(f"surface {cfg['id']!r} parameter {name!r} must be a number")


def _check_functional(cfg) -> None:
    if not (isinstance(cfg, dict) and isinstance(cfg.get("kind"), str)):
        raise ValidationError('functional must be an object {"kind": string, ...}')
    if cfg["kind"] in FUNCTIONAL_PARAMS:  # build_functional reports other kinds
        name, default = FUNCTIONAL_PARAMS[cfg["kind"]]
        value = cfg.get(name, default)
        if set(cfg) - {"kind", name} or not _is_number(value):
            raise ValidationError(
                f"a {cfg['kind']} functional takes \"kind\" and a numeric {name!r} only")
        if name in INTEGER_SETTINGS and name in cfg:
            cfg[name] = _integers(value, INTEGER_SETTINGS[name], f"functional {name!r}")


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


def row(name: str, value, tolerance=None, passed=None) -> dict:
    """One result; unless ``passed`` says otherwise it passes the gate
    ``tolerance is None or value < tolerance``."""
    if passed is None:
        passed = tolerance is None or value < tolerance
    return {"name": name, "value": float(value), "tolerance": tolerance, "pass": bool(passed)}


def report(out_dir: Path, command: str, params: dict, results, seconds: float,
           verbose: bool) -> int:
    payload = {"command": command, "params": params, "results": results, "timing": seconds}
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{command}_report.json", "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for r in results:
        line = f"[{'PASS' if r['pass'] else 'FAIL'}] {r['name']}: {r['value']:.12g}"
        if r["tolerance"] is not None:
            line += f" (tolerance {r['tolerance']:g})"
        print(line)
    if verbose:
        print(f"report: {out_dir / (command + '_report.json')}")
    return 0 if all(r["pass"] for r in results) else COMPUTE_ERROR


def cmd_profile(config: dict, out_dir: Path, verbose: bool) -> list:
    n = config["n"]
    p_list = config["p"] if isinstance(config["p"], list) else [config["p"]]
    if n - 1 in p_list:
        raise LeafwiseError("degenerate: f'' == 0 (straight-line profile); refusing p = n-1")
    results, series = [], []
    for p in p_list:
        prof = rev.critical_ode_solve(n, p, config["rho0"], config["f0"], config["f0prime"],
                                      (config["rho0"], config["rho_max"]))
        rho, dev, resid = rev.compare_with_closed_form(prof, config["samples"])
        k1, kn = rev.principal_curvatures(prof, rho)
        write_csv(out_dir / f"profile_p{p}.csv", ["rho", "f", "fprime", "k1", "kn"],
                  zip(rho, prof.f(rho), prof.f1(rho), k1, kn))
        series.append((f"p={p}", rho, prof.f(rho)))
        results += [row(f"p={p} ode_vs_closed_form", dev, config["agreement_tolerance"]),
                    row(f"p={p} criticality_residual", resid, config["residual_tolerance"])]
        if verbose:
            print(f"p={p}: window [{config['rho0']}, {rho[-1]:.6g}], "
                  f"ODE vs closed form {dev:.3e}")
    out_dir.mkdir(parents=True, exist_ok=True)
    svg_line_plot(series, out_dir / "profiles.svg",
                  title=f"critical profiles, n={n}", xlabel="rho", ylabel="f")
    return results


def _refined(surface_cfg: dict):
    """The surface with every int grid size m* 1.5 times larger, whether the
    config sets it or the catalog function's default does."""
    params = dict(surface_cfg.get("params", {}))
    builder = catalog.CATALOG[surface_cfg["id"]]
    for name, par in inspect.signature(builder).parameters.items():
        value = params.get(name, par.default)
        if name.startswith("m") and isinstance(value, int):
            params[name] = int(np.ceil(value * 1.5))
    return catalog.build(surface_cfg["id"], **params)


def cmd_eval(config: dict, out_dir: Path, verbose: bool) -> list:
    spec = build_functional(config["functional"])
    value = fl.evaluate(spec, build_surface(config["surface"]))
    quad_err = abs(value - fl.evaluate(spec, _refined(config["surface"])))
    print(f"{spec.kind} on {config['surface']['id']}: {value:.10f} "
          f"(quadrature error estimate {quad_err:.2e})")
    write_csv(out_dir / "eval.csv", ["value", "quadrature_error_estimate"],
              [[value, quad_err]])
    return [row("value", value), row("quadrature_error_estimate", quad_err, config["tolerance"])]


def cmd_elcheck(config: dict, out_dir: Path, verbose: bool) -> list:
    spec = build_functional(config["functional"])
    if config["surface"] is not None:
        surface = build_surface(config["surface"])
    else:
        pc = config["profile"]
        surface = rev.critical_ode_solve(pc["n"], pc["p"], pc["rho0"], pc["f0"],
                                         pc["f0prime"], (pc["rho0"], pc["rho_max"]))
    resid = np.max(np.abs(fl.el_residual(spec, surface)))
    return [row("max_el_residual", resid, config["tolerance"])]


def cmd_varcheck(config: dict, out_dir: Path, verbose: bool) -> list:
    plan = [(2, q, 1) for q in (
        "g", "g_inv", "h", "norm_h_sq", "nH", "dV", "sH_F", "norm_hF_sq",
        "norm_hmix_sq", "lapF_f", "tau_i", "sigma_r", "Christoffel")]
    plan += [(3, q, i) for q, i in (
        ("twoH_F", 1), ("K_F", 1), ("tau_i", 2), ("sigma_r", 2), ("lapF_f", 1),
        ("norm_hmix_sq", 1))]
    rng = np.random.default_rng(config["seed"])
    p2 = catalog.bumpy_torus3(m_leaf=12, m_tube=12)
    p3 = catalog.sheared_torus4(m1=8, m2=8, m3=8)
    u2 = random_trig_variation(2, rng)
    u3 = random_trig_variation(3, rng)
    f2 = Field.from_callable(
        lambda x: np.sin(x[:, 0] + 0.5 * x[:, 1]) + 0.3 * np.cos(2 * x[:, 1]), n=2)
    f3 = Field.from_callable(
        lambda x: np.sin(x[:, 0] + 0.5 * x[:, 1]) + 0.3 * np.cos(x[:, 1] - 2 * x[:, 2]),
        n=3)
    surfaces = {2: (p2, u2, f2), 3: (p3, u3, f3)}
    results, rows = [], []
    for dim, quantity, index in plan:
        patch, u, f_aux = surfaces[dim]
        rep = vc.verify_evolution(vc.EvolutionCase(quantity, index), patch, u, f=f_aux)
        label = f"{quantity}[{index}]@{patch.name}"
        results.append(row(label, rep.gap, config["evolution_tolerance"]))
        rows.append([label, rep.gap,
                     -1.0 if rep.naive_deviation is None else rep.naive_deviation])
    write_csv(out_dir / "varcheck_cases.csv", ["case", "gap", "naive_deviation"], rows)

    tor = catalog.torus_revolution(m_leaf=32, m_profile=32)
    fields = vc.identity_fields(tor)
    tol = config["identity_tolerance"]
    for ident in vc.INTEGRAL_IDENTITIES:
        rep = vc.verify_integral_identity(ident, tor, threshold=tol, **fields)
        results.append(row(f"{ident}@{tor.name}", rep.discrepancy, tol, passed=rep.passed))
    return results


def cmd_confcheck(config: dict, out_dir: Path, verbose: bool) -> list:
    res = fl.conformal_density_check(build_surface(config["surface"]), r=config["r"],
                                     mode=config["mode"])
    return [row(f"{config['mode']}_density_deviation", res["max_rel_deviation"],
                config["tolerance"]),
            row("shape_operator_law_deviation", res["shape_law_deviation"],
                config["tolerance"])]


def cmd_secondvar(config: dict, out_dir: Path, verbose: bool) -> list:
    n, p = config["n"], config["p"]
    prof = rev.critical_ode_solve(n, p, config["rho0"], config["f0"],
                                  config["f0prime"], (config["rho0"], config["rho_max"]))
    patch = rev.revolution_patch(prof, m_leaf=32, m_profile=40)
    results, rows = [], []
    for j in config["modes"]:
        d2 = rev.second_variation_revolution(prof, p, j)
        if n == 2 and j in (0, 1):
            d2_gen = fl.second_variation_analytic(fl.w_nps(p), patch, rev.leaf_mode_variation(j))
            results.append(row(f"j={j} cross_path_rel", abs(d2 - d2_gen) / max(abs(d2), 1e-300),
                               config["cross_tolerance"]))
        expected_sign = -1.0 if (j == 0 and p > n) else +1.0
        results.append(row(f"j={j} second_variation", d2, passed=d2 * expected_sign > 0))
        rows.append([j, d2])
    write_csv(out_dir / "secondvar.csv", ["j", "d2"], rows)
    return results


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
    out_dir, t0 = Path(args.out_dir), time.time()
    try:
        results = COMMANDS[args.command](config, out_dir, args.verbose)
    except LeafwiseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return COMPUTE_ERROR
    return report(out_dir, args.command, config, results, time.time() - t0, args.verbose)


if __name__ == "__main__":
    sys.exit(main())
