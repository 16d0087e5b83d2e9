"""The benchmark's ops: two timed closed-loop workloads (one client each)
and the CLI sweep, which only the traced run makes.

Each builds its fixed inputs in ``setup``.  ``draw`` makes the seeded inputs
of one operation (op) and ``op(inputs)`` runs it, so the traced run can time
an untraced and a traced op on the same inputs.  An op returns True when
every output matches its reference; a raised exception also counts as a
failed op.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracing import CLI_COMMANDS, instrument

BENCH_DIR = Path(__file__).resolve().parent

GRID_TOLERANCE = 1e-12      # quadrature on these grids is exact to rounding
# analytic vs Richardson-extrapolated numeric first variation, relative to
# max(1, |value|) as acceptance criterion 6 scales it: a variation near zero
# agrees to ~1e-10 absolutely, not relatively
VARIATION_TOLERANCE = 1e-8
COMMAND_TIMEOUT_S = 60.0


def rel_diff(a: float, b: float, floor: float = 0.0) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


class GridEnergy:
    """Energies on dense grids against closed forms (criteria 1 and 3).

    The grids are fixed; the seed does not change them."""

    name = "grid-energy"
    # nominal grid points of one op: sphere(n=4) 16^3*32 plus torus 512*512
    points_per_op = 16**3 * 32 + 512 * 512

    def __init__(self, root: Path, seed: int):
        self.seed = seed

    def setup(self):
        from leafwise import catalog, functionals as fl

        self.fl = fl
        self.sphere = catalog.sphere(n=4, m_polar=16, m_azimuth=32)
        big, small = 2.0, 0.8
        self.torus = catalog.torus_revolution(big_radius=big, small_radius=small,
                                              m_leaf=512, m_profile=512)
        self.sphere_ref = 8 * np.pi**2 / 3  # |S^4|
        self.torus_ref = (4 * np.pi**2 * (big**2 / np.sqrt(big**2 - small**2) - big)
                          / small)
        for patch in (self.sphere, self.torus):
            patch.grid.points  # noqa: B018  (materialise the cached grid)

    def draw(self):
        return None

    def op(self, inputs) -> bool:
        fl = self.fl
        w4 = fl.evaluate(fl.w_nps(4), self.sphere)
        w2 = fl.evaluate(fl.w_nps(2), self.torus)
        return (rel_diff(w4, self.sphere_ref) < GRID_TOLERANCE
                and rel_diff(w2, self.torus_ref) < GRID_TOLERANCE)


class FamilySweep:
    """Analytic vs finite-difference first variations over a surface family
    (criterion 6); every op builds a new surface, so sympy's cache never
    sees the same expression twice."""

    name = "family-sweep"
    points_per_op = 6**3

    def __init__(self, root: Path, seed: int):
        self.seed = seed

    def setup(self):
        from leafwise import catalog, functionals as fl
        from leafwise.variation import random_trig_variation

        self.catalog, self.fl = catalog, fl
        self.random_trig_variation = random_trig_variation
        self.rng = np.random.default_rng(self.seed)
        self.specs = (fl.w_conf(2), fl.w_nps(2))

    def draw(self):
        eps = self.rng.uniform(0.02, 0.07)
        return eps, self.random_trig_variation(3, self.rng, amplitude=0.5)

    def op(self, inputs) -> bool:
        eps, u = inputs
        patch = self.catalog.sheared_torus4(eps, m1=6, m2=6, m3=6)
        ok = True
        for spec in self.specs:
            analytic = self.fl.first_variation_analytic(spec, patch, u)
            numeric = self.fl.first_variation_numeric(spec, patch, u)
            ok &= rel_diff(analytic, numeric, floor=1.0) < VARIATION_TOLERANCE
        return ok


class CliSuite:
    """The six CLI commands at their default configs, each in a fresh
    interpreter (criteria 5, 7 and 9); the seed feeds varcheck's seed key.

    Not a timed workload: one op takes 11-15 s on a 2-vCPU x86-64 VM, so a
    run of the benchmark's length holds two or three ops and their median
    spreads by ~20% between runs.  The traced run makes at least one
    untraced and one traced sweep, so the CLI layers are still measured.
    """

    name = "cli-suite"

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed

    def setup(self):
        import leafwise.cli  # noqa: F401  (fail here, not in the first op)

        self.out = self.root / ".bench_out" / "cli"
        self.out.mkdir(parents=True, exist_ok=True)
        self.rng = np.random.default_rng(self.seed)
        src = str(self.root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def _command(self, command: str, config: Path | None, summary: Path,
                 traced: bool) -> list:
        if not traced:
            argv = [sys.executable, "-m", "leafwise.cli", command]
        else:
            argv = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(summary), command]
        if config is not None:
            argv += ["--config", str(config)]
        return argv + ["--out-dir", str(self.out / command)]

    def draw(self):
        return int(self.rng.integers(2**31))

    def op(self, inputs, tracer=None) -> bool:
        """One sweep; with a tracer, each command runs traced in its child."""
        config = self.out / "varcheck_config.json"
        config.write_text(json.dumps({"seed": inputs}))
        summary = self.out / "trace_summary.json"
        ok = True
        for command in CLI_COMMANDS:
            argv = self._command(command, config if command == "varcheck" else None,
                                 summary, tracer is not None)
            summary.unlink(missing_ok=True)
            t0 = time.perf_counter()
            done = subprocess.run(argv, cwd=self.root, env=self.env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=COMMAND_TIMEOUT_S, check=False)
            seconds = time.perf_counter() - t0
            if done.returncode != 0:
                print(f"{command} exited {done.returncode}: {done.stderr[-2000:]}",
                      file=sys.stderr)
                ok = False
            if tracer is not None:
                tracer.record(f"cli.{command}", seconds)
                child = json.loads(summary.read_text())
                tracer.record("cli.import", child["import_s"])
                tracer.merge(child["trace"])
        return ok


WORKLOADS = {cls.name: cls for cls in (GridEnergy, FamilySweep)}
TRACED = (GridEnergy, FamilySweep, CliSuite)


def traced_op(workload, inputs, tracer) -> bool:
    """Run one op with every probe installed."""
    if isinstance(workload, CliSuite):
        return workload.op(inputs, tracer)
    with instrument(tracer):
        return workload.op(inputs)
