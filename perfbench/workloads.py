"""Benchmark workloads: seeded inputs and the correctness pins of each.

Seed 0 is the workload exactly as described in README.md; any other seed
draws the initial control guess (and, on lq-bounded, the initial state)
from a narrow range.  The ranges are narrow on purpose: over them the
iteration count does not change and J* and x(tf) move by at most 3e-7
relative, so the 1e-6 pins below hold for every seed while timings stay
comparable across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import yaml

__all__ = ["Workload", "WORKLOADS", "make_inputs", "riccati_value"]

#: relative tolerance of the J* and x(tf) regression pins
PIN_RTOL = 1e-6
#: relative tolerance of J* against the Riccati value (lq-bounded)
RICCATI_RTOL = 0.02
#: the gate `fracopt verify` applies to the recomputed Error
VERIFY_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str            # problem file, relative to the checkout root
    overrides: tuple        # passed to parse_problem like --override
    u_init: float           # seed-0 initial control guess
    u_init_range: tuple     # drawn for seeds other than 0
    x0: float = None        # seed-0 initial state (drawn workloads only)
    x0_range: tuple = None
    pin_j: float = 0.0      # seed-0 J*, divided by x0**2 where x0 is drawn
    pin_x: tuple = ()       # seed-0 x(tf), divided by x0 where x0 is drawn
    riccati: bool = False   # check J* against the classical Riccati value
    #: solve samples forked from one setup; None: one setup per run,
    #: then samples for the run's whole --seconds
    samples_per_setup: int | None = 1


WORKLOADS = {
    "paper-example": Workload(
        name="paper-example",
        problem="problems/example.yaml",
        overrides=(),
        u_init=5.0, u_init_range=(4.75, 5.25),
        pin_j=0.04758009520547114,
        pin_x=(0.04882608296204012, 0.09504102023602966),
        # set-up takes ~38 s, so a run has time for one set-up only
        samples_per_setup=None,
    ),
    "lq-bounded": Workload(
        name="lq-bounded",
        problem="perfbench/lq_bounded.yaml",
        overrides=(),
        u_init=0.0, u_init_range=(-0.05, 0.05),
        x0=1.0, x0_range=(0.9, 1.1),
        pin_j=0.4192161594109149,
        pin_x=(0.23661865577139146,),
        riccati=True,
        samples_per_setup=2,
    ),
}


def make_inputs(wl: Workload, seed: int, root: Path, workdir: Path) -> dict:
    """Write the seeded problem file into workdir and describe the run.

    Returns the arguments of one repetition: the problem path, the
    overrides, the artifact paths and the drawn values.
    """
    rng = random.Random(seed)
    u_init = wl.u_init if seed == 0 else rng.uniform(*wl.u_init_range)
    x0 = None
    if wl.x0_range is not None:
        x0 = wl.x0 if seed == 0 else rng.uniform(*wl.x0_range)
    doc = yaml.safe_load((root / wl.problem).read_text(encoding="utf-8"))
    doc["solver"]["u_init"] = u_init
    if x0 is not None:
        doc["plant"]["initial_state"] = [x0]
    stem = f"{wl.name}-seed{seed}"
    csv_path = workdir / f"{stem}.csv"
    report_path = workdir / f"{stem}.json"
    doc["output"] = {"csv": str(csv_path), "report": str(report_path)}
    problem_path = workdir / f"{stem}.yaml"
    problem_path.write_text(yaml.safe_dump(doc, sort_keys=False),
                            encoding="utf-8")
    return {"workload": wl.name, "problem": str(problem_path),
            "overrides": list(wl.overrides), "u_init": u_init,
            "x0": x0 if x0 is not None else 1.0}


def riccati_value(x0: float) -> float:
    """Optimal cost of x' = -x + u, J = 0.5 x(1)^2 + int x^2 + u^2 dt,
    from the Riccati equation (the classical limit of lq-bounded)."""
    from scipy.integrate import solve_ivp
    sol = solve_ivp(lambda t, s: -(-2.0 * s - s ** 2 + 1.0), [1.0, 0.0],
                    [0.5], rtol=1e-12, atol=1e-14)
    return float(sol.y[0, -1]) * x0 ** 2
