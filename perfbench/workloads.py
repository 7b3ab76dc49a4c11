"""Seeded operation lists for the three benchmark workloads.

An operation is one `ncho` command line (run in-process through
`ncho.cli.main` or as a fresh `python -m ncho.cli` process) or one of the
two `scripts/`. The seed picks time windows, scenario order and evaluation
times; the number and kind of operations, and the rows each must print, do
not depend on it. Nothing here imports the package under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SCENARIOS = (
    "mild_ib", "mild_ii_k2", "mild_iii", "set_ia",
    "set_ib", "set_ic", "set_ii_k2", "set_iii",
)
# Scenarios whose closed-form phase is valid at the shipped parameters; at the
# figure parameters every SetIa phase row falls back to adaptive quadrature.
CLOSED_PHASE = tuple(s for s in SCENARIOS if s != "set_ia")
MATELEM_FAMILIES = ("set_ia", "set_ii_k2", "set_iii")  # exponential, rational, linear
WAVEFIELD_SCENARIOS = ("mild_iii", "set_ib")
STATES = ((0, 0), (1, 0), (1, 2))

# Reality horizons of the shipped scenarios (None: the closed forms stay real).
HORIZON = {
    "mild_ib": None, "mild_ii_k2": 1.0, "mild_iii": 1.8284271247461903,
    "set_ia": 16.11809565095832, "set_ib": None, "set_ic": None,
    "set_ii_k2": 6323.555320336759, "set_iii": 2.1622776601683795,
}
# End of the energy-figure window, as scripts/energy_curves.py chooses it.
FIGURE_END = {k: 2.0 if h is None else min(1.5 * h, 40.0) for k, h in HORIZON.items()}
# End of the phase-scan window, as scripts/phase_scan.py chooses it, so every
# phase time lies inside the reality window.
PHASE_END = {k: 2.0 if h is None else min(0.9 * h, 2.0) for k, h in HORIZON.items()}

# Grid sizes per workload size. "full" is what the benchmark measures;
# "tiny" keeps every operation kind but runs in seconds, for the self-tests.
SIZES = {
    "full": {"grid_points": 3000, "wave_points": 128, "quad_points": 1000, "sweep": None},
    "tiny": {"grid_points": 5, "wave_points": 3, "quad_points": 4, "sweep": 4},
}

ENERGY_HEADER = "t,Gamma_t,E_re_scaled,E_im_scaled,in_window"
NCPARAMS_HEADER = "t,theta_nc,omega_nc,theta_real,omega_real"
PHASE_HEADER = "t,theta_re,theta_im,method"
MATELEM_HEADER = "t,closed_re,closed_im,oracle_re,oracle_im,abs_err"
WAVEFIELD_HEADER = "r,angle,psi_abs_sq"

ENERGY_SCRIPT = "scripts/energy_curves.py"
PHASE_SCRIPT = "scripts/phase_scan.py"


@dataclass(frozen=True)
class Op:
    """One operation and what its output must look like.

    `argv` is the `ncho` argument list, or, when `script` is set, the
    arguments after the script path (the output directory is appended when
    the operation runs). `header` is the expected CSV header (None for
    non-CSV output) and `rows` the expected number of CSV data rows.
    """

    argv: tuple[str, ...]
    header: str | None = None
    rows: int = 0
    script: str | None = None

    @property
    def command(self) -> str:
        return self.script or self.argv[0]

    @property
    def key(self) -> str:
        return " ".join((self.script,) + self.argv if self.script else self.argv)


def _num(x: float) -> str:
    return f"{x:.9g}"


def _scenario(name: str) -> tuple[str, str]:
    return ("--scenario", f"scenarios/{name}.scenario")


def _window(rng: random.Random, end: float) -> tuple[str, ...]:
    """A window close to [0, end]: start within the first 2%, end within the last 5%."""
    t0 = end * 0.02 * rng.random()
    t1 = end * (0.95 + 0.05 * rng.random())
    return ("--t0", _num(t0), "--t1", _num(t1))


def _shuffled(rng: random.Random, items) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def grid_ops(seed: int, size: str = "full") -> list[Op]:
    """Dense figure-style time grids, all on closed forms."""
    rng = random.Random(f"grid-{seed}")
    cfg = SIZES[size]
    pts = cfg["grid_points"]
    ops = []
    for name in _shuffled(rng, SCENARIOS):
        for n, m in STATES:
            argv = ("energy", *_scenario(name), "--n", str(n), "--m", str(m),
                    *_window(rng, FIGURE_END[name]), "--points", str(pts))
            ops.append(Op(argv, ENERGY_HEADER, pts))
        argv = ("ncparams", *_scenario(name), *_window(rng, FIGURE_END[name]), "--points", str(pts))
        ops.append(Op(argv, NCPARAMS_HEADER, pts))
    for name in _shuffled(rng, CLOSED_PHASE):
        argv = ("phase", *_scenario(name), "--m", "1",
                *_window(rng, PHASE_END[name]), "--points", str(pts))
        ops.append(Op(argv, PHASE_HEADER, pts))
    wpts = cfg["wave_points"]
    for name in WAVEFIELD_SCENARIOS:
        t0 = PHASE_END[name] * (0.2 + 0.6 * rng.random())
        argv = ("wavefield", *_scenario(name), "--n", "1", "--m", "2",
                "--t0", _num(t0), "--points", str(wpts))
        ops.append(Op(argv, WAVEFIELD_HEADER, wpts * wpts))
    return ops


def _matelem_labels():
    for k in (1, 2, 3):
        for coord in ("x", "y"):
            for n in range(3):
                for m in range(3):
                    for mp in (m, m + 1, m + 2):
                        yield n, m, mp, k, coord


def crosscheck_ops(seed: int, size: str = "full") -> list[Op]:
    """The oracle side: verify, SetIa quadrature phases and a matrix-element label sweep."""
    rng = random.Random(f"crosscheck-{seed}")
    cfg = SIZES[size]
    ops = [Op(("verify", *_scenario(name))) for name in _shuffled(rng, SCENARIOS)]
    qpts = cfg["quad_points"]
    argv = ("phase", *_scenario("set_ia"), "--m", "1",
            *_window(rng, PHASE_END["set_ia"]), "--points", str(qpts))
    ops.append(Op(argv, PHASE_HEADER, qpts))
    labels = list(_matelem_labels())[: cfg["sweep"]]
    for name in _shuffled(rng, MATELEM_FAMILIES):
        # One seeded window per family, shared by every label, so each
        # (scenario, t) is reused across the whole sweep.
        end = PHASE_END[name]
        window = ("--t0", _num(end * (0.05 + 0.25 * rng.random())),
                  "--t1", _num(end * (0.6 + 0.3 * rng.random())))
        for n, m, mp, k, coord in labels:
            argv = ("matelem", *_scenario(name), "--n", str(n), "--m", str(m),
                    "--mprime", str(mp), "--k", str(k), "--coord", coord,
                    *window, "--points", "3")
            ops.append(Op(argv, MATELEM_HEADER, 3))
    return ops


def cold_ops(seed: int, size: str = "full") -> list[Op]:
    """Short interactive CLI calls and the two figure scripts, one process each.

    These calls are already small, so `size` does not change them.
    """
    rng = random.Random(f"cold-{seed}")
    order = _shuffled(rng, SCENARIOS)
    n, m = rng.choice(STATES)
    ops = [
        Op(("--help",)),
        Op(("verify", *_scenario(order[0]))),
        Op(("verify", *_scenario(order[1]))),
        Op(("energy", *_scenario(order[2]), "--n", str(n), "--m", str(m),
            *_window(rng, FIGURE_END[order[2]]), "--points", "50"), ENERGY_HEADER, 50),
        Op(("ncparams", *_scenario(order[3]), *_window(rng, FIGURE_END[order[3]])),
           NCPARAMS_HEADER, 100),
    ]
    end = PHASE_END[order[4]]
    ops.append(Op(("matelem", *_scenario(order[4]), "--n", "1", "--m", "0", "--mprime", "2",
                   "--t0", _num(end * (0.05 + 0.25 * rng.random())),
                   "--t1", _num(end * (0.6 + 0.3 * rng.random())), "--points", "3"),
                  MATELEM_HEADER, 3))
    ops.append(Op(("wavefield", *_scenario(order[5]), "--n", "1", "--m", "2",
                   "--t0", _num(PHASE_END[order[5]] * (0.2 + 0.6 * rng.random())),
                   "--points", "16"), WAVEFIELD_HEADER, 256))
    ops.append(Op((), script=ENERGY_SCRIPT))
    ops.append(Op((), script=PHASE_SCRIPT))
    return ops


WORKLOADS = {"grid": grid_ops, "crosscheck": crosscheck_ops, "cold": cold_ops}


def make_ops(workload: str, seed: int, size: str = "full") -> list[Op]:
    return WORKLOADS[workload](seed, size)
