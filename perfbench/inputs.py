"""Seeded workload inputs.

run.py draws every angle triple, qubit and free phase from ``--seed``
here; the program under test receives only these values.  Numbers are
rounded to 15 decimals so that the CLI sees exactly the values the
in-process workloads use (``--qubit -1e-05`` would not even parse).
"""

from __future__ import annotations

import math
import random

TWO_PI = 2.0 * math.pi
REF_ANGLES = [math.pi / 4, math.pi / 4, math.pi / 2]
SYM_QUBIT = [1 / math.sqrt(2), 0.0, 1 / math.sqrt(2), 0.0]

LONG_STEPS = 1000
VERIFY_STEPS = 200
CLI_SIM_STEPS = 64
CLI_VERIFY_STEPS = 50
CLI_LIMIT_STEPS = 100

ANGLE_BAND = 0.04

# Specs drawn per run; tasks cycle through them in order.
POOL = 60

LONG_KINDS = ("sample", "qdist", "walk")
LOCKSTEP_FAMILIES = ("A", "B")


def _r(x: float) -> float:
    return round(x, 15)


def fmt(x: float) -> str:
    """Fixed-point text that argparse accepts even for negative values."""
    return f"{x:.15f}"


def _angles(rng: random.Random) -> list[float]:
    # theta and phi stay within ANGLE_BAND of pi/4 (plus a random quarter
    # turn), so every tuple is generic (type V) while its support after n
    # steps -- hence the work in a task -- varies by about 1% between
    # seeds; at +-0.12 the work varied by 12% and the timings with it.
    # delta is a global phase and is drawn freely.
    theta = math.pi / 4 + rng.uniform(-ANGLE_BAND, ANGLE_BAND) + rng.randrange(4) * math.pi / 2
    phi = math.pi / 4 + rng.uniform(-ANGLE_BAND, ANGLE_BAND) + rng.randrange(4) * math.pi / 2
    delta = rng.uniform(0.0, TWO_PI)
    return [_r(theta % TWO_PI), _r(phi % TWO_PI), _r(delta)]


def _qubit(rng: random.Random) -> list[float]:
    """(re, im) of alpha and beta, normalized to well inside 1e-12."""
    chi = rng.uniform(0.1, math.pi / 2 - 0.1)
    pa = rng.uniform(0.0, TWO_PI)
    pb = rng.uniform(0.0, TWO_PI)
    ca, sb = math.cos(chi), math.sin(chi)
    return [_r(ca * math.cos(pa)), _r(ca * math.sin(pa)),
            _r(sb * math.cos(pb)), _r(sb * math.sin(pb))]


def _phase(rng: random.Random) -> float:
    return _r(rng.uniform(0.0, TWO_PI))


def long_run(seed: int) -> dict:
    """Rotation sample -> qdist -> walk, every task an evolution to n = 1000."""
    rng = random.Random(f"long-run/{seed}")
    tasks = []
    for i in range(POOL):
        kind = LONG_KINDS[i % len(LONG_KINDS)]
        if kind == "sample":
            tasks.append({"kind": kind, "angles": REF_ANGLES, "qubit": SYM_QUBIT})
        else:
            tasks.append({
                "kind": kind,
                "angles": _angles(rng),
                "qubit": _qubit(rng),
                "sign": rng.choice("+-"),
            })
    return {"workload": "long-run", "steps": LONG_STEPS, "cycle": len(LONG_KINDS),
            "tasks": tasks}


def lockstep_verify(seed: int) -> dict:
    """Alternating A/B lockstep checks plus the two algebraic identities."""
    rng = random.Random(f"lockstep-verify/{seed}")
    tasks = []
    for i in range(POOL):
        tasks.append({
            "family": LOCKSTEP_FAMILIES[i % len(LOCKSTEP_FAMILIES)],
            "angles": _angles(rng),
            "qubit": _qubit(rng),
            "theta1": _phase(rng),
            "theta2": _phase(rng),
            "two_step_family": rng.choice("AB"),
            "phi1": _phase(rng),
            "phi2": _phase(rng),
        })
    return {"workload": "lockstep-verify", "steps": VERIFY_STEPS,
            "cycle": len(LOCKSTEP_FAMILIES), "tasks": tasks}


def cli_cold(seed: int) -> dict:
    """The fixed command list, filled with seeded parameters.

    Each command is ``{"argv", "exit", "check", "steps"}``: the arguments
    after ``python -m qcawalk``, the expected exit code, which output check
    applies and the step count the check needs.
    """
    rng = random.Random(f"cli-cold/{seed}")

    def angle_flags() -> list[str]:
        theta, phi, delta = _angles(rng)
        return ["--theta", fmt(theta), "--phi", fmt(phi), "--delta", fmt(delta)]

    def qubit_flags() -> list[str]:
        return ["--qubit", *map(fmt, _qubit(rng))]

    sim_angles, sim_qubit, sim_sign = _angles(rng), _qubit(rng), rng.choice("+-")
    commands = [
        {"argv": ["classify", *angle_flags()], "check": "classify"},
        {"argv": ["verify", "--kind", "two-step", *angle_flags(),
                  "--theta1", fmt(_phase(rng)), "--theta2", fmt(_phase(rng)),
                  "--family", rng.choice("AB")], "check": "verify"},
        {"argv": ["verify", "--kind", "patel", "--phi1", fmt(_phase(rng)),
                  "--phi2", fmt(_phase(rng))], "check": "verify"},
        {"argv": ["factorize", "--kind", "patel", "--phi1", fmt(_phase(rng)),
                  "--phi2", fmt(_phase(rng))], "check": "factorize"},
        {"argv": ["simulate-qca", "--theta", fmt(sim_angles[0]),
                  "--phi", fmt(sim_angles[1]), "--delta", fmt(sim_angles[2]),
                  "--steps", str(CLI_SIM_STEPS), "--qubit", *map(fmt, sim_qubit),
                  "--sign", sim_sign],
         "check": "distribution", "steps": CLI_SIM_STEPS},
        {"argv": ["simulate-qw", "--family", "B", *angle_flags(),
                  "--steps", str(CLI_SIM_STEPS), *qubit_flags()],
         "check": "distribution", "steps": CLI_SIM_STEPS},
        {"argv": ["verify", "--kind", "A", *angle_flags(),
                  "--steps", str(CLI_VERIFY_STEPS), *qubit_flags()],
         "check": "verify"},
        {"argv": ["limit-compare", "--steps", str(CLI_LIMIT_STEPS)], "check": "limit"},
        # --theta without --phi/--delta: a usage error, exit 2, empty stdout.
        {"argv": ["classify", "--theta", fmt(_phase(rng))], "check": "usage", "exit": 2},
    ]
    for cmd in commands:
        cmd.setdefault("exit", 0)
        cmd.setdefault("steps", 0)
    oracle = {"angles": sim_angles, "qubit": sim_qubit, "sign": sim_sign,
              "steps": CLI_SIM_STEPS}
    return {"workload": "cli-cold", "cycle": len(commands), "commands": commands,
            "oracle": oracle}


GENERATORS = {
    "cli-cold": cli_cold,
    "long-run": long_run,
    "lockstep-verify": lockstep_verify,
}
