"""Output checks.  Each returns a list of problems; an empty list passes.

Pure Python, so run.py can check CLI output without importing numpy.
Every comparison is written ``not value <= limit`` so that NaN fails.
"""

from __future__ import annotations

import math

MASS_TOL = 1e-12
IDENTITY_TOL = 1e-12
KS_GATE = 0.08


def light_cone(m: int, n: int) -> tuple[int, int]:
    """Sites reachable after ``n`` steps from the branch pair at m and m +/- 1."""
    return m - 2 * n - 2, m + 2 * n + 2


def mass_drift(masses) -> float:
    return abs(math.fsum(masses) - 1.0)


def distribution(pairs, n: int, m: int = 0) -> list[str]:
    """Masses sum to 1 within MASS_TOL and every site lies in the light cone."""
    pairs = list(pairs)
    problems = []
    lo, hi = light_cone(m, n)
    outside = [site for site, _ in pairs if not lo <= site <= hi]
    if outside:
        problems.append(f"{len(outside)} sites outside light cone [{lo}, {hi}], "
                        f"first {outside[0]}")
    drift = mass_drift(mass for _, mass in pairs)
    if not drift <= MASS_TOL:
        problems.append(f"mass drift {drift:.3e} > {MASS_TOL:g}")
    return problems


def rescaled(points, n: int, m: int = 0) -> list[str]:
    """A rescaled sample: positions x = site / n must sit on lattice sites."""
    pairs = []
    for x, mass in points:
        site = round(x * n)
        if not abs(x * n - site) <= 1e-6:
            return [f"sample point {x!r} is not a site / {n}"]
        pairs.append((site, mass))
    return distribution(pairs, n, m)


def identity(name: str, error: float) -> list[str]:
    if not error <= IDENTITY_TOL:
        return [f"{name} identity error {error!r} > {IDENTITY_TOL:g}"]
    return []


def kolmogorov(distance: float) -> list[str]:
    if not distance <= KS_GATE:
        return [f"Kolmogorov distance {distance!r} > {KS_GATE}"]
    return []


def _csv_fields(stdout: str) -> dict[str, str]:
    fields = {}
    for line in stdout.splitlines()[1:]:
        key, _, value = line.partition(",")
        fields[key] = value
    return fields


def _csv_float(fields: dict[str, str], key: str) -> float:
    try:
        return float(fields[key])
    except (KeyError, ValueError):
        return math.nan


def cli_output(command: dict, returncode: int, stdout: str) -> list[str]:
    """Exit code and content of one ``python -m qcawalk`` call."""
    if returncode != command["exit"]:
        return [f"exit code {returncode}, expected {command['exit']}"]
    check = command["check"]
    if check == "usage":
        return [f"usage error printed {len(stdout)} bytes to stdout"] if stdout else []
    if check == "distribution":
        pairs = cli_distribution(stdout)
        if pairs is None:
            return ["no site,probability table on stdout"]
        return distribution(pairs, command["steps"])
    fields = _csv_fields(stdout)
    if check == "classify":
        if not fields.get("result.type", "").startswith(("Type", "Trivial")):
            return ["no result.type"]
        return []
    if check == "verify":
        problems = identity(fields.get("result.identity", "?"),
                            _csv_float(fields, "residuals.max_error"))
        if fields.get("result.pass") != "true":
            problems.append("result.pass is not true")
        return problems
    if check == "factorize":
        return identity("factorization", _csv_float(fields, "residuals.max_error"))
    if check == "limit":
        return kolmogorov(_csv_float(fields, "result.kolmogorov_distance"))
    raise ValueError(f"unknown check {check!r}")


def cli_distribution(stdout: str) -> list[tuple[int, float]] | None:
    """(site, mass) rows of a CLI distribution; None if stdout is not one."""
    lines = stdout.splitlines()
    if not lines or lines[0] != "site,probability":
        return None
    try:
        return [(int(s), float(p)) for s, p in (ln.split(",") for ln in lines[1:])]
    except ValueError:
        return None


def cli_identity_error(stdout: str) -> float | None:
    """The reported identity error of a verify/factorize call, if any."""
    value = _csv_float(_csv_fields(stdout), "residuals.max_error")
    return None if math.isnan(value) else value


def repeat(first: str, again: str) -> list[str]:
    """A repeated command must print byte-identical stdout."""
    if first != again:
        return ["stdout differs from the first call of this command in the run"]
    return []
