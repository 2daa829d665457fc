"""Command-line surface: classify, simulate, verify, factorize, limit-compare.

All numbers are printed in shortest round-trip form, output is byte-stable
for a fixed invocation, and the wall-clock diagnostic goes to stderr so
stdout stays deterministic.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time

import numpy as np

from .amplitudes import Distribution
from .asymptotics import kolmogorov_distance, rescaled_qca_sample
from .coined_walks import WalkState, generalized_blocks_from_qca, walk_distribution, walk_step
from .correspondence import (
    CorrespondenceReport,
    PatelParams,
    patel_coin,
    patel_factorize,
    two_step_factorize,
    verify_A_correspondence,
    verify_B_correspondence,
    verify_two_step,
)
from .qca_core import (
    RESIDUAL_TOLERANCE,
    AngleTriple,
    QcaParams,
    _reduced_phase,
    classify,
    params_from_angles,
    qca_distribution,
    unitarity_residuals,
)

# limit-compare's default: the point where the closed-form limit law holds
_REFERENCE_ANGLES = AngleTriple(math.pi / 4, math.pi / 4, math.pi / 2)
_SYMMETRIC_QUBIT = (0.7071067811865476, 0.7071067811865476)

# verify and factorize flags that only some --kind values read.  The parser
# leaves them None, so a flag given to a kind that ignores it is told apart
# from an unset one; the kinds that read them fall back to these values.
_PARAM_FLAGS = ("theta", "phi", "delta", "params")
_KIND_DEFAULTS = {
    "qubit": _SYMMETRIC_QUBIT,
    "steps": 50,
    "family": "A",
    "theta1": 0.0,
    "theta2": 0.0,
    "phi1": math.pi / 4,
    "phi2": math.pi / 4,
}

_PI_PATTERN = re.compile(
    r"^(?P<sign>[+-]?)(?P<coef>\d+(?:\.\d*)?|\.\d+)?\s*\*?\s*pi"
    r"(?:\s*/\s*(?P<den>\d+(?:\.\d*)?|\.\d+))?$"
)


class UsageError(Exception):
    """Invalid configuration; maps to exit status 2."""


def parse_angle(text: str) -> float:
    """Parse a decimal or a literal multiple of pi such as 'pi/4' or '3pi/2'."""
    s = text.strip().lower()
    if "pi" in s:
        m = _PI_PATTERN.match(s)
        if m is None:
            raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}")
        coef = float(m.group("coef")) if m.group("coef") else 1.0
        if m.group("sign") == "-":
            coef = -coef
        den = float(m.group("den")) if m.group("den") else 1.0
        if den == 0.0:
            raise argparse.ArgumentTypeError(f"zero denominator in angle {text!r}")
        return coef * math.pi / den
    try:
        return float(s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}") from exc


def _cnum(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _cmatrix(m: np.ndarray) -> dict:
    return {
        f"r{i}c{j}": _cnum(complex(m[i, j])) for i in range(2) for j in range(2)
    }


def _flatten(value, prefix: str, rows: list) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(sub, f"{prefix}.{key}" if prefix else key, rows)
    elif isinstance(value, bool):
        rows.append((prefix, "true" if value else "false"))
    elif isinstance(value, float):
        rows.append((prefix, repr(value)))
    else:
        rows.append((prefix, str(value)))


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    if "distribution" in report["result"]:
        lines = ["site,probability"]
        lines.extend(f"{site},{mass!r}" for site, mass in report["result"]["distribution"])
    else:
        rows: list = []
        _flatten(report, "", rows)
        lines = ["key,value"]
        lines.extend(f"{key},{val}" for key, val in rows)
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _resolve_params(
    args, default: AngleTriple | None = None
) -> tuple[QcaParams, AngleTriple | None]:
    angle_flags = [args.theta, args.phi, args.delta]
    has_angles = any(v is not None for v in angle_flags)
    has_raw = args.params is not None
    if has_angles and has_raw:
        raise UsageError("give either --theta/--phi/--delta or --params, not both")
    if has_raw:
        v = args.params
        params = QcaParams(
            complex(v[0], v[1]), complex(v[2], v[3]),
            complex(v[4], v[5]), complex(v[6], v[7]),
        )
        return params, None
    if has_angles:
        if not all(v is not None for v in angle_flags):
            raise UsageError("--theta, --phi and --delta must be given together")
        angles = AngleTriple(args.theta, args.phi, args.delta)
        return params_from_angles(angles), angles
    if default is not None:
        return params_from_angles(default), default
    raise UsageError("parameters required: --theta/--phi/--delta or --params")


def _angles_payload(angles: AngleTriple) -> dict:
    return {"theta": angles.theta, "phi": angles.phi, "delta": angles.delta}


def _params_payload(params: QcaParams, angles: AngleTriple | None) -> dict:
    payload = {
        "a": _cnum(params.a),
        "b": _cnum(params.b),
        "c": _cnum(params.c),
        "d": _cnum(params.d),
    }
    if angles is not None:
        payload["angles"] = _angles_payload(angles)
    return payload


def _resolve_run(
    args, default: AngleTriple | None = None
) -> tuple[QcaParams, tuple[complex, complex], dict]:
    """Tuple, qubit and their echoed payload of a command that evolves a start state."""
    params, angles = _resolve_params(args, default)
    values = args.qubit
    if len(values) == 2:
        qubit = complex(values[0]), complex(values[1])
    elif len(values) == 4:
        qubit = complex(values[0], values[1]), complex(values[2], values[3])
    else:
        raise UsageError("--qubit takes 2 real values or 4 re/im values")
    payload = {
        **_params_payload(params, angles),
        "qubit": {"alpha": _cnum(qubit[0]), "beta": _cnum(qubit[1])},
    }
    return params, qubit, payload


# A --kind runner computes its identity once: the report verify reads, the params
# payload, and the factors and residuals factorize prints (None for A and B).
_Run = tuple[CorrespondenceReport, dict, dict | None, dict | None]


def _run_pairing(args) -> _Run:
    params, qubit, payload = _resolve_run(args)
    check = verify_A_correspondence if args.kind == "A" else verify_B_correspondence
    return check(params, qubit, args.steps), {**payload, "steps": args.steps}, None, None


def _run_two_step(args) -> _Run:
    _, angles = _resolve_params(args)
    if angles is None:
        raise UsageError("two-step factorization needs --theta/--phi/--delta, not --params")
    payload = {
        "angles": _angles_payload(angles),
        "theta1": _reduced_phase("theta1", args.theta1),
        "theta2": _reduced_phase("theta2", args.theta2),
        "family": args.family,
    }
    factors = two_step_factorize(angles, args.theta1, args.theta2, args.family)
    report = verify_two_step(angles, args.theta1, args.theta2, args.family)
    result = {
        "P1": _cmatrix(factors.P1),
        "Q1": _cmatrix(factors.Q1),
        "P2": _cmatrix(factors.P2),
        "Q2": _cmatrix(factors.Q2),
        "U1": _cmatrix(factors.coin(1)),
        "U2": _cmatrix(factors.coin(2)),
    }
    return report, payload, result, {"max_product_error": report.max_amplitude_error}


def _run_patel(args) -> _Run:
    pp = PatelParams(args.phi1, args.phi2)
    extracted, report = patel_factorize(pp)
    result = {
        "U_even": _cmatrix(patel_coin(pp.phi1)),
        "U_odd": _cmatrix(patel_coin(pp.phi2)),
        "extracted": _params_payload(extracted, None),
    }
    # classify rejects some valid tuples near a class boundary; verify names no class
    if args.command == "factorize":
        result["type"] = classify(extracted).value
    payload = {"phi1": pp.phi1, "phi2": pp.phi2}
    return report, payload, result, {"max_error": report.max_amplitude_error}


# Each --kind of verify and factorize: its runner and the flags it reads.
_KINDS = {
    "A": (_run_pairing, (*_PARAM_FLAGS, "qubit", "steps")),
    "B": (_run_pairing, (*_PARAM_FLAGS, "qubit", "steps")),
    "two-step": (_run_two_step, (*_PARAM_FLAGS, "family", "theta1", "theta2")),
    "patel": (_run_patel, ("phi1", "phi2")),
}


def _kind_flags(args) -> None:
    """Reject a flag that ``--kind`` does not read; default the unset ones."""
    reads = _KINDS[args.kind][1]
    for dest in (*_PARAM_FLAGS, *_KIND_DEFAULTS):
        if not hasattr(args, dest):
            continue
        if getattr(args, dest) is None:
            setattr(args, dest, _KIND_DEFAULTS.get(dest))
        elif dest not in reads:
            raise UsageError(f"--{dest} is not read by --kind {args.kind}")


def _cmd_classify(args) -> tuple[int, dict, dict, dict]:
    params, angles = _resolve_params(args)
    names = ("norm", "cross", "shift2", "pair_ab", "pair_cd")
    residuals = dict(zip(names, unitarity_residuals(*params.astuple())))
    return 0, _params_payload(params, angles), {"type": classify(params).value}, residuals


def _distribution_report(payload: dict, dist: Distribution) -> tuple[int, dict, dict, dict]:
    return (
        0,
        payload,
        {"distribution": [[k, dist[k]] for k in sorted(dist.support())]},
        {"total_mass_error": abs(dist.total() - 1.0)},
    )


def _cmd_simulate_qca(args) -> tuple[int, dict, dict, dict]:
    params, qubit, payload = _resolve_run(args)
    dist = qca_distribution(0, args.sign, qubit, args.steps, params)
    return _distribution_report({**payload, "sign": args.sign, "steps": args.steps}, dist)


def _cmd_simulate_qw(args) -> tuple[int, dict, dict, dict]:
    params, qubit, payload = _resolve_run(args)
    if args.steps < 0:
        raise UsageError(f"--steps must be nonnegative, got {args.steps}")
    blocks = generalized_blocks_from_qca(params, args.family)
    state = WalkState.origin(qubit, blocks.order)
    for _ in range(args.steps):
        state = walk_step(state, blocks)
    dist = walk_distribution(state)
    return _distribution_report({**payload, "family": args.family, "steps": args.steps}, dist)


def _cmd_verify(args) -> tuple[int, dict, dict, dict]:
    _kind_flags(args)
    report, payload, factors, _ = _KINDS[args.kind][0](args)
    if args.kind == "patel":
        payload["extracted"] = factors["extracted"]
    passed = report.max_error() <= RESIDUAL_TOLERANCE
    result = {
        "identity": report.identity_name,
        "max_amplitude_error": report.max_amplitude_error,
        "max_probability_error": report.max_probability_error,
        "steps_checked": report.steps_checked,
        "pass": passed,
    }
    residuals = {"max_error": report.max_error()}
    return (0 if passed else 1), {"kind": args.kind, **payload}, result, residuals


def _cmd_factorize(args) -> tuple[int, dict, dict, dict]:
    _kind_flags(args)
    _, payload, result, residuals = _KINDS[args.kind][0](args)
    return 0, {"kind": args.kind, **payload}, result, residuals


def _cmd_limit_compare(args) -> tuple[int, dict, dict, dict]:
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0.0):
        raise UsageError(f"--tolerance must be finite and nonnegative, got {args.tolerance!r}")
    params, qubit, payload = _resolve_run(args, default=_REFERENCE_ANGLES)
    distance = kolmogorov_distance(rescaled_qca_sample(params, qubit, args.steps))
    passed = distance <= args.tolerance
    result = {
        "steps": args.steps,
        "kolmogorov_distance": distance,
        "tolerance": args.tolerance,
        "pass": passed,
    }
    payload = {**payload, "steps": args.steps, "tolerance": args.tolerance}
    return (0 if passed else 1), payload, result, {"kolmogorov_distance": distance}


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--theta", type=parse_angle, default=None,
        help="first angle; accepts pi literals like pi/4 (default: none)",
    )
    parser.add_argument(
        "--phi", type=parse_angle, default=None,
        help="second angle; accepts pi literals (default: none)",
    )
    parser.add_argument(
        "--delta", type=parse_angle, default=None,
        help="global phase angle; accepts pi literals (default: none)",
    )
    parser.add_argument(
        "--params", type=float, nargs=8, default=None,
        metavar=("A_RE", "A_IM", "B_RE", "B_IM", "C_RE", "C_IM", "D_RE", "D_IM"),
        help="raw coefficient tuple as re/im pairs; validated for unitarity",
    )


def _add_factor_flags(parser: argparse.ArgumentParser) -> None:
    # defaults are None here and filled in per kind from _KIND_DEFAULTS
    parser.add_argument(
        "--family", choices=("A", "B"), default=None,
        help="family for two-step factors (default: A)",
    )
    parser.add_argument("--theta1", type=parse_angle, default=None,
                        help="first free phase for two-step (default: 0)")
    parser.add_argument("--theta2", type=parse_angle, default=None,
                        help="second free phase for two-step (default: 0)")
    parser.add_argument("--phi1", type=parse_angle, default=None,
                        help="even half-step angle for patel (default: pi/4)")
    parser.add_argument("--phi2", type=parse_angle, default=None,
                        help="odd half-step angle for patel (default: pi/4)")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv",
        help="output format (default: csv)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the report to PATH instead of stdout (default: stdout)",
    )


def _add_qubit_flag(parser: argparse.ArgumentParser, default=(1.0, 0.0)) -> None:
    parser.add_argument(
        "--qubit", type=float, nargs="+", default=list(default),
        metavar="V",
        help="internal state: 2 real or 4 re/im values "
        f"(default: {' '.join(repr(v) for v in default)})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcawalk",
        description="Lattice automaton and coined-walk simulations "
        "with machine-checked equivalences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="validate a coefficient tuple and name its class")
    _add_param_flags(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("simulate-qca", help="evolve the paired-branch distribution")
    _add_param_flags(p)
    _add_qubit_flag(p)
    p.add_argument("--steps", type=int, default=1, help="step count (default: 1)")
    p.add_argument(
        "--sign", choices=("+", "-"), default="-",
        help="branch pairing direction (default: -)",
    )
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_simulate_qca)

    p = sub.add_parser("simulate-qw", help="evolve a generalized coined walk")
    _add_param_flags(p)
    _add_qubit_flag(p)
    p.add_argument("--steps", type=int, default=1, help="step count (default: 1)")
    p.add_argument(
        "--family", choices=("A", "B"), default="A",
        help="block family (default: A)",
    )
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_simulate_qw)

    p = sub.add_parser("verify", help="run an equivalence check; nonzero exit on failure")
    p.add_argument(
        "--kind", choices=("A", "B", "two-step", "patel"), default="A",
        help="which identity to verify (default: A)",
    )
    _add_param_flags(p)
    _add_qubit_flag(p, default=_SYMMETRIC_QUBIT)
    p.add_argument("--steps", type=int, default=None, help="steps to check (default: 50)")
    _add_factor_flags(p)
    _add_output_flags(p)
    # --qubit's help names the kind default; the parser itself leaves it None
    p.set_defaults(handler=_cmd_verify, qubit=None)

    p = sub.add_parser("factorize", help="print factor matrices")
    p.add_argument(
        "--kind", choices=("two-step", "patel"), default="two-step",
        help="which factorization (default: two-step)",
    )
    _add_param_flags(p)
    _add_factor_flags(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_factorize)

    p = sub.add_parser(
        "limit-compare",
        help="compare a rescaled run against the closed-form limit law",
    )
    _add_param_flags(p)
    _add_qubit_flag(p, default=_SYMMETRIC_QUBIT)
    p.add_argument("--steps", type=int, default=500, help="step count (default: 500)")
    p.add_argument(
        "--tolerance", type=float, default=0.08,
        help="maximum accepted sup-distance (default: 0.08)",
    )
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_limit_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    started = time.perf_counter()
    try:
        code, params, result, residuals = args.handler(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {
        "command": args.command,
        "params": params,
        "result": result,
        "residuals": residuals,
    }
    try:
        _emit(_render(report, args.format), args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    print(f"duration_ms={elapsed_ms:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
