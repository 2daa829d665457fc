"""Command-line surface: classify, simulate, verify, factorize, limit-compare.

All numbers are printed in shortest round-trip form, output is byte-stable
for a fixed invocation, and the wall-clock diagnostic goes to stderr so
stdout stays deterministic.

Each command is one ``_COMMANDS`` row and each ``--kind`` one ``_KINDS`` row;
a row names the flags it reads and their unset values, and ``_FLAGS`` gives
each flag's argparse keywords and help.  The parser, its help defaults and
the fill step in ``main`` all read these tables.  Only the coefficient layer
is imported here; ``main`` loads the engine that the command's row, or its
``--kind``'s row, names before the clock and hands it to the handler, so
``classify`` and the algebraic kinds (``two-step``, ``patel``) load no numpy.
``run`` is the command's entry, for ``python -m qcawalk`` and the installed
script alike.
"""

from __future__ import annotations

import argparse
import gc
import math
import re
import sys
import time
from dataclasses import asdict
from importlib import import_module
from typing import TYPE_CHECKING

from .params import (
    RESIDUAL_TOLERANCE,
    AngleTriple,
    QcaParams,
    _reduced_phase,
    classify,
    params_from_angles,
)

if TYPE_CHECKING:
    from types import ModuleType

    from .amplitudes import Distribution
    from .algebra import CorrespondenceReport

    # A --kind runner computes its identity once: the report, the params payload,
    # and the factors factorize prints (None for the kinds that evolve a state).
    _Run = tuple[CorrespondenceReport, dict, dict | None]

_SYMMETRIC_QUBIT = (0.7071067811865476, 0.7071067811865476)

_DECIMAL = r"(?:\d+(?:\.\d*)?|\.\d+)"
_PI_BODY = rf"(?P<coef>{_DECIMAL})?\s*\*?\s*pi(?:\s*/\s*(?P<den>{_DECIMAL}))?"
_PI_PATTERN = re.compile(rf"^(?P<sign>[+-]?){_PI_BODY}$")

# argparse reads an argument that starts with '-' as an option unless it
# matches this; its own pattern has no exponent and no pi, so '-5e-1' and
# '-pi/4' would be options.
_NEGATIVE_NUMBER = re.compile(rf"^-(?:{_DECIMAL}(?:e[-+]?\d+)?|{_PI_BODY})$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads '-5e-1', '-1E-7' and '-pi/4' as values, not options.

    It replaces argparse's private ``_negative_number_matcher`` attribute,
    which is not a stable API; the tests of negative literals in
    ``test_cli.py`` catch an argparse that stops reading it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


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


def _cmatrix(m) -> dict:
    """The entries of a 2x2 block, two rows of numbers, keyed by row and column."""
    return {f"r{i}c{j}": _cnum(complex(m[i][j])) for i in range(2) for j in range(2)}


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
        import json

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
    """The tuple and its angles; ``args`` holds ``params`` only where it is read."""
    angle_flags = [args.theta, args.phi, args.delta]
    has_angles = any(v is not None for v in angle_flags)
    v = getattr(args, "params", None)
    if has_angles and v is not None:
        raise ValueError("give either --theta/--phi/--delta or --params, not both")
    if v is not None:
        return QcaParams(*(complex(re, im) for re, im in zip(v[::2], v[1::2]))), None
    if has_angles:
        if not all(v is not None for v in angle_flags):
            raise ValueError("--theta, --phi and --delta must be given together")
        angles = AngleTriple(args.theta, args.phi, args.delta)
        return params_from_angles(angles), angles
    if default is not None:
        return params_from_angles(default), default
    raw = " or --params" if hasattr(args, "params") else ""
    raise ValueError(f"parameters required: --theta/--phi/--delta{raw}")


def _params_payload(params: QcaParams, angles: AngleTriple | None) -> dict:
    payload = {name: _cnum(z) for name, z in zip("abcd", params.astuple())}
    if angles is not None:
        payload["angles"] = asdict(angles)
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
        raise ValueError("--qubit takes 2 real values or 4 re/im values")
    payload = {
        **_params_payload(params, angles),
        "qubit": {"alpha": _cnum(qubit[0]), "beta": _cnum(qubit[1])},
    }
    return params, qubit, payload


def _run_evolution(args, engine: ModuleType) -> _Run:
    """A --kind that evolves one start state two ways and compares the results."""
    checks = {
        "A": engine.verify_A_correspondence,
        "B": engine.verify_B_correspondence,
        "spectral": engine.verify_spectral,
    }
    params, qubit, payload = _resolve_run(args)
    report = checks[args.kind](params, qubit, args.steps)
    return report, {**payload, "steps": args.steps}, None


def _run_two_step(args, engine: ModuleType) -> _Run:
    _, angles = _resolve_params(args)
    payload = {
        "angles": asdict(angles),
        "theta1": _reduced_phase("theta1", args.theta1),
        "theta2": _reduced_phase("theta2", args.theta2),
        "family": args.family,
    }
    halves, report = engine._two_step(angles, args.theta1, args.theta2, args.family)
    # each half step's move blocks, P1 Q1 P2 Q2, then its coin P + Q, U1 U2
    halves = tuple(zip("12", halves))
    result = {f"{m}{n}": _cmatrix(block) for n, half in halves for m, block in zip("PQ", half)}
    result.update((f"U{n}", _cmatrix(engine._add(*half))) for n, half in halves)
    return report, payload, result


def _run_patel(args, engine: ModuleType) -> _Run:
    pp = engine.PatelParams(args.phi1, args.phi2)
    extracted, report = engine.patel_factorize(pp)
    result = {
        "U_even": _cmatrix(engine.patel_coin(pp.phi1)),
        "U_odd": _cmatrix(engine.patel_coin(pp.phi2)),
        "extracted": _params_payload(extracted, None),
        "type": classify(extracted).value,
    }
    payload = {"phi1": pp.phi1, "phi2": pp.phi2}
    return report, payload, result


def _cmd_classify(args, engine: ModuleType) -> tuple[int, dict, dict, dict]:
    params, angles = _resolve_params(args)
    names = ("norm", "cross", "shift2", "pair_ab", "pair_cd")
    residuals = dict(zip(names, engine.unitarity_residuals(*params.astuple())))
    return 0, _params_payload(params, angles), {"type": engine.classify(params).value}, residuals


def _distribution_report(payload: dict, dist: Distribution) -> tuple[int, dict, dict, dict]:
    return (
        0,
        payload,
        {"distribution": dist.items()},
        {"total_mass_error": abs(dist.total() - 1.0)},
    )


def _cmd_simulate_qca(args, engine: ModuleType) -> tuple[int, dict, dict, dict]:
    params, qubit, payload = _resolve_run(args)
    dist = engine.qca_distribution(0, args.sign, qubit, args.steps, params)
    return _distribution_report({**payload, "sign": args.sign, "steps": args.steps}, dist)


def _cmd_simulate_qw(args, engine: ModuleType) -> tuple[int, dict, dict, dict]:
    params, qubit, payload = _resolve_run(args)
    blocks = engine.generalized_blocks_from_qca(params, args.family)
    state = engine.evolve_walk(engine.WalkState.origin(qubit, blocks.order), blocks, args.steps)
    dist = engine.walk_distribution(state)
    return _distribution_report({**payload, "family": args.family, "steps": args.steps}, dist)


def _cmd_verify(args, engine: ModuleType) -> tuple[int, dict, dict, dict]:
    report, payload, factors = _KINDS[args.kind][0](args, engine)
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


def _cmd_factorize(args, engine: ModuleType) -> tuple[int, dict, dict, dict]:
    report, payload, result = _KINDS[args.kind][0](args, engine)
    return 0, {"kind": args.kind, **payload}, result, {"max_error": report.max_error()}


def _cmd_limit_compare(args, engine: ModuleType) -> tuple[int, dict, dict, dict]:
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0.0):
        raise ValueError(f"--tolerance must be finite and nonnegative, got {args.tolerance!r}")
    reference = AngleTriple(*map(parse_angle, _REFERENCE.values()))
    params, qubit, payload = _resolve_run(args, default=reference)
    distance = engine.kolmogorov_distance(engine.rescaled_qca_sample(params, qubit, args.steps))
    passed = distance <= args.tolerance
    result = {
        "steps": args.steps,
        "kolmogorov_distance": distance,
        "tolerance": args.tolerance,
        "pass": passed,
    }
    payload = {**payload, "steps": args.steps, "tolerance": args.tolerance}
    return (0 if passed else 1), payload, result, {"kolmogorov_distance": distance}


# Every flag a command or a --kind can read, in parser order: its argparse keywords
# and help.  Each parses to None; main fills an unset one from the row that reads it,
# so a given flag is told apart from an unset one.
_FLAGS = {
    "theta": {"type": parse_angle, "help": "first angle; accepts pi literals like pi/4"},
    "phi": {"type": parse_angle, "help": "second angle; accepts pi literals"},
    "delta": {"type": parse_angle, "help": "global phase angle; accepts pi literals"},
    "params": {
        "type": float, "nargs": 8,
        "metavar": ("A_RE", "A_IM", "B_RE", "B_IM", "C_RE", "C_IM", "D_RE", "D_IM"),
        "help": "raw coefficient tuple as re/im pairs; validated for unitarity",
    },
    "qubit": {"type": float, "nargs": "+", "metavar": "V",
              "help": "internal state: 2 real or 4 re/im values"},
    "steps": {"type": int, "help": "step count"},
    "sign": {"choices": ("+", "-"), "help": "branch pairing direction"},
    "family": {"choices": ("A", "B"), "help": "block family"},
    "theta1": {"type": parse_angle, "help": "first free phase for two-step"},
    "theta2": {"type": parse_angle, "help": "second free phase for two-step"},
    "phi1": {"type": parse_angle, "help": "even half-step angle for patel"},
    "phi2": {"type": parse_angle, "help": "odd half-step angle for patel"},
    "tolerance": {"type": float, "help": "maximum accepted sup-distance"},
    "format": {"choices": ("csv", "json"), "help": "output format"},
    "out": {"metavar": "PATH", "help": "write the report to PATH instead of stdout"},
}


class _HelpOnly(str):
    """A row's unset value that --help shows but ``_fill`` leaves unset: the handler fills it."""


# The rows: each flag a command or a --kind reads, with its value when unset.  A text
# value is parsed by the flag's type, as argparse parses a text default.
_OUTPUT = {"format": "csv", "out": None}
_ANGLES = dict.fromkeys(("theta", "phi", "delta"))
_PARAMS = {**_ANGLES, "params": None}
_SIMULATE = {**_PARAMS, "qubit": (1.0, 0.0), "steps": 1}
# limit-compare's unset tuple: the point where the closed-form limit law holds
_REFERENCE = {"theta": _HelpOnly("pi/4"), "phi": _HelpOnly("pi/4"), "delta": _HelpOnly("pi/2")}
# Each --kind: its runner, its engine module (loaded by main before the clock) and its row.
_EVOLUTION = (
    _run_evolution, "correspondence", {**_PARAMS, "qubit": _SYMMETRIC_QUBIT, "steps": 50}
)
_KINDS = {
    "A": _EVOLUTION,
    "B": _EVOLUTION,
    "spectral": _EVOLUTION,
    "two-step": (_run_two_step, "algebra",
                 {**_ANGLES, "family": "A", "theta1": "0", "theta2": "0"}),
    "patel": (_run_patel, "algebra", {"phi1": "pi/4", "phi2": "pi/4"}),
}

# Each command: its help, its engine module (loaded by main before the clock; None
# where each --kind names its own), its handler, and its row, or its --kind choices
# (the first is the default).
_COMMANDS = {
    "classify": ("validate a coefficient tuple and name its class", "params", _cmd_classify,
                 _PARAMS),
    "simulate-qca": ("evolve the paired-branch distribution", "qca_core", _cmd_simulate_qca,
                     {**_SIMULATE, "sign": "-"}),
    "simulate-qw": ("evolve a generalized coined walk", "coined_walks", _cmd_simulate_qw,
                    {**_SIMULATE, "family": "A"}),
    "verify": ("run an equivalence check; nonzero exit on failure", None, _cmd_verify,
               tuple(_KINDS)),
    "factorize": ("print factor matrices", None, _cmd_factorize, ("two-step", "patel")),
    "limit-compare": ("compare a rescaled run against the closed-form limit law",
                      "asymptotics", _cmd_limit_compare,
                      {**_PARAMS, **_REFERENCE, "qubit": _SYMMETRIC_QUBIT, "steps": 500,
                       "tolerance": 0.08}),
}


def _help(dest: str, rows: dict) -> str:
    """``dest``'s help with its unset value; ``rows`` maps each --kind (None: any) to its row.

    A command's flag that none of its kinds reads is parsed, to be rejected, but not listed.
    """
    kinds = [kind for kind, row in rows.items() if dest in row]
    if not kinds:
        return argparse.SUPPRESS
    value = rows[kinds[0]][dest]
    shown = " ".join(map(str, value)) if isinstance(value, tuple) else value
    read_by = "" if kinds == [None] else f"; read by --kind {'/'.join(kinds)}"
    return f"{_FLAGS[dest]['help']} (default: {'none' if value is None else shown}{read_by})"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qcawalk",
        description="Lattice automaton and coined-walk simulations "
        "with machine-checked equivalences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    kind_flags = {*_OUTPUT, *(dest for _, _, row in _KINDS.values() for dest in row)}
    for name, (text, _, _, reads) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if isinstance(reads, dict):
            rows = {None: {**_OUTPUT, **reads}}
            parsed = rows[None]
        else:
            p.add_argument(
                "--kind", choices=reads, default=reads[0],
                help=f"which identity to compute (default: {reads[0]})",
            )
            rows = {None: _OUTPUT, **{kind: _KINDS[kind][2] for kind in reads}}
            parsed = kind_flags
        for dest, flag in _FLAGS.items():
            if dest in parsed:
                p.add_argument(f"--{dest}", **{**flag, "help": _help(dest, rows)})
    return parser


def _fill(args, reads: dict) -> None:
    """Set each unset flag that ``reads`` names to its value there; drop the others.

    A given flag that ``reads`` does not name is an error, reported for the first in
    parser order.
    """
    for dest, flag in _FLAGS.items():
        value = getattr(args, dest, None)
        if dest not in reads:
            if value is not None:
                raise ValueError(f"--{dest} is not read by --kind {args.kind}")
            vars(args).pop(dest, None)
        elif value is None and not isinstance(reads[dest], _HelpOnly):
            value = reads[dest]
            if isinstance(value, str) and "type" in flag:
                value = flag["type"](value)
            setattr(args, dest, value)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    _, module, handler, reads = _COMMANDS[args.command]
    if "kind" in args:
        _, module, reads = _KINDS[args.kind]
    # the row is the only name of its engine: it loads here, before the clock
    # starts, so duration_ms times the command only
    engine = import_module(f"{__package__}.{module}")
    started = time.perf_counter()
    try:
        _fill(args, {**_OUTPUT, **reads})
        code, params, result, residuals = handler(args, engine)
    except (ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
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


def run() -> int:
    """The ``qcawalk`` command: ``main`` on ``sys.argv``, then its exit code.

    At exit the interpreter collects every generation, a pass over each
    object that numpy's import and the command made; ``gc.freeze`` moves
    them to the permanent generation, which no collection walks.  Only the
    process entry may freeze: ``main`` also runs inside long-lived hosts, a
    test runner for one, whose objects would all become permanent.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
