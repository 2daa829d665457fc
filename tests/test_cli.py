"""Command-line behaviour: golden runs, formats, exit codes, determinism."""

import cmath
import gc
import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

CLI = [sys.executable, "-m", "qcawalk"]


def run_cli(*args):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=120
    )


def test_classify_patel_point():
    result = run_cli("classify", "--theta", "pi/4", "--phi", "pi/4", "--delta", "pi/2")
    assert result.returncode == 0
    rows = dict(
        line.split(",", 1) for line in result.stdout.strip().splitlines()[1:]
    )
    assert rows["result.type"] == "TypeV"
    for key in ("norm", "cross", "shift2", "pair_ab", "pair_cd"):
        assert float(rows[f"residuals.{key}"]) <= 1e-12
    assert abs(float(rows["params.a.im"]) - 0.5) <= 1e-12
    assert abs(float(rows["params.b.re"]) - 0.5) <= 1e-12
    assert abs(float(rows["params.d.re"]) + 0.5) <= 1e-12


def test_simulate_qca_one_step_csv():
    result = run_cli(
        "simulate-qca", "--theta", "pi/4", "--phi", "pi/4", "--delta", "pi/2",
        "--steps", "1", "--qubit", "1", "0", "--sign", "-",
    )
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "site,probability"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [-2, -1, 0, 1]
    for r in rows:
        assert abs(float(r[1]) - 0.25) <= 1e-12


def test_verify_patel_exit_zero():
    result = run_cli("verify", "--kind", "patel", "--phi1", "pi/4", "--phi2", "pi/4")
    assert result.returncode == 0
    assert "pass,true" in result.stdout


@pytest.mark.parametrize(
    "args",
    [
        ("classify", "--theta", "pi/4", "--phi", "pi/4", "--delta", "pi/2"),
        (
            "simulate-qca", "--theta", "pi/4", "--phi", "pi/4", "--delta", "pi/2",
            "--steps", "1", "--qubit", "1", "0", "--sign", "-",
        ),
        ("verify", "--kind", "patel", "--phi1", "pi/4", "--phi2", "pi/4"),
    ],
)
def test_golden_commands_are_byte_identical(args):
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode
    assert first.stdout == second.stdout
    assert first.stdout


def test_out_flag_writes_same_bytes(tmp_path):
    target = tmp_path / "dist.csv"
    args = (
        "simulate-qca", "--theta", "pi/4", "--phi", "pi/4", "--delta", "pi/2",
        "--steps", "2", "--out", str(target),
    )
    piped = run_cli(*args[:-2])
    written = run_cli(*args)
    assert written.returncode == 0
    assert target.read_text() == piped.stdout


def test_raw_params_accepted():
    result = run_cli(
        "classify", "--params",
        "0", "0.5", "0.5", "0", "0", "0.5", "-0.5", "0",
    )
    assert result.returncode == 0
    assert "result.type,TypeV" in result.stdout


def test_non_unitary_raw_params_exit_two():
    result = run_cli(
        "classify", "--params", "0.5", "0", "0.5", "0", "0.5", "0", "0.5", "0"
    )
    assert result.returncode == 2
    assert "error:" in result.stderr


def test_angles_and_params_together_exit_two():
    result = run_cli(
        "classify", "--theta", "pi/4", "--phi", "pi/4", "--delta", "pi/2",
        "--params", "0", "0.5", "0.5", "0", "0", "0.5", "-0.5", "0",
    )
    assert result.returncode == 2


def test_missing_parameters_exit_two():
    result = run_cli("classify")
    assert result.returncode == 2


def test_limit_compare_fails_tight_tolerance():
    result = run_cli(
        "limit-compare", "--steps", "20", "--tolerance", "0.001", "--format", "json"
    )
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["result"]["pass"] is False
    assert payload["result"]["kolmogorov_distance"] > 0.001


def test_limit_compare_default_reference_passes():
    result = run_cli("limit-compare", "--steps", "100", "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["result"]["pass"] is True
    assert payload["result"]["kolmogorov_distance"] <= 0.08


def test_simulate_qw_matches_qca_pairing():
    # family B walk distribution equals the paired-branch masses, summed per pair
    qca = run_cli(
        "simulate-qca", "--theta", "pi/4", "--phi", "pi/4", "--delta", "pi/2",
        "--steps", "4", "--qubit", "1", "0", "--sign", "+", "--format", "json",
    )
    qw = run_cli(
        "simulate-qw", "--theta", "pi/4", "--phi", "pi/4", "--delta", "pi/2",
        "--steps", "4", "--qubit", "1", "0", "--family", "B", "--format", "json",
    )
    assert qca.returncode == 0 and qw.returncode == 0
    qca_masses = dict()
    for site, mass in json.loads(qca.stdout)["result"]["distribution"]:
        qca_masses[site] = mass
    for site, mass in json.loads(qw.stdout)["result"]["distribution"]:
        paired = qca_masses.get(2 * site, 0.0) + qca_masses.get(2 * site + 1, 0.0)
        assert abs(mass - paired) <= 1e-12


def test_factorize_two_step_reports_unitary_coins():
    result = run_cli(
        "factorize", "--kind", "two-step",
        "--theta", "pi/4", "--phi", "pi/4", "--delta", "pi/2", "--format", "json",
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    u1 = payload["result"]["U1"]
    assert abs(u1["r0c0"]["im"] - 1 / math.sqrt(2)) <= 1e-12
    assert payload["residuals"]["max_error"] <= 1e-12


def test_help_lists_all_commands():
    result = run_cli("--help")
    assert result.returncode == 0
    for name in (
        "classify", "simulate-qca", "simulate-qw", "verify", "factorize",
        "limit-compare",
    ):
        assert name in result.stdout


@pytest.mark.parametrize(
    "command,line",
    [("verify", "result.pass,true"), ("factorize", "result.type,TypeV")],
    ids=["verify", "factorize"],
)
def test_verify_patel_passes_where_the_tuple_is_not_classified(capsys, command, line):
    # a ~ 3e-14 counts as zero and b, c, d do not; the extracted tuple is still
    # Type V, as its exact tuple is, and the identity holds
    code, out, err = run_inprocess(
        capsys, command, "--kind", "patel", "--phi1", "1.5707963", "--phi2", "1e-6"
    )
    assert code == 0, err
    assert line in out


def test_verify_spectral_certifies_the_jump(capsys):
    code, out, err = run_inprocess(
        capsys, "verify", "--kind", "spectral", "--theta", "1.1", "--phi", "0.4",
        "--delta", "2", "--qubit", "0.6", "0", "0", "0.8", "--steps", "300",
    )
    assert code == 0, err
    rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
    assert rows["result.identity"] == "spectral"
    assert rows["result.steps_checked"] == "300"
    assert rows["result.pass"] == "true"
    # the jump's budget against stepping: n * eps + PRUNE_TOLERANCE
    assert 0.0 < float(rows["residuals.max_error"]) <= 300 * sys.float_info.epsilon + 1e-15


def test_verify_spectral_fails_on_a_perturbed_power(capsys, monkeypatch):
    from qcawalk import amplitudes

    exact = amplitudes._fourier_power

    def perturbed(n, symbol):
        kernel = exact(n, symbol)
        return lambda *args: kernel(*args) * (1 + 1e-9)

    monkeypatch.setattr(amplitudes, "_fourier_power", perturbed)
    code, out, err = run_inprocess(capsys, "verify", "--kind", "spectral", *REFERENCE)
    assert code == 1, err
    assert "result.pass,false" in out.splitlines()


def test_verify_spectral_fails_on_a_phase_of_the_power(capsys, monkeypatch):
    from qcawalk import amplitudes

    exact = amplitudes._fourier_power

    def turned(n, symbol):
        kernel = exact(n, symbol)
        return lambda *args: kernel(*args) * cmath.exp(1e-9j)

    # masses do not change, so only the amplitude error can see the fault
    monkeypatch.setattr(amplitudes, "_fourier_power", turned)
    code, out, err = run_inprocess(
        capsys, "verify", "--kind", "spectral", *REFERENCE, "--format", "json"
    )
    assert code == 1, err
    result = json.loads(out)["result"]
    assert result["max_amplitude_error"] > 1e-12
    assert result["max_probability_error"] <= 1e-12


def verify_with_scaled_walk_step(capsys, monkeypatch, kind, factor):
    """``verify --kind kind``'s JSON result with every walk step's output times ``factor``."""
    from qcawalk import correspondence
    from qcawalk.coined_walks import WalkState

    exact = correspondence.walk_step

    def scaled(state, blocks):
        stepped = exact(state, blocks)
        pairs = {site: (u * factor, v * factor) for site, (u, v) in stepped.items()}
        return WalkState(pairs, stepped.order)

    # the lockstep resolves walk_step in its own module at call time
    monkeypatch.setattr(correspondence, "walk_step", scaled)
    code, out, err = run_inprocess(
        capsys, "verify", "--kind", kind, *REFERENCE, "--format", "json"
    )
    assert code == 1, err
    return json.loads(out)["result"]


@pytest.mark.parametrize("kind", ["A", "B"])
def test_verify_fails_on_a_global_phase_of_the_walk_step(capsys, monkeypatch, kind):
    # masses do not change, so only the amplitude error can see the fault
    result = verify_with_scaled_walk_step(capsys, monkeypatch, kind, cmath.exp(1e-9j))
    assert result["max_amplitude_error"] > 1e-12
    assert result["max_probability_error"] <= 1e-12


@pytest.mark.parametrize("kind", ["A", "B"])
def test_verify_reports_the_mass_error_of_a_scaled_walk_step(capsys, monkeypatch, kind):
    result = verify_with_scaled_walk_step(capsys, monkeypatch, kind, 1 + 1e-9)
    assert result["max_probability_error"] > 1e-12


@pytest.mark.parametrize("error, code, passed", [(0.5e-12, 0, "true"), (2e-12, 1, "false")])
def test_verify_gate_is_the_residual_tolerance(capsys, monkeypatch, error, code, passed):
    from qcawalk import algebra

    exact = algebra.patel_factorize

    def reported(p):
        params, report = exact(p)
        return params, algebra.CorrespondenceReport(error, 0.0, 0, report.identity_name)

    monkeypatch.setattr(algebra, "patel_factorize", reported)
    got, out, err = run_inprocess(capsys, "verify", "--kind", "patel")
    assert got == code, err
    assert f"result.pass,{passed}" in out.splitlines()


def test_verify_two_step_requires_angles():
    result = run_cli("verify", "--kind", "two-step")
    assert result.returncode == 2


def run_inprocess(capsys, *args):
    from qcawalk.cli import main

    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


REFERENCE = ("--theta", "pi/4", "--phi", "pi/4", "--delta", "pi/2")
# a valid raw tuple: b = 1, the identity step
RAW_IDENTITY = ("0", "0", "1", "0", "0", "0", "0", "0")


@pytest.mark.parametrize(
    "args",
    [
        ("simulate-qw", *REFERENCE, "--steps", "-5"),
        ("verify", "--kind", "two-step", *REFERENCE, "--theta1", "nan"),
        ("factorize", "--kind", "two-step", *REFERENCE, "--theta2", "inf"),
        ("limit-compare", "--steps", "20", "--tolerance", "nan"),
        ("limit-compare", "--steps", "20", "--tolerance", "inf"),
        ("limit-compare", "--steps", "20", "--tolerance", "-0.1"),
        ("verify", "--kind", "two-step", *REFERENCE, "--params", *RAW_IDENTITY),
        ("factorize", "--kind", "two-step", *REFERENCE, "--params", *RAW_IDENTITY),
        # finite but so large that |z|^2 overflows
        ("simulate-qca", "--theta", "1", "--phi", "1", "--delta", "1", "--qubit", "1e200", "0"),
        ("verify", "--kind", "A", "--theta", "1", "--phi", "1", "--delta", "1",
         "--qubit", "1e155", "0"),
        ("limit-compare", "--qubit", "0", "1e300"),
        ("classify", "--params", "1e200", "0", "0", "0", "0", "0", "0", "0"),
        # flags the chosen --kind never reads
        ("verify", "--kind", "patel", "--theta", "1", "--phi", "1", "--delta", "1"),
        ("factorize", "--kind", "patel", "--params", *RAW_IDENTITY),
        ("verify", "--kind", "A", *REFERENCE, "--family", "B", "--theta1", "3"),
        ("verify", "--kind", "two-step", *REFERENCE, "--steps", "5"),
        ("factorize", "--kind", "two-step", *REFERENCE, "--phi1", "pi/4"),
        # only Type V tuples jump, so only they have a spectral certificate
        ("verify", "--kind", "spectral", "--params", *RAW_IDENTITY),
        ("verify", "--kind", "spectral", "--theta", "0.4", "--phi", "0", "--delta", "1"),
        ("verify", "--kind", "spectral", *REFERENCE, "--steps", "-1"),
    ],
)
def test_invalid_inputs_exit_two(capsys, args):
    code, out, err = run_inprocess(capsys, *args)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "command",
    ["simulate-qca", "simulate-qw", "verify --kind A", "verify --kind B",
     "verify --kind spectral"],
)
def test_a_negative_step_count_is_one_usage_error(capsys, command):
    code, out, err = run_inprocess(capsys, *command.split(), *REFERENCE, "--steps", "-1")
    assert (code, out) == (2, "")
    assert err == "error: step count must be nonnegative, got -1\n"


# Each verify/factorize kind flag: a value to give it, and its echo in params when unset
# (the parameter flags have none: a kind that reads them needs them given).
KIND_FLAGS = {
    "theta": (("1",), None),
    "phi": (("1",), None),
    "delta": (("1",), None),
    "params": (RAW_IDENTITY, None),
    "qubit": (("1", "0"), {"alpha": {"re": 0.7071067811865476, "im": 0.0},
                           "beta": {"re": 0.7071067811865476, "im": 0.0}}),
    "steps": (("5",), 50),
    "family": (("B",), "A"),
    "theta1": (("0.3",), 0.0),
    "theta2": (("0.3",), 0.0),
    "phi1": (("0.3",), math.pi / 4),
    "phi2": (("0.3",), math.pi / 4),
}
EVOLUTION_READS = {"theta", "phi", "delta", "params", "qubit", "steps"}
TWO_STEP_READS = {"theta", "phi", "delta", "family", "theta1", "theta2"}
KIND_READS = {
    ("verify", "A"): EVOLUTION_READS,
    ("verify", "B"): EVOLUTION_READS,
    ("verify", "spectral"): EVOLUTION_READS,
    ("verify", "two-step"): TWO_STEP_READS,
    ("verify", "patel"): {"phi1", "phi2"},
    ("factorize", "two-step"): TWO_STEP_READS,
    ("factorize", "patel"): {"phi1", "phi2"},
}


@pytest.mark.parametrize(
    "command,kind,flag",
    [
        (command, kind, flag)
        for command, kind in KIND_READS
        for flag in KIND_FLAGS
    ],
)
def test_kind_reads_its_flags_and_rejects_the_rest(capsys, command, kind, flag):
    reads = KIND_READS[command, kind]
    # the parameters a kind needs, given by flags it reads
    base = (command, "--kind", kind, *(REFERENCE if "theta" in reads else ()))
    value, unset = KIND_FLAGS[flag]
    if flag not in reads:
        code, out, err = run_inprocess(capsys, *base, f"--{flag}", *value)
        assert (code, out) == (2, "")
        assert err == f"error: --{flag} is not read by --kind {kind}\n"
    elif unset is None:
        code, out, err = run_inprocess(capsys, command, "--kind", kind)
        assert (code, out) == (2, "")
        # the hint names only the flags the kind reads
        raw = " or --params" if "params" in reads else ""
        assert err == f"error: parameters required: --theta/--phi/--delta{raw}\n"
    else:
        code, out, err = run_inprocess(capsys, *base, "--format", "json")
        assert code == 0, err
        assert json.loads(out)["params"][flag] == unset


# Each flag's unset value as --help prints it: the command's own, or, for verify and
# factorize, the one of every kind that reads the flag.
SYMMETRIC = "0.7071067811865476 0.7071067811865476"
PARAMETER_HELP = dict.fromkeys(("theta", "phi", "delta", "params"), "none")
COMMAND_HELP = {
    "classify": PARAMETER_HELP,
    "simulate-qca": {**PARAMETER_HELP, "qubit": "1.0 0.0", "steps": "1", "sign": "-"},
    "simulate-qw": {**PARAMETER_HELP, "qubit": "1.0 0.0", "steps": "1", "family": "A"},
    # an unset tuple runs the reference point, and the help names it
    "limit-compare": {**PARAMETER_HELP, "theta": "pi/4", "phi": "pi/4", "delta": "pi/2",
                      "qubit": SYMMETRIC, "steps": "500", "tolerance": "0.08"},
}
KIND_HELP = {**PARAMETER_HELP, "qubit": SYMMETRIC, "steps": "50", "family": "A",
             "theta1": "0", "theta2": "0", "phi1": "pi/4", "phi2": "pi/4"}


def option_help(text):
    """Each option of a --help text, keyed by its flag, with its help words joined."""
    options = re.split(r"\n  (?=-)", text.split("\noptions:\n", 1)[1])
    return {flag.rstrip(","): " ".join(rest) for flag, *rest in map(str.split, options)}


@pytest.mark.parametrize("command", [*COMMAND_HELP, "verify", "factorize"])
def test_help_shows_each_flag_with_its_unset_value(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "1000")  # one line per option: no hyphen is a break
    code, out, err = run_inprocess(capsys, command, "--help")
    assert (code, err) == (0, "")
    if command in COMMAND_HELP:
        want = {flag: f"(default: {value})" for flag, value in COMMAND_HELP[command].items()}
    else:
        kinds = {kind: reads for (cmd, kind), reads in KIND_READS.items() if cmd == command}
        want = {"kind": f"(default: {next(iter(kinds))})"}
        for flag, value in KIND_HELP.items():
            readers = "/".join(kind for kind, reads in kinds.items() if flag in reads)
            if readers:
                want[flag] = f"(default: {value}; read by --kind {readers})"
    want.update(format="(default: csv)", out="(default: none)")
    shown = option_help(out)
    assert set(shown) == {"-h", *(f"--{flag}" for flag in want)}
    for flag, line in want.items():
        assert shown[f"--{flag}"].endswith(line), flag


@pytest.mark.parametrize(
    "args",
    [
        ("--kind", "two-step", *REFERENCE),
        ("--kind", "two-step", "--theta", "1", "--phi", "0.4", "--delta", "2",
         "--family", "B", "--theta1", "0.3", "--theta2", "-1.1"),
        ("--kind", "patel"),
        ("--kind", "patel", "--phi1", "0.3", "--phi2", "1.2"),
    ],
)
def test_factorize_residual_is_the_verify_max_error(capsys, args):
    code, out, err = run_inprocess(capsys, "factorize", *args, "--format", "json")
    assert code == 0, err
    factorized = json.loads(out)["residuals"]
    code, out, err = run_inprocess(capsys, "verify", *args, "--format", "json")
    assert code == 0, err
    assert factorized == json.loads(out)["residuals"]
    assert list(factorized) == ["max_error"]


@pytest.mark.parametrize(
    "spelled,args",
    [
        ("-5e-1", ("classify", "--params", "0", "0.5", "0.5", "0", "0", "0.5", "-5e-1", "0")),
        ("-1E-7", ("simulate-qca", "--theta", "-1E-7", "--phi", "1", "--delta", "1")),
        ("-9.999999999998329e-07", ("simulate-qca", "--theta", "1", "--phi", "1",
                                    "--delta", "-9.999999999998329e-07")),
        ("-8e-1", ("simulate-qca", *REFERENCE, "--qubit", "0.6", "-8e-1")),
    ],
    ids=["params", "theta", "delta", "qubit"],
)
def test_negative_exponent_literals_parse_as_numbers(capsys, spelled, args):
    plain = repr(float(spelled))
    code, out, err = run_inprocess(capsys, *args, "--format", "json")
    assert code == 0, err
    want_code, want, _ = run_inprocess(
        capsys, *(plain if a == spelled else a for a in args), "--format", "json"
    )
    assert (code, out) == (want_code, want)
    # an option after the literal still parses as an option
    assert json.loads(out)["command"] == args[0]


@pytest.mark.parametrize("angle", ["-pi/4", "-3pi/2", "-0.5*pi", "-PI"])
def test_negative_pi_literals_parse_as_angles(capsys, angle):
    # the options after the angle still parse as options
    rest = ("--phi", "1", "--delta", "1", "--format", "json")
    code, out, err = run_inprocess(capsys, "classify", "--theta", angle, *rest)
    assert code == 0, err
    assert (code, out) == run_inprocess(capsys, "classify", f"--theta={angle}", *rest)[:2]


@pytest.mark.parametrize("angle", ["pi/0", "0pi/0"])
def test_zero_denominator_angle_exits_two(capsys, angle):
    code, out, err = run_inprocess(
        capsys, "classify", "--theta", angle, "--phi", "0", "--delta", "0"
    )
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "zero denominator" in err


def test_out_to_unwritable_path_exits_two(capsys, tmp_path):
    target = tmp_path / "missing" / "report.csv"
    code, out, err = run_inprocess(capsys, "classify", *REFERENCE, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert not target.exists()


@pytest.mark.parametrize(
    "exc,line",
    [
        (MemoryError("Unable to allocate 14.9 GiB"), "error: Unable to allocate 14.9 GiB"),
        (MemoryError(), "error: MemoryError"),
    ],
    ids=["numpy", "bare"],
)
def test_out_of_memory_exits_two(capsys, monkeypatch, exc, line):
    from qcawalk import asymptotics

    def out_of_memory(*args):
        raise exc

    # the limit-compare handler resolves the sampler in its engine module at call time
    monkeypatch.setattr(asymptotics, "rescaled_qca_sample", out_of_memory)
    code, out, err = run_inprocess(capsys, "limit-compare", "--steps", "100000000")
    assert code == 2
    assert out == ""
    assert err.splitlines() == [line]


def test_import_and_limit_compare_load_no_scipy():
    # importing scipy would dominate the cold start of every CLI call
    probe = (
        "import sys, qcawalk, qcawalk.cli\n"
        "code = qcawalk.cli.main(['limit-compare', '--steps', '20', '--tolerance', '1'])\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print('scipy-modules:', loaded)\n"
        "sys.exit(code)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "scipy-modules: []"


ENGINES = ("algebra", "amplitudes", "asymptotics", "coined_walks", "correspondence", "qca_core")
TWO_STEP = ["--kind", "two-step", "--theta", "1", "--phi", "1", "--delta", "1", "--family"]


RUN_MODULE = "import runpy\nrunpy.run_module('qcawalk', run_name='__main__', alter_sys=True)\n"


@pytest.mark.parametrize(
    "run,argv,code",
    [
        (RUN_MODULE, ["classify", "--theta", "1", "--phi", "1", "--delta", "1"], 0),
        (RUN_MODULE, ["classify", "--theta", "1"], 2),
        ("import qcawalk\n", [], 0),
    ],
    ids=["classify", "usage-error", "import"],
)
def test_classify_usage_errors_and_import_load_no_numpy(run, argv, code):
    # sys.modules at the exit of a fresh interpreter, after `python -m qcawalk ...` or
    # a bare import; -X importtime prints no line for a module that
    # importlib.import_module loads
    probe = "import atexit, sys\natexit.register(lambda: print(*sorted(sys.modules)))\n" + run
    result = subprocess.run(
        [sys.executable, "-c", probe, *argv], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == code, result.stderr
    loaded = set(result.stdout.splitlines()[-1].split())
    assert "qcawalk" in loaded
    engines = {f"qcawalk.{name}" for name in ENGINES}
    heavy = sorted(m for m in loaded if m.split(".")[0] == "numpy" or m in engines)
    assert heavy == []


# the lattice engine and numpy; the walks also load the 2x2 algebra, which is the
# whole engine of the algebraic kinds
LATTICE = {"numpy", "amplitudes", "qca_core"}


@pytest.mark.parametrize(
    "argv,code,modules",
    [
        (["classify", *REFERENCE], 0, set()),
        (["classify", "--theta", "1"], 2, set()),
        (["simulate-qca", *REFERENCE, "--steps", "2"], 0, LATTICE),
        (["simulate-qw", *REFERENCE, "--steps", "2"], 0,
         {"numpy", "algebra", "amplitudes", "coined_walks"}),
        (["verify", *REFERENCE, "--steps", "2"], 0,
         {"numpy", *ENGINES} - {"asymptotics"}),
        (["factorize", "--kind", "patel"], 0, {"algebra"}),
        (["limit-compare", "--steps", "20", "--tolerance", "1"], 0, {*LATTICE, "asymptotics"}),
        (["verify", "--kind", "patel"], 0, {"algebra"}),
        (["verify", *TWO_STEP, "A"], 0, {"algebra"}),
        (["verify", *TWO_STEP, "B"], 0, {"algebra"}),
        (["factorize", *TWO_STEP, "A"], 0, {"algebra"}),
        (["factorize", *TWO_STEP, "B"], 0, {"algebra"}),
    ],
    ids=["classify", "usage-error", "simulate-qca", "simulate-qw", "verify", "factorize",
         "limit-compare", "verify-patel", "verify-two-step-A", "verify-two-step-B",
         "factorize-two-step-A", "factorize-two-step-B"],
)
def test_each_command_loads_only_its_engine(argv, code, modules):
    # sys.modules, not -X importtime: importtime prints no line for a module
    # that importlib.import_module loads; "numpy" stands for numpy itself
    probe = (
        "import sys, qcawalk.cli\n"
        "code = qcawalk.cli.main(sys.argv[1:])\n"
        "print(*sorted(m.removeprefix('qcawalk.') for m in sys.modules\n"
        "             if m.startswith('qcawalk.') or m == 'numpy'))\n"
        "sys.exit(code)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, *argv], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == code, result.stderr
    assert set(result.stdout.splitlines()[-1].split()) == {"cli", "params", *modules}


def at_exit(expression, argv):
    """Exit code and ``expression`` in an atexit hook of a fresh `python -m qcawalk ARGV`."""
    probe = f"import atexit, gc, sys\natexit.register(lambda: print({expression}))\n"
    result = subprocess.run(
        [sys.executable, "-c", probe + RUN_MODULE, *argv],
        capture_output=True, text=True, timeout=120,
    )
    return result.returncode, result.stdout.splitlines()[-1]


COLD_COMMANDS = {
    "classify": ["classify", *REFERENCE],
    "simulate-qca": ["simulate-qca", *REFERENCE, "--steps", "2"],
}


@pytest.mark.parametrize("argv", COLD_COMMANDS.values(), ids=COLD_COMMANDS)
def test_the_command_freezes_the_collector_before_exit(argv):
    # the exit-time collections then skip every object numpy's import and the command made
    assert at_exit("gc.get_freeze_count() > 0", argv) == (0, "True")


def test_main_freezes_nothing_and_run_freezes_after_it(capsys, monkeypatch):
    from qcawalk import cli

    before = gc.get_freeze_count()
    assert cli.main(["simulate-qca", *REFERENCE, "--steps", "2"]) == 0
    assert gc.get_freeze_count() == before
    calls = []
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 2)
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    assert cli.run() == 2
    assert calls == ["main", "freeze"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", COLD_COMMANDS.values(), ids=COLD_COMMANDS)
def test_only_a_json_report_loads_json(argv, fmt):
    assert at_exit("'json' in sys.modules", [*argv, "--format", fmt]) == (0, str(fmt == "json"))


def readme_commands():
    """Every ``qcawalk ...`` line of README's sh blocks, continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["qcawalk"]:
                commands.append(words[1:])
    return commands


def test_readme_has_cli_examples():
    assert len(readme_commands()) >= 9


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_examples_exit_zero(capsys, argv):
    code, out, err = run_inprocess(capsys, *argv)
    assert code == 0, err
    assert out


def test_readme_library_example_runs():
    """The README's python block, run as written in a fresh interpreter."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    result = subprocess.run(
        [sys.executable, "-c", block], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    kind, error, ks = result.stdout.splitlines()
    assert kind == "TypeV"
    assert float(error) < 1e-12
    assert float(ks) < 0.08


def dotted_rows(value, prefix=""):
    """The ``key,value`` rows of a JSON report: dotted keys, floats by repr."""
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from dotted_rows(sub, f"{prefix}.{key}" if prefix else key)
    elif isinstance(value, bool):
        yield prefix, "true" if value else "false"
    elif isinstance(value, float):
        yield prefix, repr(value)
    else:
        yield prefix, str(value)


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_csv_and_json_contain_identical_numbers(capsys, argv):
    _, csv_out, _ = run_inprocess(capsys, *argv)
    _, json_out, _ = run_inprocess(capsys, *argv, "--format", "json")
    report = json.loads(json_out)
    assert list(report) == ["command", "params", "result", "residuals"]
    assert report["command"] == argv[0]
    header, *lines = csv_out.splitlines()
    rows = [tuple(line.split(",", 1)) for line in lines]
    if "distribution" in report["result"]:
        assert header == "site,probability"
        dist = report["result"]["distribution"]
        assert rows == [(str(site), repr(mass)) for site, mass in dist]
    else:
        assert header == "key,value"
        assert rows == list(dotted_rows(report))
