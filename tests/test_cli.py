"""Command-line behaviour: golden runs, formats, exit codes, determinism."""

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
    assert payload["residuals"]["max_product_error"] <= 1e-12


def test_help_lists_all_commands():
    result = run_cli("--help")
    assert result.returncode == 0
    for name in (
        "classify", "simulate-qca", "simulate-qw", "verify", "factorize",
        "limit-compare",
    ):
        assert name in result.stdout


def test_verify_patel_passes_where_the_tuple_is_not_classified(capsys):
    # a ~ 3e-14 counts as zero and b, c, d do not, so classify rejects the
    # extracted tuple; the identity still holds and verify must pass
    code, out, err = run_inprocess(
        capsys, "verify", "--kind", "patel", "--phi1", "1.5707963", "--phi2", "1e-6"
    )
    assert code == 0, err
    assert "result.pass,true" in out


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
    ],
)
def test_invalid_inputs_exit_two(capsys, args):
    code, out, err = run_inprocess(capsys, *args)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


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
