"""Seeded faults that the tests must catch: each mutant is one text edit of ``src/qcawalk``.

    python bench/mutants.py

Run from the repository root.  The script copies ``src/``, ``tests/``,
``pyproject.toml`` and ``README.md`` (which the CLI tests read) into a
temporary directory.  For each mutant it writes the edited module there
and runs pytest on only the tests its entry names; the mutant is killed
when they fail.  Before that, all the named tests run once on the
unedited copy and must pass, so a test that fails anyway kills nothing.
An entry whose old text does not occur exactly once in its module fails
the run, so the list cannot go stale unseen.  An equivalent mutant
carries the reason no test can kill it, and the script only checks that
its edit still applies.  Exit status 0 means every other mutant was killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file name under src/qcawalk
    old: str
    new: str
    tests: tuple[str, ...] = ()  # pytest node ids, under tests/, that must fail
    equivalent: str = ""  # why no test can kill it


MUTANTS = [
    # the certificates
    Mutant("lockstep ignores the amplitude error", "correspondence.py",
           "amp_err = max(amp_err, step_amp)", "amp_err = max(amp_err, 0.0)",
           tests=("test_cli.py::test_verify_fails_on_a_global_phase_of_the_walk_step",)),
    Mutant("lockstep ignores the mass error", "correspondence.py",
           "prob_err = max(prob_err, step_prob)", "prob_err = max(prob_err, 0.0)",
           tests=("test_cli.py::test_verify_reports_the_mass_error_of_a_scaled_walk_step",)),
    Mutant("verify_spectral compares the jump with itself", "correspondence.py",
           "_mismatch(_evolve(start, n, params), stepped)",
           "_mismatch(_evolve(start, n, params), _evolve(start, n, params))",
           tests=("test_cli.py::test_verify_spectral_certifies_the_jump",
                  "test_cli.py::test_verify_spectral_fails_on_a_phase_of_the_power")),
    Mutant("verify_spectral reports masses only", "correspondence.py",
           'CorrespondenceReport(amp_err, prob_err, n, "spectral")',
           'CorrespondenceReport(0.0, prob_err, n, "spectral")',
           tests=("test_cli.py::test_verify_spectral_fails_on_a_phase_of_the_power",)),
    Mutant("_mismatch ignores masses", "amplitudes.py",
           "prob_err = float(np.abs(_sq_modulus(want) - _sq_modulus(got)).max(initial=0.0))",
           "prob_err = 0.0",
           tests=("test_correspondence.py::test_pairing_check_measures_each_mismatch",
                  "test_cli.py::test_verify_reports_the_mass_error_of_a_scaled_walk_step")),
    Mutant("two-step check ignores P2 P1", "algebra.py",
           "[p, _ZERO, t, _ZERO, q]", "[composed[0], _ZERO, t, _ZERO, q]",
           tests=("test_correspondence.py::test_two_step_check_sees_a_fault_in_each_product",)),
    Mutant("two-step check ignores T", "algebra.py",
           "[p, _ZERO, t, _ZERO, q]", "[p, _ZERO, composed[2], _ZERO, q]",
           tests=("test_correspondence.py::test_two_step_check_sees_a_fault_in_each_product",)),
    Mutant("two-step check ignores Q2 Q1", "algebra.py",
           "[p, _ZERO, t, _ZERO, q]", "[p, _ZERO, t, _ZERO, composed[4]]",
           tests=("test_correspondence.py::test_two_step_check_sees_a_fault_in_each_product",)),
    Mutant("two-step T drops P2 Q1", "algebra.py",
           "[p1, _ZERO, q1])\n",
           "[p1, _ZERO, q1])\n    composed[2] = _symbol_product([q2], [p1])[0]\n",
           tests=("test_correspondence.py::test_two_step_products_random",
                  "test_acceptance.py::test_criterion_07_two_step_factorization")),
    Mutant("two-step T drops Q2 P1", "algebra.py",
           "[p1, _ZERO, q1])\n",
           "[p1, _ZERO, q1])\n    composed[2] = _symbol_product([p2], [q1])[0]\n",
           tests=("test_correspondence.py::test_two_step_products_random",
                  "test_acceptance.py::test_criterion_07_two_step_factorization")),
    Mutant("half steps leave the family's frame", "correspondence.py",
           "q, row.p_side, row.order)", "q, 1, row.order)",
           tests=("test_correspondence.py::test_one_generalized_step_equals_two_half_steps",)),
    Mutant("patel_factorize ignores its symbol link", "algebra.py",
           "err = max(err_coins, err_symbol)", "err = err_coins",
           tests=("test_correspondence.py::test_patel_factorize_sees_a_fault_in_each_link",)),
    Mutant("patel_factorize ignores its coin identity", "algebra.py",
           "err = max(err_coins, err_symbol)", "err = err_symbol",
           tests=("test_correspondence.py::test_patel_factorize_sees_a_fault_in_each_link",)),
    Mutant("patel_factorize composes even then odd", "algebra.py",
           '_even_tuple(p.phi1), "B"), _generalized_blocks(_odd_tuple(p.phi2)',
           '_odd_tuple(p.phi2), "B"), _generalized_blocks(_even_tuple(p.phi1)',
           tests=("test_correspondence.py::test_patel_grid_small",)),
    Mutant("unitarity_residual ignores the P^H Q term", "params.py",
           "_symbol_gap(gram, [_ZERO, _ZERO, _IDENTITY, _ZERO, _ZERO])",
           "_symbol_gap(gram[1:4], [_ZERO, _IDENTITY, _ZERO])",
           tests=(
               "test_coined_walks.py::test_coin_blocks_reject_a_nonzero_cross_move_term_alone",
           )),
    Mutant("the Laurent product keeps only the first term of each coefficient", "params.py",
           "else _add(out[i + j], term)", "else out[i + j]",
           tests=("test_properties.py::test_unitarity_residual_is_the_hand_expanded_residual",
                  "test_correspondence.py::test_two_step_products_random",
                  "test_correspondence.py::test_patel_grid_small")),
    Mutant("CLI pass gate at 1e-10", "cli.py",
           "passed = report.max_error() <= RESIDUAL_TOLERANCE",
           "passed = report.max_error() <= 1e-10",
           tests=("test_cli.py::test_verify_gate_is_the_residual_tolerance",)),
    Mutant("verify never exits 1", "cli.py",
           "return (0 if passed else 1), {", "return 0, {",
           tests=("test_cli.py::test_verify_gate_is_the_residual_tolerance",
                  "test_cli.py::test_verify_fails_on_a_global_phase_of_the_walk_step")),
    # the command entry and the imports it pays for
    Mutant("the algebraic engine imports numpy", "algebra.py",
           "import math\n", "import math\n\nimport numpy\n",
           tests=("test_cli.py::test_each_command_loads_only_its_engine[verify-patel]",
                  "test_cli.py::test_each_command_loads_only_its_engine[factorize-two-step-B]")),
    Mutant("params imports dataclasses", "params.py",
           "from collections import namedtuple\n",
           "from collections import namedtuple\nfrom dataclasses import dataclass\n",
           tests=("test_cli.py::test_each_command_loads_only_its_engine[classify]",
                  "test_cli.py::test_each_command_loads_only_its_engine[verify-patel]")),
    Mutant("a module lookup on the package imports every module", "__init__.py",
           'if name in _MODULES or name == "cli":', "if False:",
           tests=("test_exports.py::test_a_module_name_lookup_imports_that_module_alone",)),
    Mutant("the command entry skips gc.freeze", "cli.py",
           "    gc.freeze()\n", "    pass\n",
           tests=("test_cli.py::test_the_command_freezes_the_collector_before_exit",
                  "test_cli.py::test_main_freezes_nothing_and_run_freezes_after_it")),
    Mutant("cli.py imports json at module level", "cli.py",
           "import argparse\nimport gc\n", "import argparse\nimport gc\nimport json\n",
           tests=("test_cli.py::test_only_a_json_report_loads_json",)),
    # the records: every way of building one runs its check
    Mutant("QcaParams._make skips the check", "params.py",
           "    base._make = classmethod(lambda cls, values: cls(*values))\n", "",
           tests=("test_qca_core.py::test_every_build_of_params_runs_the_unitarity_check[make]",
                  "test_qca_core.py::test_every_build_of_params_runs_the_unitarity_check[replace]",
                  "test_qca_core.py::test_every_build_of_angles_reduces_them")),
    Mutant("a protocol 0 or 1 pickle skips the check", "params.py",
           "    base.__reduce__ = lambda self: (type(self), tuple(self))\n", "",
           tests=(
               "test_qca_core.py::test_every_build_of_params_runs_the_unitarity_check[pickle-0]",
           )),
    # the walk families
    Mutant("A offset moved by one site", "params.py",
           "_Family(False, -1, R_UPPER, -1)", "_Family(False, -1, R_UPPER, 0)",
           tests=("test_correspondence.py::test_pairings_hold_for_random_draws",
                  "test_properties.py::test_walk_pairings_hold")),
    Mutant("B blocks swap a and c", "params.py",
           'if family == "A" else (a, c)', 'if family == "A" else (c, a)',
           tests=("test_correspondence.py::test_pairings_hold_for_random_draws",
                  "test_correspondence.py::test_type_iv_reduces_to_plain_b_walk")),
    Mutant("walk_step's order check dropped", "coined_walks.py",
           "if state.order != blocks.order:", "if False:",
           tests=("test_coined_walks.py::test_step_rejects_order_mismatch",)),
    # the engines and the limit law
    Mutant("jump drops its global phase", "amplitudes.py",
           "phase = _I_POWERS[n * k % 4] * cmath.exp(1j * n * half_arg)", "phase = 1.0",
           tests=("test_jump.py::test_one_jump_step_is_one_b_walk_step",
                  "test_jump.py::test_kernel_agrees_with_the_normalized_full_ring_reference")),
    Mutant("PRUNE_TOLERANCE 1e-13", "amplitudes.py",
           "PRUNE_TOLERANCE = 1e-15", "PRUNE_TOLERANCE = 1e-13",
           tests=("test_jump.py::test_jump_agrees_with_stepping_within_the_budget",)),
    Mutant("classify zero test at 1e-9", "params.py",
           "if r >= RESIDUAL_TOLERANCE}", "if r >= 1e-9}",
           tests=("test_qca_core.py::test_classify_examples",
                  "test_properties.py::test_classify_names_every_tuple_near_a_class_boundary")),
    Mutant("KS checks one side of each step", "asymptotics.py",
           "float(max(np.abs(before - ref).max(), np.abs(after - ref).max()))",
           "float(np.abs(after - ref).max())",
           tests=("test_asymptotics.py::test_distance_equals_the_loop_over_points",)),
    Mutant("symmetry_defect integer test at 1e-3", "asymptotics.py",
           "abs(two_c - k) >= 1e-9", "abs(two_c - k) >= 1e-3",
           tests=("test_asymptotics.py::test_defect_equals_the_loop_over_sites",)),
    Mutant("limit_density times 1 + 1e-9", "asymptotics.py",
           "return 4.0 / (math.pi", "return (1 + 1e-9) * 4.0 / (math.pi",
           tests=("test_asymptotics.py::test_density_at_zero",
                  "test_acceptance.py::test_criterion_11_density_self_consistency")),
    # the jump of every step that its symbol allows
    Mutant("the symbol drops its e^{-ip} coefficient", "amplitudes.py",
           "if z_down:", "if False:",
           tests=("test_properties.py::test_evolve_walk_jumps_within_the_error_budget",)),
    Mutant("the evenness check is skipped", "amplitudes.py",
           "if flat != flat[::-1]:", "if False:",
           tests=("test_properties.py::test_evolve_walk_is_n_walk_steps",
                  "test_properties.py::test_a_symbol_jumps_exactly_when_it_is_generic_and_even")),
    Mutant("a start of any width jumps", "amplitudes.py",
           "if width <= (2 if self._lead else 4) * n and not", "if not",
           tests=("test_jump.py::test_a_start_wider_than_2n_cells_steps",)),
    Mutant("evolutions never jump", "amplitudes.py",
           "if width <= (2 if self._lead else 4) * n and not _jump_refusal(symbol):", "if False:",
           tests=("test_jump.py::test_type_v_evolutions_take_the_jump",)),
    Mutant("the lattice jump reads family A's blocks", "qca_core.py",
           '_generalized_blocks(params, "B"), _banded',
           '_generalized_blocks(params, "A"), _banded',
           tests=("test_jump.py::test_jump_agrees_with_stepping_within_the_budget",)),
    Mutant("two nonzero coefficients are generic enough", "amplitudes.py",
           "if generic < 3:", "if generic < 2:",
           tests=("test_properties.py::test_a_symbol_jumps_exactly_when_it_is_generic_and_even",)),
    # the n-step driver and its step rule
    Mutant("the n-step driver runs one step short", "amplitudes.py",
           "for _ in range(n):", "for _ in range(n - 1):",
           tests=("test_properties.py::test_evolve_walk_is_n_walk_steps",
                  "test_properties.py::test_stepped_evolution_is_n_lattice_steps")),
    Mutant("the step rule lets a negative count through", "amplitudes.py",
           "if n < least:", "if n < least - 1:",
           tests=("test_amplitudes.py::test_every_step_count_goes_through_one_rule",
                  "test_cli.py::test_a_negative_step_count_is_one_usage_error")),
    # the cut of every step
    Mutant("the cut skips its finite check", "amplitudes.py",
           "if mag.size and not math.isfinite(np.maximum.reduce(mag, None)):", "if False:",
           tests=("test_amplitudes.py::test_a_step_whose_output_overflows_raises",
                  "test_amplitudes.py::test_non_finite_amplitude_rejected")),
    Mutant("the pair site mask reads one component", "amplitudes.py",
           "else dust[0] & dust[1]", "else dust[0]",
           tests=("test_coined_walks.py::test_walk_state_prunes_each_component",
                  "test_coined_walks.py::test_walk_step_matches_dense_oracle")),
    # equivalent
    Mutant("B offset moved by two sites", "params.py",
           "_Family(True, 1, L_UPPER, 0)", "_Family(True, 1, L_UPPER, 2)",
           equivalent="a one-cell shift of the whole B picture: the lockstep places its "
           "lattice start through the same offset and both steps commute with the shift"),
]


def _pytest(tree: Path, tests) -> int:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               *(f"tests/{test}" for test in tests)]
    return subprocess.run(command, cwd=tree, env=env, capture_output=True).returncode


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory(prefix="qcawalk-mutants-") as tmp:
        tree = Path(tmp)
        shutil.copytree(ROOT / "src", tree / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", tree / "tests",
                        ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, tree)
        named = sorted({test for m in MUTANTS for test in m.tests})
        if named and _pytest(tree, named) != 0:
            print("the named tests fail on the unedited tree", file=sys.stderr)
            return 1
        for m in MUTANTS:
            path = tree / "src" / "qcawalk" / m.module
            source = path.read_text()
            if source.count(m.old) != 1:
                print(f"stale    {m.name}: old text found {source.count(m.old)} times")
                failed += 1
                continue
            if m.equivalent:
                print(f"equiv    {m.name}: {m.equivalent}")
                continue
            path.write_text(source.replace(m.old, m.new))
            # pytest exits 1 when a test fails; 2-5 mean it could not run them
            code = _pytest(tree, m.tests)
            path.write_text(source)
            killed = code == 1
            failed += not killed
            print(f"{'killed' if killed else 'SURVIVED':8} {m.name} (pytest exit {code})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
