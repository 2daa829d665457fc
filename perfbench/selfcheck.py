"""Show that every output check counts a corrupted output as a failure.

    python3 perfbench/selfcheck.py

Run from the repository root.  For each check it takes a real output of
the package (at small step counts), confirms the check passes it, corrupts
it and confirms the task now counts as failed, through the same
``worker.attempt`` path the timed run uses.  Exits 1 if any check misses.
"""

from __future__ import annotations

import os
import sys
import types

sys.path.insert(1, os.path.join(os.getcwd(), "src"))

import qcawalk as q  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
from worker import Task, attempt, lockstep_task, long_run_task  # noqa: E402

N = 40


def counted_failed(output, check) -> bool:
    return bool(attempt(Task(lambda: output, check))[1])


def main() -> int:
    long_spec = inputs.long_run(1)["tasks"]
    lock_spec = inputs.lockstep_verify(1)["tasks"][0]
    cli = inputs.cli_cold(1)
    cases = []   # (check, corrupted output counted as failed)
    clean = []   # (check, real output passes)

    sample_task, qdist_task, walk_task = (long_run_task(q, s, N) for s in long_spec[:3])
    sample, distance = sample_task.run()
    dist, walk = qdist_task.run(), walk_task.run()
    clean.append(("rescaled sample", not counted_failed((sample, distance), sample_task.check)))
    clean.append(("distribution", not counted_failed(dist, qdist_task.check)))
    clean.append(("walk distribution", not counted_failed(walk, walk_task.check)))

    masses = dict(dist.items())
    site = next(iter(masses))
    cases.append(("mass within 1e-12 (distribution)", counted_failed(
        q.Distribution({**masses, site: masses[site] + 1e-10}), qdist_task.check)))
    cases.append(("mass within 1e-12 (walk)", counted_failed(
        q.Distribution({**dict(walk.items()), 0: walk[0] + 1e-10}), walk_task.check)))
    cases.append(("support inside the light cone", counted_failed(
        q.Distribution({**masses, 2 * N + 3: 1e-20}), qdist_task.check)))
    shifted = types.SimpleNamespace(points=tuple((x + 1.0, m) for x, m in sample.points))
    cases.append(("support inside the light cone (rescaled sample)",
                  counted_failed((shifted, distance), sample_task.check)))
    cases.append(("KS <= 0.08 at the reference point",
                  counted_failed((sample, 0.0801), sample_task.check)))

    lock = lockstep_task(q, lock_spec, N)
    reports = lock.run()
    clean.append(("correspondence reports", not counted_failed(reports, lock.check)))
    for i, report in enumerate(reports):
        bad = q.CorrespondenceReport(1.1e-12, 0.0, report.steps_checked, report.identity_name)
        corrupted = tuple(bad if j == i else r for j, r in enumerate(reports))
        cases.append((f"report <= 1e-12 ({report.identity_name})",
                      counted_failed(corrupted, lock.check)))

    def raises():
        raise ValueError("injected")
    cases.append(("a task that raises", bool(attempt(Task(raises, lock.check))[1])))

    commands = {c["check"]: c for c in cli["commands"]}
    cases.append(("CLI exit code", bool(checks.cli_output(commands["verify"], 1, ""))))
    cases.append(("CLI usage error exit code",
                  bool(checks.cli_output(commands["usage"], 0, ""))))
    verify_out = "key,value\nresult.identity,A-type\nresult.pass,true\nresiduals.max_error,0.0\n"
    clean.append(("CLI verify", not checks.cli_output(commands["verify"], 0, verify_out)))
    cases.append(("CLI verify error above 1e-12", bool(checks.cli_output(
        commands["verify"], 0, verify_out.replace("max_error,0.0", "max_error,2e-12")))))
    cases.append(("CLI limit-compare KS", bool(checks.cli_output(
        commands["limit"], 0, "key,value\nresult.kolmogorov_distance,0.09\n"))))
    dist_cmd = commands["distribution"]
    dist_out = "site,probability\n0,0.5\n1,0.5\n"
    clean.append(("CLI distribution", not checks.cli_output(dist_cmd, 0, dist_out)))
    cases.append(("CLI distribution mass", bool(checks.cli_output(
        dist_cmd, 0, dist_out.replace("1,0.5", "1,0.5000001")))))
    cases.append(("CLI byte-identical repeat", bool(checks.repeat(dist_out, dist_out + " "))))

    o = cli["oracle"]
    small = {**o, "steps": 8}
    good = [[k, v] for k, v in oracle.dense_distribution(
        o["angles"], o["qubit"], o["sign"], 8).items()]
    clean.append(("dense oracle vs CLI", not oracle.cli_problems(good, **small)))
    bad = [[k, v + 1e-11 if i == 0 else v] for i, (k, v) in enumerate(good)]
    cases.append(("dense oracle vs CLI distribution", bool(oracle.cli_problems(bad, **small))))

    angles, qubit = long_spec[1]["angles"], long_spec[1]["qubit"]
    clean.append(("dense oracle", not oracle.problems(q, angles, qubit, "+")))

    def perturbed_field(m, n, params):
        field = q.evolve_eta(m, n, params)
        return q.AmplitudeField({**dict(field.items()), m: field[m] + 1e-11})

    def perturbed_walk(state, blocks):
        out = q.walk_step(state, blocks)
        u, l = out[0]
        return q.WalkState({**dict(out.items()), 0: (u + 1e-11, l)}, out.order)

    for label, name, fake in (("evolve_eta", "evolve_eta", perturbed_field),
                              ("B walk", "walk_step", perturbed_walk)):
        proxy = types.SimpleNamespace(**{k: getattr(q, k) for k in q.__all__})
        setattr(proxy, name, fake)
        cases.append((f"dense oracle vs {label}",
                      bool(oracle.problems(proxy, angles, qubit, "+"))))

    for name, passed in clean:
        print(f"{'passes ' if passed else 'FAILS  '}  real output: {name}")
    for name, flagged in cases:
        print(f"{'flagged' if flagged else 'MISSED '}  corrupted: {name}")
    ok = all(passed for _, passed in clean) and all(flagged for _, flagged in cases)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
