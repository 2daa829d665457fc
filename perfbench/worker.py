"""Child process of the in-process workloads and of the dense-oracle check.

Reads one JSON job on stdin.  Set-up is ``import qcawalk``, building the
package's inputs from the generated numbers and one untimed warm-up task;
then it prints ``{"ready": true}``.  Mode ``setup`` stops there.  Mode
``run`` runs whole rotations of tasks until ``seconds`` have passed, checks
every output, runs the dense oracle once and prints one JSON result line.
With ``trace`` each task runs twice, untraced and under the span recorder,
in alternating order.  Mode ``oracle`` only runs the dense-oracle check
(for ``cli-cold``, also against the CLI's ``simulate-qca`` output).
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Callable, NamedTuple

import checks


class Task(NamedTuple):
    """One unit of closed-loop work: ``run`` is timed, ``check`` is not.

    ``check`` returns the problems found and the output's norm drift and
    identity error (None where the task has no such output).
    """

    run: Callable[[], Any]
    check: Callable[[Any], tuple]


def _inputs(q, spec):
    params = q.params_from_angles(q.AngleTriple(*spec["angles"]))
    re_a, im_a, re_b, im_b = spec["qubit"]
    return params, (complex(re_a, im_a), complex(re_b, im_b))


def _distribution_check(n: int):
    def check(dist):
        pairs = list(dist.items())
        return checks.distribution(pairs, n), checks.mass_drift(m for _, m in pairs), None
    return check


def long_run_task(q, spec: dict, n: int) -> Task:
    params, qubit = _inputs(q, spec)
    kind = spec["kind"]

    if kind == "sample":
        def run():
            sample = q.rescaled_qca_sample(params, qubit, n)
            return sample, q.kolmogorov_distance(sample)

        def check(out):
            sample, distance = out
            found = checks.rescaled(sample.points, n) + checks.kolmogorov(distance)
            return found, checks.mass_drift(m for _, m in sample.points), None
        return Task(run, check)

    if kind == "qdist":
        def run():
            return q.qca_distribution(0, spec["sign"], qubit, n, params)
        return Task(run, _distribution_check(n))

    def run():
        blocks = q.generalized_blocks_from_qca(params, "B")
        state = q.WalkState.origin(qubit, blocks.order)
        for _ in range(n):
            state = q.walk_step(state, blocks)
        return q.walk_distribution(state)
    return Task(run, _distribution_check(n))


def lockstep_task(q, spec: dict, n: int) -> Task:
    params, qubit = _inputs(q, spec)
    angles = q.AngleTriple(*spec["angles"])
    patel = q.PatelParams(spec["phi1"], spec["phi2"])
    family = spec["family"]

    def run():
        # Looked up per call, so the traced run sees the wrapped functions.
        verify = q.verify_A_correspondence if family == "A" else q.verify_B_correspondence
        lockstep = verify(params, qubit, n)
        two_step = q.verify_two_step(angles, spec["theta1"], spec["theta2"],
                                     spec["two_step_family"])
        _, factorization = q.patel_factorize(patel)
        return lockstep, two_step, factorization

    def check(reports):
        found = []
        for report in reports:
            found += checks.identity(report.identity_name, report.max_error())
        return found, None, max(r.max_error() for r in reports)

    return Task(run, check)


TASK_FACTORIES = {"long-run": long_run_task, "lockstep-verify": lockstep_task}


def attempt(task: Task) -> tuple[float, list[str], float | None, float | None]:
    """Time one task, then check it; any exception counts as a failure."""
    start = time.perf_counter()
    try:
        out = task.run()
    except Exception as exc:  # a failed task is counted, not fatal
        return (time.perf_counter() - start) * 1e3, [f"raised {exc!r}"], None, None
    ms = (time.perf_counter() - start) * 1e3
    try:
        found, drift, error = task.check(out)
    except Exception as exc:
        return ms, [f"output check raised {exc!r}"], None, None
    return ms, found, drift, error


def _max(values):
    values = [v for v in values if v is not None]
    return max(values) if values else 0.0


def versions() -> dict:
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def run_tasks(q, job, tasks) -> dict:
    """Whole rotations until ``seconds`` have passed; traced pairs if asked."""
    cycle, seconds = job["spec"]["cycle"], job["seconds"]
    recorder = None
    if job["trace"]:
        from spans import SpanRecorder
        recorder = SpanRecorder(q)
    records, plain_ms, traced_ms = [], [], []
    start = time.perf_counter()
    i = 0
    while i % cycle or time.perf_counter() - start < seconds:
        task = tasks[i % len(tasks)]
        if recorder is None:
            records.append(attempt(task))
        else:
            pair = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if not traced:
                    pair[traced] = attempt(task)
                    continue
                recorder.task = i
                recorder.install()
                try:
                    pair[traced] = attempt(task)
                finally:
                    recorder.uninstall()
            plain_ms.append(pair[False][0])
            traced_ms.append(pair[True][0])
            ms, found, drift, error = pair[True]
            records.append((pair[False][0], pair[False][1] + found, drift, error))
        i += 1
    elapsed = time.perf_counter() - start
    result = {
        "ms": [r[0] for r in records],
        "problems": [r[1] for r in records],
        "elapsed_s": elapsed,
        "norm_drift": _max(r[2] for r in records),
        "identity_error": _max(r[3] for r in records),
    }
    if recorder is not None:
        from spans import layer_metrics
        result["layers"] = layer_metrics([recorder.spans], len(records))
        result["overhead_frac"] = sum(traced_ms) / sum(plain_ms) - 1.0
        recorder.dump(job["spans_path"], "w", workload=job["spec"]["workload"],
                      seed=job["seed"])
    return result


def main() -> int:
    job = json.load(sys.stdin)
    import qcawalk as q
    if not os.path.abspath(q.__file__).startswith(job["src"] + os.sep):
        print(f"error: imported qcawalk from {q.__file__}, not from {job['src']}",
              file=sys.stderr)
        return 3
    spec = job["spec"]
    if job["mode"] == "oracle":
        import oracle
        o = spec["oracle"]
        found = oracle.problems(q, o["angles"], o["qubit"], o["sign"])
        found += oracle.cli_problems(job["cli_distribution"], **o)
        print(json.dumps({"oracle": found, "versions": versions()}), flush=True)
        return 0

    tasks = [TASK_FACTORIES[spec["workload"]](q, s, spec["steps"]) for s in spec["tasks"]]
    attempt(tasks[0])
    print(json.dumps({"ready": True}), flush=True)
    if job["mode"] == "setup":
        return 0

    result = run_tasks(q, job, tasks)
    import oracle
    probe = spec["tasks"][1]  # a seeded tuple on both workloads
    result["oracle"] = oracle.problems(q, probe["angles"], probe["qubit"],
                                       probe.get("sign", "+"))
    result["versions"] = versions()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
