"""qcawalk benchmark: one closed-loop client, one child process at a time.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run from the root of a qcawalk checkout; children import ``src/qcawalk``.
The seed fixes every generated input.  ``--trace 0`` times the workload
and prints the end-to-end metrics of BENCHMARK.json; ``--trace 1`` runs
each task untraced and traced in turn and prints the per-layer metrics.
Every output is checked; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import threading
import time

import checks
import inputs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
CLI_TRACED = os.path.join(HERE, "cli_traced.py")
OUT_DIR = os.path.join(HERE, "out")

SETUP_SAMPLES = 3      # set-ups per run; setup_s is their median
IMPORT_SAMPLES = 3     # -X importtime probes per traced in-process run
CHILD_TIMEOUT_S = 150  # keeps a whole run under 180 s


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def tail(values: list[float]) -> tuple[float, float]:
    """Highest nearest-rank percentile with ten samples above it, never below p50."""
    xs = sorted(values)
    rank = max(len(xs) - 10, len(xs) // 2 + 1)
    return xs[rank - 1], 100.0 * rank / len(xs)


def machine_record(versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, **versions}


def run_worker(job: dict, env: dict) -> tuple[float, dict | None]:
    """Start a worker; return seconds from start to ready, and its result."""
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, env=env, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        proc.stdin.write(json.dumps(job))
        proc.stdin.close()
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    lines = (first + rest).splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker ({job['mode']}) exited with {proc.returncode}")
    last = json.loads(lines[-1])
    return setup_s, (None if "ready" in last else last)


def child_env(src: str) -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def call(argv: list[str], env: dict) -> tuple[float, int, str, str]:
    """Run one child to completion: (wall ms, exit code, stdout, stderr)."""
    started = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                          timeout=CHILD_TIMEOUT_S)
    return (time.perf_counter() - started) * 1e3, proc.returncode, proc.stdout, proc.stderr


def import_probes(env: dict) -> dict[str, float]:
    samples = []
    for _ in range(IMPORT_SAMPLES):
        _, code, _, err = call([sys.executable, "-X", "importtime", "-c", "import qcawalk"], env)
        if code != 0:
            raise BenchError("import qcawalk failed")
        samples.append(spans.import_times(err))
    return spans.median_metrics(samples)


def in_process(spec: dict, args, src: str, env: dict) -> dict:
    job = {"spec": spec, "seconds": args.seconds, "trace": args.trace,
           "seed": args.seed, "src": src,
           "spans_path": os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")}
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_worker({**job, "mode": "setup"}, env)[0])
    setup_s, result = run_worker({**job, "mode": "run"}, env)
    setups.append(setup_s)
    result["setup_s"] = statistics.median(setups)
    if args.trace:
        result["layers"].update(import_probes(env))
        result["layers"].update({"cli.handler_ms": 0.0, "cli.startup_ms": 0.0})
    return result


_DURATION = re.compile(r"^duration_ms=([0-9.]+)$", re.MULTILINE)


def cli_cold(spec: dict, args, src: str, env: dict) -> dict:
    commands, cycle = spec["commands"], spec["cycle"]
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            ms, code, _, _ = call([sys.executable, "-c", "import qcawalk"], env)
            if code != 0:
                raise BenchError("import qcawalk failed")
            setups.append(ms / 1e3)
    spans_path = os.path.join(OUT_DIR, f"spans-cli-cold-{args.seed}.jsonl")
    if os.path.exists(spans_path):
        os.remove(spans_path)

    first_stdout: dict[int, str] = {}
    records, plain_ms, traced_ms = [], [], []
    handler_ms, startup_ms, imports = [], [], []
    drift = identity = 0.0

    def one(i: int, traced: bool) -> tuple[float, list[str]]:
        nonlocal drift, identity
        cmd = commands[i % cycle]
        if traced:
            argv = [sys.executable, "-X", "importtime", CLI_TRACED, spans_path,
                    str(i), str(args.seed), *cmd["argv"]]
        else:
            argv = [sys.executable, "-m", "qcawalk", *cmd["argv"]]
        ms, code, out, err = call(argv, env)
        found = checks.cli_output(cmd, code, out)
        key = i % cycle
        if key in first_stdout:
            found += checks.repeat(first_stdout[key], out)
        else:
            first_stdout[key] = out
        if traced:
            imports.append(spans.import_times(err))
            pairs = checks.cli_distribution(out)
            if pairs:
                drift = max(drift, checks.mass_drift(m for _, m in pairs))
            identity = max(identity, checks.cli_identity_error(out) or 0.0)
        elif cmd["check"] != "usage":
            match = _DURATION.search(err)
            if match is None:
                found.append("no duration_ms on stderr")
            else:
                handler_ms.append(float(match.group(1)))
                startup_ms.append(ms - handler_ms[-1])
        return ms, found

    started = time.perf_counter()
    i = 0
    while i % cycle or time.perf_counter() - started < args.seconds:
        if args.trace:
            pair = {t: one(i, t) for t in ((False, True) if i % 2 == 0 else (True, False))}
            plain_ms.append(pair[False][0])
            traced_ms.append(pair[True][0])
            records.append((pair[False][0], pair[False][1] + pair[True][1]))
        else:
            records.append(one(i, False))
        i += 1
    elapsed = time.perf_counter() - started

    simulate = next(i for i, c in enumerate(commands) if c["argv"][0] == "simulate-qca")
    pairs = checks.cli_distribution(first_stdout[simulate]) or []
    _, oracle = run_worker({"spec": spec, "mode": "oracle", "src": src,
                            "cli_distribution": pairs}, env)
    result = {
        "ms": [r[0] for r in records],
        "problems": [r[1] for r in records],
        "elapsed_s": elapsed,
        "oracle": oracle["oracle"],
        "versions": oracle["versions"],
    }
    if args.trace:
        layers = spans.layer_metrics(spans.load(spans_path), len(records))
        layers.update(spans.median_metrics(imports))
        layers.update({
            "cli.handler_ms": statistics.median(handler_ms),
            "cli.startup_ms": statistics.median(startup_ms),
        })
        result["layers"] = layers
        result["norm_drift"] = drift
        result["identity_error"] = identity
        result["overhead_frac"] = sum(traced_ms) / sum(plain_ms) - 1.0
    else:
        result["setup_s"] = statistics.median(setups)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as handle:
            bench = json.load(handle)
    except OSError:
        print("error: run from the repository root (no BENCHMARK.json)", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(src, "qcawalk", "__init__.py")):
        print(f"error: {src}/qcawalk not found; run from a qcawalk checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    env = child_env(src)
    spec = inputs.GENERATORS[args.workload](args.seed)
    try:
        if args.workload == "cli-cold":
            result = cli_cold(spec, args, src, env)
        else:
            result = in_process(spec, args, src, env)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ms = result["ms"]
    failed_tasks = [p for p in result["problems"] if p]
    attempted = len(ms) + 1
    failed = len(failed_tasks) + bool(result["oracle"])
    for problems in (failed_tasks + [result["oracle"]])[:5]:
        if problems:
            print(f"failed: {'; '.join(problems)}", file=sys.stderr)

    if args.trace:
        values = {**result["layers"],
                  "amplitudes.norm_drift": result["norm_drift"],
                  "correspondence.max_identity_error": result["identity_error"],
                  "trace.overhead_frac": result["overhead_frac"]}
        wanted = bench["per_layer"]
    else:
        tail_ms, percentile = tail(ms)
        values = {
            "setup_s": result["setup_s"],
            "task_ms_p50": statistics.median(ms),
            "task_ms_tail": tail_ms,
            "tasks_per_s": len(ms) / result["elapsed_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "ok_frac": 1.0 - failed / attempted,
        }
        wanted = bench["end_to_end"]
        print(f"task_ms_tail is p{percentile:.1f} of {len(ms)} tasks; "
              f"failed_frac {failed / attempted:.4g} ({failed} of {attempted})")
    names = {m["name"] for m in wanted}
    if names != set(values):
        print(f"error: metrics {sorted(set(values) ^ names)} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    print(json.dumps({"record": {**machine_record(result["versions"]),
                                 "workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace}}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
