"""Per-layer timings: the stepping kernels, the certificates built on them, and the jump.

    python bench/steps.py [--baseline SRC] [--rounds R] [--scale F] [--out PATH]

Run from the repository root.  Each round starts one child process, which
imports the package of this tree (``src``) as ``qcawalk_change`` and, with
``--baseline`` (the ``src`` directory of another checkout, for example one
made with ``git archive REV src | tar -x -C DIR``), that tree's package as
``qcawalk_parent``.  For each case the child calls every tree's version
once to warm up, and then calls them in turn, each timed between the
others, at least ``REPS`` times and for at least ``MIN_SECONDS``; a tree's
sample is the minimum of its calls, the call least disturbed by other load
on the machine.  The rounds alternate which tree goes first in a pass.
Both trees run in one process, so a slow spell of the machine slows both
sides of a round alike: each case reports both trees' medians and
quartiles of the per-round minima, the ratio of the medians, the quartiles
over the rounds of each round's own ratio (parent ms / change ms) and the
rounds the tree under test won.  A case a tree does not have (a
``verify_*`` function its package lacks) reads null there.  ``--scale``
multiplies every step count, so a quick run can check that the harness
still works.  The JSON report goes to stdout, or to ``--out``.

The stepping path's cases are 1000 steps of a B- and an
A-family walk (the long-run benchmark's walk task steps the B walk), 1000
``qca_step`` calls, ``verify_A_correspondence`` and
``verify_B_correspondence`` at 500 and at 50 steps (``verify.A``,
``verify.B``, ``verify.A.50``, ``verify.B.50``: walk and lattice in
lockstep, compared at every step) and ``verify_spectral`` at 5000
(``verify.spectral``: the jump against 5000 banded steps).  A
``verify.*`` case fails the run if its report's error is above the tree's
``RESIDUAL_TOLERANCE``, the pass line of ``qcawalk verify``.
``evolve.IV.1000`` is ``evolve_eta`` at 1000 steps on the Type IV tuple
(1/sqrt2, 0, 0, i/sqrt2), which every tree evolves by stepping, not by
a jump: it times the n-step driver.  ``evolve_walk.A.5000`` and
``evolve_walk.B.5000`` are ``evolve_walk`` of each family's generalized
blocks from the qubit at the origin: one jump where the tree jumps walks,
5000 steps where it steps them.  The lattice jump's cases
are ``qca_distribution`` at 1000 and 5000 steps (``jump.qdist.N``) and, at
the reference point, ``rescaled_qca_sample`` plus ``kolmogorov_distance``
at 1000 (``sample.ks``, the long-run benchmark's sample task) and at 5000
(``sample.ks.5000``).  ``distribution.1000`` is ``to_distribution`` of the
field ``evolve_eta(0, 1000)``, evolved once before the timing.

A one-tree run also reports the minor page faults per timed call
(``ru_minflt``), which count the fresh pages a call's allocations touch.
A two-tree report gives null there: the trees' calls share one heap, and
glibc hands back and faults in again more pages than one tree alone
would (the 1000-step B walk took 228 faults per call alone and about
2460 beside another tree, for either tree), so the count would show
neither tree's own.
The ``cold.*`` cases time whole command-line calls, each a fresh
``python -m qcawalk ...`` process started from this harness's own process
with ``PYTHONPATH`` set to the tree's ``src`` and the caller's environment
otherwise: the cli-cold benchmark's command kinds with fixed arguments
(``classify``, the ``classify --theta 1`` usage error, ``simulate-qca`` and
``simulate-qw --family B`` at 64 steps, ``verify --kind A`` at 50,
``verify --kind two-step``, ``verify --kind patel``, ``factorize --kind
patel`` and ``limit-compare`` at 100, its tolerance 1 so that a scaled-down
run passes too).  After one warm-up call per tree, the trees take turns
for ``COLD_CALLS`` calls each, and a round keeps each tree's least call.
A call that exits with another code than its case's fails the run.  Their
faults read null.
The ``rotation.*`` cases repeat the long-run benchmark's task rotation:
``sample.ks``, ``jump.qdist.1000`` and ``walk_step.B`` in turn, one tree's
rotation after the other's, so each task is timed between the other two.
The child runs them first: the n = 5000 warm-ups of the other cases raise
glibc's mmap and trim thresholds, after which the faults that the
rotation takes do not show.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

REPS = 9
MIN_SECONDS = 0.25
THETA, PHI, DELTA = 1.1, 0.4, 2.0
QUBIT = (0.6, 0.8j)
# limit-compare's default: the one point where the limit law applies
REFERENCE = (math.pi / 4, math.pi / 4, math.pi / 2)
REFERENCE_QUBIT = (math.sqrt(0.5), math.sqrt(0.5))
# name -> base step count
CASES = {
    "walk_step.B": 1000,
    "walk_step.A": 1000,
    "qca_step": 1000,
    "verify.A": 500,
    "verify.B": 500,
    "verify.A.50": 50,
    "verify.B.50": 50,
    "verify.spectral": 5000,
    "evolve.IV.1000": 1000,
    "evolve_walk.A.5000": 5000,
    "evolve_walk.B.5000": 5000,
    "jump.qdist.1000": 1000,
    "jump.qdist.5000": 5000,
    "sample.ks": 1000,
    "sample.ks.5000": 5000,
    "distribution.1000": 1000,
}
# cold.NAME -> (arguments after ``python -m qcawalk``, base step count or None, exit code)
ANGLES = ("--theta", repr(THETA), "--phi", repr(PHI), "--delta", repr(DELTA))
COLD = {
    "cold.classify": (["classify", *ANGLES], None, 0),
    "cold.usage-error": (["classify", "--theta", "1"], None, 2),
    "cold.simulate-qca": (["simulate-qca", *ANGLES], 64, 0),
    "cold.simulate-qw.B": (["simulate-qw", "--family", "B", *ANGLES], 64, 0),
    "cold.verify.A": (["verify", "--kind", "A", *ANGLES], 50, 0),
    "cold.verify.two-step": (["verify", "--kind", "two-step", *ANGLES], None, 0),
    "cold.verify.patel": (["verify", "--kind", "patel"], None, 0),
    "cold.factorize.patel": (["factorize", "--kind", "patel"], None, 0),
    "cold.limit-compare": (["limit-compare", "--tolerance", "1"], 100, 0),
}
COLD_CALLS = 3
# verify.K calls this function of the package; a tree without it lacks the case
VERIFY = {"A": "verify_A_correspondence", "B": "verify_B_correspondence",
          "spectral": "verify_spectral"}
# The long-run benchmark's rotation, which each child times before the other cases.
ROTATION = ("sample.ks", "jump.qdist.1000", "walk_step.B")


def _scaled(base: int | None, scale: float) -> int | None:
    """A case's step count: ``base`` times ``scale``, at least 1; None for no steps."""
    return None if base is None else max(1, round(base * scale))


def _case(q, name: str, n: int):
    """A no-argument callable running case ``name`` at ``n`` steps, or None if absent."""
    params = q.params_from_angles(q.AngleTriple(THETA, PHI, DELTA))
    if name.startswith("walk_step."):
        blocks = q.generalized_blocks_from_qca(params, name[-1])

        def walk():
            state = q.WalkState.origin(QUBIT, blocks.order)
            for _ in range(n):
                state = q.walk_step(state, blocks)
            return state
        return walk
    if name.startswith("evolve_walk."):
        blocks = q.generalized_blocks_from_qca(params, name.split(".")[1])
        start = q.WalkState.origin(QUBIT, blocks.order)
        return lambda: q.evolve_walk(start, blocks, n)
    if name.startswith("evolve.IV."):
        type_iv = q.QcaParams(math.sqrt(0.5), 0, 0, 1j * math.sqrt(0.5))
        return lambda: q.evolve_eta(0, n, type_iv)
    if name.startswith("jump.qdist."):
        return lambda: q.qca_distribution(0, "+", QUBIT, n, params)
    if name.startswith("sample.ks"):
        reference = q.params_from_angles(q.AngleTriple(*REFERENCE))
        return lambda: q.kolmogorov_distance(q.rescaled_qca_sample(reference, REFERENCE_QUBIT, n))
    if name == "qca_step":
        def step():
            field = q.AmplitudeField({0: QUBIT[0], 1: QUBIT[1]})
            for _ in range(n):
                field = q.qca_step(field, params)
            return field
        return step
    if name.startswith("distribution."):
        field = q.evolve_eta(0, n, params)
        return lambda: q.to_distribution(field)
    verify = getattr(q, VERIFY[name.split(".")[1]], None)
    if verify is None:
        return None

    def check():
        report = verify(params, QUBIT, n)
        # the tree's own pass line of ``qcawalk verify``
        if not report.max_error() <= q.RESIDUAL_TOLERANCE:
            raise RuntimeError(f"{name}: error {report.max_error()!r} above "
                               f"{q.RESIDUAL_TOLERANCE}")
        return report
    return check


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _measure(group: list, count_faults: bool) -> dict:
    """[least ms, mean minor faults or None] per call of every (key, run) in ``group``.

    Each pass calls the runs in turn, so each is timed between the others.
    """
    for _, run in group:
        run()
    samples = {key: [] for key, _ in group}
    faults = dict.fromkeys(samples, 0)
    until = time.perf_counter() + MIN_SECONDS
    while len(samples[group[0][0]]) < REPS or time.perf_counter() < until:
        for key, run in group:
            before = _minflt()
            start = time.perf_counter()
            run()
            samples[key].append((time.perf_counter() - start) * 1e3)
            faults[key] += _minflt() - before
    return {key: [min(ms), faults[key] / len(ms) if count_faults else None]
            for key, ms in samples.items()}


def _load(side: str, src: str):
    """The ``qcawalk`` package of ``src``, imported under the name ``qcawalk_<side>``.

    Its own name keeps it apart from every other tree's package in the
    process, also from a second copy of the same tree.
    """
    name = f"qcawalk_{side}"
    root = os.path.join(os.path.abspath(src), "qcawalk")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(root, "__init__.py"), submodule_search_locations=[root])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def child(trees: list, scale: float) -> dict:
    """{side: {case: [least ms, faults per call]}} of every case, in this process.

    ``trees`` lists [side, src] in the order each pass calls them.  The
    rotation runs first, before the other cases' warm-ups.  Faults are
    counted with one tree only, and are None with two.
    """
    packages = [(side, _load(side, src)) for side, src in trees]
    alone = len(packages) == 1

    def steps(name: str) -> int:
        return _scaled(CASES[name], scale)

    times = _measure([((side, f"rotation.{name}"), _case(q, name, steps(name)))
                      for side, q in packages for name in ROTATION], alone)
    for name in CASES:
        group = [((side, name), _case(q, name, steps(name))) for side, q in packages]
        times.update({key: None for key, run in group if run is None})
        present = [(key, run) for key, run in group if run is not None]
        if present:
            times.update(_measure(present, alone))
    out = {side: {} for side, _ in trees}
    for (side, name), value in times.items():
        out[side][name] = value
    return out


def _run_child(trees: list, scale: float) -> dict:
    done = subprocess.run(
        [sys.executable, __file__, "--child", json.dumps(trees), "--scale", repr(scale)],
        capture_output=True, text=True, timeout=1200,
    )
    if done.returncode != 0:
        raise SystemExit(f"child for {trees} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def _cold(trees: list, scale: float) -> dict:
    """{side: {case: [least ms, None]}} of every ``cold.*`` case, called from this process.

    ``trees`` lists [side, src] in the order each pass calls them.
    """
    out = {side: {} for side, _ in trees}
    for name, (argv, base, code) in COLD.items():
        if base is not None:
            argv = [*argv, "--steps", str(_scaled(base, scale))]
        ms = {side: [] for side, _ in trees}
        for call in range(COLD_CALLS + 1):
            for side, src in trees:
                env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
                start = time.perf_counter()
                done = subprocess.run([sys.executable, "-m", "qcawalk", *argv], env=env,
                                      capture_output=True, text=True, timeout=120)
                elapsed = (time.perf_counter() - start) * 1e3
                if done.returncode != code:
                    raise SystemExit(f"{name} of {src} exited {done.returncode}, not {code}:\n"
                                     f"{done.stderr}")
                if call:
                    ms[side].append(elapsed)
        for side, calls in ms.items():
            out[side][name] = [min(calls), None]
    return out


def _quartiles(xs: list) -> list:
    """[q1, median, q3] of ``xs``; one value is all three."""
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3


def _summary(runs: list) -> dict | None:
    """Medians and quartiles over the rounds of [least ms, faults per call] pairs."""
    if any(r is None for r in runs):
        return None
    samples, faults = (list(column) for column in zip(*runs))
    q1, median, q3 = _quartiles(samples)
    counted = None not in faults
    return {"median_ms": median, "q1_ms": q1, "q3_ms": q3, "runs_ms": samples,
            "faults_per_call": statistics.median(faults) if counted else None,
            "faults_runs": faults if counted else None}


def _machine() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as handle:
        cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")),
                   cpu)
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", default=None, help="src directory to compare against")
    parser.add_argument("--rounds", type=int, default=10, help="rounds (default: 10)")
    parser.add_argument("--scale", type=float, default=1.0, help="step-count factor")
    parser.add_argument("--out", default=None, help="write the JSON report here")
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child is not None:
        print(json.dumps(child(json.loads(args.child), args.scale)))
        return 0
    if args.rounds < 1 or args.scale <= 0:
        parser.error("--rounds must be at least 1 and --scale positive")

    trees = {"change": "src"}
    if args.baseline is not None:
        trees["parent"] = args.baseline
    rounds = {side: [] for side in trees}
    for r in range(args.rounds):
        order = list(trees.items())
        order = order if r % 2 else order[::-1]
        times, cold = _run_child(order, args.scale), _cold(order, args.scale)
        for side in trees:
            rounds[side].append({**times[side], **cold[side]})

    steps = {**CASES, **{f"rotation.{name}": CASES[name] for name in ROTATION},
             **{name: base for name, (_, base, _) in COLD.items()}}
    cases = {}
    for name, base in steps.items():
        entry = {"steps": _scaled(base, args.scale)}
        for side in trees:
            entry[side] = _summary([times[name] for times in rounds[side]])
        if entry.get("parent") and entry["change"]:
            pairs = list(zip(entry["parent"]["runs_ms"], entry["change"]["runs_ms"]))
            entry["speedup"] = entry["parent"]["median_ms"] / entry["change"]["median_ms"]
            q1, median, q3 = _quartiles([p / c for p, c in pairs])
            entry.update(ratio_median=median, ratio_q1=q1, ratio_q3=q3)
            entry["change_wins"] = sum(p > c for p, c in pairs)
        cases[name] = entry
    report = {"machine": _machine(), "rounds": args.rounds, "reps": REPS,
              "min_seconds": MIN_SECONDS,
              "scale": args.scale, "cases": cases}
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
