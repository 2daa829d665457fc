"""Span recorder for the traced run, import attribution and layer metrics.

The recorder wraps every public function of the package's modules in every
module namespace that bound it by name (``correspondence.qca_step`` and
``qca_core.qca_step`` are separate bindings), so calls nest
verify -> step and a layer's self time is its span minus its child spans.
Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import re
import statistics
from time import perf_counter_ns

MODULES = ("amplitudes", "qca_core", "coined_walks", "correspondence", "asymptotics", "cli")

QCA_STEP = "qca_core.qca_step"
EVOLVE = "qca_core.evolve_eta"
WALK_STEP = "coined_walks.walk_step"
RESCALE = "asymptotics.rescaled_qca_sample"
KOLMOGOROV = "asymptotics.kolmogorov_distance"
LIMIT_CDF = "asymptotics.limit_cdf"
AMPLITUDE_OPS = ("amplitudes.superpose", "amplitudes.to_distribution")
VERIFY = ("correspondence.verify_A_correspondence", "correspondence.verify_B_correspondence")
ALGEBRAIC = ("correspondence.verify_two_step", "correspondence.patel_factorize")


def _qca_step_info(args, result):
    """(window sites computed, output support) of one lattice step.

    The window is the input span plus the two sites each side that one
    step can reach.
    """
    field = args[0]
    if not len(field):
        return (0, 0)
    return (max(field) - min(field) + 5, len(result))


def _walk_step_info(args, result):
    return len(args[0])


INFO = {QCA_STEP: _qca_step_info, WALK_STEP: _walk_step_info}


class SpanRecorder:
    """Wraps the package's public functions and records one span per call.

    A span is ``(name, start, end, covered_end, parent, task, info)`` in
    perf_counter nanoseconds.  ``covered_end`` also includes the recorder's
    own bookkeeping after the call, which is charged to no layer.
    """

    def __init__(self, package):
        self.spans: list = []
        self.task = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [importlib.import_module(f"{package.__name__}.{name}") for name in MODULES]
        originals = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    originals[obj] = self._wrap(name, obj, INFO.get(name))
        for namespace in (package, *modules):
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in originals:
                    self._patches.append((namespace, attr, obj, originals[obj]))

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                # Kept as is if the call raised.
                spans[index] = (name, start, end, end, parent, self.task, None)
            if info:
                extra = info(args, result)
                spans[index] = (name, start, end, perf_counter_ns(), parent, self.task, extra)
            return result

        return wrapper

    def install(self) -> None:
        for namespace, attr, _, wrapper in self._patches:
            setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, original, _ in self._patches:
            setattr(namespace, attr, original)

    def dump(self, path: str, mode: str, **tags) -> None:
        """Write every span as one JSON line carrying ``tags``."""
        with open(path, mode) as handle:
            for index, (name, start, end, covered, parent, task, info) in enumerate(self.spans):
                handle.write(json.dumps({
                    **tags, "task": task, "span": index, "name": name,
                    "start_ns": start, "end_ns": end, "covered_end_ns": covered,
                    "parent": parent, "info": info,
                }) + "\n")


def load(path: str) -> list[list]:
    """Read dumped spans back, one group per task (one process per CLI task)."""
    groups: dict[object, list] = {}
    with open(path) as handle:
        for line in handle:
            s = json.loads(line)
            groups.setdefault(s["task"], []).append(
                (s["name"], s["start_ns"], s["end_ns"], s["covered_end_ns"],
                 s["parent"], s["task"], s["info"]))
    return list(groups.values())


def layer_metrics(span_groups: list[list], tasks: int) -> dict[str, float]:
    """Per-layer numbers from span groups (each group indexes its own parents).

    Times and counts are per task; a layer that did not run reads 0.
    """
    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    site_updates = out_support = walk_sites = 0
    samples = sample_evolutions = 0
    for spans in span_groups:
        covered = [0] * len(spans)
        for name, start, end, cov, parent, _, _ in spans:
            if parent >= 0:
                covered[parent] += cov - start
        for i, (name, start, end, _, parent, _, info) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0) + end - start
            self_ns[name] = self_ns.get(name, 0) + end - start - covered[i]
            if name == QCA_STEP and info:
                site_updates += info[0]
                out_support += info[1]
            elif name == WALK_STEP and info:
                walk_sites += info
            elif name == RESCALE:
                samples += 1
            elif name == EVOLVE:
                p = parent
                while p >= 0 and spans[p][0] != RESCALE:
                    p = spans[p][4]
                sample_evolutions += p >= 0

    def per_task(value):
        return value / tasks if tasks else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    def ms(names):
        return per_task(sum(self_ns.get(n, 0) for n in names) / 1e6)

    algebraic_calls = sum(calls.get(n, 0) for n in ALGEBRAIC)
    return {
        "qca_core.qca_step.calls": per_task(calls.get(QCA_STEP, 0)),
        "qca_core.qca_step.self_ms": ms([QCA_STEP]),
        "qca_core.qca_step.ns_per_site": ratio(total.get(QCA_STEP, 0), site_updates),
        "qca_core.site_updates": per_task(site_updates),
        "qca_core.window_fill": ratio(out_support, site_updates),
        "qca_core.evolutions_per_sample": ratio(sample_evolutions, samples),
        "amplitudes.self_ms": ms(AMPLITUDE_OPS),
        "coined_walks.walk_step.calls": per_task(calls.get(WALK_STEP, 0)),
        "coined_walks.walk_step.self_ms": ms([WALK_STEP]),
        "coined_walks.walk_step.ns_per_site": ratio(total.get(WALK_STEP, 0), walk_sites),
        "correspondence.verify.self_ms": ms(VERIFY),
        "correspondence.algebraic_us": ratio(
            sum(total.get(n, 0) for n in ALGEBRAIC) / 1e3, algebraic_calls),
        "asymptotics.limit_cdf.calls": per_task(calls.get(LIMIT_CDF, 0)),
        "asymptotics.limit_cdf.us_per_call": ratio(
            total.get(LIMIT_CDF, 0) / 1e3, calls.get(LIMIT_CDF, 0)),
        "asymptotics.kolmogorov.self_ms": ms([KOLMOGOROV]),
        "asymptotics.rescale.self_ms": ms([RESCALE]),
    }


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)\s*$")


def import_times(stderr: str) -> dict[str, float]:
    """``import.qcawalk_ms`` and ``import.scipy_ms`` from ``-X importtime`` output.

    scipy time is the cumulative time of every scipy module imported from
    outside scipy, which is where the package pays for scipy.
    """
    entries = []
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            entries.append((len(m.group(3)) // 2, m.group(4), int(m.group(2))))
    qcawalk_us = scipy_us = 0
    stack: list[tuple[int, str]] = []
    # importtime prints a module after its children; walking backwards
    # meets every parent before its children.
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if name == "qcawalk":
            qcawalk_us += cumulative
        if _is_scipy(name) and not _is_scipy(parent):
            scipy_us += cumulative
        stack.append((depth, name))
    return {"import.qcawalk_ms": qcawalk_us / 1e3, "import.scipy_ms": scipy_us / 1e3}


def _is_scipy(name: str) -> bool:
    return name == "scipy" or name.startswith("scipy.")


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
