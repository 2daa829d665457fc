"""Run the qcawalk CLI with the span recorder installed.

    python3 perfbench/cli_traced.py SPANS_PATH TASK SEED CLI_ARGS...

Behaves like ``python -m qcawalk CLI_ARGS...`` and, when the command has
finished, appends its spans to SPANS_PATH tagged with the task and seed.
"""

import sys

import qcawalk
import qcawalk.cli

from spans import SpanRecorder


def main() -> int:
    path, task, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    recorder = SpanRecorder(qcawalk)
    recorder.task = task
    recorder.install()
    try:
        return qcawalk.cli.main(sys.argv[4:])
    finally:
        recorder.uninstall()
        recorder.dump(path, "a", workload="cli-cold", seed=seed)


if __name__ == "__main__":
    sys.exit(main())
