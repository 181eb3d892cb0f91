"""Run one cliquefarm command with its layers' public functions traced.

    python3 bench/launch.py SPANS_FILE COMMAND [ARGS...]

Every public function of cliquefarm's graph, core, distkernel, jobqueue,
worker and report modules is replaced, in every cliquefarm module that
refers to it, by a wrapper that records one span per call: name, start and
end (CLOCK_MONOTONIC ns, comparable across processes on one host), the
index of the enclosing span and the job id being worked on. Spans stay in
memory and are written to SPANS_FILE as JSON when the command ends. A
function that does not exist is simply never recorded.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

LAYERS = ("graph", "core", "distkernel", "jobqueue", "worker", "report")
CLAIM = "jobqueue.claim_job"


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, job]
        self.stack: list[int] = []
        self.job = -1

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.monotonic_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1, self.job]
            spans.append(span)
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if name == CLAIM:
                # later spans, up to the next claim, belong to this job
                self.job = span[4] = result if result is not None else -1
            return result

        return traced

    def install(self) -> None:
        import cliquefarm  # noqa: F401  (imports every layer)

        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"cliquefarm.{layer}"]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if name == "cliquefarm" or name.startswith("cliquefarm."):
                for attr, obj in list(vars(mod).items()):
                    if isinstance(obj, types.FunctionType) and obj in wrapped:
                        setattr(mod, attr, wrapped[obj])


def main() -> int:
    spans_file, argv = Path(sys.argv[1]), sys.argv[2:]
    rec = Recorder()
    rec.install()
    from cliquefarm.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        spans_file.write_text(json.dumps(rec.spans, separators=(",", ":")), encoding="ascii")


if __name__ == "__main__":
    sys.exit(main())
