"""One repetition of one perfbench workload, in a fresh interpreter.

Usage: ``python child.py SPEC.json RESULT.json`` (run.py writes the spec).

The child imports the program's command line and calls
``repro.runtime.cli.main(argv)`` once, as ``python -m repro`` would.  It
records on ``CLOCK_MONOTONIC`` (shared with run.py, which notes the
launch and the exit) when the import started and ended and when the
``cli.main`` call started and ended, so set-up time and the duration of
the work come from the same launch as the wall time.

Unless the spec turns it off, the host-speed probe (``probe.py``) runs
from right after NumPy is imported until exit; its samples go into the
result with everything else.  A traced repetition installs the timing
wrappers of ``tracer.py`` between the import and the call.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.dont_write_bytecode = True

from probe import Sampler  # noqa: E402  (imports NumPy)


def _capture_ops_report(sink: dict) -> None:
    """Keep the report the ``run`` subcommand asks the live cluster for."""
    from repro.cluster.builder import LiveCluster

    ops_report = vars(LiveCluster)["ops_report"]

    def wrapper(self):
        report = ops_report(self)
        sink.update(report)
        return report

    LiveCluster.ops_report = wrapper


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sampler = Sampler()
    if spec["probe"]:
        sampler.start()
    marks = {"start": T_START, "import": time.monotonic()}
    from repro.runtime import cli

    marks["imported"] = time.monotonic()
    marks["modules"] = len(sys.modules)
    report: dict = {}
    _capture_ops_report(report)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    marks["main_start"] = time.monotonic()
    rc = cli.main(spec["argv"])
    marks["main_end"] = time.monotonic()
    sampler.stop()
    numpy = sys.modules.get("numpy")
    scipy = sys.modules.get("scipy")
    result = {
        "rc": rc,
        "marks": marks,
        "samples": sampler.samples,
        "ops_report": report,
        "repro_file": os.path.abspath(sys.modules["repro"].__file__),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": getattr(numpy, "__version__", None),
            "scipy": getattr(scipy, "__version__", None),
        },
        "trace": None if tracer is None else tracer.report(),
    }
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
