"""One benchmark process: build a workload's input and, unless MODE is
``setup``, run it through ``findist.run`` and render its output bytes.

    python3 perfbench/child.py WORKLOAD SEED MODE [SPANS_PATH]

MODE is ``setup``, ``run`` or ``trace``.  In ``trace`` mode the layer
wrappers are installed right after ``import findist``, so set-up calls such as
``generate`` are traced too, and SPANS_PATH, if given, receives the spans.
The result is one JSON object on the last line of standard output; ``ready``
is the ``time.monotonic()`` reading when the input was built, which the
parent compares with its own reading taken just before it started this
process.  Outside ``trace`` mode the process also times the host-speed
kernel (``hostspeed.py``) after the input is ready (``speed_before``) and,
in ``run`` mode, again after the output is checked (``speed_after``).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import findist  # noqa: E402  (the path above must come first)

import hostspeed  # noqa: E402
import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    spans_path = argv[3] if len(argv) > 3 else None
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[name]
    config = workloads.build_config(findist, name, seed)
    out = {"ready": time.monotonic()}
    if mode != "trace":
        out["speed_before"] = hostspeed.sample()
    if mode != "setup":
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        report = findist.run(config, workers=1)
        payload = workloads.render(report, workload)
        out["run_s"] = time.perf_counter() - t0
        out["cpu_s"] = time.process_time() - cpu0
        out["digest"] = workloads.digest(payload)
        checks = workloads.output_checks(report, workload)
        out["checks"] = len(checks)
        out["failed"] = [check for check, ok in checks if not ok]
        if mode == "run":
            out["speed_after"] = hostspeed.sample()
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        out["layers"] = tracer.metrics()
        if spans_path:
            out["spans"] = tracer.write_spans(spans_path)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
