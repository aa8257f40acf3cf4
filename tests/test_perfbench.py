"""The benchmark tracer stays in step with the package and with BENCHMARK.json.

A traced benchmark run prints one metric for each tracer target that
resolves and drops the metrics of a target that is gone, so a moved or
renamed callable leaves the traced result without a metric that
BENCHMARK.json declares.  The tracer is loaded by path, as the benchmark
loads it, and a traced run goes in a fresh interpreter, since installing the
tracer wraps the package for the rest of the process.
"""

import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")

_TRACED_STATS = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
t = tracer.Tracer()
t.install()
import findist
report = findist.run(findist.make_config(findist.FieldSpec(5), "random", {"size": 6}, seed=1, checks=("stats",)))
print(json.dumps({"passed": report.passed(), "metrics": sorted(t.metrics())}))
"""


def _per_layer_names() -> set:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {metric["name"] for metric in json.load(fh)["per_layer"]}


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert (len(tracer.SPANNED), len(tracer.COUNTED)) == (33, 9)
    gone = [(module, path) for _, module, path in tracer.SPANNED + tracer.COUNTED
            if tracer._resolve(module, path) is None]
    assert gone == []


def test_a_traced_run_names_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_STATS, TRACER],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["passed"]
    # run.py adds trace.overhead_s, the traced minus the untraced wall time
    assert set(result["metrics"]) | {"trace.overhead_s"} == _per_layer_names()
