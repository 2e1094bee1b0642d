"""The benchmark's tracer wraps package functions by their names; a rename must fail Tier-1."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}

# one traced operation of each kind, then the per-layer metrics of their spans
TRACED_OPS = """
import json
import tracing, worker
tracer = tracing.Tracer()
tracing.install(tracer)
ops = [worker.certify_op(worker.catalog.pair_g4(4, 3)),
       worker.family_op(worker.family_spec(4, 3, (50, 50, 50), 7))]
assert all(op.ok for op in ops), [op.problems for op in ops]
print(json.dumps(sorted(worker.per_layer(tracer.spans, ops, 0.0))))
"""


def test_tracer_installs_on_the_package():
    done = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_traced_operations_give_every_per_layer_metric():
    # a division by a kernel's zero self time, or a span no longer reached through
    # the traced attribute, fails here and not only under pytest perfbench
    done = subprocess.run([sys.executable, "-c", TRACED_OPS], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    emitted = set(json.loads(done.stdout.strip().splitlines()[-1]))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # run.py adds these two from its traced and untraced runs
    wanted = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_s", "host.slowdown"}
    assert wanted <= emitted, sorted(wanted - emitted)
