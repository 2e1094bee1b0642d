"""Benchmark of the isospectra package: certificates over the catalog and point sampling.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify_catalog --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it holds
every per-layer metric instead.  The full result, with provenance, is also
written to ``perfbench/out/``.  See ``perfbench/README.md`` for the workloads
and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
PACKAGE = ROOT / "src" / "isospectra"
SETUP_WORKERS = 6  # set-up-only processes per run; the measuring process is one more sample
WORKER_TIMEOUT_S = 170
BLAS_THREADS = "1"  # single-threaded: steadier on a shared machine, and at most nproc


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker; its set-up time runs from spawn to its ``ready`` line."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], stdout=subprocess.PIPE,
                            text=True, env=worker_env(), cwd=ROOT)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(f"worker {args} exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1]) if out.strip() else {}
    result["setup_s"] = setup_s
    return result


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through spawn(), which stops its worker


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no package source at {PACKAGE}; run from the root of a checkout", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace == 0:
        setup_only = [spawn(common + ["--setup-only"], deadline)
                      for _ in range(1 if args.tiny else SETUP_WORKERS)]
        run = spawn(common + ["--seconds", str(args.seconds)], deadline)
        workers = setup_only + [run]
        setups = [w["setup_s"] / w["setup_slowdown"] for w in workers]
        metrics = {**run["metrics"], "setup_s": statistics.median(setups)}
        extra = {"setup_samples_raw_s": [w["setup_s"] for w in workers],
                 "setup_slowdowns": [w["setup_slowdown"] for w in workers],
                 "host_slowdown": run["host_slowdown"], "pass_walls_raw_s": run["walls"],
                 "tail_reruns": run["tail_reruns"]}
        results = [run]
        wanted = spec["end_to_end"]
    else:
        plain = spawn(common + ["--seconds", str(args.seconds / 2), "--min-passes", "1"], deadline)
        run = spawn(common + ["--trace", "--min-passes", "1", "--max-passes", "1",
                              "--spans", f"{stem}-spans.json"], deadline)
        overhead = run["walls"][0] - statistics.median(plain["walls"])
        metrics = {**run["metrics"], "trace.overhead_s": overhead, "host.slowdown": run["host_slowdown"]}
        extra = {"untraced_pass_walls_raw_s": plain["walls"], "traced_pass_wall_raw_s": run["walls"][0],
                 "host_slowdown": run["host_slowdown"]}
        results = [plain, run]
        wanted = spec["per_layer"]

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")
    report = {
        "correct": all(r["correct"] for r in results),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    provenance = {**run["provenance"], **source_identity(), "workload": args.workload,
                  "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                  "tiny": args.tiny, "problems": run["problems"], **extra}
    stem.with_suffix(".json").write_text(json.dumps({**report, "provenance": provenance}, indent=1))
    for name, entry in report["metrics"].items():
        print(f"{name}: {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
