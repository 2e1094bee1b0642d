"""One benchmark process: set up, run timed passes, check every output, report.

``run.py`` starts this script; it is not the benchmark's command.  The worker
prints ``ready`` once set-up is done (imports, input generation, warm-up), so
that the parent can time set-up from process start, and prints its result as
one JSON object on the last line.  With ``--trace`` it wraps the package's
functions first (see ``tracing.py``) and reports per-layer metrics instead.

Each operation runs one input through its stages, each stage one call or a
fixed sequence of calls into the package, timed one at a time in a closed
loop with one client.  Checks run after the stage's clock has stopped.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import random
import resource
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import mpmath  # sign_of_terms imports it lazily; importing here pays for it in set-up
import numpy as np
import scipy

from isospectra import catalog, certificates, clifford, fkm

import tracing

GRAD_F = fkm.grad_F  # the checks call the package unwrapped, so they add no spans

CATALOG_MAX_SUM = 1100  # above m = 1024, where the alpha = 1/4 integrands overflow
LEVEL_T = 0.3
SMALL_D = ((4, 3), (8, 7), (9, 22))  # ambient dimensions 16, 32, 64
LARGE_D = ((12, 51), (16, 111))  # ambient dimensions 128, 256
SMALL_D_POINTS = (5_000, 5_000, 25_000)  # level set, M1, M2; M2 is about 5x faster
LARGE_D_POINTS = (1_000, 1_000, 5_000)
WARM_FAMILY = (4, 3)
WARM_POINTS = (64, 64, 64)
TINY_PAIRS = 12
TINY = {"sample_small_d": (((4, 3),), (500, 500, 2_500)),
        "family_large_d": (((12, 51),), (100, 100, 500))}

STAGES = ("hypersurface", "m1", "m2")  # the three objects: M^n, M1, M2
FOCAL = {"m1": "M1", "m2": "M2"}
ROUNDING = 1e-12  # slack for recomputing f, |x| and q in another summation order
GRAD_SUBSAMPLE = 256
TAIL_MIN_OPS = 100  # fewer operations have no tail to speak of: p99 is their maximum
TAIL_SHARE = 0.04  # rerun the slowest 4% of passing operations, about 4x the share above p99
TAIL_RUNS = 2  # extra runs of each tail operation per pass


# -- operations ---------------------------------------------------------------------


@dataclass
class Op:
    """Timings, delivered items and problems of one operation.

    A problem is ``error:<type>`` (the call raised), ``status:<status>`` (a
    certificate that is not ``pass``) or ``wrong:<check>`` (an output failed
    its check).  Any problem fails the operation; ``wrong`` also makes the run
    incorrect.
    """

    seconds: dict = field(default_factory=dict)
    items: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    resid: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def latency(self) -> float:
        return sum(self.seconds.values())

    def stage(self, name: str, fn, *args):
        """Time one stage; return its result, or None if it raised."""
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed call is data: it counts toward failed ops
            result = None
            self.problems.append(f"error:{type(exc).__name__}")
        self.seconds[name] = time.perf_counter() - start
        return result

    def deliver(self, name: str, problem: str | None, items: int) -> None:
        if problem:
            self.problems.append(problem)
        else:
            self.items[name] = items


def check_hypersurface(cert, pair) -> str | None:
    if cert.status == "inconclusive":
        return "status:inconclusive"
    if cert.verdicts != cert.exact_verdicts:
        return "wrong:float_vs_exact_verdicts"
    if cert.status != "pass":  # the chain holds for every pair with min(m1, m2) >= 2
        return f"wrong:status_{cert.status}"
    if cert.n != 2 * (pair.m1 + pair.m2):
        return "wrong:dimension"
    return None


def check_focal(cert, pair, which: str) -> str | None:
    m_this, m_other = (pair.m1, pair.m2) if which == "M1" else (pair.m2, pair.m1)
    dim = m_this + 2 * m_other
    covered = 2 * m_other >= m_this + 3
    if cert.dim != dim or not cert.equivalence_check:
        return "wrong:focal_dimension"
    if (cert.status == "covered") != covered or (covered and cert.lambda1 != dim):
        return "wrong:focal_verdict"
    return None


def certify_op(pair) -> Op:
    op = Op()
    cert = op.stage("hypersurface", certificates.certify_hypersurface, pair)
    if cert is not None:
        op.deliver("hypersurface", check_hypersurface(cert, pair), 1)
    for stage, which in FOCAL.items():
        cert = op.stage(stage, certificates.certify_focal, pair, which)
        if cert is not None:
            op.deliver(stage, check_focal(cert, pair, which), 1)
    return op


@dataclass(frozen=True)
class FamilySpec:
    m1: int
    m2: int
    points: tuple  # per stage
    seeds: tuple  # per stage


def _ready_system(m1: int, m2: int):
    family = fkm.FKMFamily.from_pair(m1, m2)
    report = clifford.verify_system(family.system)
    copy = clifford.CliffordSystem.from_json(family.system.to_json())
    return family, report, copy


def system_stage(op: Op, spec: FamilySpec):
    """Build, verify and JSON round-trip one family's Clifford system."""
    out = op.stage("system", _ready_system, spec.m1, spec.m2)
    if out is None:
        return None
    family, report, copy = out
    system = family.system
    op.counters["verify_checks"] += report.checks
    op.counters["matrix_bytes"] += sum(p.nbytes for p in system.matrices)
    same = (copy.m, copy.l) == (system.m, system.l) and len(copy.matrices) == len(system.matrices)
    if not report.passed:
        op.problems.append("wrong:verify_system")
    elif not (same and all(np.array_equal(a, b) for a, b in zip(copy.matrices, system.matrices))):
        op.problems.append("wrong:json_roundtrip")
    return family


def check_cloud(cloud, family, target: float, count: int) -> tuple[str | None, float | None]:
    """Check a point cloud with F recomputed here; return (problem, worst |f - target|)."""
    x = cloud.points
    mats = [p.astype(np.float64) for p in family.system.matrices]
    if x.shape != (count, family.ambient_dim):
        return "wrong:shape", None
    norm_sq = np.einsum("nd,nd->n", x, x)
    q = np.stack([np.einsum("nd,nd->n", x @ p, x) for p in mats], axis=-1)
    q_sq = np.einsum("nk,nk->n", q, q)
    resid = float(np.max(np.abs(norm_sq**2 - 2.0 * q_sq - target)))
    if np.max(np.abs(np.sqrt(norm_sq) - 1.0)) > ROUNDING:
        return "wrong:unit_norm", resid
    if resid > cloud.tolerance + ROUNDING:
        return "wrong:level", resid
    if target == 1.0 and np.max(np.abs(q)) > math.sqrt(cloud.tolerance):
        return "wrong:m1_quadratic_forms", resid
    if target == -1.0 and np.max(np.abs(q_sq - 1.0)) > cloud.tolerance + ROUNDING:
        return "wrong:m2_quadratic_forms", resid
    sub = x[:GRAD_SUBSAMPLE]
    grad_sq = np.sum(GRAD_F(family, sub) ** 2, axis=-1)
    expected = 16.0 * np.sum(sub * sub, axis=-1) ** 3
    if np.max(np.abs(grad_sq - expected) / expected, initial=0.0) > 1e-9:
        return "wrong:gradient_identity", resid
    return None, resid


def family_op(spec: FamilySpec) -> Op:
    op = Op()
    family = system_stage(op, spec)
    if family is None:
        return op
    calls = (
        ("hypersurface", fkm.sample_level_set, (family, LEVEL_T), LEVEL_T),
        ("m1", fkm.sample_focal_M1, (family,), 1.0),
        ("m2", fkm.sample_focal_M2, (family,), -1.0),
    )
    for (stage, sampler, args, target), count, seed in zip(calls, spec.points, spec.seeds):
        cloud = op.stage(stage, sampler, *args, count, seed)
        if cloud is not None:
            problem, resid = check_cloud(cloud, family, target, count)
            if resid is not None:
                op.resid[stage] = resid
            op.deliver(stage, problem, count)
    return op


def family_spec(m1: int, m2: int, points: tuple, seed: int) -> FamilySpec:
    seeds = tuple(random.Random(f"{seed}:{m1}:{m2}:{stage}").randrange(2**63) for stage in STAGES)
    return FamilySpec(m1, m2, tuple(points), seeds)


def workload_ops(name: str, seed: int, tiny: bool) -> list:
    """The operations of one pass, as (function, input) pairs, generated from the seed."""
    if name == "certify_catalog":
        pairs = [p for p in catalog.admissible_pairs(CATALOG_MAX_SUM) if min(p.m1, p.m2) >= 2]
        random.Random(seed).shuffle(pairs)
        return [(certify_op, p) for p in (pairs[:TINY_PAIRS] if tiny else pairs)]
    families, points = {"sample_small_d": (SMALL_D, SMALL_D_POINTS),
                        "family_large_d": (LARGE_D, LARGE_D_POINTS)}[name]
    if tiny:
        families, points = TINY[name]
    admissible = {(p.m1, p.m2) for p in catalog.admissible_pairs(max(a + b for a, b in families))}
    for m1, m2 in families:
        if (min(m1, m2), max(m1, m2)) not in admissible:
            raise ValueError(f"({m1}, {m2}) is not an admissible pair")
    return [(family_op, family_spec(m1, m2, points, seed)) for m1, m2 in families]


WARM_SPEC = family_spec(*WARM_FAMILY, WARM_POINTS, 0)


def warm_up(ops: list) -> list:
    """Finish lazy set-up before timing: scipy's quad, the first BLAS call, clifford's caches."""
    warm = [certify_op(catalog.pair_g4(*WARM_FAMILY)), family_op(WARM_SPEC)]
    for fn, spec in ops:
        if fn is family_op:
            fkm.FKMFamily.from_pair(spec.m1, spec.m2)
    return warm


def cold_system_ready(ops: list) -> tuple[float, list]:
    """Build, verify and round-trip each family's system once, before any cache is warm.

    certify_catalog builds no family of its own; there it measures the warm-up family.
    """
    specs = [spec for fn, spec in ops if fn is family_op] or [WARM_SPEC]
    start = time.perf_counter()
    done = []
    for spec in specs:
        op = Op()
        system_stage(op, spec)
        done.append(op)
    return time.perf_counter() - start, done


# -- metrics --------------------------------------------------------------------------


def op_samples(passes: list, extras: list) -> list:
    """Every timed run of each operation: one per pass, plus its extra tail runs."""
    samples = [list(runs) for runs in zip(*passes)]
    for i, op in extras:
        samples[i].append(op)
    return samples


def best_times(samples: list) -> list:
    """Each operation's stage times, each at its minimum over the operation's runs."""
    return [{stage: min(op.seconds[stage] for op in runs) for stage in runs[0].seconds}
            for runs in samples]


def tail_ops(passes: list, extras: list) -> list:
    """Indices of the passing operations with the slowest best latencies so far."""
    best = [sum(times.values()) for times in best_times(op_samples(passes, extras))]
    ok = [i for i, op in enumerate(passes[0]) if op.ok]
    if not ok:
        return []
    cut = np.quantile([best[i] for i in ok], 1.0 - TAIL_SHARE)
    return [i for i in ok if best[i] >= cut]


def end_to_end(passes: list, extras: list, slowdown: float) -> dict:
    """End-to-end metrics from each operation's fastest time over its runs.

    Every pass runs the same inputs, so each stage of each operation is timed
    once per pass, and tail operations a few times more (see ``run_passes``).
    Other tenants of the machine slow it down, in bursts of a second or so
    and in phases of minutes.  Bursts only add time, so each stage counts at
    its minimum over its runs; a pass time is the sum of those minima.
    Phases slow everything alike, so every time is divided by the host
    slowdown that the probe measured in the same process.  Counts and
    ``ok_ratio`` come from the passes alone.
    """
    best = [{stage: t / slowdown for stage, t in times.items()}
            for times in best_times(op_samples(passes, extras))]
    rates = {}
    for stage in STAGES:
        items = sum(op.items.get(stage, 0) for op in passes[0])
        busy = sum(times.get(stage, 0.0) for times in best)
        rates[f"{stage}_per_s"] = items / busy if busy else 0.0
    latencies = [sum(times.values()) for op, times in zip(passes[0], best) if op.ok]
    p50, p99 = np.percentile(latencies or [sum(times.values()) for times in best], [50, 99])
    ops = [op for done in passes for op in done]
    return {
        "wall_s": sum(sum(times.values()) for times in best),
        "ok_ratio": sum(op.ok for op in ops) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **rates,
        "op_p50_ms": float(p50) * 1e3,
        "op_p99_ms": float(p99) * 1e3,
    }


def per_layer(spans: list, ops: list, cold_s: float) -> dict:
    """Per-layer metrics over every traced span: set-up, warm-up and the pass."""
    by_name, by_sampler = tracing.summarize(spans)
    m = {}
    layers = Counter()
    for name, entry in by_name.items():
        layers[name.split(".")[0]] += entry["self_s"]
    for layer in ("catalog", "clifford", "fkm", "certificates", "exact", "bench"):
        m[f"layer.{layer}.self_s"] = layers[layer]
    m["trace.spans"] = len(spans)

    m["catalog.admissible_pairs.s"] = by_name["catalog.admissible_pairs"]["self_s"]

    m["clifford.system_ready_cold_s"] = cold_s
    for fn in ("build_system", "verify_system"):
        m[f"clifford.{fn}.s"] = by_name[f"clifford.{fn}"]["self_s"]
    m["clifford.verify_system.checks"] = sum(op.counters["verify_checks"] for op in ops)
    m["clifford.json_roundtrip.s"] = by_name["clifford.to_json"]["self_s"] + by_name["clifford.from_json"]["self_s"]
    m["clifford.matrix_bytes"] = sum(op.counters["matrix_bytes"] for op in ops)

    for fn in ("eval_F", "quadratic_forms", "grad_F", "spherical_gradient", "unit_normal"):
        entry = by_name[f"fkm.{fn}"]
        m[f"fkm.{fn}.s"] = entry["self_s"]
        m[f"fkm.{fn}.calls"] = entry["calls"]
        m[f"fkm.{fn}.rows"] = entry["rows"]
    gflop = sum(by_name[name]["flop"] for name in tracing.MATMUL_KERNELS) / 1e9
    m["fkm.kernel_gflop"] = gflop
    m["fkm.kernel_gflop_per_s"] = gflop / sum(by_name[name]["self_s"] for name in tracing.MATMUL_KERNELS)
    m["fkm._gauss_newton_focal.s"] = by_name["fkm._gauss_newton_focal"]["self_s"]
    m["fkm._gauss_newton_focal.rows"] = by_name["fkm._gauss_newton_focal"]["rows"]
    for name, kind in tracing.SAMPLERS.items():
        work = by_sampler[kind]
        stage = "hypersurface" if kind == "level" else kind
        m[f"{name}.s"] = by_name[name]["self_s"]
        m[f"fkm.{kind}.kernel_rows_per_point"] = work["kernel_rows"] / work["points"]
        m[f"fkm.{kind}.max_resid"] = max(op.resid.get(stage, 0.0) for op in ops)
    m["fkm.m1.gn_rows_per_point"] = by_sampler["m1"]["gn_rows"] / by_sampler["m1"]["points"]

    pairs = by_name["certificates.certify_hypersurface"]["calls"]
    for fn in ("certify_hypersurface", "integral_G", "integral_K", "quad", "gamma_ratio_S",
               "threshold_A", "certify_focal"):
        entry = by_name[f"certificates.{fn}"]
        m[f"certificates.{fn}.ms_per_pair"] = entry["self_s"] * 1e3 / pairs
        m[f"certificates.{fn}.calls_per_pair"] = entry["calls"] / pairs
    problems = Counter(p for op in ops for p in op.problems)
    m["certificates.inconclusive"] = problems["status:inconclusive"]
    m["certificates.overflow_errors"] = problems["error:OverflowError"]

    m["exact.sign_of_terms.s"] = by_name["exact.sign_of_terms"]["self_s"]
    m["exact.sign_of_terms.calls"] = by_name["exact.sign_of_terms"]["calls"]
    m["exact.beta_half.s"] = by_name["exact.beta_half"]["self_s"]
    m["exact.gamma_half.s"] = by_name["exact.gamma_half"]["self_s"]
    return m


# -- provenance -----------------------------------------------------------------------


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(),
                 "threads_requested": os.environ.get("OPENBLAS_NUM_THREADS")},
    }


# -- host speed -----------------------------------------------------------------------

PROBE_X = np.random.default_rng(0).standard_normal((4000, 64))
PROBE_P = np.random.default_rng(1).standard_normal((64, 64))
# the probe's fastest time on the 2-vCPU Xeon machine where the baseline was taken
PROBE_NOMINAL_S = 0.00145
PROBE_EVERY_S = 0.5
PROBES_PER_POINT = 3  # back to back, so that one point can catch a gap between bursts
SETUP_PROBE_POINTS = 4


def host_probe() -> float:
    """Time a fixed piece of Python and BLAS work that calls nothing of the package."""
    start = time.perf_counter()
    total = 0.0
    for i in range(1, 4000):
        total += math.sin(i) ** 3 / i
    total += float(np.sum((PROBE_X @ PROBE_P) * PROBE_X))
    return time.perf_counter() - start


def host_slowdown(probes: list) -> float:
    """How much slower than nominal the machine ran at its fastest moment in this process."""
    return min(probes) / PROBE_NOMINAL_S


# -- main -----------------------------------------------------------------------------


def run_passes(ops: list, seconds: float, min_passes: int, max_passes: int, span,
               probes: list) -> tuple[list, list]:
    """Whole passes until ``seconds`` have gone by, within [min_passes, max_passes].

    On a workload of at least TAIL_MIN_OPS operations, every pass after the
    first also reruns the tail: the TAIL_SHARE slowest passing operations so
    far, TAIL_RUNS times each.  The reruns are spread evenly through the pass,
    so that one operation's runs fall seconds apart, in different bursts.  A
    burst that hit each of an operation's few runs would otherwise lift it
    into the tail, and the p99 would measure the bursts.  Returns the passes
    and the reruns, as (operation index, Op) pairs.

    Between operations, at most every PROBE_EVERY_S, the host probe runs
    PROBES_PER_POINT times and its times are appended to ``probes``.
    """
    passes, extras = [], []
    start = last_probe = time.perf_counter()
    while len(passes) < max_passes and (len(passes) < min_passes or time.perf_counter() - start < seconds):
        tail = tail_ops(passes, extras) if passes and len(ops) >= TAIL_MIN_OPS else []
        queue = tail * TAIL_RUNS
        every = max(1, len(ops) // len(queue)) if queue else 0
        done = []
        for k, (fn, arg) in enumerate(ops):
            with span("bench.op"):
                done.append(fn(arg))
            if queue and (k + 1) % every == 0:
                i = queue.pop(0)
                with span("bench.op"):
                    extras.append((i, ops[i][0](ops[i][1])))
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probes.extend(host_probe() for _ in range(PROBES_PER_POINT))
                last_probe = time.perf_counter()
        passes.append(done)
    return passes, extras


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify_catalog", "sample_small_d", "family_large_d"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-passes", type=int, default=4)
    parser.add_argument("--max-passes", type=int, default=10**9)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans", help="write the traced spans to this JSON file")
    args = parser.parse_args(argv)

    tracer = tracing.Tracer() if args.trace else None
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    if tracer:
        tracing.install(tracer)
    with span("bench.inputs"):
        ops = workload_ops(args.workload, args.seed, args.tiny)
    side_ops = []  # cold and warm-up operations: checked, not counted as attempted
    cold_s = 0.0
    if tracer:
        with span("bench.cold"):
            cold_s, side_ops = cold_system_ready(ops)
    with span("bench.warmup"):
        side_ops += warm_up(ops)
    print("ready", flush=True)
    setup_probes = []
    for _ in range(SETUP_PROBE_POINTS):
        setup_probes.extend(host_probe() for _ in range(PROBES_PER_POINT))
        time.sleep(0.02)
    setup_slowdown = host_slowdown(setup_probes)
    if args.setup_only:
        print(json.dumps({"setup_slowdown": setup_slowdown}))
        return 0

    probes = []
    passes, extras = run_passes(ops, args.seconds, args.min_passes, args.max_passes, span, probes)
    slowdown = host_slowdown(setup_probes + probes)
    pass_ops = [op for done in passes for op in done]
    every_op = side_ops + pass_ops + [op for _, op in extras]
    result = {
        "correct": not any(p.startswith("wrong:") for op in every_op for p in op.problems),
        "attempted": len(pass_ops),
        "failed": sum(not op.ok for op in pass_ops),
        "walls": [sum(op.latency for op in done) for done in passes],
        "tail_reruns": len(extras),
        "setup_slowdown": setup_slowdown,
        "host_slowdown": slowdown,
        "problems": dict(Counter(p for op in pass_ops for p in op.problems)),
        "metrics": per_layer(tracer.spans, every_op, cold_s) if tracer else end_to_end(passes, extras, slowdown),
        "provenance": provenance(),
    }
    if tracer and args.spans:
        names = sorted({s[0] for s in tracer.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(args.spans, "w") as fh:
            json.dump({"names": names, "columns": ["name", "start", "end", "parent", "counters"],
                       "spans": [[index[s[0]], *s[1:]] for s in tracer.spans]}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
