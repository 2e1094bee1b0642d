"""In-memory spans for the traced benchmark run, recorded from outside the package.

``install`` replaces each traced function at the module attribute where its
caller looks it up (``certificates`` imports ``quad`` and ``sign_of_terms`` by
name, so those are wrapped in ``isospectra.certificates``).  Nothing under
``src/`` changes, and an untraced run never calls ``install``.

A span is ``[name, start, end, parent, counters]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``counters`` holds work counts taken
from the call's arguments or result (rows, flops, points).  A span's name
starts with its layer: ``catalog``, ``clifford``, ``fkm``, ``certificates``,
``exact``, or ``bench`` for the benchmark's own phase and operation spans.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

SAMPLERS = {
    "fkm.sample_level_set": "level",
    "fkm.sample_focal_M1": "m1",
    "fkm.sample_focal_M2": "m2",
}
# the fkm functions that multiply the point rows by every P_i
MATMUL_KERNELS = ("fkm.quadratic_forms", "fkm.grad_F")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(index)
        return index

    def close(self, index: int, counters: dict | None = None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = counters
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) > 1 else 1


def _kernel_counts(args, result) -> dict:
    family, x = args[0], args[1]
    rows = _rows(x)
    d = family.ambient_dim
    return {"rows": rows, "flop": 2.0 * rows * d * d * len(family.system.matrices)}


def _row_counts(args, result) -> dict:
    return {"rows": _rows(args[1])}


def _point_counts(args, result) -> dict:
    return {"points": result.count} if result is not None else {}


def traced(tracer: Tracer, name: str, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.close(index, count(args, result) if count else None)

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every traced name of the package; lasts for the life of the process."""
    from isospectra import catalog, certificates, clifford, exact, fkm

    targets = [(catalog, "admissible_pairs", "catalog.admissible_pairs", None)]
    targets += [
        (certificates, attr, f"catalog.{attr}", None)
        for attr in ("minimal_angle", "hypersurface_dimension", "focal_dimensions",
                     "is_ot_fkm", "sin2_theta1_triplet")
    ]
    targets += [
        (fkm, "clifford_multiplier", "catalog.clifford_multiplier", None),
        (fkm, "build_system", "clifford.build_system", None),
        (clifford, "verify_system", "clifford.verify_system", None),
        (fkm, "_gauss_newton_focal", "fkm._gauss_newton_focal", _row_counts),
    ]
    targets += [
        (fkm, attr, f"fkm.{attr}", _kernel_counts if f"fkm.{attr}" in MATMUL_KERNELS else _row_counts)
        for attr in ("quadratic_forms", "eval_F", "grad_F", "spherical_gradient", "unit_normal")
    ]
    targets += [(fkm, name.split(".")[1], name, _point_counts) for name in SAMPLERS]
    targets += [
        (certificates, attr, f"certificates.{attr}", None)
        for attr in ("certify_hypersurface", "certify_focal", "integral_G", "integral_K",
                     "gamma_ratio_S", "threshold_A", "quad")
    ]
    targets += [
        (certificates, attr, f"exact.{attr}", None)
        for attr in ("sign_of_terms", "beta_half", "gamma_half")
    ]
    targets.append((exact, "gamma_half", "exact.gamma_half", None))  # called by beta_half
    for module, attr, name, count in targets:
        setattr(module, attr, traced(tracer, name, getattr(module, attr), count))

    system, family = clifford.CliffordSystem, fkm.FKMFamily
    system.to_json = traced(tracer, "clifford.to_json", system.to_json)
    system.from_json = staticmethod(traced(tracer, "clifford.from_json", system.from_json))
    family.from_pair = staticmethod(traced(tracer, "fkm.from_pair", family.from_pair))


def _sampler_of(spans: list[list], index: int) -> str | None:
    parent = spans[index][3]
    while parent >= 0:
        kind = SAMPLERS.get(spans[parent][0])
        if kind:
            return kind
        parent = spans[parent][3]
    return None


def summarize(spans: list[list]) -> tuple[dict, dict]:
    """Per-name totals and per-sampler work, from the recorded spans.

    Returns ``(by_name, by_sampler)``.  ``by_name[name]`` holds ``calls``,
    ``self_s`` (duration minus the time covered by child spans) and summed
    counters.  ``by_sampler[kind]`` holds the points the sampler returned and
    the kernel and Gauss-Newton rows computed under it.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    by_name: dict = defaultdict(lambda: defaultdict(float))
    by_sampler: dict = defaultdict(lambda: defaultdict(float))
    for index, (name, start, end, _, counters) in enumerate(spans):
        entry = by_name[name]
        entry["calls"] += 1
        entry["self_s"] += end - start - child_s[index]
        for key, value in (counters or {}).items():
            entry[key] += value
        if name in SAMPLERS:
            by_sampler[SAMPLERS[name]]["points"] += (counters or {}).get("points", 0)
        elif name in MATMUL_KERNELS or name == "fkm._gauss_newton_focal":
            kind = _sampler_of(spans, index)
            if kind:
                key = "gn_rows" if name == "fkm._gauss_newton_focal" else "kernel_rows"
                by_sampler[kind][key] += counters["rows"]
    return by_name, by_sampler
