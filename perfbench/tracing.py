"""In-memory spans around the package calls the benchmark makes.

Each op of a workload calls the package through an ``api`` namespace.  The
plain namespace holds the package functions themselves; the traced one wraps
each of them in a span named ``<module>.<function>`` whose parent is the op
span.  Spans are kept in a list and written out when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from types import SimpleNamespace

# span name -> attribute of the api namespace; each is exported by ``metastrain``
PACKAGE_CALLS = {
    "geometry.make_disk_cell": "make_disk_cell",
    "geometry.make_smooth_cell": "make_smooth_cell",
    "geometry.perturb_normal": "perturb_normal",
    "layer_ops.assemble_single_layer": "assemble_single_layer",
    "layer_ops.assemble_np_adjoint": "assemble_np_adjoint",
    "spectral.eigendecompose": "eigendecompose",
    "spectral.alpha_infinity": "alpha_infinity",
    "spectral.alpha_field": "alpha_field",
    "resonance_sweep.sweep": "sweep",
    "resonance_sweep.dominant_peak": "dominant_peak",
    "strain.invert_peak_to_deformation": "invert_peak_to_deformation",
    "capsule_scattering.extinction_spectrum": "extinction_spectrum",
    "shape_deriv.shape_derivative": "shape_derivative",
}

OP_SPAN = "bench.op"


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    op_id: int
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``op_id`` tags every span opened while an op runs."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self.op_id = -1

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, self.op_id, name, start, end))

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def records(self) -> list[dict]:
        return [asdict(s) for s in sorted(self.spans, key=lambda s: s.span_id)]


def make_api(package, bench_calls: dict, tracer: Tracer | None = None) -> SimpleNamespace:
    """Namespace of the package calls plus the benchmark's own helpers.

    ``bench_calls`` maps span names such as ``bench.track_mode`` to functions.
    With a tracer every entry is wrapped in a span of its name.
    """
    entries = {name: getattr(package, attr) for name, attr in PACKAGE_CALLS.items()}
    entries.update(bench_calls)
    api = {}
    for name, fn in entries.items():
        api[name.rsplit(".", 1)[1]] = fn if tracer is None else tracer.wrap(name, fn)
    return SimpleNamespace(**api)
