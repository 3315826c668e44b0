"""The wire job model: JSON specs -> the exact one-shot ``SimJob``.

A service client describes a loop job as pure JSON (it crosses a
socket), and the daemon rebuilds from it the *same*
:class:`~repro.batch.SimJob` a one-shot caller would construct by
hand.  That identity is the service's core correctness contract: a
job executed through the daemon and the identical job run as
``job_from_spec(spec).run()`` in a single process produce bit-equal
results and byte-equal canonical stream digests (see
:func:`repro.obs.stream_digest`), so the whole verification machinery
built for one-shot runs transfers to service runs unchanged.

Spec shape (only ``scheme`` and ``workload`` are required)::

    {
      "scheme":   "TSS",                  # any registry name, incl.
                                          # "adaptive:TSS+FSS@8"
      "engine":   "master",               # master | tree | decentral
      "workload": {"kind": "uniform", "size": 500, "unit": 1e-4},
      "cluster":  {"nodes": [{"name": "n0", "speed": 100.0}, ...],
                   "master_service": 2e-4, ...},
      "params":   {"alpha": 2.0, ...},    # extra simulate kwargs
      "chaos":    {...FaultPlan.to_json()...},   # optional fault plan
      "chaos_scale": 0.5,                 # optional FaultPlan.scaled
      "tag":      "free-form label",
      "results":  false,                  # ship loop results back?
      "trace":    false                   # ship the obs trace back?
    }

``cluster`` defaults to ``workers`` (default 4) identical 100-ops/s
nodes; either spelling is capped at :data:`MAX_WORKERS` PEs.  Loops
are capped at :data:`MAX_ITERATIONS` iterations, Mandelbrot windows
at :data:`MAX_PIXELS` pixels and :data:`MAX_ESCAPE_STEPS` escape
steps (:data:`MAX_ESCAPE_ITER` a pixel), spin loops at
:data:`MAX_SPIN_PASSES` passes over at most :data:`MAX_VECLEN` floats,
and virtual powers at :data:`MAX_VIRTUAL_POWER`; a spec over any bound
is refused.  Workload kinds map onto :mod:`repro.workloads`:
``uniform``, ``linear``, ``conditional``, ``random``,
``gaussian-peak``, ``trace``, ``spin`` and ``mandelbrot`` (the
paper's loop; expensive -- its cost
profile is resolved by the pool worker that runs the job, through the
:mod:`repro.cache` directory every worker and every tenant shares).
"""

from __future__ import annotations

from typing import Any, Optional

from ..batch import SimJob
from ..simulation import ClusterSpec, NodeSpec, SimulationError
from ..workloads import Workload

__all__ = [
    "MAX_WORKERS",
    "MAX_ITERATIONS",
    "MAX_PIXELS",
    "MAX_ESCAPE_STEPS",
    "MAX_ESCAPE_ITER",
    "MAX_SPIN_PASSES",
    "MAX_VECLEN",
    "MAX_VIRTUAL_POWER",
    "JobSpecError",
    "workload_from_spec",
    "cluster_from_spec",
    "job_from_spec",
]


#: The largest cluster a wire spec may ask for, in either spelling
#: (``workers`` or a ``nodes`` array).  Admission runs on the daemon's
#: event loop and builds one node per PE, so an unbounded count would
#: stall or kill the daemon for every tenant.  The paper's testbed has
#: 9 PEs.
MAX_WORKERS = 1024

#: The largest loop a wire spec may ask for: a workload ``size``, a
#: ``trace``'s cost count, a ``mandelbrot`` ``width``.  A pool worker's
#: memory grows with the loop, steepest under SS: one chunk row and
#: four events per iteration, about 3 KB at the peak of a traced
#: reply, so the worst admitted job peaks near 300 MB.  The paper's
#: largest loop is a 4000-column window.  The bound also keeps every
#: ``start`` / ``stop`` in a reply within 64 bits.
MAX_ITERATIONS = 100_000

#: The largest ``mandelbrot`` window (``width * height``): the paper's
#: largest, 4000 x 2000.  The cost pass keeps every pixel's escape
#: count (4 bytes) and holds complex temporaries for up to 512 columns
#: at a time.
MAX_PIXELS = 4000 * 2000

#: The most escape-time steps a ``mandelbrot`` spec may ask for
#: (``width * height * max_iter``): the paper's largest window at the
#: default ``max_iter`` of 64.  The pool worker's cost pass runs up to
#: ``max_iter`` steps per pixel, so no admitted window costs more CPU
#: than that one (~2 s on one core); a smaller window may iterate
#: deeper, down to :data:`MAX_ESCAPE_ITER` steps a pixel.  That cap
#: is there because a step costs ~5 us of loop overhead per 512-column
#: block however few pixels are still live: one pixel of the set at
#: ``max_iter`` 10^8 would hold a worker for minutes.
MAX_ESCAPE_STEPS = MAX_PIXELS * 64
MAX_ESCAPE_ITER = 4096

#: The most vector passes a ``spin`` spec may ask for (``size *
#: spins``), each over at most :data:`MAX_VECLEN` floats.  With
#: ``results`` a pool worker runs every pass (~20 us at the default
#: ``veclen`` on one core, ~2 us even over a few floats), so the worst
#: admitted spin job is the default one -- 20 passes of 2048 floats an
#: iteration -- at :data:`MAX_ITERATIONS`: ~40 s of one core.
MAX_SPIN_PASSES = MAX_ITERATIONS * 20
MAX_VECLEN = 2048

#: The largest ``virtual_power`` a node may declare.  A PE's ACP is
#: ``floor(scale * V / Q)`` and rides in every chunk row it wins; this
#: keeps it, and the sum over :data:`MAX_WORKERS` PEs, within 64 bits.
#: The paper's virtual powers are relative speeds between 1 and ~3.
MAX_VIRTUAL_POWER = 1e6


class JobSpecError(ValueError):
    """A wire job spec is malformed (unknown kind, bad field, ...)."""


def _bounded(value: Any, what: str, bound: int) -> int:
    """``int(value)``, refused above ``bound``."""
    n = int(value)
    if n > bound:
        raise JobSpecError(f"{what} must be <= {bound}, got {n}")
    return n


def _size(spec: dict) -> int:
    return _bounded(spec["size"], "size", MAX_ITERATIONS)


def _spec_number(value: Any, what: str) -> float:
    """Coerce a JSON field to float, turning junk into a bad-spec.

    Raw ``float(...)`` on untrusted wire input would escape the
    admission guard and kill the connection handler instead of
    producing a ``bad-spec`` rejection.
    """
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise JobSpecError(
            f"{what} must be a number, got {value!r}"
        ) from exc


def _build_uniform(spec: dict) -> Workload:
    from ..workloads import UniformWorkload

    return UniformWorkload(
        size=_size(spec), unit=float(spec.get("unit", 1.0))
    )


def _build_linear(spec: dict) -> Workload:
    from ..workloads import LinearWorkload

    return LinearWorkload(
        size=_size(spec),
        increasing=bool(spec.get("increasing", True)),
        base=float(spec.get("base", 1.0)),
        slope=float(spec.get("slope", 1.0)),
    )


def _build_conditional(spec: dict) -> Workload:
    from ..workloads import ConditionalWorkload

    return ConditionalWorkload(
        size=_size(spec),
        cost_true=float(spec.get("cost_true", 10.0)),
        cost_false=float(spec.get("cost_false", 1.0)),
    )


def _build_random(spec: dict) -> Workload:
    from ..workloads import RandomWorkload

    return RandomWorkload(
        size=_size(spec),
        seed=int(spec.get("seed", 0)),
        mean=float(spec.get("mean", 1.0)),
        sigma=float(spec.get("sigma", 1.0)),
    )


def _build_gaussian(spec: dict) -> Workload:
    from ..workloads import GaussianPeakWorkload

    return GaussianPeakWorkload(
        size=_size(spec),
        amplitude=float(spec.get("amplitude", 100.0)),
        floor=float(spec.get("floor", 1.0)),
        center=(
            float(spec["center"]) if spec.get("center") is not None
            else None
        ),
        width=(
            float(spec["width"]) if spec.get("width") is not None
            else None
        ),
    )


def _build_trace(spec: dict) -> Workload:
    from ..workloads.synthetic import TraceWorkload

    costs = spec.get("costs")
    if not isinstance(costs, (list, tuple)) or not costs:
        raise JobSpecError(
            "trace workloads need a non-empty 'costs' array"
        )
    _bounded(len(costs), "trace length", MAX_ITERATIONS)
    return TraceWorkload(costs)


def _build_spin(spec: dict) -> Workload:
    from ..workloads.synthetic import SpinWorkload

    wl = SpinWorkload(
        size=_size(spec),
        spins=int(spec.get("spins", 20)),
        veclen=_bounded(spec.get("veclen", 2048), "veclen", MAX_VECLEN),
    )
    _bounded(wl.size * wl.spins, "size * spins", MAX_SPIN_PASSES)
    return wl


def _build_mandelbrot(spec: dict) -> Workload:
    from ..workloads import MandelbrotWorkload

    width = _bounded(spec.get("width", 400), "width", MAX_ITERATIONS)
    height = int(spec.get("height", 200))
    # An empty window still lays out one column of ``height`` points.
    pixels = _bounded(max(width, 1) * height, "width * height", MAX_PIXELS)
    kwargs: dict[str, Any] = {"width": width, "height": height}
    if spec.get("max_iter") is not None:
        kwargs["max_iter"] = _bounded(spec["max_iter"], "max_iter",
                                      MAX_ESCAPE_ITER)
    wl = MandelbrotWorkload(**kwargs)
    _bounded(pixels * wl.max_iter, "width * height * max_iter",
             MAX_ESCAPE_STEPS)
    sf = spec.get("sf")
    if sf is not None:
        from ..workloads import ReorderedWorkload

        return ReorderedWorkload(wl, int(sf))
    return wl


_WORKLOAD_BUILDERS = {
    "uniform": _build_uniform,
    "linear": _build_linear,
    "conditional": _build_conditional,
    "random": _build_random,
    "gaussian-peak": _build_gaussian,
    "trace": _build_trace,
    "spin": _build_spin,
    "mandelbrot": _build_mandelbrot,
}


def workload_from_spec(spec: dict) -> Workload:
    """Build the workload a JSON spec names (see module doc)."""
    if not isinstance(spec, dict):
        raise JobSpecError(
            f"workload spec must be an object, got {type(spec).__name__}"
        )
    kind = spec.get("kind")
    builder = (
        _WORKLOAD_BUILDERS.get(kind) if isinstance(kind, str) else None
    )
    if builder is None:
        raise JobSpecError(
            f"unknown workload kind {kind!r}; known kinds: "
            f"{', '.join(sorted(_WORKLOAD_BUILDERS))}"
        )
    if kind not in ("trace", "mandelbrot") and "size" not in spec:
        raise JobSpecError(f"{kind} workloads need a 'size'")
    try:
        return builder(spec)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # OverflowError: ``int(inf)`` -- JSON's 1e400 or ``Infinity``.
        if isinstance(exc, JobSpecError):
            raise
        raise JobSpecError(f"bad {kind} workload spec: {exc}") from exc


def cluster_from_spec(
    spec: Optional[dict], default_workers: int = 4
) -> ClusterSpec:
    """Build a :class:`ClusterSpec` from JSON (or the default cluster).

    ``None`` (or ``{"workers": p}``) yields ``p`` identical
    100-ops/s nodes -- the homogeneous testbed most service jobs want.
    An explicit ``nodes`` array carries the full heterogeneous form.
    """
    spec = spec or {}
    if not isinstance(spec, dict):
        raise JobSpecError(
            f"cluster spec must be an object, got {type(spec).__name__}"
        )
    cluster_kwargs: dict[str, Any] = {}
    for field in ("master_service", "request_bytes", "reply_bytes",
                  "result_bytes_per_item", "master_bandwidth"):
        if spec.get(field) is not None:
            cluster_kwargs[field] = _spec_number(
                spec[field], f"cluster {field}"
            )
    raw_nodes = spec.get("nodes")
    if raw_nodes is None:
        try:
            workers = int(spec.get("workers", default_workers))
        except (TypeError, ValueError, OverflowError) as exc:
            raise JobSpecError(
                f"workers must be an integer, got "
                f"{spec.get('workers')!r}"
            ) from exc
        if workers < 1:
            raise JobSpecError(f"workers must be >= 1, got {workers}")
        if workers > MAX_WORKERS:
            raise JobSpecError(
                f"workers must be <= {MAX_WORKERS}, got {workers}"
            )
        raw_nodes = [{"name": f"n{i}", "speed": 100.0}
                     for i in range(workers)]
    if not isinstance(raw_nodes, (list, tuple)):
        raise JobSpecError(
            f"cluster nodes must be an array, got "
            f"{type(raw_nodes).__name__}"
        )
    if len(raw_nodes) > MAX_WORKERS:
        raise JobSpecError(
            f"cluster nodes must number <= {MAX_WORKERS}, got "
            f"{len(raw_nodes)}"
        )
    nodes = []
    for i, doc in enumerate(raw_nodes):
        if not isinstance(doc, dict) or "speed" not in doc:
            raise JobSpecError(
                f"node {i} must be an object with at least a 'speed'"
            )
        node_kwargs: dict[str, Any] = {
            "name": str(doc.get("name", f"n{i}")),
            "speed": _spec_number(doc["speed"], f"node {i} speed"),
        }
        for field in ("latency", "bandwidth", "virtual_power",
                      "fails_at"):
            if doc.get(field) is not None:
                node_kwargs[field] = _spec_number(
                    doc[field], f"node {i} {field}"
                )
        if doc.get("segment") is not None:
            node_kwargs["segment"] = str(doc["segment"])
        if node_kwargs.get("virtual_power", 1.0) > MAX_VIRTUAL_POWER:
            raise JobSpecError(
                f"node {i} virtual_power must be <= {MAX_VIRTUAL_POWER:g}, "
                f"got {node_kwargs['virtual_power']!r}"
            )
        try:
            nodes.append(NodeSpec(**node_kwargs))
        except SimulationError as exc:
            # NodeSpec's own range validation (speed > 0, ...).
            raise JobSpecError(f"bad node {i}: {exc}") from exc
    try:
        return ClusterSpec(nodes=nodes, **cluster_kwargs)
    except (TypeError, ValueError, SimulationError) as exc:
        # TypeError: unknown kwarg from the spec; ValueError and
        # SimulationError: the constructor's own validation (an empty
        # ``nodes`` array, ...).  Anything else is a real bug.
        raise JobSpecError(f"bad cluster spec: {exc}") from exc


def job_from_spec(spec: dict) -> SimJob:
    """Build the one-shot :class:`SimJob` a wire spec describes.

    Raises :class:`JobSpecError` on anything malformed -- including an
    unknown scheme name, checked against the registry here so the
    daemon rejects at admission instead of failing deep inside a pool
    worker.
    """
    if not isinstance(spec, dict):
        raise JobSpecError(
            f"job spec must be an object, got {type(spec).__name__}"
        )
    scheme = spec.get("scheme")
    if not isinstance(scheme, str) or not scheme:
        raise JobSpecError("job spec needs a 'scheme' string")
    from ..core import registry
    from ..core.base import SchemeError

    try:
        registry.parse(scheme)
    except SchemeError as exc:
        raise JobSpecError(str(exc)) from exc
    engine = spec.get("engine", "master")
    workload = workload_from_spec(spec.get("workload"))
    cluster = cluster_from_spec(spec.get("cluster"))
    params = spec.get("params") or {}
    if not isinstance(params, dict):
        raise JobSpecError(
            f"params must be an object, got {type(params).__name__}"
        )
    params = dict(params)
    if spec.get("chaos") is not None:
        from ..chaos import FaultPlan

        scale = spec.get("chaos_scale")
        if scale is not None:
            scale = _spec_number(scale, "chaos_scale")
        try:
            plan = FaultPlan.from_json(spec["chaos"])
            if scale is not None:
                plan = plan.scaled(scale)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            # The shapes malformed JSON actually produces: missing
            # keys, wrong field types, bad enum values, a scale that
            # is not > 0.
            raise JobSpecError(f"bad chaos plan: {exc!r}") from exc
        params["chaos"] = plan
    if spec.get("results"):
        params["collect_results"] = True
    try:
        return SimJob(
            scheme=scheme,
            workload=workload,
            cluster=cluster,
            engine=str(engine),
            params=params,
            tag=str(spec.get("tag", "")),
            collect_events=True,
        )
    except ValueError as exc:
        raise JobSpecError(str(exc)) from exc
