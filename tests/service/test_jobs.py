"""Wire job model: spec -> SimJob identity, validation, rejection."""

from __future__ import annotations

import json

import pytest

from repro.batch import SimJob
from repro.obs import stream_digest
from repro.service.jobs import (
    MAX_ESCAPE_ITER,
    MAX_ESCAPE_STEPS,
    MAX_ITERATIONS,
    MAX_PIXELS,
    MAX_SPIN_PASSES,
    MAX_VECLEN,
    MAX_VIRTUAL_POWER,
    MAX_WORKERS,
    JobSpecError,
    cluster_from_spec,
    job_from_spec,
    workload_from_spec,
)
from repro.workloads import (
    LinearWorkload,
    MandelbrotWorkload,
    UniformWorkload,
)


class TestWorkloadFromSpec:
    def test_uniform(self):
        wl = workload_from_spec(
            {"kind": "uniform", "size": 50, "unit": 2.0}
        )
        assert isinstance(wl, UniformWorkload)
        assert wl.size == 50
        assert list(wl.costs()) == [2.0] * 50

    def test_linear_decreasing(self):
        wl = workload_from_spec(
            {"kind": "linear", "size": 10, "increasing": False}
        )
        assert isinstance(wl, LinearWorkload)
        costs = list(wl.costs())
        assert costs == sorted(costs, reverse=True)

    def test_trace_needs_costs(self):
        with pytest.raises(JobSpecError, match="costs"):
            workload_from_spec({"kind": "trace"})
        wl = workload_from_spec({"kind": "trace", "costs": [1, 2, 3]})
        assert wl.size == 3

    @pytest.mark.parametrize("bad", [
        float("nan"), float("inf"), -1.0,
    ])
    def test_trace_costs_must_be_finite(self, bad):
        # json.loads reads a bare ``NaN``/``Infinity``, so the daemon
        # can be sent one; it must bounce at admission (bad-spec), not
        # run as a loop with no work in it.
        spec = {
            "scheme": "TSS",
            "workload": {"kind": "trace", "costs": [bad, 2.0]},
        }
        with pytest.raises(JobSpecError, match="bad trace workload"):
            job_from_spec(spec)

    def test_mandelbrot_with_reorder(self):
        wl = workload_from_spec(
            {"kind": "mandelbrot", "width": 64, "height": 32, "sf": 4}
        )
        assert wl.size == 64
        assert isinstance(wl.inner, MandelbrotWorkload)
        assert wl.sf == 4

    def test_unknown_kind_lists_known(self):
        with pytest.raises(JobSpecError, match="uniform"):
            workload_from_spec({"kind": "fractal"})

    def test_missing_size(self):
        with pytest.raises(JobSpecError, match="size"):
            workload_from_spec({"kind": "uniform"})

    def test_non_object(self):
        with pytest.raises(JobSpecError, match="object"):
            workload_from_spec("uniform")

    @pytest.mark.parametrize("text", [
        '{"kind": "uniform", "size": 1e400}',
        '{"kind": "uniform", "size": Infinity}',
        '{"kind": "mandelbrot", "width": 1e400}',
        '{"kind": "mandelbrot", "width": 8, "height": 4, "sf": 1e400}',
        '{"kind": "spin", "size": 8, "veclen": -Infinity}',
        '{"kind": "random", "size": 8, "seed": 1e400}',
    ])
    def test_infinite_integer_fields_become_bad_spec(self, text):
        # json.loads reads 1e400 (and a bare Infinity) as inf, and
        # int(inf) raises OverflowError: it used to escape admission
        # and kill the connection handler without a reply.
        with pytest.raises(JobSpecError, match="bad .* workload spec"):
            workload_from_spec(json.loads(text))

    @pytest.mark.parametrize("kind", [["uniform"], {"k": 1}])
    def test_unhashable_kind_becomes_bad_spec(self, kind):
        with pytest.raises(JobSpecError, match="unknown workload kind"):
            workload_from_spec({"kind": kind, "size": 5})

    @pytest.mark.parametrize("spec, match", [
        ({"kind": "uniform", "size": MAX_ITERATIONS + 1}, "size"),
        ({"kind": "linear", "size": 1e9}, "size"),
        ({"kind": "spin", "size": 10 ** 12}, "size"),
        ({"kind": "random", "size": 2 ** 70}, "size"),
        ({"kind": "trace", "costs": [1.0] * (MAX_ITERATIONS + 1)},
         "trace length"),
        ({"kind": "mandelbrot", "width": MAX_ITERATIONS + 1, "height": 1},
         "width"),
        ({"kind": "mandelbrot", "width": 4001, "height": 2000},
         r"width \* height"),
        ({"kind": "mandelbrot", "width": 0, "height": 10 ** 12},
         r"width \* height"),
    ])
    def test_loop_size_is_bounded(self, spec, match):
        # Finite but huge: the pool worker would allocate per iteration
        # and per pixel (gigabytes), and an int past 64 bits would be
        # in the reply.
        with pytest.raises(JobSpecError, match=match):
            workload_from_spec(spec)

    @pytest.mark.parametrize("spec, match", [
        ({"kind": "mandelbrot", "width": 4000, "height": 2000,
          "max_iter": 65}, r"width \* height \* max_iter"),
        ({"kind": "mandelbrot", "width": 3, "height": 3,
          "max_iter": MAX_ESCAPE_ITER + 1}, "max_iter must be"),
        ({"kind": "mandelbrot", "width": 8, "height": 4,
          "max_iter": 10 ** 12}, "max_iter must be"),
        ({"kind": "spin", "size": MAX_ITERATIONS, "spins": 21},
         r"size \* spins"),
        ({"kind": "spin", "size": 8, "spins": 10 ** 12},
         r"size \* spins"),
        ({"kind": "spin", "size": 8, "veclen": MAX_VECLEN + 1},
         "veclen"),
        ({"kind": "spin", "size": 8, "veclen": 10 ** 12}, "veclen"),
    ])
    def test_pool_worker_cpu_is_bounded(self, spec, match):
        # Finite but huge: the cost pass (max_iter) or the executed
        # vector passes (spins, veclen) would hold a pool worker, and
        # every tenant queued behind it, for hours.
        with pytest.raises(JobSpecError, match=match):
            job_from_spec({"scheme": "TSS", "workload": spec})

    def test_bounds_admit_the_paper_scale(self):
        assert workload_from_spec(
            {"kind": "uniform", "size": MAX_ITERATIONS}).size \
            == MAX_ITERATIONS
        # The paper's largest window, at the default max_iter, is
        # exactly the pixel and escape-step bounds.
        wl = workload_from_spec(
            {"kind": "mandelbrot", "width": 4000, "height": 2000})
        assert wl.width * wl.height == MAX_PIXELS
        assert wl.width * wl.height * wl.max_iter == MAX_ESCAPE_STEPS
        # So is the default spin at the largest loop.
        wl = workload_from_spec(
            {"kind": "spin", "size": MAX_ITERATIONS})
        assert wl.size * wl.spins == MAX_SPIN_PASSES
        assert wl.veclen == MAX_VECLEN


class TestClusterFromSpec:
    def test_default_is_homogeneous(self):
        cluster = cluster_from_spec(None)
        assert len(cluster.nodes) == 4
        assert {n.speed for n in cluster.nodes} == {100.0}

    def test_workers_shorthand(self):
        assert len(cluster_from_spec({"workers": 7}).nodes) == 7
        assert len(cluster_from_spec({"workers": MAX_WORKERS}).nodes) \
            == MAX_WORKERS
        with pytest.raises(JobSpecError, match="workers"):
            cluster_from_spec({"workers": 0})

    @pytest.mark.parametrize("spec", [
        {"workers": MAX_WORKERS + 1},
        {"nodes": [{"speed": 100.0}] * (MAX_WORKERS + 1)},
    ])
    def test_cluster_size_is_bounded(self, spec):
        # Admission builds one node per PE on the daemon's event loop:
        # an unbounded count (``{"workers": 1e9}``) would kill it.
        with pytest.raises(JobSpecError, match=str(MAX_WORKERS)):
            cluster_from_spec(spec)
        with pytest.raises(JobSpecError, match=str(MAX_WORKERS)):
            job_from_spec({"scheme": "TSS", "cluster": spec,
                           "workload": {"kind": "uniform", "size": 5}})

    @pytest.mark.parametrize("power", [MAX_VIRTUAL_POWER * 10, 1e300,
                                       float("inf")])
    def test_virtual_power_is_bounded(self, power):
        # A PE's ACP is floor(scale * V / Q) and rides in every chunk
        # row it wins: V = 1e300 put a 1000-bit int in the reply.
        cluster_from_spec(
            {"nodes": [{"speed": 1.0, "virtual_power": MAX_VIRTUAL_POWER}]})
        with pytest.raises(JobSpecError, match="virtual_power"):
            cluster_from_spec(
                {"nodes": [{"speed": 1.0, "virtual_power": power}]})

    def test_explicit_nodes(self):
        cluster = cluster_from_spec({
            "nodes": [
                {"name": "fast", "speed": 300.0, "segment": "a"},
                {"speed": 100.0, "fails_at": 2.5},
            ],
            "master_service": 1e-3,
        })
        assert cluster.nodes[0].name == "fast"
        assert cluster.nodes[1].fails_at == 2.5
        assert cluster.master_service == 1e-3

    def test_node_without_speed_rejected(self):
        with pytest.raises(JobSpecError, match="speed"):
            cluster_from_spec({"nodes": [{"name": "x"}]})

    @pytest.mark.parametrize("spec, match", [
        ({"nodes": [{"speed": 1.0, "latency": "bogus"}]}, "latency"),
        ({"nodes": [{"speed": "fast"}]}, "speed"),
        ({"nodes": [{"speed": -1.0}]}, "bad node 0"),
        ({"nodes": "nope"}, "array"),
        ({"workers": "many"}, "workers"),
        ({"master_service": [1, 2]}, "master_service"),
        ({"workers": float("inf")}, "workers"),
        ({"nodes": []}, "bad cluster spec"),
    ])
    def test_junk_values_become_bad_spec(self, spec, match):
        # Every conversion must surface as a JobSpecError (-> the
        # daemon's bad-spec rejection), never escape and kill the
        # connection handler.
        with pytest.raises(JobSpecError, match=match):
            cluster_from_spec(spec)


class TestJobFromSpec:
    SPEC = {
        "scheme": "TSS",
        "workload": {"kind": "uniform", "size": 120, "unit": 1e-4},
        "cluster": {"workers": 3},
        "tag": "t",
    }

    def test_junk_chaos_scale_rejected(self):
        spec = dict(self.SPEC)
        spec["chaos"] = {"seed": 1, "faults": []}
        spec["chaos_scale"] = "big"
        with pytest.raises(JobSpecError, match="chaos_scale"):
            job_from_spec(spec)

    def test_builds_the_one_shot_job(self):
        job = job_from_spec(self.SPEC)
        assert isinstance(job, SimJob)
        assert job.scheme == "TSS"
        assert job.engine == "master"
        assert job.collect_events is True
        # Same spec -> same deterministic job key.
        assert job.key == job_from_spec(dict(self.SPEC)).key

    def test_digest_identity_with_one_shot(self):
        """The service correctness contract, in miniature: the job a
        spec builds runs to the same canonical digest every time."""
        d1 = stream_digest(job_from_spec(self.SPEC).run().obs_events)
        d2 = stream_digest(job_from_spec(self.SPEC).run().obs_events)
        assert d1 == d2

    def test_adaptive_spec_accepted(self):
        job = job_from_spec(dict(self.SPEC, scheme="adaptive:TSS+FSS@4"))
        assert job.scheme == "adaptive:TSS+FSS@4"

    def test_unknown_scheme_rejected_at_admission(self):
        with pytest.raises(JobSpecError):
            job_from_spec(dict(self.SPEC, scheme="ZIGZAG"))

    def test_missing_scheme(self):
        with pytest.raises(JobSpecError, match="scheme"):
            job_from_spec({"workload": {"kind": "uniform", "size": 5}})

    def test_chaos_plan_roundtrips(self):
        from repro.chaos import FaultPlan

        plan = FaultPlan.random(seed=3, workers=3, horizon=5.0)
        job = job_from_spec(
            dict(self.SPEC, chaos=plan.to_json(), chaos_scale=0.5)
        )
        embedded = job.params["chaos"]
        assert embedded == plan.scaled(0.5)

    def test_bad_chaos_plan(self):
        with pytest.raises(JobSpecError, match="chaos"):
            job_from_spec(dict(self.SPEC, chaos={"events": [{"kind": "??"}]}))

    def test_results_flag_maps_to_collect_results(self):
        job = job_from_spec(dict(self.SPEC, results=True))
        assert job.params.get("collect_results") is True

    def test_bad_engine_rejected(self):
        with pytest.raises(JobSpecError):
            job_from_spec(dict(self.SPEC, engine="quantum"))

    @pytest.mark.parametrize("params", [[1, 2], "ab", 5, [["a", 1]]])
    def test_params_must_be_an_object(self, params):
        # dict([1, 2]) raises TypeError, dict("ab") ValueError: both
        # used to escape admission and kill the connection handler.
        with pytest.raises(JobSpecError, match="params must be an object"):
            job_from_spec(dict(self.SPEC, params=params))

    def test_wire_overflow_anywhere_is_bad_spec(self):
        spec = json.loads(
            '{"scheme": "TSS", "cluster": {"workers": 1e400},'
            ' "workload": {"kind": "uniform", "size": 50}}'
        )
        with pytest.raises(JobSpecError, match="workers"):
            job_from_spec(spec)

    @pytest.mark.parametrize("chaos, scale", [
        ([1], None),
        ("plan", None),
        ({"events": []}, float("nan")),
        ({"events": []}, -1.0),
        ({"events": []}, 0.0),
    ])
    def test_malformed_chaos_is_bad_spec(self, chaos, scale):
        spec = dict(self.SPEC, chaos=chaos)
        if scale is not None:
            spec["chaos_scale"] = scale
        with pytest.raises(JobSpecError, match="bad chaos plan"):
            job_from_spec(spec)
