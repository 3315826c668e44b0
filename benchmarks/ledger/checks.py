"""Output checks: run once per invocation, outside the timed phase.

Each function returns a list of human-readable problems (empty =
pass).  ``run.py`` turns any problem into ``correct: false`` and a
non-zero exit.  The checks are the repo's own contracts, applied to
exactly the jobs the workload times:

* the fast path is bit-identical to the DES on every ``G`` job;
* an observed job's event stream passes ``verify.audit_events``;
* the fan-out path returns what the in-process path returns and
  leaves one parseable JSONL record per job key plus a ``complete``
  manifest;
* a service reply's digest equals the one-shot
  ``job_from_spec(spec).run()`` digest, and the pool ledger passes
  ``verify.audit_service_log`` after drain;
* on seed 0 every simulated statistic equals the committed golden
  file -- a faster simulator must leave every simulated number alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

from repro.obs import stream_digest
from repro.service.jobs import job_from_spec
from repro.simulation import SimulationError
from repro.verify import audit_events, audit_service_log, audit_sim

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_seed0.json")
GOLDEN_SEED = 0


def stat_digest(result, extra: str = "") -> str:
    """Short digest of every simulated number of one result."""
    doc = {
        "t_p": repr(result.t_p),
        "workers": [
            [repr(v) for v in dataclasses.astuple(w)]
            for w in result.workers
        ],
        "chunks": [
            (c.worker, c.start, c.stop, repr(c.assigned_at),
             repr(c.completed_at))
            for c in result.chunks
        ],
        "extra": extra,
    }
    blob = json.dumps(doc, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:20]


def _same(a, b) -> bool:
    return (
        a.t_p == b.t_p
        and list(a.chunks) == list(b.chunks)
        and a.workers == b.workers
    )


def _with_fast(job, fast):
    return dataclasses.replace(
        job, params={**job.params, "fast": fast}, collect_events=False
    )


def fast_refused(job) -> bool:
    """True when ``fast=True`` is refused for this job as it runs."""
    if job.engine == "tree":
        return True  # the tree engine has no fast path to ask for
    try:
        dataclasses.replace(
            job, params={**job.params, "fast": True}
        ).run()
    except SimulationError:
        return True
    return False


def check_fast_equals_des(jobs) -> list:
    """Every ``G`` job: ``fast=True`` runs and is bit-identical
    (``t_p``, chunks, per-worker metrics) to ``fast=False``."""
    problems = []
    for job in jobs:
        try:
            fast = _with_fast(job, True).run()
        except SimulationError as exc:
            problems.append(f"{job.tag}: fast path refused: {exc}")
            continue
        if not _same(fast, _with_fast(job, False).run()):
            problems.append(f"{job.tag}: fast path differs from the DES")
    return problems


def check_observed(jobs, results) -> list:
    """Every observed stream passes ``audit_events`` and is refused by
    the fast path (so the DES did the work)."""
    problems = []
    for job, result in zip(jobs, results):
        report = audit_events(
            result.obs_events, total=job.workload.size,
            workers=job.cluster.size, subject=job.tag,
        )
        if not report.ok:
            problems.append(report.summary())
        if not fast_refused(job):
            problems.append(f"{job.tag}: fast path accepted an "
                            f"observed job")
    return problems


def check_des(jobs, results) -> list:
    """Every job is one the fast path refuses, covers the loop exactly
    once, and reproduces itself."""
    problems = []
    for job, result in zip(jobs, results):
        if not fast_refused(job):
            problems.append(f"{job.tag}: fast path accepted the job")
        report = audit_sim(result, total=job.workload.size)
        if not report.ok:
            problems.append(report.summary())
        if not _same(result, job.run()):
            problems.append(f"{job.tag}: rerun differs")
    return problems


def check_fanout(jobs, results, persist: str) -> list:
    """Fan-out results equal the in-process ``to_dict``; the JSONL has
    one parseable record per job key and a ``complete`` manifest."""
    problems = []
    for job, result in zip(jobs, results):
        if result.to_dict() != job.run().to_dict():
            problems.append(f"{job.tag}: fan-out result differs from "
                            f"the in-process run")
    try:
        with open(persist, "r", encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        with open(persist + ".manifest.json", "r",
                  encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        return problems + [f"persisted sweep unreadable: {exc}"]
    keys = sorted(rec.get("key") for rec in records)
    if keys != sorted(job.key for job in jobs):
        problems.append("JSONL keys are not one record per job key")
    # The pass is streamed in slices; the manifest is the last one's.
    if not manifest.get("complete") \
            or manifest.get("done") != manifest.get("total"):
        problems.append(f"manifest not complete: {manifest}")
    return problems


def check_service_replies(specs, replies) -> list:
    """Every reply is ``done`` with the one-shot digest."""
    problems = []
    for spec, reply in zip(specs, replies):
        if reply is None or reply.get("state") != "done":
            problems.append(f"{spec['tag']}: reply not done: {reply}")
            continue
        events = job_from_spec(spec).run().obs_events
        if reply.get("digest") != stream_digest(events):
            problems.append(f"{spec['tag']}: daemon digest differs "
                            f"from the one-shot run")
        if spec.get("trace") and len(reply.get("trace", ())) \
                != len(events):
            problems.append(f"{spec['tag']}: reply trace incomplete")
    return problems


def check_service_log(log) -> list:
    report = audit_service_log(log)
    return [] if report.ok else [report.summary()]


def output_checks(runner) -> list:
    """The untimed pre-pass of one workload, on its warm-up results."""
    inputs, warm = runner.inputs, runner.warm
    name = inputs.workload
    if name == "sweep_fast":
        return check_fast_equals_des(inputs.jobs)
    if name == "sweep_observed":
        return check_observed(inputs.jobs, warm)
    if name == "sweep_des":
        return check_des(inputs.jobs, warm)
    if name == "sweep_fanout":
        return (
            check_fast_equals_des(inputs.jobs)
            + check_fanout(inputs.jobs, warm, runner.persist)
        )
    return check_service_replies(inputs.specs, warm)


# -- golden file ----------------------------------------------------------


def golden_entries(inputs, warm) -> dict:
    """``{tag: digest}`` of every simulated number of one pass."""
    if inputs.service:
        return {
            spec["tag"]: hashlib.sha256(json.dumps(
                [reply["digest"], reply["result"]], sort_keys=True
            ).encode("utf-8")).hexdigest()[:20]
            for spec, reply in zip(inputs.specs, warm)
        }
    return {
        job.tag: stat_digest(
            result,
            stream_digest(result.obs_events)
            if result.obs_events is not None else "",
        )
        for job, result in zip(inputs.jobs, warm)
    }


def check_golden(inputs, warm, path: str) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        golden = json.load(fh).get(inputs.workload)
    if golden is None:
        return [f"golden file has no entry for {inputs.workload}"]
    mine = golden_entries(inputs, warm)
    if mine.keys() != golden.keys():
        return ["golden file lists other jobs than this run"]
    return [
        f"{tag}: simulated statistics differ from the golden file"
        for tag in mine
        if mine[tag] != golden[tag]
    ]


def update_golden(inputs, warm, path: str) -> None:
    doc = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    doc[inputs.workload] = golden_entries(inputs, warm)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
