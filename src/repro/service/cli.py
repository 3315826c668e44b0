"""``repro-service`` -- command-line frontend for the daemon.

Subcommands::

    repro-service serve  --socket /tmp/repro.sock --workers 4
    repro-service submit --socket /tmp/repro.sock --tenant alice \\
                         --scheme TSS --workload uniform --size 500 \\
                         --wait
    repro-service submit --socket /tmp/repro.sock --spec job.json
    repro-service status  --socket /tmp/repro.sock
    repro-service metrics --socket /tmp/repro.sock [--watch]
    repro-service watch   --socket /tmp/repro.sock [--all] [--job ID]
    repro-service drain   --socket /tmp/repro.sock
    repro-top             --socket /tmp/repro.sock

``serve`` runs until drained (SIGTERM or the ``drain`` subcommand);
everything else is a thin wrapper over
:class:`~repro.service.client.ServiceClient` printing JSON to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Optional

__all__ = ["main", "build_parser", "top_main", "TopState"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-service",
        description="Loop self-scheduling as a multi-tenant service.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_transport(p: argparse.ArgumentParser) -> None:
        p.add_argument("--socket", default="/tmp/repro-service.sock",
                       help="Unix socket path (default %(default)s)")
        p.add_argument("--host", default=None,
                       help="TCP host (overrides --socket)")
        p.add_argument("--port", type=int, default=0,
                       help="TCP port (with --host)")

    serve = sub.add_parser("serve", help="run the daemon until drained")
    add_transport(serve)
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--queue-capacity", type=int, default=64)
    serve.add_argument("--tenant-capacity", type=int, default=16)
    serve.add_argument("--max-requeues", type=int, default=3)
    serve.add_argument("--cache-dir", default=None,
                       help="repro.cache directory shared by tenants")

    submit = sub.add_parser(
        "submit", help="submit a job (flags or --spec JSON file)"
    )
    add_transport(submit)
    submit.add_argument("--tenant", default="default")
    submit.add_argument("--spec", default=None,
                        help="path to a JSON job spec ('-' for stdin)")
    submit.add_argument("--scheme", default=None,
                        help="scheme name (e.g. TSS, adaptive:TSS+FSS@8)")
    submit.add_argument("--engine", default="master",
                        choices=["master", "tree", "decentral"])
    submit.add_argument("--workload", default="uniform",
                        help="workload kind (default %(default)s)")
    submit.add_argument("--size", type=int, default=500)
    submit.add_argument("--unit", type=float, default=1e-4)
    submit.add_argument("--cluster-workers", type=int, default=4)
    submit.add_argument("--tag", default="")
    submit.add_argument("--wait", action="store_true",
                        help="block for the result and print it")
    submit.add_argument("--timeout", type=float, default=None)

    metrics = sub.add_parser(
        "metrics",
        help="print the /metrics-style snapshot (or poll it)",
    )
    add_transport(metrics)
    metrics.add_argument("--tenant", default="default")
    metrics.add_argument("--watch", action="store_true",
                         help="poll and render rolling gauges")
    metrics.add_argument("--interval", type=float, default=1.0,
                         help="poll period in seconds "
                              "(default %(default)s)")
    metrics.add_argument("--count", type=int, default=0,
                         help="stop after N polls (0 = forever)")

    watch = sub.add_parser(
        "watch",
        help="subscribe to the live chunk-level event stream",
    )
    add_transport(watch)
    watch.add_argument("--tenant", default="default")
    watch.add_argument("--all", action="store_true",
                       help="watch every tenant (tenant '*')")
    watch.add_argument("--job", default=None,
                       help="stop after this job's terminal event")
    watch.add_argument("--raw", action="store_true",
                       help="print frames as JSON lines instead of "
                            "the rendered summary")
    watch.add_argument("--timeout", type=float, default=None,
                       help="per-frame read timeout in seconds")

    for name, help_text in (
        ("status", "print the daemon's status document"),
        ("drain", "close admission and let the daemon finish"),
        ("trace", "print this tenant's job-level obs events"),
        ("log", "print the pool's job ledger"),
    ):
        p = sub.add_parser(name, help=help_text)
        add_transport(p)
        p.add_argument("--tenant", default="default")
    return parser


def _client(args: argparse.Namespace):
    from .client import ServiceClient

    if args.host is not None:
        return ServiceClient.connect(
            args.host, tenant=args.tenant, port=args.port
        )
    return ServiceClient.connect(args.socket, tenant=args.tenant)


def _spec_from_args(args: argparse.Namespace) -> dict[str, Any]:
    if args.spec is not None:
        if args.spec == "-":
            return json.load(sys.stdin)
        with open(args.spec, "r", encoding="utf-8") as handle:
            return json.load(handle)
    if args.scheme is None:
        raise SystemExit(
            "submit needs --spec or at least --scheme"
        )
    return {
        "scheme": args.scheme,
        "engine": args.engine,
        "workload": {
            "kind": args.workload,
            "size": args.size,
            "unit": args.unit,
        },
        "cluster": {"workers": args.cluster_workers},
        "tag": args.tag,
    }


def _cmd_serve(args: argparse.Namespace) -> int:
    from .server import ServiceConfig, serve_until_complete

    config = ServiceConfig(
        socket_path=None if args.host is not None else args.socket,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        tenant_capacity=args.tenant_capacity,
        max_requeues=args.max_requeues,
        cache_dir=args.cache_dir,
    )
    serve_until_complete(config)
    return 0


def _dump(doc: Any) -> None:
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


class TopState(object):
    """Fold pushed stream frames into a renderable dashboard model.

    Pure state -- feed it frames with :meth:`absorb`, ask for a text
    screen with :meth:`render`.  Used by ``repro-service watch`` (one
    summary line per frame) and ``repro-top`` (full redraw); kept free
    of IO so tests can drive it with synthetic frames.
    """

    RECENT = 4

    def __init__(self) -> None:
        self.frames = 0
        self.events = 0
        self.drops = 0
        # (tenant, worker) -> [chunks, iterations, busy, last_size]
        self.workers: dict[tuple, list] = {}
        self.jobs_done: list[str] = []
        self.running: set = set()

    def absorb(self, frame: dict) -> None:
        """Account one ``{"watch": "events"}`` frame."""
        self.frames += 1
        self.drops = int(frame.get("drops", self.drops))
        for ev in frame.get("events", ()):
            self.events += 1
            kind = ev.get("kind")
            tenant = str(frame.get("tenant", "?"))
            if kind == "compute":
                key = (tenant, int(ev.get("worker", -1)))
                row = self.workers.setdefault(key, [0, 0, 0.0, 0])
                start = int(ev.get("start") or 0)
                stop = int(ev.get("stop") or 0)
                row[0] += 1
                row[1] += max(0, stop - start)
                row[2] += float(ev.get("value") or 0.0)
                row[3] = max(0, stop - start)
            elif kind in ("job-result", "job-reject"):
                job = _detail_field(ev, "job")
                if job:
                    self.running.discard(job)
                    self.jobs_done.append(
                        f"{job} {kind[4:]}"
                        + (f" t={ev['value']:.4g}s"
                           if ev.get("value") else "")
                    )
                    del self.jobs_done[:-self.RECENT]
            elif kind == "job-submit":
                job = _detail_field(ev, "job")
                if job:
                    self.running.add(job)

    def summary(self) -> str:
        """One status line (the per-frame ``watch`` output)."""
        return (
            f"frames={self.frames} events={self.events} "
            f"drops={self.drops} running={len(self.running)} "
            f"workers={len(self.workers)}"
        )

    def render(self, gauges: Optional[dict] = None) -> str:
        """Multi-line dashboard (the ``repro-top`` screen)."""
        lines = ["repro-top  " + self.summary()]
        if gauges:
            lines.append(
                " ".join(
                    f"{name}={value:.4g}"
                    for name, value in sorted(gauges.items())
                )
            )
        if self.workers:
            lines.append(
                f"{'tenant':<12} {'wk':>3} {'chunks':>7} "
                f"{'iters':>8} {'last-size':>9} {'busy-s':>9}"
            )
            for (tenant, worker), row in sorted(self.workers.items()):
                lines.append(
                    f"{tenant:<12} {worker:>3} {row[0]:>7} "
                    f"{row[1]:>8} {row[3]:>9} {row[2]:>9.4f}"
                )
        for done in self.jobs_done:
            lines.append(f"  done: {done}")
        return "\n".join(lines)


def _detail_field(ev: dict, key: str) -> str:
    """``job=...``-style token from an event's detail string."""
    for token in str(ev.get("detail", "")).split():
        if token.startswith(key + "="):
            return token[len(key) + 1:]
    return ""


def _rolling_gauges(snapshot: dict) -> dict:
    """The ``rolling_*`` / depth gauges out of a metrics snapshot."""
    picked = {}
    for name, doc in snapshot.items():
        if name.startswith("rolling_") or name in (
            "jobs_queued", "jobs_inflight", "stream_subscribers",
        ):
            picked[name.replace("rolling_", "")] = float(
                doc.get("value", 0.0)
            )
    return picked


def _cmd_metrics_watch(client, args: argparse.Namespace) -> int:
    import time as _time

    polls = 0
    try:
        while True:
            gauges = _rolling_gauges(client.metrics())
            line = " ".join(
                f"{name}={value:.4g}"
                for name, value in sorted(gauges.items())
            )
            print(line, flush=True)
            polls += 1
            if args.count and polls >= args.count:
                return 0
            _time.sleep(max(args.interval, 0.01))
    except KeyboardInterrupt:
        return 0


def _cmd_watch(client, args: argparse.Namespace) -> int:
    tenant = "*" if getattr(args, "all", False) else args.tenant
    state = TopState()
    try:
        for frame in client.watch(
            tenant=tenant, job_id=args.job, timeout=args.timeout
        ):
            if args.raw:
                json.dump(frame, sys.stdout, sort_keys=True)
                sys.stdout.write("\n")
                sys.stdout.flush()
                continue
            if frame.get("watch") == "end":
                break
            state.absorb(frame)
            print(state.summary(), flush=True)
    except KeyboardInterrupt:
        pass
    if not args.raw:
        print(state.render(), flush=True)
    return 0


def top_main(argv: Optional[list[str]] = None) -> int:
    """``repro-top`` -- live cross-tenant dashboard over ``subscribe``.

    Subscribes to every tenant's stream and redraws a per-worker
    progress table on each pushed frame; rolling gauges are polled on
    a second connection at most every ``--interval`` seconds so the
    stream connection stays a pure event reader.
    """
    parser = argparse.ArgumentParser(
        prog="repro-top",
        description="live per-tenant/per-worker scheduling dashboard",
    )
    parser.add_argument("--socket", default="/tmp/repro-service.sock")
    parser.add_argument("--host", default=None)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--tenant", default="*",
                        help="tenant to watch (default: all)")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="metrics poll period (seconds)")
    parser.add_argument("--frames", type=int, default=0,
                        help="exit after N frames (0 = run forever)")
    args = parser.parse_args(argv)

    import time as _time

    from .client import ServiceClient, ServiceError

    def connect(tenant: str) -> "ServiceClient":
        if args.host is not None:
            return ServiceClient.connect(
                args.host, tenant=tenant, port=args.port
            )
        return ServiceClient.connect(args.socket, tenant=tenant)

    state = TopState()
    clear = "\x1b[H\x1b[2J" if sys.stdout.isatty() else ""
    try:
        with connect("top") as stream, connect("top-poll") as poll:
            gauges = _rolling_gauges(poll.metrics())
            last_poll = _time.monotonic()
            for frame in stream.watch(tenant=args.tenant):
                if frame.get("watch") == "end":
                    break
                state.absorb(frame)
                now = _time.monotonic()
                if now - last_poll >= args.interval:
                    gauges = _rolling_gauges(poll.metrics())
                    last_poll = now
                print(clear + state.render(gauges), flush=True)
                if args.frames and state.frames >= args.frames:
                    break
    except KeyboardInterrupt:
        return 0
    except ServiceError as exc:
        print(f"repro-top: {exc}", file=sys.stderr)
        return 2
    except (ConnectionRefusedError, FileNotFoundError) as exc:
        print(f"repro-top: cannot reach daemon: {exc}",
              file=sys.stderr)
        return 3
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        return _cmd_serve(args)

    from .client import ServiceError

    try:
        with _client(args) as client:
            if args.command == "submit":
                job_id = client.submit(_spec_from_args(args))
                if args.wait:
                    reply = dict(client.wait(job_id,
                                             timeout=args.timeout))
                    if "trace" in reply:
                        # Printed as one dict per event, not as rows.
                        reply["trace"] = [
                            ev.to_dict() for ev in reply["trace"]
                        ]
                    _dump(reply)
                else:
                    _dump({"job_id": job_id})
            elif args.command == "status":
                _dump(client.status())
            elif args.command == "metrics":
                if args.watch:
                    return _cmd_metrics_watch(client, args)
                _dump(client.metrics())
            elif args.command == "watch":
                return _cmd_watch(client, args)
            elif args.command == "drain":
                client.drain()
                _dump({"draining": True})
            elif args.command == "trace":
                _dump(client.trace())
            elif args.command == "log":
                _dump(client.log())
    except ServiceError as exc:
        print(f"repro-service: {exc}", file=sys.stderr)
        return 2
    except (ConnectionRefusedError, FileNotFoundError) as exc:
        print(f"repro-service: cannot reach daemon: {exc}",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
