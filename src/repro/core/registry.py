"""Scheme registry: build any scheduler from its paper name.

Central factory used by the experiment runner, benchmarks, and examples
so that scheme selection is a string (``"TSS"``, ``"DFISS"``, ...) plus
keyword overrides.  Names match the paper's; lookups are
case-insensitive and ``CSS(k)`` / ``GSS(k)`` accept their parameter
inline (e.g. ``"CSS(32)"``).
"""

from __future__ import annotations

import re

from .base import Scheduler, SchemeError
from .chunk import ChunkScheduler, PureScheduler
from .distributed import (
    DistributedFactoringScheduler,
    DistributedFixedIncreaseScheduler,
    DistributedTrapezoidFactoringScheduler,
    DistributedTrapezoidScheduler,
)
from .factoring import FactoringScheduler, WeightedFactoringScheduler
from .fixed_increase import FixedIncreaseScheduler
from .guided import GuidedScheduler
from .static_ import BlockCyclicScheduler, StaticScheduler
from .tfss import TrapezoidFactoringScheduler
from .trapezoid import TrapezoidScheduler

__all__ = [
    "SCHEMES",
    "SIMPLE_SCHEMES",
    "DISTRIBUTED_SCHEMES",
    "make",
    "names",
    "parse",
]

#: scheme name -> scheduler class.  TreeS is intentionally absent: it is
#: decentralized and driven by :mod:`repro.simulation.tree_engine`, not
#: the master-request protocol.
SCHEMES: dict[str, type[Scheduler]] = {
    "S": StaticScheduler,
    "BC": BlockCyclicScheduler,
    "SS": PureScheduler,
    "CSS": ChunkScheduler,
    "GSS": GuidedScheduler,
    "TSS": TrapezoidScheduler,
    "FSS": FactoringScheduler,
    "FISS": FixedIncreaseScheduler,
    "TFSS": TrapezoidFactoringScheduler,
    "WF": WeightedFactoringScheduler,
    "DTSS": DistributedTrapezoidScheduler,
    "DFSS": DistributedFactoringScheduler,
    "DFISS": DistributedFixedIncreaseScheduler,
    "DTFSS": DistributedTrapezoidFactoringScheduler,
}

#: The paper's *simple* adaptive schemes (Table 2 columns, minus TreeS).
SIMPLE_SCHEMES: tuple[str, ...] = ("TSS", "FSS", "FISS", "TFSS")

#: The paper's *distributed* schemes (Table 3 columns, minus TreeS).
DISTRIBUTED_SCHEMES: tuple[str, ...] = ("DTSS", "DFSS", "DFISS", "DTFSS")

_PARAM_RE = re.compile(r"^([A-Za-z]+)\((\d+)\)$")

#: inline-parameter keyword per scheme family, e.g. CSS(32) -> k=32.
_INLINE_KEYWORD: dict[str, str] = {
    "CSS": "k",
    "GSS": "min_chunk",
    "BC": "block",
    "FISS": "stages",
    "DFISS": "stages",
}

#: The meta-scheduler's registry key.  It lives outside ``SCHEMES``
#: because :class:`repro.adaptive.AdaptiveScheduler` builds *on* this
#: registry (importing it here would be circular); :func:`parse` and
#: :func:`make` special-case the key instead.
ADAPTIVE_KEY = "ADAPTIVE"

#: Spec grammar for the adaptive meta-scheduler (case-insensitive):
#: ``adaptive``, ``adaptive:TSS+CSS(64)+GSS``, ``adaptive:TSS+FSS@8``.
_ADAPTIVE_HINT = "adaptive[:SCHEME[+SCHEME...]][@STAGES]"


def names() -> list[str]:
    """All registered scheme names, registry order."""
    return list(SCHEMES) + [ADAPTIVE_KEY]


def _parse_adaptive(spec: str) -> tuple[str, dict]:
    """Parse an ``adaptive[:CAND[+CAND...]][@STAGES]`` spec string.

    Candidates are validated eagerly (each must itself :func:`parse`,
    must not be 'adaptive' again, and must not be ACP-driven) so every
    string entry point -- ``simulate``, ``run_parallel``, ``SimJob``,
    the CLIs -- rejects a bad spec with one shared message.
    """
    body = spec.strip()[len(ADAPTIVE_KEY):]
    kwargs: dict = {}
    if "@" in body:
        body, _, stages_s = body.rpartition("@")
        try:
            stages = int(stages_s)
        except ValueError:
            stages = 0
        if stages < 1:
            raise SchemeError(
                f"bad stage count {stages_s!r} in adaptive spec "
                f"{spec!r}: must be a positive integer "
                f"({_ADAPTIVE_HINT})"
            )
        kwargs["stages"] = stages
    if body:
        if not body.startswith(":"):
            raise SchemeError(
                f"malformed adaptive spec {spec!r}; expected "
                f"{_ADAPTIVE_HINT}"
            )
        raw = [c.strip() for c in body[1:].split("+")]
        if not any(raw) or any(not c for c in raw):
            raise SchemeError(
                f"adaptive spec {spec!r} has an empty candidate "
                f"(set); give at least one scheme, e.g. "
                f"'adaptive:TSS+FSS+GSS'"
            )
        for cand in raw:
            ckey, _ = parse(cand)  # raises for unknown candidates
            if ckey == ADAPTIVE_KEY:
                raise SchemeError(
                    f"adaptive spec {spec!r} nests 'adaptive' inside "
                    f"itself; candidates must be fixed schemes"
                )
            if SCHEMES[ckey].distributed:
                fixed = [
                    n for n, cls in SCHEMES.items() if not cls.distributed
                ]
                raise SchemeError(
                    f"candidate {cand!r} in adaptive spec {spec!r} is "
                    f"ACP-driven (distributed); pick from: "
                    f"{', '.join(fixed)}"
                )
        kwargs["candidates"] = tuple(c.upper() for c in raw)
    return ADAPTIVE_KEY, kwargs


def parse(name: str) -> tuple[str, dict]:
    """Resolve a scheme string to ``(key, inline_kwargs)``.

    Accepts everything :func:`make` accepts -- case-insensitive names,
    the inline-parameter form ``"CSS(32)"``, and adaptive meta-scheduler
    specs (``"adaptive:TSS+FSS@6"``) -- but performs no instantiation,
    so other factories (the decentral calculators, CLI validation)
    share one parser and one error message.
    """
    key = name.strip()
    if key.upper().startswith(ADAPTIVE_KEY):
        return _parse_adaptive(key.upper())
    match = _PARAM_RE.match(key)
    inline: dict = {}
    if match:
        base, arg = match.group(1).upper(), int(match.group(2))
        if base not in _INLINE_KEYWORD:
            raise SchemeError(
                f"scheme {base!r} takes no inline parameter; "
                f"parameterizable schemes: "
                f"{', '.join(sorted(_INLINE_KEYWORD))}"
            )
        inline[_INLINE_KEYWORD[base]] = arg
        key = base
    else:
        key = key.upper()
    if key not in SCHEMES:
        raise SchemeError(
            f"unknown scheme {name!r}; known: {', '.join(names())}"
        )
    return key, inline


def make(name: str, total: int, workers: int, **kwargs) -> Scheduler:
    """Instantiate scheme ``name`` over ``total`` iterations.

    ``kwargs`` are forwarded to the scheme constructor (e.g.
    ``alpha=2.0`` for FSS, ``acp_model=...`` for distributed schemes,
    ``seed=...`` for the adaptive meta-scheduler).
    """
    key, inline = parse(name)
    for kw, value in inline.items():
        kwargs.setdefault(kw, value)
    if key == ADAPTIVE_KEY:
        # Deferred import: repro.adaptive builds on this registry.
        from ..adaptive import AdaptiveScheduler

        return AdaptiveScheduler(total, workers, **kwargs)
    return SCHEMES[key](total, workers, **kwargs)


def register(name: str, factory: type[Scheduler]) -> None:
    """Register a user scheme class under ``name`` (upper-cased)."""
    key = name.strip().upper()
    if not key:
        raise SchemeError("scheme name must be non-empty")
    SCHEMES[key] = factory
