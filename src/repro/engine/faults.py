"""Deterministic fault injection for the crash/resume tests and CI job.

Crash-safety claims are only as good as the crashes they were tested
against, so the injector here is *deterministic*: a fault spec names
the exact checkpoint generation at which to strike, and a seeded spec
resolves to one concrete generation before the run starts.  The same
specs drive the unit tests, the SIGKILL-and-resume suite and the
``chaos`` CI job — a failure reproduces locally by exporting the same
:data:`FAULTS_ENV` string.

Faults are configured through the environment (``REPRO_FAULTS``) so
they can be scoped to exactly one process: a ``build_library`` or CLI
subprocess that must die mid-search.  The injector is consulted only
from the checkpoint store's post-save hook
(:mod:`repro.engine.checkpoint`), so production runs without the
variable never pay for it.

Spec grammar (comma-separated)::

    kill@gen:N[,kill@gen:M...]

    kill@gen:N       SIGKILL the process after checkpoint N is written

``N`` may be a literal integer or ``rand:SEED:HI`` — a seeded uniform
draw from ``[0, HI)`` resolved once at parse time, so "kill at a random
generation" is reproducible from the seed alone.
"""

from __future__ import annotations

import os
import random
import signal
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ExperimentError

#: Environment variable carrying the fault spec for one process.
FAULTS_ENV = "REPRO_FAULTS"

_KINDS = ("kill",)
_POINTS = ("gen",)


def _resolve_ordinal(text: str) -> float:
    """Parse a literal number or a seeded ``rand:SEED:HI`` draw."""
    if text.startswith("rand:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ExperimentError(
                f"seeded fault ordinal must be rand:SEED:HI, got {text!r}"
            )
        try:
            seed, high = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ExperimentError(
                f"seeded fault ordinal must be rand:SEED:HI, got {text!r}"
            ) from exc
        if high < 1:
            raise ExperimentError(f"rand upper bound must be >= 1, got {high}")
        return float(random.Random(seed).randrange(high))
    try:
        return float(text)
    except ValueError as exc:
        raise ExperimentError(f"fault ordinal must be numeric, got {text!r}") from exc


@dataclass(frozen=True)
class FaultSpec:
    """One resolved fault: ``kind`` strikes at ``point`` event ``at``."""

    kind: str
    point: str
    at: float

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ExperimentError(
                f"unknown fault kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.point not in _POINTS:
            raise ExperimentError(
                f"unknown fault point {self.point!r}; expected one of {_POINTS}"
            )
        if self.at != int(self.at):
            raise ExperimentError(
                f"{self.kind} faults need an integer event ordinal, got {self.at}"
            )


def parse_faults(spec: str) -> Tuple[FaultSpec, ...]:
    """Parse a :data:`FAULTS_ENV` spec string into resolved faults."""
    faults = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        kind, sep, rest = chunk.partition("@")
        point, sep2, arg = rest.partition(":")
        if not sep or not sep2:
            raise ExperimentError(
                f"fault spec must be KIND@POINT:ARG, got {chunk!r}"
            )
        faults.append(FaultSpec(kind=kind, point=point, at=_resolve_ordinal(arg)))
    return tuple(faults)


def _sigkill_self() -> None:  # pragma: no cover - the process dies here
    """A genuine SIGKILL: no atexit, no finally blocks, no flushing."""
    os.kill(os.getpid(), signal.SIGKILL)
    # SIGKILL cannot be handled, but give the kernel a moment before
    # falling through on exotic platforms
    time.sleep(10)
    os._exit(137)


class FaultInjector:
    """Consults resolved fault specs at the checkpoint hook.

    Stateless, so one injector serves a whole process lifetime.  An
    injector built from an empty spec is inert and free.
    """

    def __init__(self, faults: Tuple[FaultSpec, ...] = ()):
        self.faults = tuple(faults)

    @classmethod
    def from_env(cls, environ: Optional[Dict[str, str]] = None) -> "FaultInjector":
        env = os.environ if environ is None else environ
        spec = env.get(FAULTS_ENV, "")
        return cls(parse_faults(spec) if spec else ())

    def __bool__(self) -> bool:
        return bool(self.faults)

    def on_checkpoint_saved(self, generation: int) -> None:
        """Hook: a checkpoint for ``generation`` was durably written."""
        if any(int(fault.at) == generation for fault in self.faults):
            _sigkill_self()


#: Lazily constructed process-wide injector (one env read per process).
_ACTIVE: Optional[FaultInjector] = None


def active_injector() -> FaultInjector:
    """The process-wide injector parsed from :data:`FAULTS_ENV` once."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = FaultInjector.from_env()
    return _ACTIVE


def reset_active_injector() -> None:
    """Drop the cached injector (tests that mutate the environment)."""
    global _ACTIVE
    _ACTIVE = None
