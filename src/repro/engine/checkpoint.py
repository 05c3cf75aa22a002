"""Crash-safe, per-generation checkpointing for the GA/NSGA-II searches.

A multi-minute ``build_library`` or :class:`CarbonAwareDesigner` run
used to hold its entire search state — populations, fronts, RNG
trajectory — in process memory: any SIGKILL lost everything not in the
objective disk cache.  :class:`CheckpointStore` snapshots that state
after every generation so a killed run restarts at the last finished
generation, and *bit-identically* so: the RNG generator state is
captured and restored exactly, which makes a resumed run
indistinguishable (fronts, histories, evaluation counts, RNG draws)
from one that never crashed.  The chaos suite under
``tests/engine/test_chaos.py`` pins that equivalence by SIGKILLing
real subprocesses mid-search.

Durability: every checkpoint is one pickle written through
:func:`repro.engine.diskcache.atomic_write_bytes` (temp file + fsync +
rename + directory fsync), so a crash *during* a checkpoint write
leaves the previous complete generation on disk — there is no state in
which resume sees a torn snapshot.

Safety: each checkpoint embeds a *settings fingerprint* supplied by the
caller (:func:`checkpoint_fingerprint` over everything the search
depends on — config, seed, problem identity, library identity).  A
store refuses to resume a checkpoint whose fingerprint does not match
its own (:class:`~repro.errors.CheckpointError`): resuming a
half-finished search under different settings would splice two
different searches into one silently-wrong result, which is strictly
worse than restarting.  Version or algorithm mismatches refuse the
same way; a *corrupt* checkpoint file (disk damage — a torn write is
impossible by construction) is quarantined with a warning and the
search restarts from scratch, trading time, never correctness.

Interaction with the engine: a generation's checkpoint is saved only
after :class:`~repro.engine.population.PopulationEvaluator` has
returned every result of that generation — backend ``map_shards`` calls
block until all shards are back — so a snapshot never describes work
still in flight.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import random
import re
from dataclasses import dataclass
from typing import Any, Dict, Optional, Union

import numpy as np

from repro.engine.diskcache import atomic_write_bytes, quarantine_corrupt_file
from repro.engine.faults import active_injector
from repro.errors import CheckpointError

#: Bump on any change to the checkpoint payload schema; stores refuse
#: to resume checkpoints written under a different version.
CHECKPOINT_VERSION = 1

#: Any RNG whose state the store can capture exactly.
AnyRng = Union[np.random.Generator, random.Random]


def checkpoint_fingerprint(*parts: Any) -> str:
    """Stable digest of everything a checkpointed search depends on.

    Callers pass the full settings identity — algorithm config fields,
    seeds, problem parameters, library identity — as primitive parts;
    any change to any of them yields a different fingerprint and
    therefore a refused resume.
    """
    digest = hashlib.sha256(
        repr((CHECKPOINT_VERSION,) + parts).encode("utf-8")
    )
    return digest.hexdigest()[:32]


def trajectory_parts(config: Any, field_names: Any) -> tuple:
    """``((name, value), ...)`` for a config's trajectory fields.

    The runtime half of the ``FPR001`` fingerprint-completeness
    contract (see :mod:`repro.analysis`): a config dataclass marked
    ``# repro: fingerprinted[DECL]`` declares its
    trajectory-determining fields in a module-level ``DECL`` tuple,
    and its checkpoint fingerprint is built from exactly those fields
    via this helper::

        fingerprint = checkpoint_fingerprint(
            "ga-search", trajectory_parts(cfg, GA_TRAJECTORY_FIELDS)
        )

    Fingerprinting *named* pairs (not bare values) means reordering
    or renaming a declared field also changes the fingerprint, and
    the static rule guarantees the declaration tracks the dataclass —
    so a new knob cannot silently miss the resume-refusal check.

    Raises:
        CheckpointError: a declared name is not a field of ``config``
            (stale declaration — the static checker catches this at
            lint time, this raise catches it at run time).
    """
    parts = []
    for name in field_names:
        if not hasattr(config, name):
            raise CheckpointError(
                f"trajectory declaration names {name!r}, which is not "
                f"a field of {type(config).__name__}; update the "
                "declaration tuple alongside the dataclass"
            )
        parts.append((name, getattr(config, name)))
    return tuple(parts)


def capture_rng_state(rng: AnyRng) -> Dict[str, Any]:
    """Snapshot an RNG's exact state (numpy Generator or random.Random).

    The snapshot restores the generator to the precise point in its
    stream, so post-resume draws are bit-identical to the draws an
    uninterrupted run would have made.
    """
    if isinstance(rng, np.random.Generator):
        return {"kind": "numpy", "state": rng.bit_generator.state}
    if isinstance(rng, random.Random):
        return {"kind": "random", "state": rng.getstate()}
    raise CheckpointError(
        f"cannot capture RNG state of {type(rng).__name__}; expected "
        "numpy.random.Generator or random.Random"
    )


def restore_rng_state(rng: AnyRng, snapshot: Dict[str, Any]) -> None:
    """Restore an RNG to a :func:`capture_rng_state` snapshot in place."""
    kind = snapshot.get("kind") if isinstance(snapshot, dict) else None
    if kind == "numpy" and isinstance(rng, np.random.Generator):
        rng.bit_generator.state = snapshot["state"]
        return
    if kind == "random" and isinstance(rng, random.Random):
        rng.setstate(snapshot["state"])
        return
    raise CheckpointError(
        f"RNG snapshot kind {kind!r} does not match generator "
        f"{type(rng).__name__}"
    )


@dataclass(frozen=True)
class Checkpoint:
    """One durable generation snapshot.

    Attributes:
        fingerprint: settings fingerprint the snapshot was taken under.
        algorithm: owning search kind (``"ga"`` / ``"nsga2"``).
        generation: completed evolution steps at snapshot time.
        rng_state: exact RNG snapshot (:func:`capture_rng_state`).
        payload: algorithm-owned state (population, scores, memo, ...).
    """

    fingerprint: str
    algorithm: str
    generation: int
    rng_state: Dict[str, Any]
    payload: Dict[str, Any]


def _sanitize_name(name: str) -> str:
    cleaned = re.sub(r"[^A-Za-z0-9._-]+", "_", str(name)).strip("._")
    return cleaned or "checkpoint"


class CheckpointStore:
    """Versioned, atomically-written checkpoint slot for one search.

    Args:
        directory: checkpoint directory (created on demand).
        name: filesystem-safe job identity; one file per name, each
            :meth:`save` replacing the previous generation atomically.
        fingerprint: settings fingerprint
            (:func:`checkpoint_fingerprint`); :meth:`load` refuses a
            stored snapshot whose fingerprint differs.

    A store is cheap to construct and holds no open handles, so worker
    processes can build their own against a shared directory; distinct
    searches must use distinct names.
    """

    def __init__(self, directory: str, name: str, fingerprint: str):
        self.directory = directory
        self.name = _sanitize_name(name)
        self.fingerprint = fingerprint
        self.path = os.path.join(directory, f"{self.name}.ckpt")

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"CheckpointStore({self.path!r})"

    def exists(self) -> bool:
        """True when a snapshot file is present (any fingerprint)."""
        return os.path.exists(self.path)

    def clear(self) -> None:
        """Delete the snapshot (idempotent) — an explicit fresh start."""
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass

    # -- writing --------------------------------------------------------

    def save(
        self,
        algorithm: str,
        generation: int,
        rng: AnyRng,
        payload: Dict[str, Any],
    ) -> None:
        """Durably snapshot one completed generation (atomic replace).

        The write is all-or-nothing: a crash at any instant leaves
        either the previous snapshot or this one on disk, never a
        truncated hybrid.  The fault-injection hook fires *after* the
        snapshot is durable, which is exactly the contract the chaos
        tests rely on (kill-after-generation-N resumes at N).
        """
        record = {
            "version": CHECKPOINT_VERSION,
            "fingerprint": self.fingerprint,
            "algorithm": algorithm,
            "generation": int(generation),
            "rng_state": capture_rng_state(rng),
            "payload": payload,
        }
        atomic_write_bytes(
            self.path, pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        )
        active_injector().on_checkpoint_saved(generation)

    # -- reading --------------------------------------------------------

    def load(self, algorithm: Optional[str] = None) -> Optional[Checkpoint]:
        """The stored snapshot, or ``None`` when there is nothing to resume.

        Raises:
            CheckpointError: the snapshot exists but must not be
                resumed — written under a different settings
                fingerprint, a different schema version, or a different
                algorithm than the caller's.
        """
        try:
            with open(self.path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return None
        try:
            record = pickle.loads(raw)
            if not isinstance(record, dict):
                raise ValueError(f"expected a dict, got {type(record).__name__}")
        except (
            pickle.UnpicklingError,
            EOFError,
            ValueError,
            AttributeError,
            ImportError,
            MemoryError,
        ) as exc:
            # atomic writes make torn snapshots impossible; anything
            # unreadable is external damage — restart rather than brick
            quarantine_corrupt_file(self.path, repr(exc))
            return None

        version = record.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint {self.path} was written by schema version "
                f"{version!r}, this build reads {CHECKPOINT_VERSION}; "
                "delete it (or finish the run with the original build) "
                "instead of resuming across incompatible formats"
            )
        if record.get("fingerprint") != self.fingerprint:
            raise CheckpointError(
                f"checkpoint {self.path} was written under different "
                "settings (fingerprint "
                f"{record.get('fingerprint')!r} != {self.fingerprint!r}); "
                "resuming it would splice two different searches — rerun "
                "with the original settings, or clear the checkpoint to "
                "start fresh"
            )
        if algorithm is not None and record.get("algorithm") != algorithm:
            raise CheckpointError(
                f"checkpoint {self.path} belongs to algorithm "
                f"{record.get('algorithm')!r}, not {algorithm!r}"
            )
        return Checkpoint(
            fingerprint=record["fingerprint"],
            algorithm=record["algorithm"],
            generation=int(record["generation"]),
            rng_state=record["rng_state"],
            payload=record["payload"],
        )
