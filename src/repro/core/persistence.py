"""Persistence of fitted JustInTime systems.

The paper's deployment is long-lived: "an initial configuration is
performed by a system administrator", the models generator runs once, and
users interact later.  That requires the fitted system to outlive the
process.  :func:`save_system` / :func:`load_system` pickle everything
except the sqlite connection (the store is re-opened from its own path on
load, or fresh in-memory when the original was in-memory).

All models are pure numpy/Python objects, so pickling is stable across
processes with the same library version.  A save is a durable
checkpoint (temp file, fsync, rename, directory fsync): the refresh
verbs and the orchestrator re-save after every refit, and the
orchestrator's kill-safe resume relies on the last save surviving.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path

from repro.core.system import JustInTime
from repro.exceptions import StorageError

__all__ = ["save_system", "load_system"]

#: v1 lacked ``history``; v2 adds it so a loaded system can ``refresh``
#: on incremental data without being handed the full history again.
#: (The optional ``extra`` key is backward/forward compatible within v2.)
_FORMAT_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)


def save_system(
    system: JustInTime, path: str | Path, extra: dict | None = None
) -> None:
    """Serialise a (typically fitted) system to ``path``.

    The candidate store's *contents* are not pickled — candidates live in
    the store's own database file (persist them by constructing the
    system with a file-backed ``store_path``).

    ``extra`` is an optional dict of caller state persisted **in the
    same file** and restored as :attr:`JustInTime.saved_extra` — e.g.
    the refresh orchestrator's feed byte offset, which must move
    atomically with the merged history (two separate files could
    disagree after a crash, double- or under-ingesting the feed).
    ``None`` (the default) preserves the system's current
    :attr:`saved_extra`, so a `refresh`/`refresh-workers` re-save of an
    orchestrator-managed system does not wipe its feed cursor; pass a
    dict (possibly empty) to replace it.

    The payload is written to a temp file, fsynced, renamed into place,
    and the directory is fsynced after the rename: a crash mid-save
    leaves the previous save intact, and a save that returned survives
    a power loss (the rename alone is not durable until the directory
    entry reaches the disk).
    """
    if extra is None:
        extra = getattr(system, "saved_extra", None)
    payload = {
        "version": _FORMAT_VERSION,
        "schema": system.schema,
        "update_function": system.update_function,
        "config": system.config,
        "explicit_domain": system._explicit_domain,
        "future_models": system.future_models,
        "diff_scale": system.diff_scale,
        "domain_constraints": system.domain_constraints,
        "history": system._history,
        "extra": dict(extra) if extra else {},
    }
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    if os.name == "posix":  # a directory cannot be opened for fsync on Windows
        directory = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)


def load_system(
    path: str | Path,
    store_path: str | Path = ":memory:",
    store_backend=None,
) -> JustInTime:
    """Reconstruct a system saved by :func:`save_system`.

    ``store_path`` points at the candidate database to attach (the same
    file the original system used, or a fresh one); ``store_backend``
    selects its backend as in :class:`JustInTime`.
    """
    path = Path(path)
    with path.open("rb") as handle:
        payload = pickle.load(handle)
    version = payload.get("version")
    if version not in _SUPPORTED_VERSIONS:
        raise StorageError(
            f"unsupported system file version {version!r}"
            f" (expected one of {_SUPPORTED_VERSIONS})"
        )
    system = JustInTime(
        payload["schema"],
        payload["update_function"],
        payload["config"],
        domain_constraints=payload["explicit_domain"],
        store_path=store_path,
        store_backend=store_backend,
    )
    system.future_models = payload["future_models"]
    system.diff_scale = payload["diff_scale"]
    system.domain_constraints = payload["domain_constraints"]
    system._history = payload.get("history")
    system.saved_extra = dict(payload.get("extra") or {})
    return system
