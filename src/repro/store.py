"""Disk-backed artifact store: persistent calibrations and checkpoints.

The in-process calibration LRU (:mod:`repro.station.scenarios`) dies
with the process, so every fresh worker re-pays a full §4 calibration
campaign.  :class:`ArtifactStore` is the durable layer underneath it: a
directory of versioned, atomically written artifacts keyed by the
canonical hash of everything that determines them (the configs'
``to_dict`` forms plus the scalar build knobs — see
:func:`canonical_key`).

Concurrency contract (the whole point of the design):

- **Writers** serialize the artifact to a private temporary file in the
  destination directory and publish it with ``os.replace`` — an atomic
  rename on POSIX and NT.  Two processes racing the same key both write
  complete artifacts; the loser's rename simply replaces the winner's
  identical bytes.  A reader can never observe a torn or partial file.
- **Readers** take no locks: they open the published path and validate
  the embedded header (magic, format version, kind, key).  A missing
  artifact is a *miss* (``None``); an invalid one raises
  :class:`~repro.errors.CheckpointError` (``reason="corrupt"`` /
  ``"version"``) — with atomic publication that only happens on
  external damage, never on a concurrent write.

Artifacts are pickled (they carry numpy arrays and RNG states);
the store is a cache of *self-produced* artifacts, not a decoder of
untrusted input — point it at a directory you own.

Observability: every lookup lands on the opt-in registry counters
``store.hits`` / ``store.misses``, writes on ``store.writes`` plus the
``store.write_s`` histogram; the same tallies are kept process-locally
in :meth:`ArtifactStore.stats` so tests and the CLI can read them
without enabling the registry.

A process-wide default store makes cross-process layering practical:
:func:`set_default_store` installs one explicitly, and the
``REPRO_STORE`` environment variable seeds it lazily — spawned workers
(e.g. :class:`~repro.runtime.parallel.ShardedEngine` jobs, the
concurrent-store stress tests) inherit the variable and converge on
the same directory with no plumbing.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from pathlib import Path

from repro.errors import CheckpointError
from repro.observability import get_registry

__all__ = ["ArtifactStore", "atomic_write", "canonical_key", "decode_record",
           "get_default_store", "set_default_store", "STORE_ENV",
           "STORE_FORMAT_VERSION"]

#: On-disk artifact format version; bumped on incompatible layout changes.
STORE_FORMAT_VERSION = 1

#: Header magic identifying a store artifact (torn/foreign-file guard).
_MAGIC = "repro-store"

#: Environment variable naming the default store directory.  Consulted
#: lazily by :func:`get_default_store`, so spawned worker processes
#: inherit the parent's store with no explicit plumbing.
STORE_ENV = "REPRO_STORE"


def canonical_key(payload) -> str:
    """Canonical hash of a JSON-able payload (the store's key function).

    The payload is serialized as canonical JSON (sorted keys, no
    whitespace variance, ``repr`` for anything non-JSON) and hashed
    with SHA-256; the first 16 hex digits are the key.  Two processes
    building the same configuration therefore derive the same key with
    no coordination — the same idiom as
    :func:`repro.runtime.mixed.config_group_key`.
    """
    blob = json.dumps(payload, sort_keys=True, default=repr,
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def atomic_write(path: Path, blob: bytes) -> None:
    """Publish ``blob`` at ``path`` via write-then-rename (atomic).

    The bytes go to a private temporary file in the destination
    directory (created if needed), which ``os.replace`` renames into
    place; a reader sees the old file or the new one, never a torn one.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".tmp-{os.getpid()}-{id(blob):x}-{path.name}"
    try:
        tmp.write_bytes(blob)
        os.replace(tmp, path)
    finally:
        # The replace consumed the temp file on success; only a failed
        # write leaves one behind.
        tmp.unlink(missing_ok=True)


def decode_record(blob: bytes, path: Path, *, magic: str, version: int,
                  what: str) -> dict:
    """Unpickle one artifact and check its header's magic and version.

    ``what`` names the artifact kind in the error messages
    (``"checkpoint"``, ``"store artifact"``).

    Raises
    ------
    CheckpointError
        ``reason="corrupt"`` if the bytes do not unpickle to a record
        carrying ``magic``; ``reason="version"`` if the record was
        written under another format ``version``.
    """
    try:
        record = pickle.loads(blob)
    except Exception as exc:
        raise CheckpointError(
            f"{what} {path} failed to deserialize: {exc}",
            reason="corrupt") from exc
    if not isinstance(record, dict) or record.get("magic") != magic:
        raise CheckpointError(
            f"{path} is not a repro {what}", reason="corrupt")
    if record["version"] != version:
        raise CheckpointError(
            f"{what} {path} has format version {record['version']}; "
            f"this library reads version {version}", reason="version")
    return record


class ArtifactStore:
    """A directory of versioned artifacts with atomic publication.

    Parameters
    ----------
    root:
        Store directory (created on first use).  Artifacts live at
        ``root/<kind>/<key>.pkl``; ``kind`` namespaces artifact types
        (``"calibration"``, ``"checkpoint"``, ...), ``key`` is a
        :func:`canonical_key` hash.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self._hits = 0
        self._misses = 0
        self._writes = 0

    # -- read path (lock-free) ----------------------------------------------

    def get(self, kind: str, key: str):
        """The artifact stored under ``(kind, key)``, or None on a miss.

        Lock-free: reads only ever see fully published files (writers
        rename into place).  The embedded header is validated before
        the artifact is handed back.

        Raises
        ------
        CheckpointError
            ``reason="corrupt"`` if the file exists but is not a valid
            store artifact for this ``(kind, key)``;
            ``reason="version"`` if it was written by an incompatible
            store format version.
        """
        path = self._path(kind, key)
        registry = get_registry()
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            self._misses += 1
            if registry.enabled:
                registry.counter("store.misses").inc()
            return None
        record = decode_record(blob, path, magic=_MAGIC,
                               version=STORE_FORMAT_VERSION,
                               what="store artifact")
        if record["kind"] != kind or record["key"] != key:
            raise CheckpointError(
                f"store artifact {path} is keyed ({record['kind']}, "
                f"{record['key']}), not ({kind}, {key})", reason="corrupt")
        self._hits += 1
        if registry.enabled:
            registry.counter("store.hits").inc()
        return record["artifact"]

    def contains(self, kind: str, key: str) -> bool:
        """Whether an artifact is published under ``(kind, key)``."""
        return self._path(kind, key).exists()

    # -- write path (atomic write-then-rename) -------------------------------

    def put(self, kind: str, key: str, artifact) -> Path:
        """Publish ``artifact`` under ``(kind, key)``; returns its path.

        The artifact is pickled into a private temporary file in the
        destination directory and renamed into place with
        ``os.replace`` — atomic, so concurrent readers never observe a
        torn file and racing writers of the same key converge on one
        valid artifact.
        """
        t0 = time.perf_counter()
        path = self._path(kind, key)
        record = {
            "magic": _MAGIC,
            "version": STORE_FORMAT_VERSION,
            "kind": kind,
            "key": key,
            "artifact": artifact,
        }
        atomic_write(path, pickle.dumps(record,
                                        protocol=pickle.HIGHEST_PROTOCOL))
        self._writes += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter("store.writes").inc()
            registry.histogram("store.write_s").observe(
                time.perf_counter() - t0)
        return path

    # -- maintenance ----------------------------------------------------------

    def keys(self, kind: str) -> list[str]:
        """Published keys under ``kind``, sorted."""
        kind_dir = self.root / kind
        if not kind_dir.is_dir():
            return []
        return sorted(p.stem for p in kind_dir.glob("*.pkl"))

    def kinds(self) -> list[str]:
        """Artifact kinds present in the store, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(p.name for p in self.root.iterdir() if p.is_dir())

    def inspect(self) -> list[dict]:
        """One dict per published artifact: kind, key, bytes, mtime."""
        entries = []
        for kind in self.kinds():
            for key in self.keys(kind):
                stat = self._path(kind, key).stat()
                entries.append({
                    "kind": kind,
                    "key": key,
                    "bytes": int(stat.st_size),
                    "mtime": float(stat.st_mtime),
                })
        return entries

    def evict(self, kind: str | None = None, key: str | None = None) -> int:
        """Remove artifacts; returns how many were deleted.

        With no arguments the whole store is emptied; ``kind`` narrows
        to one namespace, ``kind`` + ``key`` to one artifact.

        Raises
        ------
        CheckpointError
            If ``key`` is given without ``kind`` (a key only means
            something inside its namespace).
        """
        if key is not None and kind is None:
            raise CheckpointError("evicting by key requires kind too")
        removed = 0
        for entry_kind in ([kind] if kind is not None else self.kinds()):
            for entry_key in self.keys(entry_kind):
                if key is not None and entry_key != key:
                    continue
                self._path(entry_kind, entry_key).unlink(missing_ok=True)
                removed += 1
        return removed

    def stats(self) -> dict:
        """Process-local lookup tallies: hits, misses, writes, hit rate."""
        lookups = self._hits + self._misses
        return {
            "root": str(self.root),
            "hits": self._hits,
            "misses": self._misses,
            "writes": self._writes,
            "hit_rate": self._hits / lookups if lookups else 0.0,
        }

    # -- internals -------------------------------------------------------------

    def _path(self, kind: str, key: str) -> Path:
        """The published path of ``(kind, key)``."""
        return self.root / kind / f"{key}.pkl"

#: The process-wide default store (None until configured).
_DEFAULT_STORE: ArtifactStore | None = None
_ENV_CHECKED = False


def set_default_store(store) -> ArtifactStore | None:
    """Install the process-wide default store; returns it.

    Accepts an :class:`ArtifactStore`, a path (a store is built over
    it), or None to clear.  The default store is what
    :func:`repro.station.scenarios.build_calibrated_monitor` layers
    under the in-process calibration LRU.
    """
    global _DEFAULT_STORE, _ENV_CHECKED
    if store is None or isinstance(store, ArtifactStore):
        _DEFAULT_STORE = store
    else:
        _DEFAULT_STORE = ArtifactStore(store)
    _ENV_CHECKED = True  # an explicit call overrides the environment
    return _DEFAULT_STORE


def get_default_store() -> ArtifactStore | None:
    """The process-wide default store, or None if none is configured.

    On first call, the ``REPRO_STORE`` environment variable seeds the
    default — the hand-off that lets spawned worker processes share
    the parent's store with no explicit plumbing.
    """
    global _DEFAULT_STORE, _ENV_CHECKED
    if _DEFAULT_STORE is None and not _ENV_CHECKED:
        _ENV_CHECKED = True
        root = os.environ.get(STORE_ENV)
        if root:
            _DEFAULT_STORE = ArtifactStore(root)
    return _DEFAULT_STORE
