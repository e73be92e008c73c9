"""Content-addressed caching for the protection pipeline.

Protection is referentially transparent: gadget discovery, linear
disassembly, corpus generation and the whole :meth:`Parallax.protect`
run are pure functions of their inputs, the configuration (every
random choice is derived from ``ProtectConfig.seed``) and the code.
This module exploits that to make repeated ``protect``/benchmark runs
skip unchanged programs entirely.  It owns the whole caching policy:

* **one key rule**: every stored key is :func:`key_for`, a SHA-256
  digest over ``(namespace, package_source_digest(), *inputs)``.
  Callers name only their inputs; the source digest orphans every
  entry on any code change, with no version constant to bump;
* **one policy table**, :data:`POLICIES`: per namespace, whether a hit
  deserializes a fresh object graph (callers may mutate it) and
  whether entries may use the disk tier;
* every namespace has an **in-memory LRU tier** bounded by entry count;
* an optional **on-disk tier** (``configure_cache(cache_dir=...)`` or
  the ``REPRO_CACHE_DIR`` environment variable) persists entries across
  processes — this is what makes warm ``protect-all`` reruns and
  parallel workers cheap.  The layout is one directory per namespace:
  ``<root>/<namespace>/<key>.pkl``;
* caching is **opt-in per process**: the default manager is disabled
  unless ``REPRO_CACHE_DIR`` is set, so plain library/CLI use is
  untouched; ``configure_cache()`` / ``cache_session()`` (and the
  CLI's ``protect-all --cache-dir``) switch it on;
* hits/misses/stores are counted per namespace in the process-wide
  telemetry registry (``cache.<ns>.hits`` etc.), so ``--metrics``
  output shows exactly what the cache did.

Synchronous call sites use :func:`cached`; the serving layer, whose
compute is an awaited pool submit, keys with :func:`key_for` and calls
``get``/``put`` on :func:`get_cache` itself.

The disk tier is deliberately forgiving: unreadable or truncated
entries are treated as misses and overwritten, never raised.

Correctness stance: a cache hit must be indistinguishable from a
recompute.  Namespaces that return mutable object graphs are ``fresh``
in :data:`POLICIES` (pickled bytes are kept even in memory, so every
hit is a new copy); the others document that callers must not mutate
the cached values.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from .telemetry import get_metrics

__all__ = [
    "content_key",
    "package_source_digest",
    "key_for",
    "cached",
    "Policy",
    "POLICIES",
    "LRUTier",
    "DiskTier",
    "ContentCache",
    "CacheManager",
    "get_cache",
    "configure_cache",
    "cache_manager",
    "cache_session",
]

#: Default bound for every in-memory LRU tier.
DEFAULT_MEMORY_ENTRIES = 256

#: Sentinel distinguishing "miss" from a cached ``None``.
_MISS = object()

_SOURCE_DIGEST: Optional[str] = None


class Policy(NamedTuple):
    """How one namespace caches.

    ``fresh``: keep pickled bytes even in memory and deserialize on
    every hit, so each hit is a new object graph the caller may mutate.
    ``disk``: entries may live on the disk tier when one is configured.
    """

    fresh: bool = False
    disk: bool = True


#: The caching policy of every namespace; unlisted namespaces get
#: ``Policy()`` (shared hits, disk allowed).
POLICIES: Dict[str, Policy] = {
    # Callers mutate built programs and protected images.
    "corpus": Policy(fresh=True),
    "protect": Policy(fresh=True),
    "gadgets": Policy(),
    # Decoded instruction lists are mutated lazily by the emulator's
    # cost model and dwarf their own pickles: memory only.
    "decode": Policy(disk=False),
    "serve": Policy(),
}


def package_source_digest() -> str:
    """SHA-256 over every ``.py`` source file of the ``repro`` package.

    Part of every key (:func:`key_for`): any source change anywhere in
    the package invalidates every cached entry.  Computed once per
    process.
    """
    global _SOURCE_DIGEST
    if _SOURCE_DIGEST is None:
        root = os.path.dirname(os.path.abspath(__file__))
        digest = hashlib.sha256()
        for directory, _subdirs, files in sorted(os.walk(root)):
            for filename in sorted(files):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(directory, filename)
                digest.update(os.path.relpath(path, root).encode("utf-8"))
                with open(path, "rb") as fh:
                    digest.update(fh.read())
        _SOURCE_DIGEST = digest.hexdigest()
    return _SOURCE_DIGEST


def _encode_part(part: Any, out: "hashlib._Hash") -> None:
    """Feed one key part into the hash with an unambiguous framing.

    Each part is tagged with its type and length so that, e.g.,
    ``(b"ab", b"c")`` and ``(b"a", b"bc")`` can never collide, and an
    ``int`` can never alias the ``str`` of its digits.
    """
    if isinstance(part, bytes):
        out.update(b"b%d:" % len(part))
        out.update(part)
    elif isinstance(part, bytearray) or isinstance(part, memoryview):
        raw = bytes(part)
        out.update(b"b%d:" % len(raw))
        out.update(raw)
    elif isinstance(part, str):
        raw = part.encode("utf-8")
        out.update(b"s%d:" % len(raw))
        out.update(raw)
    elif isinstance(part, bool):  # before int: bool is an int subclass
        out.update(b"B1:" if part else b"B0:")
    elif isinstance(part, int):
        raw = str(part).encode("ascii")
        out.update(b"i%d:" % len(raw))
        out.update(raw)
    elif isinstance(part, float):
        raw = repr(part).encode("ascii")
        out.update(b"f%d:" % len(raw))
        out.update(raw)
    elif part is None:
        out.update(b"n:")
    elif isinstance(part, (tuple, list)):
        out.update(b"t%d:" % len(part))
        for item in part:
            _encode_part(item, out)
    else:
        raise TypeError(f"unhashable cache key part: {type(part).__name__}")


def content_key(*parts: Any) -> str:
    """SHA-256 hex digest over a canonical encoding of ``parts``.

    Accepts bytes, str, int, bool, float, None and nested
    tuples/lists of those.  Distinct part sequences produce distinct
    digests (up to SHA-256 collisions).
    """
    digest = hashlib.sha256()
    _encode_part(parts, digest)
    return digest.hexdigest()


def key_for(namespace: str, *inputs: Any) -> str:
    """The one key rule: ``namespace``'s key for ``inputs``.

    Covers the package source digest, so an entry written by other
    code is never replayed.
    """
    return content_key(namespace, package_source_digest(), *inputs)


class LRUTier:
    """Bounded in-memory key -> value store with LRU eviction."""

    def __init__(self, max_entries: int = DEFAULT_MEMORY_ENTRIES):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: str) -> Any:
        with self._lock:
            if key not in self._entries:
                return _MISS
            self._entries.move_to_end(key)
            return self._entries[key]

    def put(self, key: str, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class DiskTier:
    """Pickle-per-entry on-disk store: ``<root>/<namespace>/<key>.pkl``.

    Writes are atomic (temp file + ``os.replace``), which is the whole
    same-key story: any number of processes may race one key and the
    directory ends up with exactly one valid entry — the last rename
    wins, and a reader sees either a complete old blob or a complete
    new one, never a torn mix.  Reads treat any malformed entry as a
    miss.
    """

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        # The lock serializes only the mkdir memoization — the data
        # plane relies on atomic renames, not locking.
        self._ready_dirs = set()
        self._ready_lock = threading.Lock()

    def _path(self, namespace: str, key: str) -> str:
        return os.path.join(self.root, namespace, key + ".pkl")

    def _ensure_dir(self, directory: str) -> None:
        with self._ready_lock:
            if directory not in self._ready_dirs:
                os.makedirs(directory, exist_ok=True)
                self._ready_dirs.add(directory)

    def get_blob(self, namespace: str, key: str) -> Optional[bytes]:
        try:
            with open(self._path(namespace, key), "rb") as fh:
                return fh.read()
        except OSError:
            return None

    def put_blob(self, namespace: str, key: str, blob: bytes) -> bool:
        """Store ``blob``; ``False`` when the disk refused the write."""
        path = self._path(namespace, key)
        directory = os.path.dirname(path)
        try:
            self._ensure_dir(directory)
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(blob)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            # Cache writes are best-effort: a full or read-only disk
            # must never fail the protection run itself.
            return False
        return True

    def entry_count(self, namespace: Optional[str] = None) -> int:
        count = 0
        roots = (
            [os.path.join(self.root, namespace)] if namespace else [self.root]
        )
        for root in roots:
            for _dir, _subdirs, files in os.walk(root):
                count += sum(1 for f in files if f.endswith(".pkl"))
        return count


class ContentCache:
    """One namespace of the content-addressed cache.

    Args:
        namespace: short name; becomes part of disk paths and metric
            names (``cache.<namespace>.hits`` ...) and selects the
            namespace's :data:`POLICIES` entry.
        memory: the in-memory LRU tier (always present).
        disk: optional shared :class:`DiskTier`; ignored when the
            policy keeps the namespace in memory.
    """

    def __init__(
        self,
        namespace: str,
        memory: Optional[LRUTier] = None,
        disk: Optional[DiskTier] = None,
    ):
        policy = POLICIES.get(namespace, Policy())
        self.namespace = namespace
        self.memory = memory if memory is not None else LRUTier()
        self.disk = disk if policy.disk else None
        self.fresh = policy.fresh

    # -- metrics --------------------------------------------------------

    def _count(self, event: str, amount: int = 1) -> None:
        get_metrics().counter(f"cache.{self.namespace}.{event}").inc(amount)

    # -- lookup/store ---------------------------------------------------

    def get(self, key: str) -> Tuple[bool, Any]:
        """Return ``(hit, value)``; ``value`` is None on a miss."""
        entry = self.memory.get(key)
        if entry is not _MISS:
            self._count("hits")
            self._count("memory_hits")
            if self.fresh:
                return True, pickle.loads(entry)
            return True, entry
        if self.disk is not None:
            blob = self.disk.get_blob(self.namespace, key)
            if blob is not None:
                try:
                    value = pickle.loads(blob)
                except Exception:
                    self._count("disk_corrupt")
                else:
                    self.memory.put(key, blob if self.fresh else value)
                    self._count("hits")
                    self._count("disk_hits")
                    return True, value
        self._count("misses")
        return False, None

    def put(self, key: str, value: Any) -> None:
        blob = None
        if self.fresh or self.disk is not None:
            blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        self.memory.put(key, blob if self.fresh else value)
        if self.disk is not None:
            if not self.disk.put_blob(self.namespace, key, blob):
                # The memory tier still holds the value and serves it.
                self._count("disk_errors")
        self._count("stores")


class CacheManager:
    """Process-wide registry of namespaces sharing one configuration."""

    def __init__(self, cache_dir: Optional[str] = None, enabled: bool = True):
        self.enabled = enabled
        self.disk = DiskTier(cache_dir) if cache_dir else None
        self._caches: Dict[str, ContentCache] = {}
        self._lock = threading.Lock()

    @property
    def cache_dir(self) -> Optional[str]:
        return self.disk.root if self.disk is not None else None

    def get(self, namespace: str) -> ContentCache:
        with self._lock:
            cache = self._caches.get(namespace)
            if cache is None:
                cache = ContentCache(namespace, disk=self.disk)
                self._caches[namespace] = cache
            return cache


# Process-wide caching is opt-in: a bare import must never change
# observable behaviour (telemetry counters, object identity) of code
# that protects twice in one process.  Setting REPRO_CACHE_DIR — or
# calling configure_cache()/cache_session() — turns it on.
_ENV_CACHE_DIR = os.environ.get("REPRO_CACHE_DIR") or None
_manager = CacheManager(cache_dir=_ENV_CACHE_DIR, enabled=_ENV_CACHE_DIR is not None)


def cache_manager() -> CacheManager:
    """The process-wide cache manager."""
    return _manager


def configure_cache(
    cache_dir: Optional[str] = None, enabled: bool = True
) -> CacheManager:
    """Replace the process-wide cache manager; returns the new one.

    ``cache_dir=None`` keeps caching purely in-memory; ``enabled=False``
    turns every lookup into a recompute (used by the differential tests
    to prove cached and uncached runs are byte-identical).
    """
    global _manager
    _manager = CacheManager(cache_dir=cache_dir, enabled=enabled)
    return _manager


def get_cache(namespace: str) -> Optional[ContentCache]:
    """The namespace cache, or ``None`` when caching is disabled."""
    if not _manager.enabled:
        return None
    return _manager.get(namespace)


def cached(
    namespace: str, inputs: Any, compute: Callable[[], Any]
) -> Tuple[Any, bool]:
    """``(value, hit)``: ``compute()``'s value, from the cache if present.

    ``inputs`` is the tuple of key parts (see :func:`content_key`), or a
    zero-argument callable returning it when the parts cost something
    to compute.  With caching disabled this is ``(compute(), False)``
    and no key is derived.
    """
    if not _manager.enabled:
        return compute(), False
    cache = _manager.get(namespace)
    key = key_for(namespace, *(inputs() if callable(inputs) else inputs))
    hit, value = cache.get(key)
    if not hit:
        value = compute()
        cache.put(key, value)
    return value, hit


@contextmanager
def cache_session(cache_dir: Optional[str] = None, enabled: bool = True):
    """Scoped cache manager for tests; restores the previous one."""
    global _manager
    previous = _manager
    _manager = CacheManager(cache_dir=cache_dir, enabled=enabled)
    try:
        yield _manager
    finally:
        _manager = previous
