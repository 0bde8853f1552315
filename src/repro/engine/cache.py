"""Persistent dataset cache + month checkpoints for expectation runs.

A full expectation run is a pure function of (client population, server
population, date range), so the finished store is cached on disk keyed
by a content hash of exactly those inputs.  Repeat CLI invocations —
the common case when iterating on figures — load the packed store in
milliseconds-to-tens-of-milliseconds instead of re-simulating 76
months.

Layout under the cache directory (``REPRO_CACHE_DIR``, default
``~/.cache/repro``):

* ``expectation-<key>.bin`` — one blob per dataset, magic ``RPM1``: a
  fixed header, a zlib-compressed pickle of the *metadata envelope*
  (key, run meta, aggregate indexes, shape table/matrix, per-month
  shape summaries, column descriptors), then the month columns as raw
  little-endian bytes.  Loads ``mmap`` the file and cast
  ``memoryview`` slices over the column region — a 100×-scale dataset
  opens in O(metadata) time and the OS pages column bytes in only as
  queries touch them.  The envelope carries its own CRC32 (always
  verified); the column region's CRC is verified eagerly only when the
  region is small (:data:`_EAGER_VERIFY_BYTES`), because
  checksumming gigabytes would page everything in and defeat the
  point of mapping.

  Any truncation, bit flip, format skew, or blob of another format
  (such as the retired footer-sealed pickle) fails a header, CRC or
  payload check; the file is **deleted** and the load degrades to a
  counted miss that rebuilds — a bad blob is never left to fail every
  future run.  :func:`peek_meta` reads just the header and envelope,
  so callers needing only summaries/metadata never touch month
  columns.
* ``expectation-<key>.lock`` — advisory build lock: two processes
  racing to build the same dataset coordinate so one simulates and the
  other waits for the blob (stale locks from dead builders are broken
  after :data:`DEFAULT_LOCK_STALE_SECONDS`).
* ``checkpoints/<key>/<YYYY-MM-DD>.bin`` — one footer-sealed pickle
  blob (magic ``RPRC``, CRC32, length) per finished month, spilled by
  the runner as chunks of a multi-chunk run complete so a killed run
  resumes instead of restarting (cleared on success).

The blob population is kept under ``REPRO_CACHE_MAX_BYTES`` (default
512 MB) by LRU eviction: loads refresh a blob's mtime, and every save
sweeps oldest-first until the total fits.

Because blobs are whole partition payloads, everything the payload
carries rides the cache for free — including the per-month *shape
summaries* (record-order per-shape weight sums) that feed the
shape-compiled query tier, and the int-coded *shape matrix* (per-field
value vocabularies + per-shape codes) that the vectorized tier compiles
its numpy masks against.  A warm load is therefore fast-path-ready with
zero recomputation: summaries and the matrix persisted at pack time are
exactly the ones the packing process computed, and payloads from before
either field are rebuilt lazily on first use.

Invalidation is entirely key-based: any change to the population
description, the date range, or the on-disk format version produces a
different key / rejects the blob.
"""

from __future__ import annotations

import contextlib
import datetime as _dt
import gc
import hashlib
import os
import pickle
import shutil
import struct
import time
import zlib
from pathlib import Path

from repro.engine import faults
from repro.engine.partition import (
    PARTITION_FORMAT,
    PackedDataset,
    PackedMerge,
    build_shape_matrix,
    pack_records,
    remap_month,
    validate_payload,
)
from repro.engine.perf import PERF
from repro.obs import emit_event, get_logger, span

_log = get_logger("repro.engine.cache")

#: Bump to invalidate every cached dataset (e.g. when negotiation logic
#: changes in a way the population description cannot see).  3 added
#: the integrity footer.
CACHE_FORMAT = 3

#: Checkpoint integrity footer: magic + CRC32 of the body + body length.
_FOOTER_MAGIC = b"RPRC"
_FOOTER = struct.Struct("<4sIQ")

#: mmap-format blob: magic + cache format + envelope length + envelope
#: CRC32, followed by the compressed envelope pickle, followed by the
#: raw column region (descriptor offsets are relative to region start).
_MMAP_MAGIC = b"RPM1"
_MMAP_HEADER = struct.Struct("<4sIQI")

#: Column regions up to this size get their CRC verified at load time;
#: larger regions skip the eager check (it would page the whole file
#: in).
_EAGER_VERIFY_BYTES = 64 * 1024 * 1024

#: Default LRU size cap for ``expectation-*.bin`` blobs.
DEFAULT_MAX_BYTES = 512 * 1024 * 1024

#: A build lock older than this is assumed to belong to a dead process.
DEFAULT_LOCK_STALE_SECONDS = 600.0


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic GC for the duration of a blob unpickle.

    Inflating a cached dataset allocates tens of thousands of objects
    in one burst; every allocation-threshold crossing runs a collection
    whose cost scales with the *resident* object population, not the
    garbage — in a process that just finished a run this doubles or
    triples load time.  The cache graph is pure acyclic data (arrays,
    dicts, tuples, bytes), so deferring collection is safe: anything
    cyclic elsewhere is picked up by the next natural collection after
    re-enabling.  If a concurrent pause re-enables early we merely lose
    the optimisation, never correctness.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR", "").strip()
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def dataset_key(
    clients, servers, start: _dt.date, end: _dt.date, scale: int = 1
) -> str:
    """Content hash of everything the expectation dataset depends on.

    Population objects are plain dataclass trees of primitives, so their
    ``repr`` is a deterministic, address-free description; the server
    side additionally hashes the archetype table and share curves, which
    live as module constants outside the ``ServerPopulation`` instance.
    The dataset scale joins the hash only when it is not 1, so every
    pre-``--scale`` blob (and checkpoint tree) keeps its key.
    """
    from repro.servers import archetypes as arch
    from repro.servers.population import _HOST_SHARES, _TRAFFIC_SHARES

    parts = [
        f"cache-format:{CACHE_FORMAT}",
        f"partition-format:{PARTITION_FORMAT}",
        start.isoformat(),
        end.isoformat(),
        repr(clients),
        repr(servers),
        repr(arch.ALL_ARCHETYPES),
        repr(sorted(_TRAFFIC_SHARES.items())),
        repr(sorted(_HOST_SHARES.items())),
    ]
    if scale != 1:
        parts.append(f"scale:{scale}")
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def store_path(key: str) -> Path:
    return cache_dir() / f"expectation-{key[:40]}.bin"


# ---- sealed blob I/O --------------------------------------------------------


def _write_blob(path: Path, obj: dict, fault_token: str) -> Path | None:
    """Atomically write a footer-sealed blob; None on (swallowed) failure."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        body = zlib.compress(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
        footer = _FOOTER.pack(_FOOTER_MAGIC, zlib.crc32(body), len(body))
        if faults.fires("cache_write", fault_token):
            # Simulated mid-write corruption: a truncated body under a
            # footer for the full one — exactly what a torn write looks
            # like, and exactly what the CRC check must catch.
            body = faults.corrupt_blob(body)
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        tmp.write_bytes(body + footer)
        os.replace(tmp, path)
        return path
    except OSError as exc:
        PERF.cache_write_failures += 1
        _log.warning("cache write of %s failed: %s", path, exc)
        emit_event("cache_write_failure", path=str(path), error=str(exc))
        return None


def _read_blob(path: Path, fault_token: str) -> dict | None:
    """Read and verify a sealed blob; on any damage, delete it and
    return None (missing file also returns None, without a delete)."""
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return None
    except OSError as exc:
        _log.warning("cache blob %s unreadable: %s", path, exc)
        return None
    try:
        if faults.fires("cache_read", fault_token):
            raise faults.InjectedFault(f"injected cache_read at {path.name}")
        if len(raw) < _FOOTER.size:
            raise ValueError("blob shorter than its footer")
        body, footer = raw[: -_FOOTER.size], raw[-_FOOTER.size :]
        magic, crc, length = _FOOTER.unpack(footer)
        if magic != _FOOTER_MAGIC or length != len(body) or crc != zlib.crc32(body):
            raise ValueError("blob failed integrity footer")
        return pickle.loads(zlib.decompress(body))
    except Exception as exc:
        # Leaving a bad blob on disk makes every future run pay the
        # read-decompress-fail cost forever; delete it so the next run
        # rebuilds once and re-seals.
        PERF.cache_read_errors += 1
        _log.warning(
            "cache blob %s rejected (%s: %s); deleting",
            path,
            type(exc).__name__,
            exc,
        )
        _delete_corrupt(path)
        return None


def _delete_corrupt(path: Path) -> None:
    try:
        path.unlink()
        PERF.cache_corrupt_deleted += 1
        emit_event("cache_corrupt_deleted", path=str(path))
    except OSError as exc:
        _log.warning("could not delete corrupt blob %s: %s", path, exc)


# ---- mmap-format blob I/O ---------------------------------------------------


def _column_bytes(column) -> tuple[bytes, str, int]:
    """Raw bytes + typecode + itemsize of an array or memoryview column."""
    if isinstance(column, memoryview):
        return column.tobytes(), column.format, column.itemsize
    return column.tobytes(), column.typecode, column.itemsize


def _seal_mmap_blob(
    path: Path, key: str, meta: dict, indexes: dict, partition_env: dict,
    descriptors: dict, columns_len: int, columns_crc: int, splice,
    fault_token: str,
) -> Path | None:
    """Write header + envelope, then let ``splice(out)`` append the raw
    column region; atomic rename at the end.  None on (swallowed)
    failure — a cache that cannot be written must never take the
    computed result down with it."""
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {
            "format": CACHE_FORMAT,
            "key": key,
            "meta": meta,
            "indexes": indexes,
            "partition": partition_env,
            "columns": descriptors,
            "columns_len": columns_len,
            "columns_crc": columns_crc,
        }
        meta_blob = zlib.compress(
            pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
        )
        header = _MMAP_HEADER.pack(
            _MMAP_MAGIC, CACHE_FORMAT, len(meta_blob), zlib.crc32(meta_blob)
        )
        if faults.fires("cache_write", fault_token):
            # Header CRC was computed from the intact envelope, so the
            # torn write this simulates must fail the meta CRC check.
            meta_blob = faults.corrupt_blob(meta_blob)
        with open(tmp, "wb") as out:
            out.write(header)
            out.write(meta_blob)
            splice(out)
        os.replace(tmp, path)
        return path
    except OSError as exc:
        PERF.cache_write_failures += 1
        _log.warning("cache write of %s failed: %s", path, exc)
        emit_event("cache_write_failure", path=str(path), error=str(exc))
        return None


def _write_mmap_blob(
    path: Path, key: str, meta: dict, merge, indexes: dict,
    fault_token: str,
) -> Path | None:
    """Atomically write a :class:`~repro.engine.partition.PackedMerge` as
    an mmap-format blob; None on (swallowed) failure.

    The metadata envelope (everything except raw column bytes) is one
    compressed pickle up front, so readers that only need summaries or
    run metadata never touch the column region.

    Column bytes stream through a sibling temp file as each merged
    month arrives — peak resident cost is one month's columns, never
    the dataset — and the region is then spliced behind the envelope in
    bounded chunks.  The merge's shape table is complete once its
    months are exhausted, which is when the envelope is built.
    """
    region_tmp = path.with_name(path.name + f".col{os.getpid()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        descriptors: dict[int, dict] = {}
        summaries: dict[int, dict] = {}
        offset = 0
        crc = 0
        with open(region_tmp, "wb") as region:
            for month_ord, columns in merge.months():
                descr: dict[str, dict] = {}
                for name in ("weights", "shape_idx"):
                    raw, typecode, itemsize = _column_bytes(columns[name])
                    descr[name] = {
                        "offset": offset,
                        "typecode": typecode,
                        "itemsize": itemsize,
                        "count": len(columns[name]),
                    }
                    region.write(raw)
                    crc = zlib.crc32(raw, crc)
                    offset += len(raw)
                descriptors[month_ord] = descr
                summaries[month_ord] = columns.get("shape_summary")

        def splice(out) -> None:
            with open(region_tmp, "rb") as region:
                shutil.copyfileobj(region, out, 8 * 1024 * 1024)

        return _seal_mmap_blob(
            path, key, meta, indexes,
            {
                "format": PARTITION_FORMAT,
                "shapes": merge.shapes,
                "shape_matrix": build_shape_matrix(merge.shapes),
                "summaries": summaries,
            },
            descriptors, offset, crc, splice, fault_token,
        )
    except OSError as exc:
        PERF.cache_write_failures += 1
        _log.warning("cache write of %s failed: %s", path, exc)
        emit_event("cache_write_failure", path=str(path), error=str(exc))
        return None
    finally:
        with contextlib.suppress(OSError):
            region_tmp.unlink()


class SpillError(OSError):
    """A month failed to reach the spill region (disk trouble).

    The spill truncates itself back to the last sealed month before
    raising, so the caller can salvage everything already spilled and
    continue in memory.
    """


class BlobSpill:
    """Out-of-core sink for sealed month partitions.

    The runner feeds finished chunk payloads in as they
    arrive: each month's shape indices are remapped into one growing
    shape table (:func:`repro.engine.partition.remap_month` — weights
    carry float for float, summaries translate bit for bit) and its
    raw column bytes are appended to an anonymous temp file with an
    incremental CRC.  Only the shape table, per-month summaries, and
    column descriptors stay resident; the columns themselves live on
    disk from the moment the chunk is adopted.

    :meth:`finish_payload` then mmaps the region and returns a payload
    whose columns are ``memoryview`` casts over the map — the run's
    store is out-of-core from the moment it exists, and nothing during
    the run reads the mapped bytes back (indexes are prebuilt from the
    resident chunk, queries come later, in other processes).
    :func:`save_store` recognizes a spill-backed store and splices the
    region file behind a metadata envelope fd-to-fd, so sealing the
    cache blob never pages a column byte in either.
    """

    def __init__(self) -> None:
        import tempfile

        # Unlinked on creation: a killed run leaks nothing, and the
        # mmap (plus our fd) keeps the bytes alive as long as needed.
        self._region = tempfile.TemporaryFile()
        self.shapes: list = []
        self._shape_index: dict = {}
        self.descriptors: dict[int, dict] = {}
        self.summaries: dict[int, dict] = {}
        self.columns_len = 0
        self.columns_crc = 0
        self._mapped = None
        self._payload: dict | None = None

    def add_payload(self, payload: dict) -> None:
        """Spill every month of one packed payload (idempotent per month).

        Raises :class:`SpillError` (after truncating back to the last
        sealed month) if the region write fails, and ``ValueError`` for
        payloads the raw layout cannot carry (day columns) — the
        expectation runner never produces those.
        """
        if payload.get("format") != PARTITION_FORMAT:
            raise ValueError(
                f"unsupported partition format: {payload.get('format')!r}"
            )
        for month_ord in sorted(payload["months"]):
            columns = payload["months"][month_ord]
            if month_ord in self.descriptors:
                continue  # idempotent re-adoption (resume/retry overlap)
            if columns["days"] is not None:
                raise ValueError("day-carrying months cannot spill")
            merged = remap_month(
                columns, payload["shapes"], self.shapes, self._shape_index
            )
            raws = {
                name: merged[name].tobytes()
                for name in ("weights", "shape_idx")
            }
            descr: dict[str, dict] = {}
            offset = self.columns_len
            crc = self.columns_crc
            try:
                for name in ("weights", "shape_idx"):
                    raw = raws[name]
                    column = merged[name]
                    descr[name] = {
                        "offset": offset,
                        "typecode": column.typecode,
                        "itemsize": column.itemsize,
                        "count": len(column),
                    }
                    self._region.write(raw)
                    crc = zlib.crc32(raw, crc)
                    offset += len(raw)
            except OSError as exc:
                # Roll back to the last sealed month: descriptors/CRC
                # were not advanced, so everything spilled so far stays
                # consistent and salvageable.
                with contextlib.suppress(OSError):
                    self._region.truncate(self.columns_len)
                    self._region.seek(self.columns_len)
                raise SpillError(str(exc)) from exc
            self.descriptors[month_ord] = descr
            self.summaries[month_ord] = merged["shape_summary"]
            self.columns_len = offset
            self.columns_crc = crc

    def finish_payload(self) -> dict:
        """The spilled dataset as a payload over mmap-backed columns.

        Mirrors the month structure :func:`_read_mmap_blob` builds, so
        the store (and every query tier) cannot tell a just-simulated
        spill-backed dataset from a cache-loaded one.  Memoized: the
        runner and any salvage path see the same object.
        """
        import mmap as _mmap_mod

        if self._payload is not None:
            return self._payload
        self._region.flush()
        months: dict[int, dict] = {}
        region = None
        if self.columns_len:
            self._mapped = _mmap_mod.mmap(
                self._region.fileno(), self.columns_len,
                access=_mmap_mod.ACCESS_READ,
            )
            region = memoryview(self._mapped)
        for month_ord, descr in self.descriptors.items():
            columns: dict = {"days": None}
            for name, spec in descr.items():
                end = spec["offset"] + spec["count"] * spec["itemsize"]
                columns[name] = region[spec["offset"]:end].cast(
                    spec["typecode"]
                )
            columns["shape_summary"] = self.summaries[month_ord]
            months[month_ord] = columns
        self._payload = {
            "format": PARTITION_FORMAT,
            "shapes": self.shapes,
            "months": months,
            "shape_matrix": build_shape_matrix(self.shapes),
            "_mmap": self._mapped,
            "_spill": self,
        }
        return self._payload

    def splice_into(self, out) -> None:
        """Append the raw column region to ``out``, fd to fd — file
        pages flow through the page cache, not this process's heap."""
        self._region.flush()
        self._region.seek(0)
        shutil.copyfileobj(self._region, out, 8 * 1024 * 1024)
        self._region.seek(0, os.SEEK_END)


def _write_spill_blob(
    path: Path, key: str, meta: dict, spill: BlobSpill, indexes: dict,
    fault_token: str,
) -> Path | None:
    """Seal a spill-backed store's blob by splicing its region file.

    The envelope fields (shapes, summaries, descriptors, CRC) were all
    accumulated while chunks were still resident, so this never reads
    the mapped columns — peak cost is the envelope pickle.
    """
    return _seal_mmap_blob(
        path, key, meta, indexes,
        {
            "format": PARTITION_FORMAT,
            "shapes": spill.shapes,
            "shape_matrix": build_shape_matrix(spill.shapes),
            "summaries": spill.summaries,
        },
        spill.descriptors, spill.columns_len, spill.columns_crc,
        spill.splice_into, fault_token,
    )


def _envelope_length(header: bytes, blob_len: int) -> int:
    """Check an mmap blob's header; return its envelope length (raises
    on a short header, foreign magic, format skew, or an envelope longer
    than the blob)."""
    if len(header) < _MMAP_HEADER.size:
        raise ValueError("mmap blob shorter than its header")
    magic, fmt, meta_len, _ = _MMAP_HEADER.unpack(header)
    if magic != _MMAP_MAGIC:
        raise ValueError("not an mmap-format blob")
    if fmt != CACHE_FORMAT:
        raise ValueError(f"mmap blob has cache format {fmt}")
    if _MMAP_HEADER.size + meta_len > blob_len:
        raise ValueError("mmap blob envelope truncated")
    return meta_len


def _unpack_meta_blob(header: bytes, meta_blob: bytes) -> dict:
    """Verify and decode an mmap blob's metadata envelope (raises on damage)."""
    _, _, meta_len, meta_crc = _MMAP_HEADER.unpack(header)
    if len(meta_blob) != meta_len or zlib.crc32(meta_blob) != meta_crc:
        raise ValueError("mmap blob failed envelope CRC")
    return pickle.loads(zlib.decompress(meta_blob))


def _read_mmap_blob(path: Path, fault_token: str) -> dict | None:
    """Map an mmap-format blob; on any damage, delete it and return None.

    Returns the envelope (``format``/``key``/``meta``/``indexes``) plus
    a ``records`` payload whose month columns are ``memoryview`` casts
    over the mapped file — ``_mmap``
    inside the payload keeps the map alive as long as the payload is.
    """
    import mmap as _mmap_mod

    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return None
    except OSError as exc:
        _log.warning("cache blob %s unreadable: %s", path, exc)
        return None
    mapped = None
    try:
        try:
            if faults.fires("cache_read", fault_token):
                raise faults.InjectedFault(
                    f"injected cache_read at {path.name}"
                )
            mapped = _mmap_mod.mmap(
                handle.fileno(), 0, access=_mmap_mod.ACCESS_READ
            )
            view = memoryview(mapped)
            header = bytes(view[: _MMAP_HEADER.size])
            meta_end = _MMAP_HEADER.size + _envelope_length(header, len(view))
            envelope = _unpack_meta_blob(header, bytes(view[_MMAP_HEADER.size:meta_end]))
            region = view[meta_end:]
            if len(region) != envelope["columns_len"]:
                raise ValueError("mmap blob column region truncated")
            if (
                len(region) <= _EAGER_VERIFY_BYTES
                and zlib.crc32(region) != envelope["columns_crc"]
            ):
                raise ValueError("mmap blob failed column CRC")
            partition = envelope["partition"]
            months: dict[int, dict] = {}
            for month_ord, descr in envelope["columns"].items():
                columns: dict = {"days": None}
                for name, spec in descr.items():
                    end = spec["offset"] + spec["count"] * spec["itemsize"]
                    columns[name] = region[spec["offset"]:end].cast(
                        spec["typecode"]
                    )
                summary = partition["summaries"].get(month_ord)
                if summary is not None:
                    columns["shape_summary"] = summary
                months[month_ord] = columns
            records = {
                "format": partition["format"],
                "shapes": partition["shapes"],
                "months": months,
                "shape_matrix": partition.get("shape_matrix"),
                # Keeps the map (and the casts into it) alive for the
                # payload's lifetime; everything else ignores the key.
                "_mmap": mapped,
            }
            return {
                "format": envelope["format"],
                "key": envelope["key"],
                "meta": envelope.get("meta", {}),
                "indexes": envelope.get("indexes", {}),
                "records": records,
            }
        except Exception as exc:
            if mapped is not None:
                with contextlib.suppress(Exception):
                    mapped.close()
            PERF.cache_read_errors += 1
            _log.warning(
                "cache blob %s rejected (%s: %s); deleting",
                path,
                type(exc).__name__,
                exc,
            )
            _delete_corrupt(path)
            return None
    finally:
        handle.close()


def peek_meta(key: str) -> dict | None:
    """Load only a cached dataset's metadata: never inflates columns.

    Reads the header plus the compressed envelope and stops — month
    columns stay on disk untouched.  Returns ``{"format", "key",
    "meta", "indexes", "months"}`` (months as dates, ascending) or None
    on miss/corruption.
    """
    path = store_path(key)
    try:
        with open(path, "rb") as handle:
            if faults.fires("cache_read", f"peek:{key[:16]}"):
                raise faults.InjectedFault(f"injected cache_read at {path.name}")
            header = handle.read(_MMAP_HEADER.size)
            meta_len = _envelope_length(header, os.fstat(handle.fileno()).st_size)
            envelope = _unpack_meta_blob(header, handle.read(meta_len))
    except FileNotFoundError:
        return None
    except Exception as exc:
        PERF.cache_read_errors += 1
        _log.warning(
            "cache blob %s rejected (%s: %s); deleting",
            path,
            type(exc).__name__,
            exc,
        )
        _delete_corrupt(path)
        return None
    return {
        "format": envelope.get("format"),
        "key": envelope.get("key"),
        "meta": envelope.get("meta", {}),
        "indexes": envelope.get("indexes", {}),
        "months": [_dt.date.fromordinal(o) for o in sorted(envelope["columns"])],
    }


# ---- dataset blobs ----------------------------------------------------------


def save_store(store, key: str, meta: dict | None = None) -> Path | None:
    """Atomically persist a finished store under its dataset key.

    A spill-backed store (every run's out-of-core adoption) already
    holds its column bytes in a region file, so its blob is sealed by
    splicing that file — never paging a column in.  Any other store
    streams its months through a
    :class:`~repro.engine.partition.PackedMerge`: the store's own, or a
    pack of its records when it holds raw ones.  Day-carrying months
    (Monte-Carlo stores) have no raw column layout and raise
    ``ValueError``.

    Disk failures are swallowed (counted in PERF): a cache that cannot
    be written must never take the computed result down with it.  Every
    successful save triggers the LRU size sweep.
    """
    with span("cache_save", key=key[:16]):
        # Aggregate indexes ride along so a warm load answers the
        # standard figure queries without touching a single record.
        indexes = store.index_payloads()
        token = f"save:{key[:16]}"
        spill = store.packed_spill()
        if spill is not None:
            path = _write_spill_blob(
                store_path(key), key, dict(meta or {}), spill, indexes, token,
            )
        else:
            merge = store.packed_merge()
            if merge is None:
                merge = PackedMerge([pack_records(store.records())])
            if merge.has_days:
                raise ValueError("day-carrying months cannot be cached")
            path = _write_mmap_blob(
                store_path(key), key, dict(meta or {}), merge, indexes, token,
            )
        if path is not None:
            _log.debug("dataset cached at %s", path)
            emit_event("cache_save", key=key[:16], path=str(path))
            evict_lru(keep=path)
    return path


def load_store(key: str):
    """Load a cached store, or None on miss/corruption/format skew.

    Corrupt and format-skewed blobs are deleted on rejection; a hit
    refreshes the blob's mtime so the LRU sweep sees it as recent.
    """
    from repro.notary.store import NotaryStore

    path = store_path(key)
    started = time.perf_counter()
    with span("cache_load", key=key[:16]), _gc_paused():
        payload = _read_mmap_blob(path, f"load:{key[:16]}")
        if payload is not None:
            if (
                payload.get("format") != CACHE_FORMAT
                or payload.get("key") != key
                or not validate_payload(payload.get("records", {}))
            ):
                _log.warning(
                    "cached dataset %s failed format/key/payload checks; culling",
                    path,
                )
                _delete_corrupt(path)
                payload = None
        if payload is None:
            PERF.dataset_cache_misses += 1
            _log.debug("dataset cache miss for key %s", key[:16])
            emit_event("cache_miss", key=key[:16])
            return None
        store = NotaryStore()
        store.attach_packed(PackedDataset(payload["records"]))
        store.install_index_payloads(payload.get("indexes", {}))
        with contextlib.suppress(OSError):
            os.utime(path)
        PERF.dataset_cache_hits += 1
        PERF.records_loaded += len(store)
        PERF.load_seconds = time.perf_counter() - started
        _log.debug(
            "dataset cache hit for key %s (%.3fs)", key[:16], PERF.load_seconds
        )
        emit_event("cache_hit", key=key[:16], seconds=PERF.load_seconds)
    return store


# ---- LRU eviction -----------------------------------------------------------


def max_cache_bytes() -> int:
    env = os.environ.get("REPRO_CACHE_MAX_BYTES", "").strip()
    if env:
        try:
            return max(0, int(env))
        except ValueError:
            pass
    return DEFAULT_MAX_BYTES


def evict_lru(max_bytes: int | None = None, keep: Path | None = None) -> int:
    """Delete oldest dataset blobs until the population fits the cap.

    Only ``expectation-*.bin`` blobs count (checkpoints are transient
    and cleared by the runner).  The just-written blob (``keep``) is
    never evicted, even if it alone exceeds the cap.  Returns the
    number of evicted files.
    """
    cap = max_cache_bytes() if max_bytes is None else max_bytes
    if cap <= 0:
        return 0
    entries = []
    try:
        for path in cache_dir().glob("expectation-*.bin"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
    except OSError:
        return 0
    total = sum(size for _, size, _ in entries)
    evicted = 0
    for _, size, path in sorted(entries):
        if total <= cap:
            break
        if keep is not None and path == keep:
            continue
        with contextlib.suppress(OSError):
            path.unlink()
            total -= size
            evicted += 1
            PERF.cache_evictions += 1
            _log.info("evicted cache blob %s (%d bytes, LRU)", path.name, size)
            emit_event("cache_evict", path=str(path), bytes=size)
    return evicted


# ---- advisory build lock ----------------------------------------------------


def _lock_path(key: str) -> Path:
    return cache_dir() / f"expectation-{key[:40]}.lock"


@contextlib.contextmanager
def build_lock(key: str):
    """Advisory per-key build lock; yields True when this process holds it.

    Best-effort by design: on any filesystem trouble the caller simply
    builds anyway (duplicate work beats no work).  A lock file older
    than the stale threshold is assumed orphaned by a killed builder
    and broken.
    """
    path = _lock_path(key)
    acquired = False
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        for _ in range(2):
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(fd, f"{os.getpid()}\n".encode("ascii"))
                os.close(fd)
                acquired = True
                break
            except FileExistsError:
                try:
                    age = time.time() - path.stat().st_mtime
                except OSError:
                    continue  # holder vanished between open and stat; retry
                if age > DEFAULT_LOCK_STALE_SECONDS:
                    _log.warning(
                        "breaking stale build lock %s (age %.0fs)", path, age
                    )
                    emit_event("lock_stale_broken", path=str(path), age=age)
                    with contextlib.suppress(OSError):
                        path.unlink()
                    continue
                break
            except OSError:
                break
    except OSError:
        pass
    try:
        yield acquired
    finally:
        if acquired:
            with contextlib.suppress(OSError):
                path.unlink()


def wait_for_store(key: str, timeout: float = 30.0, poll: float = 0.2):
    """Poll for another process's build of ``key`` to land.

    Returns the loaded store, or None if the blob never appeared (or
    the other builder's lock vanished without a blob) — the caller
    then builds itself.
    """
    deadline = time.monotonic() + timeout
    while True:
        store = load_store(key)
        if store is not None:
            return store
        if not _lock_path(key).exists():
            return load_store(key)
        if time.monotonic() >= deadline:
            return None
        time.sleep(poll)


# ---- month checkpoints ------------------------------------------------------


class Checkpoint:
    """Per-month spill files that let a killed parallel run resume.

    Each finished chunk's months are written as standalone sealed
    blobs; a resuming run adopts every valid month and re-simulates
    only the rest.  Corrupt or mismatched files are deleted and their
    months rebuilt — resume can only ever help, never poison a run.
    """

    def __init__(self, key: str) -> None:
        self.key = key
        self.dir = cache_dir() / "checkpoints" / key[:40]

    def _month_path(self, month: _dt.date) -> Path:
        return self.dir / f"{month.isoformat()}.bin"

    def save_months(self, split: dict[_dt.date, dict]) -> int:
        """Persist single-month payloads; returns months written."""
        written = 0
        for month, payload in split.items():
            blob = {"format": CACHE_FORMAT, "key": self.key, "records": payload}
            token = f"ckpt:{self.key[:8]}:{month.isoformat()}"
            if _write_blob(self._month_path(month), blob, token) is not None:
                written += 1
        PERF.checkpointed_months += written
        if written:
            _log.debug("checkpointed %d month(s) under %s", written, self.dir)
            emit_event(
                "checkpoint_save",
                key=self.key[:16],
                months=[m.isoformat() for m in split],
            )
        return written

    def load_months(self, months):
        """Yield (month, payload) for every valid checkpointed month."""
        for month in months:
            path = self._month_path(month)
            token = f"ckpt:{self.key[:8]}:{month.isoformat()}"
            blob = _read_blob(path, token)
            if blob is None:
                continue
            if blob.get("format") != CACHE_FORMAT or blob.get("key") != self.key:
                _log.warning("checkpoint %s has format/key skew; culling", path)
                _delete_corrupt(path)
                continue
            payload = blob.get("records")
            if not validate_payload(payload, [month]):
                _log.warning("checkpoint %s failed validation; culling", path)
                _delete_corrupt(path)
                continue
            emit_event("checkpoint_load", key=self.key[:16], month=month.isoformat())
            yield month, payload

    def clear(self) -> None:
        """Remove the checkpoint directory (run finished cleanly)."""
        shutil.rmtree(self.dir, ignore_errors=True)
