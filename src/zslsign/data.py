"""Domain types and dataset I/O.

A dataset lives on disk as one JSON manifest plus plain-text feature files
(one snippet per line, comma-separated reals). All types are immutable after
construction; invariants that depend on the data content (finiteness, binary
attributes, split disjointness, ...) are listed by :func:`validate_dataset`.

The CSV files and the manifest are the source of truth. :func:`save_dataset`
also writes a feature pack next to the manifest: ``<stem>.pack.npy`` holds
every sample feature file's values, then the class text matrix, as one
little-endian float64 vector (see :func:`write_vector`), and
``<stem>.pack.json`` records, per file path, the offset and rows x cols of its
values, the byte length and ``zlib.crc32`` of its CSV bytes, and the CRC-32 of
its packed values. The manifest gets the same kind of entry, whose values are
the class text vectors, plus the manifest's fields without those vectors.

:class:`DatasetReader` is the one reader. It walks the manifest's samples in
order and hands each one on as soon as its files are read, as a record: its
id, its class id and its body and hand frame matrices (see
:attr:`Sample.record`). A caller that keeps only what it needs of a sample
(experiment.load_embedded pools it into one embedding row) never holds more
than one sample's snippet frames. Every input, of this module or another, is
opened by :func:`open_input`, which refuses anything but a regular file and
cannot block on a FIFO. Each CSV costs that open and ``fstat``, and the reads
of its CRC-32 in ``_CRC_CHUNK`` pieces; every CSV is still CRC-checked on
every load. A file's values come from the pack only when its path, byte length
and both CRC-32s match; save_dataset packs the files in the manifest's sample
order, so the reader reads the blocks in file order from the one open value
file. Likewise the manifest's fields and text vectors come from the pack only
when the manifest's byte length and CRC-32 match, so the 250 x 768 text floats
of a paper-sized manifest are not parsed as JSON text. Anything else (no pack,
an edited manifest or CSV, a stale, torn, truncated or garbage pack,
hand-written ``text_file`` rows) is parsed from the files. A field that does
not parse, the split's included, raises as it is read. The class, sample and
split invariants are checked as the reader goes (finiteness as one check per
stream, the failing rows looked for only when it fails) and raised together
after the last sample, in :func:`validate_dataset`'s order.
:func:`load_dataset` builds a :class:`Sample` from each record and collects
them into a :class:`Dataset`. CRC-32 comes with zlib, which numpy already
loads; a digest from ``hashlib`` would map OpenSSL's libcrypto into every
command for no gain in detecting edits. The manifest is written as compact
JSON.

Each sample's frames and each class text vector own their memory, so
dropping a sample frees its frames and nothing else.

:func:`save_dataset` writes in this order: the feature CSVs (and any extra
CSV files the caller hands it), then the pack's values, then its index, and
the manifest last. Formatting shortest round-trip reals is nearly all of a
save's cost, so a large save formats on the forked workers of
:func:`pool.map_jobs`: each worker formats and writes a range of the files and
sends back only their byte lengths and CRC-32s, and the manifest's JSON bytes.
The files do not depend on the worker count. A save cut short before the end
leaves no new manifest.
"""

from __future__ import annotations

import io
import json
import math
import os
import stat
import zlib
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import pool
from .errors import InvariantViolation, MissingFile, ParseError

DEFAULT_ATTRIBUTE_COUNT = 53
TEXT_NORM_TOL = 1e-9


class Stream(Enum):
    BODY = "body"
    HAND = "hand"


class SplitMode(Enum):
    ZSL = "zsl"
    GZSL = "gzsl"


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class FeatureSequence:
    """T snippet-feature rows of one stream of one sample."""

    sample_id: str
    stream: Stream
    data: np.ndarray  # T x d_s, float64

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"feature sequence for {self.sample_id!r} must be 2-D, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"feature sequence for {self.sample_id!r} must be at least 1x1, got {arr.shape}")
        object.__setattr__(self, "data", _freeze(arr))


@dataclass(frozen=True)
class Sample:
    """One labeled video, carried as per-stream feature sequences."""

    sample_id: str
    class_id: str
    sequences: Mapping[Stream, FeatureSequence]

    def __post_init__(self) -> None:
        seqs = dict(self.sequences)
        if Stream.BODY not in seqs:
            raise ValueError(f"sample {self.sample_id!r} has no body sequence")
        object.__setattr__(self, "sequences", seqs)

    @property
    def body(self) -> FeatureSequence:
        return self.sequences[Stream.BODY]

    @property
    def hand(self) -> FeatureSequence | None:
        return self.sequences.get(Stream.HAND)

    @property
    def record(self) -> tuple[str, str, np.ndarray, np.ndarray | None]:
        """(sample id, class id, body frames, hand frames or None): the sample as DatasetReader hands it on."""
        hand = self.hand
        return self.sample_id, self.class_id, self.body.data, None if hand is None else hand.data

    @classmethod
    def from_record(cls, sample_id: str, class_id: str, body: np.ndarray, hand: np.ndarray | None) -> "Sample":
        sequences = {Stream.BODY: FeatureSequence(sample_id, Stream.BODY, body)}
        if hand is not None:
            sequences[Stream.HAND] = FeatureSequence(sample_id, Stream.HAND, hand)
        return cls(sample_id, class_id, sequences)


@dataclass(frozen=True)
class ClassDescriptor:
    """Class identity plus its binary attribute vector and unit text vector."""

    class_id: str
    name: str
    attributes: np.ndarray  # length A, entries in {0, 1}
    text: np.ndarray  # length D_text, unit l2 norm

    def __post_init__(self) -> None:
        attrs = np.asarray(self.attributes, dtype=np.float64)
        text = np.asarray(self.text, dtype=np.float64)
        if attrs.ndim != 1:
            raise ValueError(f"class {self.class_id!r}: attributes must be a vector")
        if text.ndim != 1:
            raise ValueError(f"class {self.class_id!r}: text must be a vector")
        object.__setattr__(self, "attributes", _freeze(attrs))
        object.__setattr__(self, "text", _freeze(text))


@dataclass(frozen=True)
class SplitConfig:
    """Disjoint seen/validation/unseen class-id sets defining the candidate sets."""

    seen_classes: frozenset[str]
    validation_classes: frozenset[str]
    unseen_classes: frozenset[str]
    mode: SplitMode

    def __post_init__(self) -> None:
        object.__setattr__(self, "seen_classes", frozenset(self.seen_classes))
        object.__setattr__(self, "validation_classes", frozenset(self.validation_classes))
        object.__setattr__(self, "unseen_classes", frozenset(self.unseen_classes))

    def with_mode(self, mode: SplitMode) -> "SplitConfig":
        return replace(self, mode=mode)


@dataclass(frozen=True)
class Dataset:
    classes: tuple[ClassDescriptor, ...]
    samples: tuple[Sample, ...]
    split: SplitConfig
    attribute_count: int = DEFAULT_ATTRIBUTE_COUNT

    def __post_init__(self) -> None:
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "samples", tuple(self.samples))

    @cached_property
    def classes_by_id(self) -> dict[str, ClassDescriptor]:
        return {c.class_id: c for c in self.classes}

    @property
    def has_full_hand_coverage(self) -> bool:
        """True when every sample carries a hand sequence.

        Hand-stream use is disabled dataset-wide otherwise, since two-stream
        concatenation needs uniform dimensionality.
        """
        return all(s.hand is not None for s in self.samples)

    def samples_of(self, class_ids: frozenset[str] | set[str]) -> list[Sample]:
        return [s for s in self.samples if s.class_id in class_ids]


def _unit_normalized(vec: np.ndarray, class_id: str) -> np.ndarray:
    """Scale to unit l2 norm, in memory of its own.

    Vectors already within TEXT_NORM_TOL of unit norm are copied unchanged so
    that a save/load round trip is bit-exact. The copy matters for a row of
    the pack's text block: a view would keep every class's text alive for as
    long as any one class descriptor lives.
    """
    norm = float(np.linalg.norm(vec))
    if norm == 0.0 or not math.isfinite(norm):
        raise InvariantViolation(f"class {class_id!r}: text vector has no finite nonzero norm")
    if abs(norm - 1.0) <= TEXT_NORM_TOL:
        return vec.copy()
    return vec / norm


def _parse_feature_matrix(raw: bytes, path: str, entity: str) -> np.ndarray:
    rows: list[list[float]] = []
    width: int | None = None
    for lineno, line in enumerate(raw.decode("utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        values = []
        for fieldno, token in enumerate(line.split(","), start=1):
            try:
                values.append(float(token))
            except ValueError:
                raise ParseError(
                    f"{entity} line {lineno} field {fieldno}: not a number: {token.strip()!r}"
                ) from None
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise InvariantViolation(
                f"{entity} line {lineno}: ragged row (expected {width} columns, got {len(values)})"
            )
        rows.append(values)
    if not rows:
        raise InvariantViolation(f"{entity}: feature file {Path(path)} has no rows")
    return np.array(rows, dtype=np.float64)


def csv_text(matrix: np.ndarray) -> str:
    """One line per row, comma-separated shortest round-trip reals, LF-terminated."""
    return "\n".join(",".join(map(repr, row)) for row in matrix.tolist()) + "\n"


_VECTOR_DTYPE = np.dtype("<f8")
_CRC_CHUNK = 1 << 16  # bytes read at a time when a file is only checksummed
# how an input is opened: nonblocking, so that opening a FIFO returns at once and fstat refuses it
_OPEN_FLAGS = os.O_RDONLY | getattr(os, "O_NONBLOCK", 0) | getattr(os, "O_BINARY", 0)


def write_vector(path: Path, values: np.ndarray) -> int:
    """Write values as one little-endian float64 npy 1.0 vector; return the CRC-32 of the values."""
    values = np.ascontiguousarray(values, dtype=_VECTOR_DTYPE).ravel()
    with open(path, "wb") as f:
        np.lib.format.write_array(f, values, version=(1, 0))
    return zlib.crc32(values)


def _vector_layout(stream, nbytes: int) -> tuple[int, int]:
    """(byte offset of the first value, value count) of nbytes of npy as write_vector writes them.

    stream is positioned at the start of the npy; ValueError says what differs.
    """
    version = np.lib.format.read_magic(stream)
    if version != (1, 0):
        raise ValueError(f"npy format version {version}, expected (1, 0)")
    shape, _, dtype = np.lib.format.read_array_header_1_0(stream)
    if dtype != _VECTOR_DTYPE:
        raise ValueError(f"dtype {dtype.str}, expected {_VECTOR_DTYPE.str}")
    start = stream.tell()
    count, rest = divmod(nbytes - start, _VECTOR_DTYPE.itemsize)
    if rest:
        raise ValueError(f"{nbytes - start} bytes of values are not a whole number of float64 values")
    if shape != (count,):
        raise ValueError(f"header shape {shape}, but the file holds {count} values")
    return start, count


def read_vector(raw: bytes) -> np.ndarray:
    """The values of npy bytes as :func:`write_vector` writes them; ValueError says what differs.

    The header is read with np.lib.format and the values are a read-only view
    of raw, so a corrupt header cannot trigger a large allocation.
    """
    start, _ = _vector_layout(io.BytesIO(raw), len(raw))
    return np.frombuffer(raw, dtype=_VECTOR_DTYPE, offset=start)


def _fd_crc32(fd: int) -> int:
    """The CRC-32 of the rest of an open file, read _CRC_CHUNK bytes at a time, so it is never held whole."""
    crc = 0
    while chunk := os.read(fd, _CRC_CHUNK):
        crc = zlib.crc32(chunk, crc)
    return crc


def _fd_bytes(fd: int) -> bytes:
    """Every byte of an open file, from its start."""
    os.lseek(fd, 0, os.SEEK_SET)
    with open(fd, "rb", buffering=0, closefd=False) as f:
        return f.readall()


def open_input(path: str | os.PathLike, what: str) -> tuple[int, int]:
    """A descriptor of the regular file at path, as written, and its byte length; close it after use.

    This is how every input is opened: nonblocking, so a FIFO cannot stall the
    open, then fstat of the open file for its type and length. Anything but a
    regular file, and any failed open but a PermissionError, is MissingFile
    "<what> not found: <path>".
    """
    try:
        fd = os.open(path, _OPEN_FLAGS)
    except PermissionError:
        raise
    except OSError:
        pass
    else:
        info = os.fstat(fd)
        if stat.S_ISREG(info.st_mode):
            return fd, info.st_size
        os.close(fd)
    raise MissingFile(f"{what} not found: {Path(path)}")


def read_input(path: str | os.PathLike, what: str) -> bytes:
    """Every byte of the input at path, opened by open_input."""
    fd, _ = open_input(path, what)
    try:
        return _fd_bytes(fd)
    finally:
        os.close(fd)


def _pack_paths(manifest_path: Path) -> tuple[Path, Path]:
    """The pack's value file and index, named after the manifest stem."""
    return manifest_path.with_suffix(".pack.npy"), manifest_path.with_suffix(".pack.json")


_ENTRY_FIELDS = ("offset", "rows", "cols", "bytes", "crc32", "values_crc32")


class _FeaturePack:
    """The pack saved with a manifest: its index, and its value file, held open so each block is read alone.

    A block is used only if the file it was packed from still has the byte
    length and CRC-32 that the index records, and its values still have theirs.
    """

    def __init__(self, file, start: int, size: int, files: dict, manifest) -> None:
        self._file = file
        self._start = start  # byte offset of the first value
        self._size = size  # values in the file
        self.files = files
        self.manifest_entry = manifest

    @classmethod
    def open(cls, manifest_path: Path) -> "_FeaturePack | None":
        """The pack saved with this manifest, or None when it is missing or unreadable; close it after use."""
        npy_path, index_path = _pack_paths(manifest_path)
        try:  # a pack file that is missing, unreadable or not a regular file (MissingFile) leaves no pack
            index = json.loads(read_input(index_path, "feature pack index"))
        except (OSError, ValueError):
            return None
        files = index.get("files") if isinstance(index, dict) else None
        if not isinstance(files, dict):
            return None
        try:
            fd, nbytes = open_input(npy_path, "feature pack")
        except OSError:
            return None
        file = open(fd, "rb")
        try:
            start, size = _vector_layout(file, nbytes)
        except ValueError:
            file.close()
            return None
        return cls(file, start, size, files, index.get("manifest"))

    def close(self) -> None:
        self._file.close()

    def block(self, entry, fd: int, size: int) -> np.ndarray | None:
        """The rows x cols values of an index entry if it was packed from exactly the size bytes of open file fd.

        None otherwise; fd is then read to its end, or not at all when the entry itself is unusable.
        """
        try:
            fields = [entry[key] for key in _ENTRY_FIELDS]
        except (KeyError, TypeError):  # a missing field, or an entry that is not an object
            return None
        if list(map(type, fields)) != [int] * len(_ENTRY_FIELDS):
            return None
        offset, rows, cols, nbytes, crc, values_crc = fields
        if offset < 0 or rows < 1 or cols < 1 or offset + rows * cols > self._size:
            return None
        if nbytes != size or crc != _fd_crc32(fd):
            return None
        values = np.empty(rows * cols, dtype=_VECTOR_DTYPE)
        self._file.seek(self._start + offset * _VECTOR_DTYPE.itemsize)
        if self._file.readinto(values) != values.nbytes or values_crc != zlib.crc32(values):
            return None
        return values.reshape(rows, cols)

    def manifest(self, fd: int, size: int) -> dict | None:
        """The manifest, open as fd with size bytes, from the pack, if the pack saw exactly its bytes, else None."""
        texts = self.block(self.manifest_entry, fd, size)
        if texts is None:
            return None
        fields = self.manifest_entry.get("fields")
        classes = fields.get("classes") if isinstance(fields, dict) else None
        if not isinstance(classes, list) or len(classes) != len(texts) or not all(isinstance(c, dict) for c in classes):
            return None
        return {**fields, "classes": [{**c, "text": row} for c, row in zip(classes, texts)]}

    @staticmethod
    def write(manifest_path: Path, files: dict[str, tuple[np.ndarray, int, int]], manifest=None) -> None:
        """Pack each file's matrix, indexed by its path and the byte length and CRC-32 of its CSV.

        manifest, when given, is (class text matrix, manifest byte length,
        manifest CRC-32, manifest fields without the text vectors); its block
        follows the files'.
        """
        npy_path, index_path = _pack_paths(manifest_path)
        blocks = [*files.values(), *([manifest[:3]] if manifest is not None else [])]
        flats = [m.astype(_VECTOR_DTYPE).ravel() for m, _, _ in blocks]
        entries = []
        offset = 0
        for (matrix, nbytes, crc), flat in zip(blocks, flats):
            rows, cols = matrix.shape
            entries.append(
                {
                    "offset": offset,
                    "rows": rows,
                    "cols": cols,
                    "bytes": nbytes,
                    "crc32": crc,
                    "values_crc32": zlib.crc32(flat),
                }
            )
            offset += flat.size
        index: dict = {"files": dict(zip(files, entries))}
        if manifest is not None:
            index["manifest"] = {**entries[-1], "fields": manifest[3]}
        write_vector(npy_path, np.concatenate(flats) if flats else np.empty(0))
        index_path.write_text(json.dumps(index) + "\n", encoding="utf-8")


def _require(entry: dict, key: str, entity: str):
    if key not in entry:
        raise ParseError(f"{entity}: missing field {key!r}")
    return entry[key]


def _entries(manifest: dict, key: str) -> list[dict]:
    entries = _require(manifest, key, "manifest")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ParseError(f"manifest field {key!r}: expected a list of objects")
    return entries


def _string_field(value, entity: str, key: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{entity}: field {key!r} must be a string, got {type(value).__name__}")
    return value


def _path_field(value, entity: str, key: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{entity}: field {key!r} must be a relative file path, got {type(value).__name__}")
    return value


def _vector_field(value, entity: str, key: str) -> np.ndarray:
    """A JSON list of numbers (or a packed row) as a float64 vector."""
    try:
        vec = np.asarray(value)
    except ValueError:  # ragged nesting
        vec = None
    if vec is None or vec.ndim != 1 or vec.dtype.kind not in "biuf":
        raise ParseError(f"{entity}: field {key!r} must be a flat list of numbers")
    return vec.astype(np.float64, copy=False)


def _read_manifest(manifest_path: Path, pack: _FeaturePack | None) -> dict:
    """The manifest's content: from the pack if it saw exactly its bytes, else parsed from them; opened once."""
    fd, size = open_input(manifest_path, "manifest")
    try:
        manifest = pack.manifest(fd, size) if pack is not None else None
        if manifest is None:
            manifest = json.loads(_fd_bytes(fd).decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"manifest {manifest_path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    finally:
        os.close(fd)
    if not isinstance(manifest, dict):
        raise ParseError(f"manifest {manifest_path}: top level must be a JSON object")
    return manifest


def _split_ids(split_entry: dict, key: str) -> frozenset[str]:
    ids = split_entry.get(key, [])
    if not isinstance(ids, list) or not all(isinstance(cid, str) for cid in ids):
        raise ParseError(f"split field {key!r}: expected a list of class id strings")
    return frozenset(ids)


def _read_split(manifest: dict) -> SplitConfig:
    split_entry = _require(manifest, "split", "manifest")
    if not isinstance(split_entry, dict):
        raise ParseError(f"manifest field 'split': expected an object, got {type(split_entry).__name__}")
    mode_token = _require(split_entry, "mode", "split")
    try:
        mode = SplitMode(mode_token)
    except ValueError:
        raise ParseError(f"split field 'mode': expected 'zsl' or 'gzsl', got {mode_token!r}") from None
    return SplitConfig(
        seen_classes=_split_ids(split_entry, "seen"),
        validation_classes=_split_ids(split_entry, "validation"),
        unseen_classes=_split_ids(split_entry, "unseen"),
        mode=mode,
    )


class _Checks:
    """The broken invariants of a dataset, described as its classes, samples and split are checked, in that order."""

    def __init__(self, attribute_count: int) -> None:
        self.attribute_count = attribute_count
        self.violations: list[str] = []
        self._class_ids: set[str] = set()
        self._sample_ids: set[str] = set()

    def classes(self, classes: Sequence[ClassDescriptor]) -> None:
        for c in classes:
            if c.class_id in self._class_ids:
                self.violations.append(f"class {c.class_id!r} duplicated")
            self._class_ids.add(c.class_id)
            if c.attributes.shape[0] != self.attribute_count:
                self.violations.append(
                    f"class {c.class_id!r} has {c.attributes.shape[0]} attributes, expected {self.attribute_count}"
                )
            a = c.attributes
            not_binary = (a != 0.0) & (a != 1.0)  # NaN compares unequal to both
            if not_binary.any():
                for k in np.flatnonzero(not_binary):
                    self.violations.append(f"class {c.class_id!r} attribute {k} not binary")
            if not np.all(np.isfinite(c.text)):
                self.violations.append(f"class {c.class_id!r} text vector non-finite")
            elif abs(float(np.linalg.norm(c.text)) - 1.0) > TEXT_NORM_TOL:
                self.violations.append(f"class {c.class_id!r} text vector not unit norm")
        text_widths = {c.text.shape[0] for c in classes}
        if len(text_widths) > 1:
            self.violations.append(f"classes disagree on text dimensionality: {sorted(text_widths)}")

    def sample(self, sample_id: str, class_id: str, body: np.ndarray, hand: np.ndarray | None) -> None:
        """Check one sample, given as its record (see Sample.record)."""
        if sample_id in self._sample_ids:
            self.violations.append(f"sample {sample_id!r} duplicated")
        self._sample_ids.add(sample_id)
        if class_id not in self._class_ids:
            self.violations.append(f"sample {sample_id!r} references unknown class {class_id!r}")
        self._finite(sample_id, Stream.BODY, body)
        if hand is not None:
            self._finite(sample_id, Stream.HAND, hand)
            if hand.shape[0] != body.shape[0]:
                self.violations.append(
                    f"sample {sample_id!r} hand length {hand.shape[0]} != body length {body.shape[0]}"
                )

    def _finite(self, sample_id: str, stream: Stream, frames: np.ndarray) -> None:
        if not np.isfinite(frames).all():  # one check per stream; the rows are only looked for when it fails
            for row in np.flatnonzero(~np.isfinite(frames).all(axis=1)):
                self.violations.append(f"sample {sample_id!r} {stream.value} row {row} non-finite")

    def split(self, split: SplitConfig) -> None:
        for label, ids in (
            ("seen", split.seen_classes),
            ("validation", split.validation_classes),
            ("unseen", split.unseen_classes),
        ):
            for cid in sorted(ids - self._class_ids):
                self.violations.append(f"split {label} references unknown class {cid!r}")
        if split.mode is SplitMode.ZSL:
            for a, b in (("seen", "validation"), ("seen", "unseen"), ("validation", "unseen")):
                overlap = getattr(split, f"{a}_classes") & getattr(split, f"{b}_classes")
                for cid in sorted(overlap):
                    self.violations.append(f"class {cid!r} appears in both {a} and {b} splits")


class DatasetReader:
    """A dataset on disk, read and checked one sample at a time.

    Opening reads the manifest, its attribute count, its class descriptors
    (text unit-normalized) and its split. read_samples then reads the samples
    in manifest order and hands each one on as soon as its files are read; the
    reader keeps no sample. Errors come in the order of the files: a missing,
    unparsable or malformed file or field raises when it is met (the split's
    with the manifest's other fields), and every broken invariant (see
    validate_dataset) raises as one InvariantViolation after the last sample.
    The reader holds the pack's value file open until it is closed, so use it
    in a with block.
    """

    def __init__(self, manifest_path: str | Path) -> None:
        path = Path(manifest_path)
        self._dir = str(path.parent)  # what each feature path is joined to, without pathlib in the loop
        self._pack = _FeaturePack.open(path)
        try:
            manifest = _read_manifest(path, self._pack)
            count = manifest.get("attribute_count", DEFAULT_ATTRIBUTE_COUNT)
            if type(count) is not int or count < 1:  # a JSON true is a bool, not a count
                raise ParseError(f"manifest field 'attribute_count': expected positive integer, got {count!r}")
            self.attribute_count: int = count
            self.classes = tuple(self._read_class(entry) for entry in _entries(manifest, "classes"))
            self._samples = _entries(manifest, "samples")
            self.split = _read_split(manifest)
        except BaseException:
            self.close()
            raise
        self._checks = _Checks(count)
        self._checks.classes(self.classes)

    def close(self) -> None:
        if self._pack is not None:
            self._pack.close()
            self._pack = None

    def __enter__(self) -> "DatasetReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def read_samples(self, visit: Callable[[str, str, np.ndarray, np.ndarray | None], object]) -> None:
        """Call visit on each sample's record as it is read, then raise every broken invariant, if any.

        A record is (sample id, class id, body frames, hand frames or None),
        as Sample.record gives it. Call it once. Nothing here keeps a sample,
        so a visit that keeps none leaves at most one sample's frames alive at
        a time.
        """
        for entry in self._samples:
            visit(*self._read_sample(entry))
        self._checks.split(self.split)
        if self._checks.violations:
            raise InvariantViolation("; ".join(self._checks.violations))

    def _read_matrix(self, rel: str, entity: str) -> np.ndarray:
        """The rows of a feature file: its pack block if the pack saw exactly its bytes, else parsed from them."""
        path = os.path.join(self._dir, rel)
        fd, size = open_input(path, f"{entity}: feature file")
        try:
            data = self._pack.block(self._pack.files.get(rel), fd, size) if self._pack is not None else None
            return _parse_feature_matrix(_fd_bytes(fd), path, entity) if data is None else data
        finally:
            os.close(fd)

    def _read_class(self, entry: dict) -> ClassDescriptor:
        cid = _string_field(_require(entry, "id", "class entry"), "class entry", "id")
        entity = f"class {cid!r}"
        name = entry.get("name", cid)
        attrs = _vector_field(_require(entry, "attributes", entity), entity, "attributes")
        if "text" in entry and "text_file" in entry:
            raise ParseError(f"{entity}: give either 'text' or 'text_file', not both")
        if "text" in entry:
            text = _vector_field(entry["text"], entity, "text")
        elif "text_file" in entry:
            rel = _path_field(entry["text_file"], entity, "text_file")
            rows = self._read_matrix(rel, f"{entity} text")
            if rows.shape[0] != 1:
                raise InvariantViolation(f"{entity}: text file {rel} has {rows.shape[0]} rows, expected 1")
            text = rows[0]
        else:
            raise ParseError(f"{entity}: missing field 'text' or 'text_file'")
        return ClassDescriptor(cid, name, attrs, _unit_normalized(text, cid))

    def _read_sample(self, entry: dict) -> tuple[str, str, np.ndarray, np.ndarray | None]:
        """The record of a sample entry (see Sample.record), its files read and its invariants checked."""
        sid = _string_field(_require(entry, "id", "sample entry"), "sample entry", "id")
        entity = f"sample {sid!r}"
        class_id = _string_field(_require(entry, "class_id", entity), entity, "class_id")
        body = self._read_matrix(_path_field(_require(entry, "body", entity), entity, "body"), f"{entity} body")
        hand = entry.get("hand")
        if hand is not None:
            hand = self._read_matrix(_path_field(hand, entity, "hand"), f"{entity} hand")
        self._checks.sample(sid, class_id, body, hand)
        return sid, class_id, body, hand


def load_dataset(manifest_path: str | Path) -> Dataset:
    """Load and validate a dataset from a JSON manifest.

    Text vectors are brought to unit l2 norm; all invariants are enforced and
    the first batch of violations is raised as InvariantViolation.
    """
    samples: list[Sample] = []
    with DatasetReader(manifest_path) as reader:
        reader.read_samples(lambda *record: samples.append(Sample.from_record(*record)))
    return Dataset(reader.classes, tuple(samples), reader.split, reader.attribute_count)


def validate_dataset(dataset: Dataset) -> list[str]:
    """Return a description of every broken invariant (empty list == valid)."""
    checks = _Checks(dataset.attribute_count)
    checks.classes(dataset.classes)
    for s in dataset.samples:
        checks.sample(*s.record)
    checks.split(dataset.split)
    return checks.violations


# Below this many values to format, save_dataset formats every file in this
# process. Measured crossover, fresh processes on a 2-core host: the pooled and
# the in-process save tie at the synth defaults (113K values in 780 files; the
# pool won 8 of 16 alternating pairs), and the pool wins from 131K values (13
# of 16 pairs in 780 files, 14 of 16 in 195). Creating a file took about
# 0.3 ms on that host whatever the worker count, so small files gain less.
_POOL_MIN_VALUES = 120_000
_RANGES_PER_CPU = 4  # enough ranges to even out the workers' loads, few enough that each is worth a job


def _write_documents(out_dir: Path, documents: list[tuple[str, object]], start: int, stop: int) -> list:
    """Format documents[start:stop], (name, content) pairs.

    A matrix is written to out_dir/name as CSV and stands for the (byte
    length, CRC-32) of its bytes in the result; a dict, the manifest, stands
    for its JSON bytes, which the caller writes.
    """
    results = []
    for rel, content in documents[start:stop]:
        if isinstance(content, dict):
            results.append((json.dumps(content, sort_keys=True) + "\n").encode("utf-8"))
        else:
            raw = csv_text(content).encode("utf-8")
            (out_dir / rel).write_bytes(raw)
            results.append((len(raw), zlib.crc32(raw)))
    return results


def _ranges(sizes: list[int], parts: int) -> list[tuple[int, int]]:
    """Consecutive (start, stop) ranges over sizes, at most parts of them, of about equal size sums."""
    total = sum(sizes)
    cuts = [0]
    done = 0
    for i, size in enumerate(sizes[:-1], start=1):
        done += size
        if done * parts > total * len(cuts):
            cuts.append(i)
    return list(zip(cuts, [*cuts[1:], len(sizes)]))


def save_dataset(
    dataset: Dataset,
    out_dir: str | Path,
    manifest_name: str = "manifest.json",
    extra_csv: Mapping[str, np.ndarray] | None = None,
) -> Path:
    """Write the feature-file tree, the feature pack and then the manifest; inverse of load_dataset.

    Floats are serialized with shortest round-trip representation, so
    load(save(load(p))) reproduces every numeric field bit-exactly. extra_csv
    maps further file names under out_dir to matrices that are written as CSV
    alongside the feature files but are not part of the dataset. The
    formatting runs on the workers of pool.map_jobs in consecutive ranges of
    the files (in this process below _POOL_MIN_VALUES values); the manifest
    is written last, once every other file is.
    """
    out_dir = Path(out_dir)
    features_dir = out_dir / "features"
    features_dir.mkdir(parents=True, exist_ok=True)

    sample_entries = []
    features: dict[str, np.ndarray] = {}
    for s in dataset.samples:
        entry: dict = {"id": s.sample_id, "class_id": s.class_id}
        for stream, seq in sorted(s.sequences.items(), key=lambda kv: kv[0].value):
            rel = f"features/{s.sample_id}_{stream.value}.csv"
            entry[stream.value] = rel
            features[rel] = seq.data
        sample_entries.append(entry)

    fields = {
        "attribute_count": dataset.attribute_count,
        "classes": [
            {"id": c.class_id, "name": c.name, "attributes": [int(v) for v in c.attributes]}
            for c in dataset.classes
        ],
        "samples": sample_entries,
        "split": {
            "mode": dataset.split.mode.value,
            "seen": sorted(dataset.split.seen_classes),
            "validation": sorted(dataset.split.validation_classes),
            "unseen": sorted(dataset.split.unseen_classes),
        },
    }
    manifest = {
        **fields,
        "classes": [{**entry, "text": c.text.tolist()} for entry, c in zip(fields["classes"], dataset.classes)],
    }
    # the manifest and the extra files are the largest documents: they go first, so they start first
    extra = dict(extra_csv or {})
    documents = [(manifest_name, manifest), *extra.items(), *features.items()]
    sizes = [sum(c.text.size for c in dataset.classes), *(m.size for _, m in documents[1:])]
    parts = 1 if sum(sizes) < _POOL_MIN_VALUES else _RANGES_PER_CPU * pool.usable_cpus()
    chunks = pool.map_jobs(_write_documents, _ranges(sizes, parts), (out_dir, documents))
    results = [result for chunk in chunks for result in chunk]
    raw = results[0]
    files = {rel: (matrix, *result) for (rel, matrix), result in zip(features.items(), results[1 + len(extra) :])}

    # the text vectors go into the pack as one matrix, so they need a common width
    widths = {c.text.shape for c in dataset.classes}
    texts = np.array([c.text for c in dataset.classes]) if len(widths) == 1 else None
    manifest_path = out_dir / manifest_name
    pack_manifest = (texts, len(raw), zlib.crc32(raw), fields) if texts is not None else None
    _FeaturePack.write(manifest_path, files, pack_manifest)
    manifest_path.write_bytes(raw)
    return manifest_path
