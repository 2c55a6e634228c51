"""Domain types and dataset I/O.

A dataset lives on disk as one JSON manifest plus the feature frames of its
samples. All types are immutable after construction. The invariants that
depend on the data content (finiteness, binary attributes, split
disjointness, ...) are checked by :class:`DatasetReader` as it reads, so a
dataset in memory is validated by saving it and reading it back.

:func:`save_dataset` writes the manifest and a feature pack beside it. The
value file, ``<stem>.pack.npy``, which the manifest names in ``"pack_file"``,
holds every sample stream's frames, in the manifest's sample order, then the
class text matrix, as one little-endian float64 vector (see
:func:`write_vector`). Each sample entry binds its frames under ``"pack"``:
per stream, the offset, rows, cols and CRC-32 of its block of values. The
class text stays inline in the manifest. ``<stem>.pack.json``
holds the manifest's fields without the text vectors, the text block's entry,
and the byte length and ``zlib.crc32`` of the manifest they were saved with.
A hand-written sample names one CSV file per stream instead (``"body"``,
``"hand"``: one snippet per line, comma-separated reals), and a class may
name its text as a one-row CSV (``"text_file"``).

:class:`DatasetReader` is the one reader. It walks the manifest's samples in
order and hands each one on as soon as its frames are read, as a record: its
id, its class id and its body and hand frame matrices (None for a sample
without a hand stream). A caller that keeps only what it needs of a sample
(experiment.load_embedded pools it into one embedding row) never holds more
than one sample's snippet frames. Every input, of this module or another, is
opened by :func:`open_input`, which refuses anything but a regular file and
cannot block on a FIFO. :func:`parse_json` is the one JSON reader (manifest,
pack index, run config, model header): anything but a JSON object raises the
caller's typed error, naming the input. A packed stream is read from its block
of the value file, which save_dataset fills in the manifest's sample order, so
the blocks are read in file order. The pack holds the only copy of those
frames: a block that the file does not hold, or whose values have another
CRC-32, raises PackMismatch naming the pack and the sample, so a damaged value
file, another save's pack and a save torn between the pack and the manifest
are refused, never read. A CSV stream is always parsed from its file. The
manifest's fields and text vectors come from the pack only when the manifest's
byte length and CRC-32 match and the text block is intact, so the 250 x 768
text floats of a paper-sized manifest are not parsed as JSON text; an edited
manifest, or an index that is missing, damaged or does not parse, is parsed
from its bytes instead. A field that does not parse, the split's included,
raises as it is read. The class, sample and split invariants are checked as
the reader goes (finiteness as one check per stream, the failing rows looked
for only when it fails) and raised together after the last sample.
:func:`load_dataset` wraps each record in a :class:`Sample` and collects them
into a :class:`Dataset`; the commands read through experiment.load_embedded
instead. CRC-32 comes with zlib, which numpy already loads; a digest from
``hashlib`` would map OpenSSL's libcrypto into every command for no gain in
detecting edits. The manifest is written as compact JSON.

Each sample's frames and each class text vector own their memory, so
dropping a sample frees its frames and nothing else.

:func:`save_dataset` serializes the manifest first, so a value strict JSON
cannot hold writes nothing, then writes the pack's values, its index, and the
manifest last. A save cut short before the end leaves no new manifest; the
old one then names blocks the new value file does not hold, and its load is
refused. A dataset in the CSV layout (hand-written, or saved before the pack
held the frames) converts with ``save_dataset(load_dataset(path), out)``.
"""

from __future__ import annotations

import io
import json
import math
import os
import stat
import zlib
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .errors import InvariantViolation, MissingFile, PackMismatch, ParseError, ZslSignError

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


@dataclass(frozen=True)
class Dataset:
    classes: tuple[ClassDescriptor, ...]
    samples: tuple[Sample, ...]
    split: SplitConfig
    attribute_count: int = DEFAULT_ATTRIBUTE_COUNT

    def __post_init__(self) -> None:
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "samples", tuple(self.samples))


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
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{entity}: feature file {Path(path)} is not UTF-8 text: {exc}") from None
    rows: list[list[float]] = []
    width: int | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
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


_VECTOR_DTYPE = np.dtype("<f8")
_CRC_CHUNK = 1 << 16  # bytes of the manifest read at a time when it is only checksummed
# how an input is opened: nonblocking, so that opening a FIFO returns at once and fstat refuses it
_OPEN_FLAGS = os.O_RDONLY | getattr(os, "O_NONBLOCK", 0) | getattr(os, "O_BINARY", 0)


def write_vector(path: Path, values: np.ndarray) -> None:
    """Write values, in their shape, as a little-endian float64 npy 1.0 array in C order.

    read_vector reads back a 1-D one; np.load reads any.
    """
    values = np.ascontiguousarray(values, dtype=_VECTOR_DTYPE)
    with open(path, "wb") as f:
        np.lib.format.write_array(f, values, version=(1, 0))


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


def parse_json(raw: bytes, what: str, error: type[ZslSignError]) -> dict:
    """The JSON object in raw, the bytes of the input that what names.

    Bytes that are not UTF-8 or not JSON, JSON nested past the parser's recursion limit or holding an integer
    too long to convert, and a top level that is not an object each raise error, its message starting with what.
    """
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise error(f"{what}: not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise error(f"{what}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except RecursionError:
        raise error(f"{what}: nested too deeply to parse") from None
    except ValueError as exc:  # an integer of more digits than Python converts
        raise error(f"{what}: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"{what}: top level must be a JSON object")
    return doc


_BLOCK_FIELDS = ("offset", "rows", "cols", "crc32")


def _block_field(value, entity: str, key: str) -> tuple[int, int, int, int]:
    """A pack block entry, {offset, rows, cols, crc32}, as those four integers; ParseError names the field."""
    fields = [value.get(k) for k in _BLOCK_FIELDS] if isinstance(value, dict) else []
    if list(map(type, fields)) != [int] * len(_BLOCK_FIELDS) or fields[0] < 0 or min(fields[1:3]) < 1:
        raise ParseError(
            f"{entity}: field {key!r} must be a pack block, integers offset >= 0, rows >= 1, cols >= 1 and crc32"
        )
    return tuple(fields)


class _FeaturePack:
    """The pack of a manifest: the index saved beside it, and the value file the manifest names.

    The value file is opened at the first block read and held open from then
    on, so each block is read alone.
    """

    def __init__(self, manifest_path: Path) -> None:
        self._dir = manifest_path.parent
        self.path: Path | None = None  # the value file, once the manifest names it (see use)
        self._file = None
        self._start = 0  # byte offset of the first value
        self._size = 0  # values in the file
        path = manifest_path.with_suffix(".pack.json")
        try:  # an index that is missing, unreadable, not a regular file or not a JSON object leaves the manifest parsed
            index = parse_json(read_input(path, "feature pack index"), f"feature pack index {path}", ParseError)
        except (OSError, ParseError):
            index = {}
        self._manifest = index.get("manifest")

    def use(self, rel: str) -> None:
        """Read blocks from the value file at rel, relative to the manifest (its "pack_file" field)."""
        self.path = self._dir / rel

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def block(self, block: tuple[int, int, int, int], entity: str) -> np.ndarray:
        """The rows x cols values of a block entry (see _block_field); PackMismatch if the file does not hold them."""
        if self._file is None:
            if self.path is None:
                raise ParseError(f"{entity}: a packed stream needs the manifest field 'pack_file'")
            fd, nbytes = open_input(self.path, f"{entity}: feature pack")
            file = open(fd, "rb")
            try:
                self._start, self._size = _vector_layout(file, nbytes)
            except ValueError as exc:
                file.close()
                raise PackMismatch(f"{entity}: feature pack {self.path} is not a float64 npy vector: {exc}") from None
            self._file = file
        offset, rows, cols, crc = block
        if offset + rows * cols <= self._size:
            values = np.empty(rows * cols, dtype=_VECTOR_DTYPE)
            self._file.seek(self._start + offset * _VECTOR_DTYPE.itemsize)
            if self._file.readinto(values) == values.nbytes and zlib.crc32(values) == crc:
                return values.reshape(rows, cols)
        raise PackMismatch(
            f"{entity}: feature pack {self.path} does not hold the {rows}x{cols} block at offset {offset} that the "
            "manifest names (a damaged pack, another save's, or a save cut short before its manifest)"
        )

    def manifest(self, fd: int, size: int) -> dict | None:
        """The manifest, open as fd with size bytes, from the index, if the index saw exactly its bytes, else None."""
        entry = self._manifest
        if not isinstance(entry, dict) or entry.get("bytes") != size:
            return None
        fields = entry.get("fields")
        classes = fields.get("classes") if isinstance(fields, dict) else None
        if not isinstance(classes, list) or not all(isinstance(c, dict) for c in classes):
            return None
        if not isinstance(fields.get("pack_file"), str) or entry.get("crc32") != _fd_crc32(fd):
            return None
        self.use(fields["pack_file"])
        try:
            texts = self.block(_block_field(entry.get("text"), "manifest", "text"), "manifest text")
        except (ZslSignError, OSError):  # the text is inline in the manifest too
            return None
        if len(texts) != len(classes):
            return None
        return {**fields, "classes": [{**c, "text": row} for c, row in zip(classes, texts)]}


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


def _read_manifest(manifest_path: Path, pack: _FeaturePack) -> dict:
    """The manifest's content: from the pack if it saw exactly its bytes, else parsed from them; opened once."""
    fd, size = open_input(manifest_path, "manifest")
    try:
        return pack.manifest(fd, size) or parse_json(_fd_bytes(fd), f"manifest {manifest_path}", ParseError)
    finally:
        os.close(fd)


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


class DatasetReader:
    """A dataset on disk, read and checked one sample at a time.

    Opening reads the manifest, its attribute count, its class descriptors
    (text unit-normalized) and its split. read_samples then reads the samples
    in manifest order and hands each one on as soon as its files are read; the
    reader keeps no sample. Errors come in the order of the files: a missing,
    unparsable or malformed file, field or pack block raises when it is met
    (the split's with the manifest's other fields), and every broken invariant
    raises as one InvariantViolation after the last sample: those of the
    classes, then of the samples, then of the split. The reader holds the
    pack's value file open until it is closed, so use it in a with block.
    """

    def __init__(self, manifest_path: str | Path) -> None:
        path = Path(manifest_path)
        self._dir = str(path.parent)  # what each feature path is joined to, without pathlib in the loop
        self._pack = _FeaturePack(path)
        try:
            manifest = _read_manifest(path, self._pack)
            count = manifest.get("attribute_count", DEFAULT_ATTRIBUTE_COUNT)
            if type(count) is not int or count < 1:  # a JSON true is a bool, not a count
                raise ParseError(f"manifest field 'attribute_count': expected positive integer, got {count!r}")
            self.attribute_count: int = count
            if "pack_file" in manifest:
                self._pack.use(_path_field(manifest["pack_file"], "manifest", "pack_file"))
            self.classes = tuple(self._read_class(entry) for entry in _entries(manifest, "classes"))
            self._samples = _entries(manifest, "samples")
            self.split = _read_split(manifest)
        except BaseException:
            self.close()
            raise
        self._violations: list[str] = []
        self._class_ids: set[str] = set()
        self._sample_ids: set[str] = set()
        self._check_classes()

    def close(self) -> None:
        self._pack.close()

    def __enter__(self) -> "DatasetReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def read_samples(self, visit: Callable[[str, str, np.ndarray, np.ndarray | None], object]) -> None:
        """Call visit on each sample's record as it is read, then raise every broken invariant, if any.

        A record is (sample id, class id, body frames, hand frames or None).
        Call it once. Nothing here keeps a sample, so a visit that keeps none
        leaves at most one sample's frames alive at a time.
        """
        for entry in self._samples:
            visit(*self._read_sample(entry))
        self._check_split()
        if self._violations:
            raise InvariantViolation("; ".join(self._violations))

    def _check_classes(self) -> None:
        for c in self.classes:
            if c.class_id in self._class_ids:
                self._violations.append(f"class {c.class_id!r} duplicated")
            self._class_ids.add(c.class_id)
            if c.attributes.shape[0] != self.attribute_count:
                self._violations.append(
                    f"class {c.class_id!r} has {c.attributes.shape[0]} attributes, expected {self.attribute_count}"
                )
            a = c.attributes
            not_binary = (a != 0.0) & (a != 1.0)  # NaN compares unequal to both
            for k in np.flatnonzero(not_binary):
                self._violations.append(f"class {c.class_id!r} attribute {k} not binary")
            # _unit_normalized refused a non-finite text; a unit norm can still be missed by a tiny vector's rounding
            if abs(float(np.linalg.norm(c.text)) - 1.0) > TEXT_NORM_TOL:
                self._violations.append(f"class {c.class_id!r} text vector not unit norm")
        text_widths = {c.text.shape[0] for c in self.classes}
        if len(text_widths) > 1:
            self._violations.append(f"classes disagree on text dimensionality: {sorted(text_widths)}")

    def _check_sample(self, sample_id: str, class_id: str, body: np.ndarray, hand: np.ndarray | None) -> None:
        if sample_id in self._sample_ids:
            self._violations.append(f"sample {sample_id!r} duplicated")
        self._sample_ids.add(sample_id)
        if class_id not in self._class_ids:
            self._violations.append(f"sample {sample_id!r} references unknown class {class_id!r}")
        for stream, frames in ((Stream.BODY, body), (Stream.HAND, hand)):
            if frames is not None and not np.isfinite(frames).all():  # one check per stream; rows only on failure
                for row in np.flatnonzero(~np.isfinite(frames).all(axis=1)):
                    self._violations.append(f"sample {sample_id!r} {stream.value} row {row} non-finite")
        if hand is not None and hand.shape[0] != body.shape[0]:
            self._violations.append(f"sample {sample_id!r} hand length {hand.shape[0]} != body length {body.shape[0]}")

    def _check_split(self) -> None:
        split = self.split
        for label, ids in (
            ("seen", split.seen_classes),
            ("validation", split.validation_classes),
            ("unseen", split.unseen_classes),
        ):
            for cid in sorted(ids - self._class_ids):
                self._violations.append(f"split {label} references unknown class {cid!r}")
        if split.mode is SplitMode.ZSL:
            for a, b in (("seen", "validation"), ("seen", "unseen"), ("validation", "unseen")):
                overlap = getattr(split, f"{a}_classes") & getattr(split, f"{b}_classes")
                for cid in sorted(overlap):
                    self._violations.append(f"class {cid!r} appears in both {a} and {b} splits")

    def _read_matrix(self, rel: str, entity: str) -> np.ndarray:
        """The rows of a CSV feature file."""
        path = os.path.join(self._dir, rel)
        return _parse_feature_matrix(read_input(path, f"{entity}: feature file"), path, entity)

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
        """The record of a sample entry (see read_samples), its files read and its invariants checked."""
        sid = _string_field(_require(entry, "id", "sample entry"), "sample entry", "id")
        entity = f"sample {sid!r}"
        class_id = _string_field(_require(entry, "class_id", entity), entity, "class_id")
        if "pack" in entry:
            if "body" in entry or "hand" in entry:
                raise ParseError(f"{entity}: give either 'pack' or 'body' and 'hand' files, not both")
            blocks = entry["pack"]
            if not isinstance(blocks, dict):
                raise ParseError(f"{entity}: field 'pack' must be an object of stream blocks")
            body = self._pack.block(_block_field(_require(blocks, "body", entity), entity, "body"), f"{entity} body")
            hand = blocks.get("hand")
            if hand is not None:
                hand = self._pack.block(_block_field(hand, entity, "hand"), f"{entity} hand")
        else:
            body = self._read_matrix(_path_field(_require(entry, "body", entity), entity, "body"), f"{entity} body")
            hand = entry.get("hand")
            if hand is not None:
                hand = self._read_matrix(_path_field(hand, entity, "hand"), f"{entity} hand")
        self._check_sample(sid, class_id, body, hand)
        return sid, class_id, body, hand


def load_dataset(manifest_path: str | Path) -> Dataset:
    """Load and validate a dataset from a JSON manifest, each sample as a Sample of its streams.

    Text vectors are brought to unit l2 norm; all invariants are enforced and
    the first batch of violations is raised as InvariantViolation.
    """
    samples: list[Sample] = []

    def keep(sample_id: str, class_id: str, *frames: np.ndarray | None) -> None:  # frames: body, hand, as Stream
        streams = {s: FeatureSequence(sample_id, s, f) for s, f in zip(Stream, frames) if f is not None}
        samples.append(Sample(sample_id, class_id, streams))

    with DatasetReader(manifest_path) as reader:
        reader.read_samples(keep)
    return Dataset(reader.classes, tuple(samples), reader.split, reader.attribute_count)


def save_dataset(
    dataset: Dataset,
    out_dir: str | Path,
    manifest_name: str = "manifest.json",
) -> Path:
    """Write the feature pack and then the manifest; inverse of load_dataset.

    Frames go to the pack bit for bit, and the text vectors into the manifest
    as shortest round-trip reals, so load(save(load(p))) reproduces every
    numeric field bit-exactly. The manifest is serialized before any file is
    written and written last, once the pack and its index are. Nothing is
    validated here: every value is written as it is, so the load of the saved
    dataset refuses what is invalid (a non-binary attribute, a non-finite
    frame), and a value strict JSON cannot hold (a NaN attribute, a
    non-finite text value) raises ValueError before any file is written.
    """
    out_dir = Path(out_dir)
    values: list[np.ndarray] = []  # the pack's blocks, flat, in file order
    offset = 0

    def block(matrix: np.ndarray) -> dict:
        nonlocal offset
        flat = np.ascontiguousarray(matrix, dtype=_VECTOR_DTYPE).ravel()
        entry = {"offset": offset, "rows": matrix.shape[0], "cols": matrix.shape[1], "crc32": zlib.crc32(flat)}
        values.append(flat)
        offset += flat.size
        return entry

    sample_entries = []
    for s in dataset.samples:
        streams = sorted(s.sequences.items(), key=lambda kv: kv[0].value)
        sample_entries.append(
            {"id": s.sample_id, "class_id": s.class_id, "pack": {st.value: block(seq.data) for st, seq in streams}}
        )
    manifest_path = out_dir / manifest_name
    npy_path = manifest_path.with_suffix(".pack.npy")
    fields = {
        "attribute_count": dataset.attribute_count,
        "classes": [
            {
                "id": c.class_id,
                "name": c.name,
                # 0 and 1 as integers; any other value as it is, for the load to refuse (a NaN, strict JSON here)
                "attributes": [int(v) if v in (0, 1) else v for v in c.attributes.tolist()],
            }
            for c in dataset.classes
        ],
        "pack_file": npy_path.name,
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
    raw = (json.dumps(manifest, sort_keys=True, allow_nan=False) + "\n").encode("utf-8")

    out_dir.mkdir(parents=True, exist_ok=True)
    index = {}
    if len({c.text.shape for c in dataset.classes}) == 1:  # the text vectors go into the pack as one matrix
        text = block(np.array([c.text for c in dataset.classes]))
        index["manifest"] = {"bytes": len(raw), "crc32": zlib.crc32(raw), "text": text, "fields": fields}
    write_vector(npy_path, np.concatenate(values) if values else np.empty(0))
    manifest_path.with_suffix(".pack.json").write_text(json.dumps(index) + "\n", encoding="utf-8")
    manifest_path.write_bytes(raw)
    return manifest_path
