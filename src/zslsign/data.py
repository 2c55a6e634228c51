"""Domain types and dataset I/O.

A dataset lives on disk as one JSON manifest plus plain-text feature files
(one snippet per line, comma-separated reals). All types are immutable after
construction; invariants that depend on the data content (finiteness, binary
attributes, split disjointness, ...) are checked by :func:`validate_dataset`,
which :func:`load_dataset` runs before handing a dataset out.

The CSV files and the manifest are the source of truth. :func:`save_dataset`
also writes a feature pack next to the manifest: ``<stem>.pack.npy`` holds
every sample feature file's values, then the class text matrix, as one
little-endian float64 vector (see :func:`write_vector`), and
``<stem>.pack.json`` records, per file path, the offset and rows x cols of its
values, the byte length and ``zlib.crc32`` of its CSV bytes, and the CRC-32 of
its packed values. The manifest gets the same kind of entry, whose values are
the class text vectors, plus the manifest's fields without those vectors.
:func:`load_dataset` still reads the manifest and every CSV. It takes a file's
values from the pack only when its path, byte length and both CRC-32s match,
and it takes the manifest's fields and text vectors from the pack only when
the manifest's byte length and CRC-32 match, so the 250 x 768 text floats of a
paper-sized manifest are not parsed as JSON text. Anything else (no pack, an
edited manifest or CSV, a stale, torn, truncated or garbage pack,
hand-written ``text_file`` rows) is parsed from the files. CRC-32 comes with
zlib, which numpy already loads; a digest from ``hashlib`` would map
OpenSSL's libcrypto into every command for no gain in detecting edits. The
manifest is written as compact JSON.

A loaded dataset's snippet frames are read-only views of the pack's values,
but its class text vectors own their memory. So a command that keeps only
the class descriptors, the split and the video embeddings (see
experiment.embed_dataset) frees the frames and the whole pack as soon as it
drops the Dataset.

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
import zlib
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Mapping

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

    @property
    def length(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


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
    the feature pack: a view would keep the pack's whole value buffer alive
    for as long as the class descriptor lives.
    """
    norm = float(np.linalg.norm(vec))
    if norm == 0.0 or not math.isfinite(norm):
        raise InvariantViolation(f"class {class_id!r}: text vector has no finite nonzero norm")
    if abs(norm - 1.0) <= TEXT_NORM_TOL:
        return vec.copy()
    return vec / norm


def _read_bytes(path: Path, entity: str) -> bytes:
    if not path.is_file():
        raise MissingFile(f"{entity}: feature file not found: {path}")
    return path.read_bytes()


def _parse_feature_matrix(raw: bytes, path: Path, entity: str) -> np.ndarray:
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
        raise InvariantViolation(f"{entity}: feature file {path} has no rows")
    return np.array(rows, dtype=np.float64)


def csv_text(matrix: np.ndarray) -> str:
    """One line per row, comma-separated shortest round-trip reals, LF-terminated."""
    return "\n".join(",".join(map(repr, row)) for row in matrix.tolist()) + "\n"


_VECTOR_DTYPE = np.dtype("<f8")


def write_vector(path: Path, values: np.ndarray) -> int:
    """Write values as one little-endian float64 npy 1.0 vector; return the CRC-32 of the values."""
    values = np.ascontiguousarray(values, dtype=_VECTOR_DTYPE).ravel()
    with open(path, "wb") as f:
        np.lib.format.write_array(f, values, version=(1, 0))
    return zlib.crc32(values)


def read_vector(raw: bytes) -> np.ndarray:
    """The values of npy bytes as :func:`write_vector` writes them; ValueError says what differs.

    The header is read with np.lib.format and the values are a read-only view
    of raw, so a corrupt header cannot trigger a large allocation.
    """
    stream = io.BytesIO(raw)
    version = np.lib.format.read_magic(stream)
    if version != (1, 0):
        raise ValueError(f"npy format version {version}, expected (1, 0)")
    shape, _, dtype = np.lib.format.read_array_header_1_0(stream)
    if dtype != _VECTOR_DTYPE:
        raise ValueError(f"dtype {dtype.str}, expected {_VECTOR_DTYPE.str}")
    values = np.frombuffer(raw, dtype=_VECTOR_DTYPE, offset=stream.tell())
    if shape != values.shape:
        raise ValueError(f"header shape {shape}, but the file holds {values.size} values")
    return values


def _pack_paths(manifest_path: Path) -> tuple[Path, Path]:
    """The pack's value file and index, named after the manifest stem."""
    return manifest_path.with_suffix(".pack.npy"), manifest_path.with_suffix(".pack.json")


class _FeaturePack:
    """Parsed values of the feature CSVs and the manifest as of the last save, checked per file on use."""

    def __init__(self, values: np.ndarray, files: dict, manifest) -> None:
        self.values = values
        self.files = files
        self.manifest_entry = manifest

    @classmethod
    def read(cls, manifest_path: Path) -> "_FeaturePack | None":
        """The pack saved with this manifest, or None when it is missing or unreadable."""
        npy_path, index_path = _pack_paths(manifest_path)
        try:
            values = read_vector(npy_path.read_bytes())
            index = json.loads(index_path.read_bytes())
        except (OSError, ValueError):
            return None
        files = index.get("files") if isinstance(index, dict) else None
        if not isinstance(files, dict):
            return None
        return cls(values, files, index.get("manifest"))

    def _block(self, entry, raw: bytes) -> np.ndarray | None:
        """The rows x cols values of an index entry if it was written for exactly these bytes, else None."""
        if not isinstance(entry, dict):
            return None
        fields = [entry.get(k) for k in ("offset", "rows", "cols", "bytes", "crc32", "values_crc32")]
        if not all(type(v) is int for v in fields):
            return None
        offset, rows, cols, nbytes, crc, values_crc = fields
        if nbytes != len(raw) or crc != zlib.crc32(raw):
            return None
        if offset < 0 or rows < 1 or cols < 1 or offset + rows * cols > self.values.size:
            return None
        values = self.values[offset : offset + rows * cols]
        if values_crc != zlib.crc32(values):
            return None
        return values.reshape(rows, cols)

    def matrix(self, rel: str, raw: bytes) -> np.ndarray | None:
        """The packed rows of `rel` if the pack saw exactly these CSV bytes, else None."""
        return self._block(self.files.get(rel), raw)

    def manifest(self, raw: bytes) -> dict | None:
        """The manifest parsed from the pack if the pack saw exactly these manifest bytes, else None."""
        texts = self._block(self.manifest_entry, raw)
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
    """The manifest's content: from the pack if it saw exactly these bytes, else parsed from them."""
    raw = manifest_path.read_bytes()
    manifest = pack.manifest(raw) if pack is not None else None
    if manifest is None:
        try:
            manifest = json.loads(raw.decode("utf-8"))
        except json.JSONDecodeError as exc:
            raise ParseError(f"manifest {manifest_path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(manifest, dict):
        raise ParseError(f"manifest {manifest_path}: top level must be a JSON object")
    return manifest


def load_dataset(manifest_path: str | Path) -> Dataset:
    """Load and validate a dataset from a JSON manifest.

    Text vectors are brought to unit l2 norm; all invariants are enforced and
    the first batch of violations is raised as InvariantViolation.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise MissingFile(f"manifest not found: {manifest_path}")
    pack = _FeaturePack.read(manifest_path)
    manifest = _read_manifest(manifest_path, pack)

    root = manifest_path.parent
    attribute_count = manifest.get("attribute_count", DEFAULT_ATTRIBUTE_COUNT)
    if not isinstance(attribute_count, int) or attribute_count < 1:
        raise ParseError(f"manifest field 'attribute_count': expected positive integer, got {attribute_count!r}")

    def read_matrix(rel: str, entity: str) -> np.ndarray:
        path = root / rel
        content = _read_bytes(path, entity)
        data = pack.matrix(rel, content) if pack is not None else None
        return _parse_feature_matrix(content, path, entity) if data is None else data

    classes = []
    for entry in _entries(manifest, "classes"):
        cid = _require(entry, "id", "class entry")
        entity = f"class {cid!r}"
        name = entry.get("name", cid)
        attrs = _vector_field(_require(entry, "attributes", entity), entity, "attributes")
        if "text" in entry and "text_file" in entry:
            raise ParseError(f"{entity}: give either 'text' or 'text_file', not both")
        if "text" in entry:
            text = _vector_field(entry["text"], entity, "text")
        elif "text_file" in entry:
            text = read_matrix(_path_field(entry["text_file"], entity, "text_file"), f"{entity} text")[0]
        else:
            raise ParseError(f"{entity}: missing field 'text' or 'text_file'")
        classes.append(ClassDescriptor(cid, name, attrs, _unit_normalized(text, cid)))

    def read_sequence(sid: str, stream: Stream, rel) -> FeatureSequence:
        entity = f"sample {sid!r}"
        data = read_matrix(_path_field(rel, entity, stream.value), f"{entity} {stream.value}")
        return FeatureSequence(sid, stream, data)

    samples = []
    for entry in _entries(manifest, "samples"):
        sid = _require(entry, "id", "sample entry")
        class_id = _require(entry, "class_id", f"sample {sid!r}")
        sequences = {Stream.BODY: read_sequence(sid, Stream.BODY, _require(entry, "body", f"sample {sid!r}"))}
        if entry.get("hand") is not None:
            sequences[Stream.HAND] = read_sequence(sid, Stream.HAND, entry["hand"])
        samples.append(Sample(sid, class_id, sequences))

    split_entry = _require(manifest, "split", "manifest")
    mode_token = _require(split_entry, "mode", "split")
    try:
        mode = SplitMode(mode_token)
    except ValueError:
        raise ParseError(f"split field 'mode': expected 'zsl' or 'gzsl', got {mode_token!r}") from None
    split = SplitConfig(
        seen_classes=frozenset(split_entry.get("seen", [])),
        validation_classes=frozenset(split_entry.get("validation", [])),
        unseen_classes=frozenset(split_entry.get("unseen", [])),
        mode=mode,
    )

    dataset = Dataset(tuple(classes), tuple(samples), split, attribute_count)
    violations = validate_dataset(dataset)
    if violations:
        raise InvariantViolation("; ".join(violations))
    return dataset


def validate_dataset(dataset: Dataset) -> list[str]:
    """Return a description of every broken invariant (empty list == valid)."""
    violations: list[str] = []

    seen_ids: set[str] = set()
    for c in dataset.classes:
        if c.class_id in seen_ids:
            violations.append(f"class {c.class_id!r} duplicated")
        seen_ids.add(c.class_id)
        if c.attributes.shape[0] != dataset.attribute_count:
            violations.append(
                f"class {c.class_id!r} has {c.attributes.shape[0]} attributes, expected {dataset.attribute_count}"
            )
        a = c.attributes
        for k in np.flatnonzero((a != 0.0) & (a != 1.0)):  # NaN compares unequal to both
            violations.append(f"class {c.class_id!r} attribute {k} not binary")
        if not np.all(np.isfinite(c.text)):
            violations.append(f"class {c.class_id!r} text vector non-finite")
        elif abs(float(np.linalg.norm(c.text)) - 1.0) > TEXT_NORM_TOL:
            violations.append(f"class {c.class_id!r} text vector not unit norm")

    text_widths = {c.text.shape[0] for c in dataset.classes}
    if len(text_widths) > 1:
        violations.append(f"classes disagree on text dimensionality: {sorted(text_widths)}")

    known = {c.class_id for c in dataset.classes}
    sample_ids: set[str] = set()
    for s in dataset.samples:
        if s.sample_id in sample_ids:
            violations.append(f"sample {s.sample_id!r} duplicated")
        sample_ids.add(s.sample_id)
        if s.class_id not in known:
            violations.append(f"sample {s.sample_id!r} references unknown class {s.class_id!r}")
        for stream, seq in s.sequences.items():
            finite = np.isfinite(seq.data).all(axis=1)
            for row in np.flatnonzero(~finite):
                violations.append(f"sample {s.sample_id!r} {stream.value} row {row} non-finite")
        hand = s.hand
        if hand is not None and hand.length != s.body.length:
            violations.append(
                f"sample {s.sample_id!r} hand length {hand.length} != body length {s.body.length}"
            )

    split = dataset.split
    for label, ids in (
        ("seen", split.seen_classes),
        ("validation", split.validation_classes),
        ("unseen", split.unseen_classes),
    ):
        for cid in sorted(ids - known):
            violations.append(f"split {label} references unknown class {cid!r}")
    if split.mode is SplitMode.ZSL:
        for a, b in (("seen", "validation"), ("seen", "unseen"), ("validation", "unseen")):
            overlap = getattr(split, f"{a}_classes") & getattr(split, f"{b}_classes")
            for cid in sorted(overlap):
                violations.append(f"class {cid!r} appears in both {a} and {b} splits")

    return violations


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
