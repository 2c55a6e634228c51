import json
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from zslsign.data import (
    ClassDescriptor,
    Dataset,
    FeatureSequence,
    Sample,
    SplitConfig,
    SplitMode,
    Stream,
    save_dataset,
)
from zslsign.experiment import Embedded, RunConfig, load_embedded
from zslsign.models import _lle_backward, _lle_forward, _LleFit
from zslsign.temporal import embed_video

# a failing property prints the @reproduce_failure blob that replays its example; every other setting keeps its default
settings.register_profile("zslsign", print_blob=True)
settings.load_profile("zslsign")


def csv_text(matrix: np.ndarray) -> str:
    """A feature file's text: one line per row, comma-separated shortest round-trip reals, LF-terminated."""
    return "\n".join(",".join(map(repr, row)) for row in matrix.tolist()) + "\n"


def write_feature_file(path: Path, matrix) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(repr(float(v)) for v in row) for row in np.asarray(matrix, dtype=float)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path.name


def write_manifest(root: Path, manifest: dict, name: str = "manifest.json") -> Path:
    root.mkdir(parents=True, exist_ok=True)
    path = root / name
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return path


def write_csv_layout(dataset: Dataset, out: Path, manifest_name: str = "manifest.json") -> Path:
    """Write dataset in the CSV layout and return its manifest path.

    This is how a hand-written dataset is laid out, and how save_dataset wrote
    one before the pack held the frames: each sample stream in
    features/<sample id>_<stream>.csv (csv_text), the class text inline in the
    manifest, and no pack (one left in out by an earlier save is deleted).
    """
    (out / "features").mkdir(parents=True, exist_ok=True)
    samples = []
    for s in dataset.samples:
        entry = {"id": s.sample_id, "class_id": s.class_id}
        for stream, seq in sorted(s.sequences.items(), key=lambda kv: kv[0].value):
            entry[stream.value] = f"features/{s.sample_id}_{stream.value}.csv"
            (out / entry[stream.value]).write_text(csv_text(seq.data), encoding="utf-8")
        samples.append(entry)
    manifest = {
        "attribute_count": dataset.attribute_count,
        "classes": [
            {"id": c.class_id, "name": c.name, "attributes": [int(v) for v in c.attributes], "text": c.text.tolist()}
            for c in dataset.classes
        ],
        "samples": samples,
        "split": {
            "mode": dataset.split.mode.value,
            "seen": sorted(dataset.split.seen_classes),
            "validation": sorted(dataset.split.validation_classes),
            "unseen": sorted(dataset.split.unseen_classes),
        },
    }
    path = out / manifest_name
    for suffix in (".pack.npy", ".pack.json"):
        path.with_suffix(suffix).unlink(missing_ok=True)
    path.write_text(json.dumps(manifest, sort_keys=True) + "\n", encoding="utf-8")
    return path


def small_manifest(root: Path, **overrides) -> Path:
    """Three classes, six body-only samples, disjoint ZSL split."""
    rng = np.random.default_rng(11)
    classes = []
    for i in range(3):
        text = rng.normal(size=4)
        classes.append(
            {
                "id": f"c{i}",
                "name": f"sign {i}",
                "attributes": [int(b) for b in rng.integers(0, 2, size=5)],
                "text": list(text / np.linalg.norm(text)),
            }
        )
    samples = []
    for j in range(6):
        cid = f"c{j % 3}"
        rel = write_feature_file(root / "features" / f"s{j}.csv", rng.normal(size=(4, 3)))
        samples.append({"id": f"s{j}", "class_id": cid, "body": f"features/{rel}"})
    manifest = {
        "attribute_count": 5,
        "classes": classes,
        "samples": samples,
        "split": {"mode": "zsl", "seen": ["c0"], "validation": ["c1"], "unseen": ["c2"]},
    }
    manifest.update(overrides)
    return write_manifest(root, manifest)


def make_sample(sample_id: str, class_id: str, body, hand=None) -> Sample:
    sequences = {Stream.BODY: FeatureSequence(sample_id, Stream.BODY, np.asarray(body, dtype=float))}
    if hand is not None:
        sequences[Stream.HAND] = FeatureSequence(sample_id, Stream.HAND, np.asarray(hand, dtype=float))
    return Sample(sample_id, class_id, sequences)


def reference_stack(samples, cfg: RunConfig):
    """The samples sorted by id, embedded one by one: (sample ids, N x d matrix, class ids)."""
    ordered = sorted(samples, key=lambda s: s.sample_id)
    spec = cfg.aggregator_spec()
    rows = [embed_video(s.body.data, s.sequences[Stream.HAND].data if cfg.use_hand else None, spec) for s in ordered]
    return [s.sample_id for s in ordered], np.stack(rows), [s.class_id for s in ordered]


class SavedDatasets:
    """In-memory datasets, each saved once into a directory of its own and read back as a command reads it."""

    def __init__(self, root: Path) -> None:
        self._root = root
        self._saved: dict[int, tuple[Dataset, Path]] = {}  # by id; the dataset is kept, so its id is not reused

    def manifest(self, dataset: Dataset) -> Path:
        if id(dataset) not in self._saved:
            self._saved[id(dataset)] = dataset, save_dataset(dataset, self._root / str(len(self._saved)))
        return self._saved[id(dataset)][1]

    def view(self, dataset: Dataset, cfg: RunConfig, roles) -> Embedded:
        """load_embedded of the saved dataset, with cfg's aggregator and hand stream."""
        return load_embedded(replace(cfg, manifest=str(self.manifest(dataset))), roles)


@pytest.fixture(scope="module")
def saved(tmp_path_factory) -> SavedDatasets:
    return SavedDatasets(tmp_path_factory.mktemp("saved"))


def make_descriptor(class_id: str, attributes, text=None) -> ClassDescriptor:
    attributes = np.asarray(attributes, dtype=float)
    if text is None:
        text = np.zeros(4)
        text[zlib.crc32(class_id.encode()) % 4] = 1.0  # the same index in every session
    return ClassDescriptor(class_id, class_id, attributes, np.asarray(text, dtype=float))


def lle_objective(W, M, features, labels, classes, lam) -> float:
    """The lle loss at (W, M), from the forward pass that train_lle takes."""
    return _lle_forward(W, M, _LleFit(features, labels, classes, lam, M))[0]


def lle_gradients(W, M, features, labels, classes, lam):
    """The lle loss and its gradients for W (and M if given), from train_lle's forward and backward pass."""
    fit = _LleFit(features, labels, classes, lam, M)
    loss, *forward = _lle_forward(W, M, fit)
    return (loss, *_lle_backward(W, M, fit, *forward))


@pytest.fixture
def tiny_dataset() -> Dataset:
    classes = tuple(make_descriptor(f"c{i}", [(i >> b) & 1 for b in range(3)]) for i in range(1, 4))
    samples = tuple(
        make_sample(f"s{j}", f"c{1 + j % 3}", [[j + 1.0, 2.0], [0.5, j - 1.0]]) for j in range(6)
    )
    split = SplitConfig(
        seen_classes=frozenset({"c1"}),
        validation_classes=frozenset({"c2"}),
        unseen_classes=frozenset({"c3"}),
        mode=SplitMode.ZSL,
    )
    return Dataset(classes, samples, split, attribute_count=3)
