import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from zslsign.data import (
    ClassDescriptor,
    Dataset,
    FeatureSequence,
    Sample,
    SplitConfig,
    SplitMode,
    Stream,
)
from zslsign.models import _label_indices, _lle_backward, _lle_forward


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


def make_descriptor(class_id: str, attributes, text=None) -> ClassDescriptor:
    attributes = np.asarray(attributes, dtype=float)
    if text is None:
        text = np.zeros(4)
        text[zlib.crc32(class_id.encode()) % 4] = 1.0  # the same index in every session
    return ClassDescriptor(class_id, class_id, attributes, np.asarray(text, dtype=float))


def lle_objective(W, M, features, labels, classes, lam) -> float:
    """The lle loss at (W, M), from the forward pass that train_lle takes."""
    return _lle_forward(W, M, features, _label_indices(labels, classes), classes, lam)[0]


def lle_gradients(W, M, features, labels, classes, lam):
    """The lle loss and its gradients for W (and M if given), from train_lle's forward and backward pass."""
    y = _label_indices(labels, classes)
    loss, *forward = _lle_forward(W, M, features, y, classes, lam)
    return (loss, *_lle_backward(W, M, features, y, classes, lam, *forward))


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
