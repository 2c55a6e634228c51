"""Synthetic dataset generation with planted linear structure.

The generator draws random binary attributes and unit text vectors per class,
plants a linear map from the concatenated class description to feature space,
and emits samples whose snippet-row mean equals the planted image of their
class (plus optional Gaussian noise). Average pooling, and the shift kernel
with weights (0, 1, 0), therefore recover the planted structure exactly.

Gaussian draws use an explicit Box-Muller transform over the seeded uniform
stream so the fixture bytes are stable across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import ClassDescriptor, Dataset, FeatureSequence, Sample, SplitConfig, SplitMode, Stream


@dataclass(frozen=True)
class SynthSpec:
    n_classes: int = 39
    n_seen: int = 24
    n_unseen: int = 10
    attribute_count: int = 12
    text_dim: int = 8
    samples_per_class: int = 20
    snippets: int = 6  # rows per feature sequence
    stream_width: int = 24
    noise_sigma: float = 0.01
    planted_map_scale: float = 1.0
    seed: int = 0
    split_mode: SplitMode = SplitMode.ZSL

    def __post_init__(self) -> None:
        counts = {
            "n_classes": self.n_classes,
            "n_seen": self.n_seen,
            "n_unseen": self.n_unseen,
            "attribute_count": self.attribute_count,
            "text_dim": self.text_dim,
            "samples_per_class": self.samples_per_class,
            "snippets": self.snippets,
            "stream_width": self.stream_width,
        }
        for name, value in counts.items():
            if value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.n_seen + self.n_unseen > self.n_classes:
            raise ValueError(
                f"n_seen + n_unseen = {self.n_seen + self.n_unseen} exceeds n_classes = {self.n_classes}"
            )
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        for name, value in (("noise_sigma", self.noise_sigma), ("planted_map_scale", self.planted_map_scale)):
            if not math.isfinite(value):  # synth_spec.json is strict JSON
                raise ValueError(f"{name} must be finite, got {value}")


def box_muller(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normal draws via Box-Muller over the uniform stream."""
    n = int(np.prod(shape))
    half = (n + 1) // 2
    u1 = rng.random(half)
    u2 = rng.random(half)
    radius = np.sqrt(-2.0 * np.log1p(-u1))  # 1 - u1 in (0, 1], so the log is finite
    angle = 2.0 * math.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n]
    return z.reshape(shape)


def _well_conditioned_map(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Random map with orthonormal columns (or rows, whichever fit).

    Orthonormality keeps the planted class images equally scaled, so recovery
    failures measure the model, not an accidental ill-conditioned draw.
    """
    g = box_muller(rng, (max(rows, cols), min(rows, cols)))
    q, _ = np.linalg.qr(g)
    return q if rows >= cols else q.T


def generate(spec: SynthSpec) -> tuple[Dataset, np.ndarray]:
    """Build a synthetic dataset plus the planted map it was drawn from.

    The planted map has shape stream_width x (attribute_count + text_dim) and
    acts on the concatenation of a class's attribute and text vectors.
    """
    rng = np.random.default_rng(spec.seed)
    class_ids = [f"c{i:03d}" for i in range(spec.n_classes)]

    attributes = rng.integers(0, 2, size=(spec.n_classes, spec.attribute_count)).astype(np.float64)
    texts = box_muller(rng, (spec.n_classes, spec.text_dim))
    texts /= np.linalg.norm(texts, axis=1, keepdims=True)

    planted = spec.planted_map_scale * _well_conditioned_map(
        rng, spec.stream_width, spec.attribute_count + spec.text_dim
    )

    classes = tuple(
        ClassDescriptor(cid, f"synthetic sign {cid}", attributes[i], texts[i])
        for i, cid in enumerate(class_ids)
    )

    samples = []
    for i, cid in enumerate(class_ids):
        target_base = planted @ np.concatenate([attributes[i], texts[i]])
        for j in range(spec.samples_per_class):
            target = target_base
            if spec.noise_sigma > 0:
                target = target + spec.noise_sigma * box_muller(rng, (spec.stream_width,))
            rows = np.tile(target, (spec.snippets, 1))
            if spec.noise_sigma > 0 and spec.snippets > 1:
                jitter = spec.noise_sigma * box_muller(rng, (spec.snippets, spec.stream_width))
                rows = rows + (jitter - jitter.mean(axis=0))  # centered: pooling still hits target
            sid = f"{cid}_s{j:02d}"
            samples.append(Sample(sid, cid, {Stream.BODY: FeatureSequence(sid, Stream.BODY, rows)}))

    split = SplitConfig(
        seen_classes=frozenset(class_ids[: spec.n_seen]),
        unseen_classes=frozenset(class_ids[spec.n_seen : spec.n_seen + spec.n_unseen]),
        validation_classes=frozenset(class_ids[spec.n_seen + spec.n_unseen :]),
        mode=spec.split_mode,
    )
    dataset = Dataset(classes, tuple(samples), split, attribute_count=spec.attribute_count)
    return dataset, planted
