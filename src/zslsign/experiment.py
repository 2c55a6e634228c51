"""Wiring between datasets, aggregation, model training and evaluation.

This module owns the run configuration and the deterministic recipes the CLI
drives: building embedding matrices, selecting candidate sets per split mode,
training a model from a config, taking the truth rank and predicted class of
each evaluation sample, and sweeping the text-reduction width.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import ClassDescriptor, Dataset, Sample, SplitConfig, SplitMode
from .embeddings import ClassEmbeddingSet, EmbeddingMode, ModeKind
from .errors import DimensionMismatch, MissingFile, MissingHandStream, ParseError
from .evaluation import EvalReport, gzsl_report, topk_accuracy
from .models import CompatModel, Method, TrainConfig, train_eszsl, train_lle, train_sae, truth_ranks
from .temporal import AggregatorKind, AggregatorSpec, embed_video


@dataclass(frozen=True)
class RunConfig:
    """One experiment run; every field can come from JSON config or CLI flags."""

    manifest: str = ""
    aggregator: str = "avgpool"  # "avgpool" | "tsm"
    tsm_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    use_hand: bool = False
    embedding: str = "attr"  # "attr" | "text" | "combined"
    d_t: int = 64
    method: str = "lle"  # "lle" | "eszsl" | "sae"
    lam: float = 1e-3
    learning_rate: float = 1e-2
    epochs: int = 1000
    seed: int = 0
    init_scale: float = 1e-3
    gamma: float = 1e-3
    lam_sae: float = 1e-3
    ks: tuple[int, ...] = (1, 2, 5)
    out_dir: str | None = None
    repeats: int = 5

    def __post_init__(self) -> None:
        if not self.ks or any(k < 1 for k in self.ks):
            raise ValueError(f"ks must be nonempty positive integers, got {list(self.ks)}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")

    def aggregator_spec(self) -> AggregatorSpec:
        return AggregatorSpec(kind=AggregatorKind(self.aggregator), weights=tuple(self.tsm_weights))

    def embedding_mode(self) -> EmbeddingMode:
        return EmbeddingMode(kind=ModeKind(self.embedding), d_t=self.d_t)

    def train_config(self, seed: int | None = None) -> TrainConfig:
        return TrainConfig(
            lam=self.lam,
            learning_rate=self.learning_rate,
            epochs=self.epochs,
            seed=self.seed if seed is None else seed,
            init_scale=self.init_scale,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = dict(raw)
        if "tsm_weights" in cfg:
            cfg["tsm_weights"] = tuple(float(v) for v in cfg["tsm_weights"])
        if "ks" in cfg:
            cfg["ks"] = tuple(int(k) for k in cfg["ks"])
        return cls(**cfg)


def check_hand_usable(dataset: Dataset, use_hand: bool) -> None:
    if use_hand and not dataset.has_full_hand_coverage:
        missing = next(s.sample_id for s in dataset.samples if s.hand is None)
        raise MissingHandStream(
            f"hand stream disabled dataset-wide: sample {missing!r} (at least) has no hand sequence"
        )


def stack_video_embeddings(
    samples: Sequence[Sample], spec: AggregatorSpec, use_hand: bool
) -> tuple[list[str], np.ndarray, list[str]]:
    """Embed samples (sorted by sample_id) into one N x d matrix.

    Returns the sample ids, the matrix and the class id of each row.
    """
    ordered = sorted(samples, key=lambda s: s.sample_id)
    embeddings = [embed_video(s, spec, use_hand) for s in ordered]
    widths = {e.shape[0] for e in embeddings}
    if len(widths) > 1:
        raise DimensionMismatch(f"samples disagree on embedded width: {sorted(widths)}")
    return [s.sample_id for s in ordered], np.stack(embeddings), [s.class_id for s in ordered]


def candidate_class_ids(split: SplitConfig) -> list[str]:
    """Prediction-time candidate classes: unseen for ZSL, seen + unseen for GZSL."""
    if split.mode is SplitMode.GZSL:
        return sorted(split.seen_classes | split.unseen_classes)
    return sorted(split.unseen_classes)


def train_from_config(dataset: Dataset, cfg: RunConfig, seed: int | None = None) -> CompatModel:
    """Train on the seen-class samples following the run configuration."""
    check_hand_usable(dataset, cfg.use_hand)
    train_samples = dataset.samples_of(dataset.split.seen_classes)
    _, features, labels = stack_video_embeddings(train_samples, cfg.aggregator_spec(), cfg.use_hand)
    return _train_stacked(features, labels, dataset.descriptors_of(dataset.split.seen_classes), cfg, seed)


def _train_stacked(
    features: np.ndarray,
    labels: Sequence[str],
    descriptors: Sequence[ClassDescriptor],
    cfg: RunConfig,
    seed: int | None = None,
) -> CompatModel:
    """Train the configured method on already-stacked video embeddings."""
    classes = ClassEmbeddingSet.from_descriptors(descriptors, cfg.embedding_mode())
    method = Method(cfg.method)
    if method is Method.LLE:
        return train_lle(features, labels, classes, cfg.train_config(seed))
    if method is Method.ESZSL:
        return train_eszsl(features, labels, classes, gamma=cfg.gamma, lam=cfg.lam)
    return train_sae(features, labels, classes, lam_sae=cfg.lam_sae)


def evaluation_samples(
    dataset: Dataset,
    cfg: RunConfig,
    samples: Sequence[Sample] | None = None,
    candidates: Sequence[ClassDescriptor] | None = None,
) -> tuple[list[ClassDescriptor], list[str], np.ndarray, list[str]]:
    """Candidate descriptors plus the stacked evaluation samples of the split mode.

    Returns (candidates, sample ids, N x d features, truths), samples sorted by id.
    """
    check_hand_usable(dataset, cfg.use_hand)
    if candidates is None:
        candidates = [dataset.classes_by_id[cid] for cid in candidate_class_ids(dataset.split)]
    if samples is None:
        samples = dataset.samples_of({c.class_id for c in candidates})
    return list(candidates), *stack_video_embeddings(samples, cfg.aggregator_spec(), cfg.use_hand)


def rank_samples(
    dataset: Dataset,
    model: CompatModel,
    cfg: RunConfig,
    samples: Sequence[Sample] | None = None,
    candidates: Sequence[ClassDescriptor] | None = None,
) -> tuple[list[str], np.ndarray, list[str], list[str]]:
    """Sample ids, 0-based truth ranks, truths and predicted classes of the split mode's samples."""
    candidates, sample_ids, features, truths = evaluation_samples(dataset, cfg, samples, candidates)
    ranks, predicted = _rank_stacked(model, features, candidates, truths)
    return sample_ids, ranks, truths, predicted


def _rank_stacked(
    model: CompatModel, features: np.ndarray, candidates: Sequence[ClassDescriptor], truths: Sequence[str]
) -> tuple[np.ndarray, list[str]]:
    """Truth ranks and predicted classes of already-stacked video embeddings."""
    classes = ClassEmbeddingSet.from_descriptors(candidates, model.mode)
    scores = model.scores(features, classes.compose(model.M))
    # argmax takes the first maximum: on class-id-sorted columns, the smallest class_id
    predicted = [classes.class_ids[j] for j in scores.argmax(axis=1)]
    return truth_ranks(scores, classes.class_ids, truths), predicted


def evaluate(dataset: Dataset, model: CompatModel, cfg: RunConfig) -> EvalReport:
    """ZSL or GZSL evaluation report, per the dataset's split mode."""
    _, ranks, truths, _ = rank_samples(dataset, model, cfg)
    if dataset.split.mode is SplitMode.GZSL:
        return gzsl_report(ranks, truths, dataset.split, cfg.ks)
    return topk_accuracy(ranks, truths, cfg.ks)


def _validation_set(dataset: Dataset) -> tuple[list[ClassDescriptor], list[Sample]]:
    val_ids = dataset.split.validation_classes
    if not val_ids:
        raise ValueError("dataset split has no validation classes")
    return dataset.descriptors_of(val_ids), dataset.samples_of(val_ids)


def sweep_text_dim(
    dataset: Dataset, cfg: RunConfig, values: Sequence[int]
) -> list[tuple[int, float, float]]:
    """Validation top-1 across text-reduction widths; (value, mean, stddev) rows.

    A value equal to the raw text width runs without a reduction layer. The
    seen and the validation samples are embedded once for the whole sweep.
    """
    mode_kind = ModeKind(cfg.embedding)
    if mode_kind is ModeKind.ATTRIBUTES:
        raise ValueError("sweeping d_t needs a text-bearing embedding mode")
    check_hand_usable(dataset, cfg.use_hand)
    agg = cfg.aggregator_spec()
    seen = dataset.split.seen_classes
    _, train_features, labels = stack_video_embeddings(dataset.samples_of(seen), agg, cfg.use_hand)
    seen_descriptors = dataset.descriptors_of(seen)
    val_candidates, val_samples = _validation_set(dataset)
    _, val_features, truths = stack_video_embeddings(val_samples, agg, cfg.use_hand)
    rows = []
    for value in values:
        run = replace(cfg, d_t=int(value))
        scores = []
        for r in range(cfg.repeats):
            model = _train_stacked(train_features, labels, seen_descriptors, run, seed=cfg.seed + r)
            ranks, _ = _rank_stacked(model, val_features, val_candidates, truths)
            scores.append(topk_accuracy(ranks, truths, ks=(1,)).per_k[1])
        mean = float(np.mean(scores))
        std = float(np.std(scores, ddof=1)) if len(scores) > 1 else 0.0
        rows.append((int(value), mean, std))
    return rows


def load_run_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise MissingFile(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"config {path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    try:
        return RunConfig.from_dict(raw)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"config {path}: {exc}") from None
