"""Wiring between datasets, aggregation, model training and evaluation.

This module owns the run configuration and the deterministic recipes the CLI
drives: embedding a dataset's samples, selecting candidate sets per split
mode, training a model from a config, taking the truth rank and predicted
class of each evaluation sample, and sweeping the text-reduction width. A
command's independent trainings (a sweep's grid, a train's repeats) run side
by side on the forked workers of pool.map_jobs.

Training and scoring read only the video embeddings, so the recipes take an
Embedded view instead of a Dataset: embed_dataset stacks the samples of the
roles a command uses (seen, validation, candidate) and keeps those N x d rows,
the class descriptors and the split. Once it returns, nothing holds the
loaded Dataset's snippet frames or its feature pack, and they are freed
before training, scoring, analysis and the pool's fork.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .data import ClassDescriptor, Dataset, Sample, SplitConfig, SplitMode
from .embeddings import ClassEmbeddingSet, EmbeddingMode, ModeKind
from .errors import DegenerateData, DimensionMismatch, EmptyEvaluationSet, MissingFile, MissingHandStream, ParseError
from .evaluation import EvalReport, gzsl_report, topk_accuracy
from .models import CompatModel, Method, TrainConfig, train_eszsl, train_lle, train_sae, truth_ranks
from .pool import map_jobs
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


class Role(Enum):
    """A set of samples a command reads, named after the classes it takes them from."""

    SEEN = "seen"  # what every training fits
    VALIDATION = "validation"  # what a sweep scores
    CANDIDATES = "candidate"  # what predict, eval and analyze rank: the split mode's candidate classes

    def class_ids(self, split: SplitConfig) -> list[str]:
        """The role's class ids, sorted."""
        if self is Role.SEEN:
            return sorted(split.seen_classes)
        if self is Role.VALIDATION:
            return sorted(split.validation_classes)
        return candidate_class_ids(split)


@dataclass(frozen=True)
class Stack:
    """One role's video embeddings: rows sorted by sample id, with their ids and class labels."""

    sample_ids: list[str]
    features: np.ndarray  # N x d
    labels: list[str]


@dataclass(frozen=True)
class Embedded:
    """What a command keeps of its dataset: the stacked rows and class descriptors of its roles, and the split.

    It holds no snippet frames, so once embed_dataset has built it the loaded
    Dataset and its feature pack can go. The rows were pooled with the
    aggregator and hand-stream choice of the config that built it.
    """

    stacks: Mapping[Role, Stack]
    classes_by_id: Mapping[str, ClassDescriptor]
    split: SplitConfig

    def stack(self, role: Role) -> Stack:
        if role not in self.stacks:
            raise ValueError(f"the {role.value} samples were not embedded")
        return self.stacks[role]

    def descriptors(self, role: Role) -> list[ClassDescriptor]:
        """The role's class descriptors, sorted by class_id."""
        self.stack(role)  # a role that was not embedded raises here
        return [self.classes_by_id[cid] for cid in role.class_ids(self.split)]


def embed_dataset(dataset: Dataset, cfg: RunConfig, roles: Sequence[Role]) -> Embedded:
    """Stack the samples of each role, in the order given, as cfg's aggregator and hand stream embed them.

    A role without samples is a typed error that names it: DegenerateData for
    the seen samples, EmptyEvaluationSet for the others.
    """
    check_hand_usable(dataset, cfg.use_hand)
    spec = cfg.aggregator_spec()
    stacks = {}
    for role in roles:
        class_ids = role.class_ids(dataset.split)
        if role is Role.VALIDATION and not class_ids:
            raise ValueError("dataset split has no validation classes")
        samples = dataset.samples_of(set(class_ids))
        if not samples:
            if role is Role.SEEN:
                raise DegenerateData("no seen samples to train on")
            raise EmptyEvaluationSet(f"no {role.value} samples to evaluate")
        stacks[role] = Stack(*stack_video_embeddings(samples, spec, cfg.use_hand))
    classes = {cid: dataset.classes_by_id[cid] for role in stacks for cid in role.class_ids(dataset.split)}
    return Embedded(stacks, classes, dataset.split)


def _seen_stack(data: Embedded) -> tuple[np.ndarray, list[str], list[ClassDescriptor]]:
    """What every training reads: the stacked seen-class samples, their labels and the seen descriptors."""
    seen = data.stack(Role.SEEN)
    return seen.features, seen.labels, data.descriptors(Role.SEEN)


def train_from_config(data: Embedded, cfg: RunConfig, seed: int | None = None) -> CompatModel:
    """Train on the seen-class samples following the run configuration."""
    return _train_stacked(*_seen_stack(data), cfg, seed)


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


def _fit_seeds(cfg: RunConfig) -> list[int]:
    """Seeds of the distinct fits behind cfg.repeats repeats.

    lle fits once per seed (cfg.seed, cfg.seed + 1, ...); the closed forms ignore
    the seed, so one fit serves every repeat (see _per_repeat).
    """
    seeds = [cfg.seed + r for r in range(cfg.repeats)]
    return seeds if Method(cfg.method) is Method.LLE else seeds[:1]


def _per_repeat(fits: list, repeats: int) -> list:
    """One entry per repeat: the fits themselves, or one closed-form fit repeated."""
    return fits if len(fits) == repeats else fits * repeats


def train_repeats(data: Embedded, cfg: RunConfig) -> list[CompatModel]:
    """One model per repeat, for seeds cfg.seed, cfg.seed + 1, ...

    The fits run side by side (see pool.map_jobs). eszsl and sae fit once and
    every repeat gets that model.
    """
    jobs = [(cfg, seed) for seed in _fit_seeds(cfg)]
    return _per_repeat(map_jobs(_train_stacked, jobs, _seen_stack(data)), cfg.repeats)


def evaluation_samples(data: Embedded) -> tuple[list[ClassDescriptor], list[str], np.ndarray, list[str]]:
    """Candidate descriptors plus the stacked evaluation samples of the split mode.

    Returns (candidates, sample ids, N x d features, truths), samples sorted by id.
    """
    stack = data.stack(Role.CANDIDATES)
    return data.descriptors(Role.CANDIDATES), stack.sample_ids, stack.features, stack.labels


def rank_samples(data: Embedded, model: CompatModel) -> tuple[list[str], np.ndarray, list[str], list[str]]:
    """Sample ids, 0-based truth ranks, truths and predicted classes of the split mode's samples."""
    candidates, sample_ids, features, truths = evaluation_samples(data)
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


def evaluate(data: Embedded, model: CompatModel, cfg: RunConfig) -> EvalReport:
    """ZSL or GZSL evaluation report, per the split mode, at cfg.ks."""
    _, ranks, truths, _ = rank_samples(data, model)
    if data.split.mode is SplitMode.GZSL:
        return gzsl_report(ranks, truths, data.split, cfg.ks)
    return topk_accuracy(ranks, truths, cfg.ks)


def _validation_top1(train: tuple, val: tuple, cfg: RunConfig, seed: int) -> float:
    """Validation top-1 of one model trained on the stacked seen samples: one sweep job."""
    features, candidates, truths = val
    ranks, _ = _rank_stacked(_train_stacked(*train, cfg, seed), features, candidates, truths)
    return topk_accuracy(ranks, truths, ks=(1,)).per_k[1]


SWEEP_ROLES = (Role.SEEN, Role.VALIDATION)


def check_sweepable(cfg: RunConfig) -> None:
    if ModeKind(cfg.embedding) is ModeKind.ATTRIBUTES:
        raise ValueError("sweeping d_t needs a text-bearing embedding mode")


def sweep_text_dim(data: Embedded, cfg: RunConfig, values: Sequence[int]) -> list[tuple[int, float, float]]:
    """Validation top-1 across text-reduction widths; (value, mean, stddev) rows.

    data holds the SWEEP_ROLES. A value equal to the raw text width runs
    without a reduction layer. The (value, seed) fits run side by side (see
    pool.map_jobs).
    """
    check_sweepable(cfg)
    val = data.stack(Role.VALIDATION)
    validation = (val.features, data.descriptors(Role.VALIDATION), val.labels)
    seeds = _fit_seeds(cfg)
    jobs = [(replace(cfg, d_t=int(value)), seed) for value in values for seed in seeds]
    top1 = map_jobs(_validation_top1, jobs, (_seen_stack(data), validation))
    rows = []
    for i, value in enumerate(values):
        scores = _per_repeat(top1[i * len(seeds) : (i + 1) * len(seeds)], cfg.repeats)
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
