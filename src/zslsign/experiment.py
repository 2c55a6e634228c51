"""Wiring between datasets, aggregation, model training and evaluation.

This module owns the run configuration and the deterministic recipes the CLI
drives: building embedding matrices, selecting candidate sets per split mode,
training a model from a config, taking the truth rank and predicted class of
each evaluation sample, and sweeping the text-reduction width. A command's
independent trainings (a sweep's grid, a train's repeats) run side by side on
forked worker processes.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .data import ClassDescriptor, Dataset, Sample, SplitConfig, SplitMode
from .embeddings import ClassEmbeddingSet, EmbeddingMode, ModeKind
from .errors import DimensionMismatch, MissingFile, MissingHandStream, ParseError, ZslSignError
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


def _seen_stack(dataset: Dataset, cfg: RunConfig) -> tuple[np.ndarray, list[str], list[ClassDescriptor]]:
    """What every training reads: the stacked seen-class samples, their labels and the seen descriptors."""
    check_hand_usable(dataset, cfg.use_hand)
    seen = dataset.split.seen_classes
    _, features, labels = stack_video_embeddings(dataset.samples_of(seen), cfg.aggregator_spec(), cfg.use_hand)
    return features, labels, dataset.descriptors_of(seen)


def train_from_config(dataset: Dataset, cfg: RunConfig, seed: int | None = None) -> CompatModel:
    """Train on the seen-class samples following the run configuration."""
    return _train_stacked(*_seen_stack(dataset, cfg), cfg, seed)


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


def train_repeats(dataset: Dataset, cfg: RunConfig) -> list[CompatModel]:
    """One model per repeat, for seeds cfg.seed, cfg.seed + 1, ...

    The seen samples are embedded once; the fits run side by side (see
    _map_jobs). eszsl and sae fit once and every repeat gets that model.
    """
    jobs = [(cfg, seed) for seed in _fit_seeds(cfg)]
    return _per_repeat(_map_jobs(_train_stacked, jobs, _seen_stack(dataset, cfg)), cfg.repeats)


_shared: tuple = ()  # a pool worker's shared job arguments, set once by its initializer


def _share(*shared) -> None:
    global _shared
    _shared = shared


def _run_shared(job: Callable, item: tuple):
    return job(*_shared, *item)


def _usable_cpus() -> int:
    """CPUs in this process's affinity mask; 1 where the OS does not report one."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _map_jobs(job: Callable, items: Sequence[tuple], shared: tuple) -> list:
    """[job(*shared, *item) for item in items], on up to one forked worker per usable CPU.

    job is a module-level function, so a worker can unpickle it by name. The
    workers inherit shared through fork instead of a pickled copy, and each job
    sends back only its result. Results come back in item order, so they do not
    depend on the worker count. With one worker, or without the fork start
    method, the jobs run in this process instead, one after another. fork
    assumes the caller runs no other threads, as the CLI commands do not. A
    typed error raised by a job reaches the caller unchanged; a worker that
    dies becomes a ZslSignError.
    """
    workers = min(len(items), _usable_cpus())
    context = None
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
    if context is None:
        return [job(*shared, *item) for item in items]

    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(workers, mp_context=context, initializer=_share, initargs=shared) as pool:
            return list(pool.map(partial(_run_shared, job), items))
    except BrokenProcessPool as exc:
        raise ZslSignError(f"a training worker process ended abruptly: {exc}") from None


def evaluation_samples(
    dataset: Dataset, cfg: RunConfig
) -> tuple[list[ClassDescriptor], list[str], np.ndarray, list[str]]:
    """Candidate descriptors plus the stacked evaluation samples of the split mode.

    Returns (candidates, sample ids, N x d features, truths), samples sorted by id.
    """
    check_hand_usable(dataset, cfg.use_hand)
    candidate_ids = candidate_class_ids(dataset.split)
    candidates = [dataset.classes_by_id[cid] for cid in candidate_ids]
    samples = dataset.samples_of(set(candidate_ids))
    return candidates, *stack_video_embeddings(samples, cfg.aggregator_spec(), cfg.use_hand)


def rank_samples(
    dataset: Dataset, model: CompatModel, cfg: RunConfig
) -> tuple[list[str], np.ndarray, list[str], list[str]]:
    """Sample ids, 0-based truth ranks, truths and predicted classes of the split mode's samples."""
    candidates, sample_ids, features, truths = evaluation_samples(dataset, cfg)
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


def _validation_top1(train: tuple, val: tuple, cfg: RunConfig, seed: int) -> float:
    """Validation top-1 of one model trained on the stacked seen samples: one sweep job."""
    features, candidates, truths = val
    ranks, _ = _rank_stacked(_train_stacked(*train, cfg, seed), features, candidates, truths)
    return topk_accuracy(ranks, truths, ks=(1,)).per_k[1]


def sweep_text_dim(
    dataset: Dataset, cfg: RunConfig, values: Sequence[int]
) -> list[tuple[int, float, float]]:
    """Validation top-1 across text-reduction widths; (value, mean, stddev) rows.

    A value equal to the raw text width runs without a reduction layer. The
    seen and the validation samples are embedded once for the whole sweep, and
    the (value, seed) fits run side by side (see _map_jobs).
    """
    mode_kind = ModeKind(cfg.embedding)
    if mode_kind is ModeKind.ATTRIBUTES:
        raise ValueError("sweeping d_t needs a text-bearing embedding mode")
    train = _seen_stack(dataset, cfg)
    val_candidates, val_samples = _validation_set(dataset)
    _, val_features, truths = stack_video_embeddings(val_samples, cfg.aggregator_spec(), cfg.use_hand)
    seeds = _fit_seeds(cfg)
    jobs = [(replace(cfg, d_t=int(value)), seed) for value in values for seed in seeds]
    top1 = _map_jobs(_validation_top1, jobs, (train, (val_features, val_candidates, truths)))
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
