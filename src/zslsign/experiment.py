"""Wiring between datasets, aggregation, model training and evaluation.

This module owns the run configuration and the deterministic recipes the CLI
drives. A command reads its inputs straight through, in the order it uses
them: its config (load_run_config), then its model or its sweep's mode check,
then its dataset, and it makes its output directory only once the dataset's
view is built. It reads the dataset through load_embedded, which walks the
dataset's samples with data.DatasetReader and pools each sample of the roles
it uses (seen, validation, candidate) into one embedding row as soon as the
sample is read, so no more than one sample's snippet frames are alive at a
time, and nothing of them is left once it returns. The result is an Embedded
view: one Stack per role, each holding that role's N x d video embeddings,
sample ids, labels and class descriptors, plus the split. embed_dataset builds
the same view from a Dataset already in memory. Every command then trains and
scores through two functions: train_from_config fits the configured method on
the seen stack, once per pool job of train_repeats and of a sweep;
rank_samples gives each sample of a stack its truth rank and predicted class
among that stack's classes, for predict, eval and a sweep's validation. A
command's independent trainings (a sweep's grid, a train's repeats) run side
by side on the forked workers of pool.map_jobs, which inherit embeddings, not
frames.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .data import ClassDescriptor, Dataset, DatasetReader, SplitConfig, SplitMode, read_input
from .embeddings import ClassEmbeddingSet, EmbeddingMode, ModeKind
from .errors import DegenerateData, DimensionMismatch, EmptyEvaluationSet, MissingHandStream, ParseError
from .evaluation import EvalReport, gzsl_report, topk_accuracy
from .models import CompatModel, Method, TrainConfig, score_candidates, train_eszsl, train_lle, train_sae, truth_ranks
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
        """The config of a JSON object; an unknown key or a value of the wrong JSON type raises, naming the key."""
        if not isinstance(raw, dict):
            raise ParseError(f"a config must be a JSON object, got {type(raw).__name__}")
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = {}
        for key, value in raw.items():
            what, fits, convert = _JSON_VALUES[cls.__dataclass_fields__[key].type]
            if key in CHOICES:
                what, fits = "one of " + ", ".join(map(json.dumps, CHOICES[key])), CHOICES[key].__contains__
            if not fits(value):
                raise ParseError(f"key {key!r} must be {what}, got {json.dumps(value)}")
            cfg[key] = convert(value)
        return cls(**cfg)


def _is_number(value) -> bool:
    return type(value) in (int, float)  # a JSON true or false is a bool, not a number


def _is_list(value, of) -> bool:
    return type(value) in (list, tuple) and all(map(of, value))


def _as_is(value):
    return value


# the values of the RunConfig fields that name an enum member, for a config file and for the CLI's flags alike
CHOICES = {
    "aggregator": tuple(kind.value for kind in AggregatorKind),
    "embedding": tuple(kind.value for kind in ModeKind),
    "method": tuple(method.value for method in Method),
}

# what each RunConfig field annotation takes from JSON: (its name in messages, check, conversion)
_JSON_VALUES = {
    "str": ("a string", lambda v: type(v) is str, _as_is),
    "str | None": ("a string or null", lambda v: v is None or type(v) is str, _as_is),
    "bool": ("true or false", lambda v: type(v) is bool, _as_is),
    "int": ("an integer", lambda v: type(v) is int, _as_is),
    "float": ("a number", _is_number, _as_is),
    "tuple[float, float, float]": (
        "a list of numbers", lambda v: _is_list(v, _is_number), lambda v: tuple(map(float, v))
    ),
    "tuple[int, ...]": ("a list of integers", lambda v: _is_list(v, lambda k: type(k) is int), tuple),
}


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
    """One role's samples and classes.

    The rows are video embeddings sorted by sample id, with their ids and class
    labels; classes are the role's class descriptors, sorted by class id.
    """

    sample_ids: list[str]
    features: np.ndarray  # N x d
    labels: list[str]
    classes: list[ClassDescriptor]


@dataclass(frozen=True)
class Embedded:
    """What a command keeps of its dataset: one Stack per role it uses, and the split.

    It holds no snippet frames. The rows were pooled with the aggregator and
    hand-stream choice of the config that built it.
    """

    stacks: Mapping[Role, Stack]
    split: SplitConfig

    def stack(self, role: Role) -> Stack:
        if role not in self.stacks:
            raise ValueError(f"the {role.value} samples were not embedded")
        return self.stacks[role]


class _RolePooler:
    """Pools each sample of some roles as it comes, then stacks each role's rows into an Embedded view.

    It takes a sample as its record (see Sample.record), so it can take the
    samples of a DatasetReader one at a time, and it keeps one embedding row
    per pooled sample and nothing of the frames. Whatever keeps a role from
    being stacked is raised by embedded(), not by add().
    """

    def __init__(self, cfg: RunConfig, roles: Sequence[Role], split: SplitConfig) -> None:
        self._spec = cfg.aggregator_spec()
        self._use_hand = cfg.use_hand
        self._split = split
        self._class_ids = {role: set(role.class_ids(split)) for role in roles}
        self._rows: dict[Role, list[tuple[str, np.ndarray, str]]] = {role: [] for role in roles}
        self._without_hand: str | None = None  # the first sample without a hand sequence

    def add(self, sample_id: str, class_id: str, body: np.ndarray, hand: np.ndarray | None) -> None:
        if hand is None and self._without_hand is None:
            self._without_hand = sample_id
        roles = [role for role, ids in self._class_ids.items() if class_id in ids]
        if not roles or (self._use_hand and hand is None):
            return
        row = (sample_id, embed_video(body, hand if self._use_hand else None, self._spec), class_id)
        for role in roles:
            self._rows[role].append(row)

    def embedded(self, classes: Mapping[str, ClassDescriptor]) -> Embedded:
        """The view of the roles, in the order given, with their classes taken from classes.

        A role without samples is a typed error that names it: DegenerateData
        for the seen samples, EmptyEvaluationSet for the others.
        """
        if self._use_hand and self._without_hand is not None:
            raise MissingHandStream(
                f"hand stream disabled dataset-wide: sample {self._without_hand!r} (at least) has no hand sequence"
            )
        stacks = {}
        for role, rows in self._rows.items():
            class_ids = role.class_ids(self._split)
            if role is Role.VALIDATION and not class_ids:
                raise ValueError("dataset split has no validation classes")
            if not rows:
                if role is Role.SEEN:
                    raise DegenerateData("no seen samples to train on")
                raise EmptyEvaluationSet(f"no {role.value} samples to evaluate")
            rows.sort(key=lambda row: row[0])
            widths = {row[1].shape[0] for row in rows}
            if len(widths) > 1:
                raise DimensionMismatch(f"samples disagree on embedded width: {sorted(widths)}")
            sample_ids, embeddings, labels = zip(*rows)
            role_classes = [classes[cid] for cid in class_ids]
            stacks[role] = Stack(list(sample_ids), np.stack(embeddings), list(labels), role_classes)
        return Embedded(stacks, self._split)


def embed_dataset(dataset: Dataset, cfg: RunConfig, roles: Sequence[Role]) -> Embedded:
    """Stack the samples of each role, in the order given, as cfg's aggregator and hand stream embed them.

    Each role's rows are sorted by sample id. A role without samples is a
    typed error that names it: DegenerateData for the seen samples,
    EmptyEvaluationSet for the others.
    """
    pooler = _RolePooler(cfg, roles, dataset.split)
    for sample in dataset.samples:
        pooler.add(*sample.record)
    return pooler.embedded(dataset.classes_by_id)


def load_embedded(cfg: RunConfig, roles: Sequence[Role]) -> Embedded:
    """Read cfg's dataset, pooling each sample of the roles as it is read, and stack the roles.

    Returns what embed_dataset(load_dataset(cfg.manifest), cfg, roles) returns,
    but no more than one sample's frames are alive at a time. Every load error
    comes first, then the view's (a missing hand stream, an empty role, a width
    mismatch).
    """
    with DatasetReader(cfg.manifest) as reader:
        pooler = _RolePooler(cfg, roles, reader.split)
        reader.read_samples(pooler.add)
    return pooler.embedded({c.class_id: c for c in reader.classes})


def train_from_config(data: Embedded, cfg: RunConfig, seed: int | None = None) -> CompatModel:
    """Train the configured method on the seen samples; seed overrides cfg.seed (lle only)."""
    seen = data.stack(Role.SEEN)
    classes = ClassEmbeddingSet.from_descriptors(seen.classes, cfg.embedding_mode())
    method = Method(cfg.method)
    if method is Method.LLE:
        return train_lle(seen.features, seen.labels, classes, cfg.train_config(seed))
    if method is Method.ESZSL:
        return train_eszsl(seen.features, seen.labels, classes, gamma=cfg.gamma, lam=cfg.lam)
    return train_sae(seen.features, seen.labels, classes, lam_sae=cfg.lam_sae)


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
    return _per_repeat(map_jobs(train_from_config, jobs, (data,)), cfg.repeats)


def rank_samples(model: CompatModel, stack: Stack) -> tuple[np.ndarray, list[str]]:
    """0-based truth ranks and predicted classes of the stack's samples among the stack's classes."""
    classes, scores = score_candidates(model, stack.features, stack.classes)
    # argmax takes the first maximum: on class-id-sorted columns, the smallest class_id
    predicted = [classes.class_ids[j] for j in scores.argmax(axis=1)]
    return truth_ranks(scores, classes.class_ids, stack.labels), predicted


def evaluate(data: Embedded, model: CompatModel, cfg: RunConfig) -> EvalReport:
    """ZSL or GZSL evaluation report, per the split mode, at cfg.ks."""
    candidates = data.stack(Role.CANDIDATES)
    ranks, _ = rank_samples(model, candidates)
    if data.split.mode is SplitMode.GZSL:
        return gzsl_report(ranks, candidates.labels, data.split, cfg.ks)
    return topk_accuracy(ranks, candidates.labels, cfg.ks)


def _validation_top1(data: Embedded, validation: Stack, cfg: RunConfig, seed: int) -> float:
    """Validation top-1 of one model trained on the seen samples: one sweep job."""
    ranks, _ = rank_samples(train_from_config(data, cfg, seed), validation)
    return topk_accuracy(ranks, validation.labels, ks=(1,)).per_k[1]


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
    seeds = _fit_seeds(cfg)
    jobs = [(replace(cfg, d_t=int(value)), seed) for value in values for seed in seeds]
    top1 = map_jobs(_validation_top1, jobs, (data, data.stack(Role.VALIDATION)))
    rows = []
    for i, value in enumerate(values):
        scores = _per_repeat(top1[i * len(seeds) : (i + 1) * len(seeds)], cfg.repeats)
        mean = float(np.mean(scores))
        std = float(np.std(scores, ddof=1)) if len(scores) > 1 else 0.0
        rows.append((int(value), mean, std))
    return rows


def load_run_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(read_input(path, "config file").decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"config {path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    try:
        return RunConfig.from_dict(raw)
    except ValueError as exc:
        raise ParseError(f"config {path}: {exc}") from None
