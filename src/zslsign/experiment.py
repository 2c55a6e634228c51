"""Wiring between datasets, aggregation, model training and evaluation.

This module owns the run configuration and the deterministic recipes the CLI
drives. A command reads its inputs straight through, in the order it uses
them: its config (load_run_config), which RunConfig.check refuses before any
other input is opened, then its model, then its dataset, and it makes its
output directory only once the dataset's view is built. It reads the dataset
through load_embedded, which walks the dataset's samples with
data.DatasetReader and pools each sample of the roles it uses (seen,
validation, candidate) into one embedding row as soon as the sample is read,
so no more than one sample's snippet frames are alive at a time, and nothing
of them is left once it returns. The result is an Embedded
view: one Stack per role, each holding that role's N x d video embeddings,
sample ids, labels and class descriptors, plus the split. It is the one way
from a dataset to its embeddings: a dataset built in memory is saved with
data.save_dataset and read back. Every command then trains and scores through
two functions: train_from_config fits the configured method on the seen
stack, once per pool job of train_repeats and of a sweep (a job's config
carries its seed);
rank_samples gives each sample of a stack its truth rank and predicted class
among that stack's classes, for predict, eval and a sweep's validation. A
command's independent trainings (a sweep's grid, a train's repeats) run side
by side on the forked workers of pool.map_jobs, which inherit embeddings, not
frames.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .data import ClassDescriptor, DatasetReader, SplitConfig, SplitMode, parse_json, read_input
from .embeddings import ClassEmbeddingSet, EmbeddingMode, ModeKind
from .errors import DegenerateData, DimensionMismatch, EmptyEvaluationSet, MissingHandStream, ParseError
from .evaluation import EvalReport, check_ks, gzsl_report, topk_accuracy
from .models import (
    HYPERPARAMETERS,
    CompatModel,
    Method,
    check_hyperparameters,
    is_json_number,
    score_candidates,
    train_eszsl,
    train_lle,
    train_sae,
    truth_ranks,
)
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

    def check(self, sweep_values: Sequence[int] = ()) -> None:
        """Refuse this config, and a sweep over the d_t values sweep_values, before any input is read.

        Each check is its owner's: check_ks's for ks, the aggregator spec's,
        the embedding mode's for d_t and each swept value (a sweep also needs
        distinct values and a text-bearing mode), and check_hyperparameters's
        for the method's own keys. A float key the method does not read must
        still be finite, as effective_config.json is strict JSON. The one
        check that needs the data, a closed form's text width, is
        load_embedded's.
        """
        check_ks(self.ks)
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        if len(set(sweep_values)) < len(sweep_values):
            raise ValueError(f"sweep values must not repeat, got {list(sweep_values)}")
        if sweep_values and ModeKind(self.embedding) is ModeKind.ATTRIBUTES:
            raise ValueError("sweeping d_t needs a text-bearing embedding mode")
        self.aggregator_spec()
        for d_t in (self.d_t, *sweep_values):
            self.embedding_mode(d_t)
        check_hyperparameters(Method(self.method), **self.hyperparameters())
        for key, spec in self.__dataclass_fields__.items():  # every key is echoed to effective_config.json
            value = getattr(self, key)
            if spec.type == "float" and not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")

    def aggregator_spec(self) -> AggregatorSpec:
        return AggregatorSpec(kind=AggregatorKind(self.aggregator), weights=tuple(self.tsm_weights))

    def embedding_mode(self, d_t: int | None = None) -> EmbeddingMode:
        """The configured mode, at d_t if given, else at the configured d_t."""
        return EmbeddingMode(kind=ModeKind(self.embedding), d_t=self.d_t if d_t is None else d_t)

    def hyperparameters(self) -> dict:
        """The configured method's hyperparameters by name, as its trainer takes them (see models.HYPERPARAMETERS)."""
        return {name: getattr(self, name) for name, _, _ in HYPERPARAMETERS[Method(self.method)]}

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
    "float": ("a number", is_json_number, _as_is),
    "tuple[float, float, float]": (
        "a list of numbers", lambda v: _is_list(v, is_json_number), lambda v: tuple(map(float, v))
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


def _check_text_width(cfg: RunConfig, reader: DatasetReader, fit_d_t: Sequence[int]) -> None:
    """Raise MissingReduction where a closed form would fit a text mode at a d_t other than the text width.

    It composes the manifest's seen classes in the mode of each d_t, as the fit
    would. Seen classes that disagree on a width are left to the load, which
    reports them after the samples.
    """
    if Method(cfg.method) is Method.LLE:
        return  # lle trains the reduction
    seen = [c for c in reader.classes if c.class_id in reader.split.seen_classes]
    if len({(c.attributes.shape, c.text.shape) for c in seen}) == 1:
        for d_t in fit_d_t:
            ClassEmbeddingSet.from_descriptors(seen, cfg.embedding_mode(d_t)).compose()


def load_embedded(cfg: RunConfig, roles: Sequence[Role], fit_d_t: Sequence[int] = ()) -> Embedded:
    """Read cfg's dataset, pooling each sample of the roles as it is read, and stack each role, in the order given.

    Each sample is embedded with cfg's aggregator and hand-stream choice, and
    each role's rows are sorted by sample id; no more than one sample's frames
    are alive at a time. fit_d_t holds the d_t of each fit the caller will
    make: once the manifest is read, and before any sample file is, a
    closed-form method in a text mode is refused at a d_t other than the text
    width (MissingReduction). Then come the other load errors, then the
    view's: a missing hand stream, a role without samples (DegenerateData for
    the seen samples, EmptyEvaluationSet for the others, naming the role), a
    width mismatch.
    """
    spec, use_hand = cfg.aggregator_spec(), cfg.use_hand
    rows: dict[Role, list[tuple[str, np.ndarray, str]]] = {role: [] for role in roles}
    without_hand: list[str] = []  # the first sample without a hand sequence

    with DatasetReader(cfg.manifest) as reader:
        _check_text_width(cfg, reader, fit_d_t)
        split = reader.split
        class_ids = {role: set(role.class_ids(split)) for role in roles}

        def pool(sample_id: str, class_id: str, body: np.ndarray, hand: np.ndarray | None) -> None:
            if hand is None and not without_hand:
                without_hand.append(sample_id)
            ours = [role for role, ids in class_ids.items() if class_id in ids]
            if ours and (hand is not None or not use_hand):
                row = (sample_id, embed_video(body, hand if use_hand else None, spec), class_id)
                for role in ours:
                    rows[role].append(row)

        reader.read_samples(pool)
    if use_hand and without_hand:
        raise MissingHandStream(
            f"hand stream disabled dataset-wide: sample {without_hand[0]!r} (at least) has no hand sequence"
        )
    classes = {c.class_id: c for c in reader.classes}
    stacks = {}
    for role, role_rows in rows.items():
        role_class_ids = role.class_ids(split)
        if role is Role.VALIDATION and not role_class_ids:
            raise ValueError("dataset split has no validation classes")
        if not role_rows:
            if role is Role.SEEN:
                raise DegenerateData("no seen samples to train on")
            raise EmptyEvaluationSet(f"no {role.value} samples to evaluate")
        role_rows.sort(key=lambda row: row[0])
        widths = {row[1].shape[0] for row in role_rows}
        if len(widths) > 1:
            raise DimensionMismatch(f"samples disagree on embedded width: {sorted(widths)}")
        sample_ids, embeddings, labels = zip(*role_rows)
        role_classes = [classes[cid] for cid in role_class_ids]
        stacks[role] = Stack(list(sample_ids), np.stack(embeddings), list(labels), role_classes)
    return Embedded(stacks, split)


def train_from_config(data: Embedded, cfg: RunConfig) -> CompatModel:
    """Train the configured method on the seen samples, with cfg's values of the method's hyperparameters."""
    seen = data.stack(Role.SEEN)
    classes = ClassEmbeddingSet.from_descriptors(seen.classes, cfg.embedding_mode())
    # the trainers are looked up on each call, so a replacement bound on this module (a test's or a tracer's) is used
    trainer = {Method.LLE: train_lle, Method.ESZSL: train_eszsl, Method.SAE: train_sae}[Method(cfg.method)]
    return trainer(seen.features, seen.labels, classes, **cfg.hyperparameters())


def _fit_seeds(cfg: RunConfig) -> list[int]:
    """Seeds of the distinct fits behind cfg.repeats repeats.

    A method that takes a seed (lle) fits once per seed (cfg.seed, cfg.seed +
    1, ...); the closed forms take none, so one fit serves every repeat (see
    _per_repeat).
    """
    seeds = [cfg.seed + r for r in range(cfg.repeats)]
    return seeds if "seed" in cfg.hyperparameters() else seeds[:1]


def _per_repeat(fits: list, repeats: int) -> list:
    """One entry per repeat: the fits themselves, or one closed-form fit repeated."""
    return fits if len(fits) == repeats else fits * repeats


def train_repeats(data: Embedded, cfg: RunConfig) -> list[CompatModel]:
    """One model per repeat, for seeds cfg.seed, cfg.seed + 1, ...

    cfg is checked first (see RunConfig.check). The fits run side by side (see
    pool.map_jobs). eszsl and sae fit once and every repeat gets that model.
    """
    cfg.check()
    jobs = [(replace(cfg, seed=seed),) for seed in _fit_seeds(cfg)]
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


def _validation_top1(data: Embedded, validation: Stack, cfg: RunConfig) -> float:
    """Validation top-1 of one model trained on the seen samples: one sweep job."""
    ranks, _ = rank_samples(train_from_config(data, cfg), validation)
    return topk_accuracy(ranks, validation.labels, ks=(1,)).per_k[1]


SWEEP_ROLES = (Role.SEEN, Role.VALIDATION)


def sweep_text_dim(data: Embedded, cfg: RunConfig, values: Sequence[int]) -> list[tuple[int, float, float]]:
    """Validation top-1 across text-reduction widths; (value, mean, stddev) rows.

    data holds the SWEEP_ROLES. A value equal to the raw text width runs
    without a reduction layer. cfg and values are checked first (see
    RunConfig.check). The (value, seed) fits run side by side (see
    pool.map_jobs).
    """
    cfg.check(values)
    seeds = _fit_seeds(cfg)
    jobs = [(replace(cfg, d_t=int(value), seed=seed),) for value in values for seed in seeds]
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
    raw = parse_json(read_input(path, "config file"), f"config {path}", ParseError)
    try:
        return RunConfig.from_dict(raw)
    except ValueError as exc:
        raise ParseError(f"config {path}: {exc}") from None
