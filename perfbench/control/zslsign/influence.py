"""Flip-difference analysis of binary attribute influence.

Binary attributes admit no partial derivatives, so influence is measured by
flipping one attribute of one class at inference time and differencing the
model's output before and after:

* correct predictions: the drop in the posterior of the (correctly)
  predicted class when one of its attributes is flipped;
* misclassifications: the drop in the log-ratio of the wrongly predicted
  class over the true class when an attribute of the predicted class is
  flipped. Because only the predicted class's score moves, this equals the
  raw score difference, independent of the remaining candidates.

Aggregation averages these per-sample values per class (over correctly
classified samples) or per ground-truth/predicted confusion pair.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .data import ClassDescriptor
from .embeddings import flip_attribute
from .errors import ModeWithoutAttributes, NoMisclassifications
from .models import CompatModel, predict, posteriors, log_posteriors


class InfluenceKind(Enum):
    CORRECT_CONFIDENCE = "correct_confidence"
    CONFUSION_LOG_RATIO = "confusion_log_ratio"


@dataclass(frozen=True)
class InfluenceRow:
    subject: str | tuple[str, str]  # class_id, or (ground_truth, predicted)
    scores: np.ndarray  # length A
    support: int  # samples averaged over

    def __post_init__(self) -> None:
        object.__setattr__(self, "scores", np.asarray(self.scores, dtype=np.float64))


@dataclass(frozen=True)
class InfluenceReport:
    kind: InfluenceKind
    rows: tuple[InfluenceRow, ...]
    attribute_names: tuple[str, ...]
    omitted: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "attribute_names": list(self.attribute_names),
            "rows": [
                {
                    "subject": list(r.subject) if isinstance(r.subject, tuple) else r.subject,
                    "scores": [float(v) for v in r.scores],
                    "support": r.support,
                }
                for r in self.rows
            ],
            "omitted": list(self.omitted),
        }


def default_attribute_names(count: int) -> tuple[str, ...]:
    width = max(2, len(str(count - 1)))
    return tuple(f"attr_{i:0{width}d}" for i in range(count))


def _require_attributes(model: CompatModel) -> None:
    if not model.mode.uses_attributes:
        raise ModeWithoutAttributes(
            f"influence analysis needs an attribute-bearing mode, got {model.mode.kind.value!r}"
        )


def _index_of(class_id: str, candidates: Sequence[ClassDescriptor]) -> int:
    for i, c in enumerate(candidates):
        if c.class_id == class_id:
            return i
    raise ValueError(f"class {class_id!r} is not among the candidates")


def _with_flip(
    candidates: Sequence[ClassDescriptor], idx: int, k: int
) -> list[ClassDescriptor]:
    flipped = list(candidates)
    flipped[idx] = flip_attribute(flipped[idx], k)
    return flipped


def flip_influence_correct(
    model: CompatModel,
    phi,
    target: ClassDescriptor,
    k: int,
    candidates: Sequence[ClassDescriptor],
) -> float:
    """Posterior of the target class minus its posterior after flipping attribute k.

    Only the target class is recomposed; every other candidate keeps its
    original embedding, so their raw scores are untouched by the flip.
    """
    _require_attributes(model)
    idx = _index_of(target.class_id, candidates)
    before = posteriors(phi, model, model.candidate_embeddings(candidates))[idx]
    flipped = _with_flip(candidates, idx, k)
    after = posteriors(phi, model, model.candidate_embeddings(flipped))[idx]
    return float(before - after)


def log_ratio(
    model: CompatModel,
    phi,
    c_star: str,
    c_other: str,
    candidates: Sequence[ClassDescriptor],
) -> float:
    """log p(c_star|v) - log p(c_other|v), computed via stable log-softmax."""
    log_p = log_posteriors(phi, model, model.candidate_embeddings(candidates))
    return float(log_p[_index_of(c_star, candidates)] - log_p[_index_of(c_other, candidates)])


def flip_influence_confusion(
    model: CompatModel,
    phi,
    c_star: str,
    c_other: str,
    k: int,
    candidates: Sequence[ClassDescriptor],
) -> float:
    """Log-ratio drop when attribute k of the predicted class c_star is flipped.

    Large positive values flag attributes that drive the misclassification of
    a c_other sample as c_star.
    """
    _require_attributes(model)
    before = log_ratio(model, phi, c_star, c_other, candidates)
    flipped = _with_flip(candidates, _index_of(c_star, candidates), k)
    after = log_ratio(model, phi, c_star, c_other, flipped)
    return float(before - after)


def class_influence_matrix(
    model: CompatModel,
    test_samples: Sequence[tuple[object, str]],  # (video embedding, truth class_id)
    report_classes: Sequence[str],
    candidates: Sequence[ClassDescriptor],
    attribute_names: Sequence[str] | None = None,
) -> InfluenceReport:
    """Average per-attribute flip influence over correctly classified samples.

    One row per class in report_classes that has at least one correctly
    classified sample; classes without any are listed as omitted.
    """
    _require_attributes(model)
    n_attrs = candidates[0].attributes.shape[0]
    names = tuple(attribute_names) if attribute_names is not None else default_attribute_names(n_attrs)

    embeddings = model.candidate_embeddings(candidates)
    correct: dict[str, list[object]] = {}
    for phi, truth in test_samples:
        predicted, _ = predict(phi, model, embeddings)
        if predicted == truth:
            correct.setdefault(truth, []).append(phi)

    rows = []
    omitted = []
    for cid in sorted(set(report_classes)):
        phis = correct.get(cid, [])
        if not phis:
            omitted.append(cid)
            continue
        target = candidates[_index_of(cid, candidates)]
        scores = np.zeros(n_attrs)
        for k in range(n_attrs):
            scores[k] = float(
                np.mean([flip_influence_correct(model, phi, target, k, candidates) for phi in phis])
            )
        rows.append(InfluenceRow(subject=cid, scores=scores, support=len(phis)))

    return InfluenceReport(
        kind=InfluenceKind.CORRECT_CONFIDENCE,
        rows=tuple(rows),
        attribute_names=names,
        omitted=tuple(omitted),
    )


def positive_affiliation_summary(
    report: InfluenceReport,
    class_attrs: Mapping[str, np.ndarray],
    min_affiliation: int,
) -> dict[int, float]:
    """Mean influence per attribute over its positively affiliated classes.

    Attributes positively defined for fewer than min_affiliation of the
    classes in class_attrs are excluded. The mean runs over exactly the
    affiliated classes, restricted to those that have a row in the report.
    """
    if report.kind is not InfluenceKind.CORRECT_CONFIDENCE:
        raise ValueError("affiliation summary applies to correct-confidence reports only")
    by_subject = {row.subject: row.scores for row in report.rows}
    n_attrs = len(report.attribute_names)

    summary: dict[int, float] = {}
    for k in range(n_attrs):
        affiliated = [cid for cid, attrs in class_attrs.items() if attrs[k] == 1]
        if len(affiliated) < min_affiliation:
            continue
        values = [by_subject[cid][k] for cid in affiliated if cid in by_subject]
        if values:
            summary[k] = float(np.mean(values))
    return summary


def confusion_influence_matrix(
    model: CompatModel,
    test_samples: Sequence[tuple[object, str]],
    candidates: Sequence[ClassDescriptor],
    top_n_confusions: int = 4,
    attribute_names: Sequence[str] | None = None,
) -> InfluenceReport:
    """Per-attribute log-ratio influence for the most frequent confusion pairs.

    Pairs (ground truth, predicted) with gt != predicted are ranked by count,
    ties broken by lexicographic pair order; the top pairs each contribute one
    row averaged over their samples.
    """
    _require_attributes(model)
    n_attrs = candidates[0].attributes.shape[0]
    names = tuple(attribute_names) if attribute_names is not None else default_attribute_names(n_attrs)

    embeddings = model.candidate_embeddings(candidates)
    confused: dict[tuple[str, str], list[object]] = {}
    for phi, truth in test_samples:
        predicted, _ = predict(phi, model, embeddings)
        if predicted != truth:
            confused.setdefault((truth, predicted), []).append(phi)
    if not confused:
        raise NoMisclassifications("every prediction is correct; no confusion pairs to analyze")

    counts = Counter({pair: len(phis) for pair, phis in confused.items()})
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:top_n_confusions]

    rows = []
    for (truth, predicted), _count in ranked:
        phis = confused[(truth, predicted)]
        scores = np.zeros(n_attrs)
        for k in range(n_attrs):
            scores[k] = float(
                np.mean(
                    [
                        flip_influence_confusion(model, phi, predicted, truth, k, candidates)
                        for phi in phis
                    ]
                )
            )
        rows.append(InfluenceRow(subject=(truth, predicted), scores=scores, support=len(phis)))

    return InfluenceReport(
        kind=InfluenceKind.CONFUSION_LOG_RATIO,
        rows=tuple(rows),
        attribute_names=names,
    )
