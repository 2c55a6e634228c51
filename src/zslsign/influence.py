"""Flip-difference analysis of binary attribute influence.

Binary attributes admit no partial derivatives, so influence is measured by
flipping one attribute of one class at inference time and differencing the
model's output before and after. Flipping attribute k of class c moves only
that class's score, by delta_k = (phi' W)[k] * (1 - 2 a_ck), because the
attributes are the first coordinates of every attribute-bearing embedding.
Both analyses therefore have closed forms over all samples and attributes:

* correct predictions: the drop p_c - softmax(s + delta_k e_c)_c in the
  posterior of the (correctly) predicted class, in stable log-sum-exp form;
* misclassifications: the drop in the log-ratio of the wrongly predicted
  class over the true class when an attribute of the predicted class is
  flipped. The other scores cancel, so this is exactly -delta_k of the
  predicted class, independent of the remaining candidates.

Aggregation averages these per-sample values per class (over correctly
classified samples) or per ground-truth/predicted confusion pair. The
per-sample references that recompose the flipped class and rescore every
candidate are flip_influence_correct, flip_influence_confusion and log_ratio
in oracles.py.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .data import ClassDescriptor
from .errors import DimensionMismatch, ModeWithoutAttributes, NoMisclassifications
from .models import CompatModel, score_candidates


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


def _class_scores(model: CompatModel, features, truths: Sequence[str], candidates: Sequence[ClassDescriptor]):
    """Class-id-sorted candidate set, N x |C| scores, predicted columns and q = Phi W."""
    if not model.mode.uses_attributes:
        raise ModeWithoutAttributes(
            f"influence analysis needs an attribute-bearing mode, got {model.mode.kind.value!r}"
        )
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != len(truths):
        raise DimensionMismatch(
            f"features must be N x d with one row per truth, got {features.shape} for {len(truths)} truths"
        )
    classes, scores = score_candidates(model, features, candidates)
    # argmax takes the first maximum: on class-id-sorted columns, the smallest class_id
    return classes, scores, scores.argmax(axis=1), features @ model.W


def _flip_deltas(q: np.ndarray, attributes: np.ndarray) -> np.ndarray:
    """Score change of a class when each attribute is flipped: q[k] * (1 - 2 a[k]).

    Attributes come first in every attribute-bearing mode, so attribute k is
    embedding coordinate k; rows of q and attributes pair up sample by sample.
    """
    return q[:, : attributes.shape[1]] * (1.0 - 2.0 * attributes)


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _confidence_drops(scores: np.ndarray, cols: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """p_c - softmax(s + delta_k e_c)_c for each row's class c and each flip k.

    With r = logsumexp of the other classes' scores, p_c = exp(-softplus(r - s_c)),
    so only the target's own score enters the flipped posterior.
    """
    rows = np.arange(len(cols))
    own = scores[rows, cols]
    others = scores.copy()
    others[rows, cols] = -np.inf
    top = others.max(axis=1)
    top = np.where(np.isfinite(top), top, 0.0)  # a single candidate has no other class
    with np.errstate(divide="ignore"):
        rest = top + np.log(np.exp(others - top[:, None]).sum(axis=1))
    gap = rest - own
    return np.exp(-_softplus(gap))[:, None] - np.exp(-_softplus(gap[:, None] - deltas))


def class_influence_matrix(
    model: CompatModel,
    features,  # N x d video embeddings
    truths: Sequence[str],
    report_classes: Sequence[str],
    candidates: Sequence[ClassDescriptor],
) -> InfluenceReport:
    """Average per-attribute flip influence over correctly classified samples.

    One row per class in report_classes that has at least one correctly
    classified sample; classes without any are listed as omitted.
    """
    classes, scores, predicted, q = _class_scores(model, features, truths, candidates)
    truths = np.asarray(truths, dtype=object)
    correct = np.flatnonzero(truths == np.asarray(classes.class_ids, dtype=object)[predicted])
    cols = predicted[correct]
    drops = _confidence_drops(
        scores[correct], cols, _flip_deltas(q[correct], classes.attributes[cols])
    )

    rows = []
    omitted = []
    for cid in sorted(set(report_classes)):
        mine = truths[correct] == cid
        if not mine.any():
            omitted.append(cid)
            continue
        rows.append(InfluenceRow(subject=cid, scores=drops[mine].mean(axis=0), support=int(mine.sum())))

    return InfluenceReport(
        kind=InfluenceKind.CORRECT_CONFIDENCE,
        rows=tuple(rows),
        attribute_names=default_attribute_names(classes.attributes.shape[1]),
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
    features,  # N x d video embeddings
    truths: Sequence[str],
    candidates: Sequence[ClassDescriptor],
    top_n_confusions: int = 4,
) -> InfluenceReport:
    """Per-attribute log-ratio influence for the most frequent confusion pairs.

    Pairs (ground truth, predicted) with gt != predicted are ranked by count,
    ties broken by lexicographic pair order; the top pairs each contribute one
    row averaged over their samples. top_n_confusions must be at least 1.
    """
    if top_n_confusions < 1:
        raise ValueError(f"top_n_confusions must be >= 1, got {top_n_confusions}")
    classes, _, predicted, q = _class_scores(model, features, truths, candidates)
    pairs = [(truth, classes.class_ids[col]) for truth, col in zip(truths, predicted)]
    counts = Counter(pair for pair in pairs if pair[0] != pair[1])
    if not counts:
        raise NoMisclassifications("every prediction is correct; no confusion pairs to analyze")
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:top_n_confusions]

    # the log-ratio drop is -delta of the predicted class: the other scores cancel
    drops = -_flip_deltas(q, classes.attributes[predicted])
    rows = []
    for pair, count in ranked:
        mine = np.array([p == pair for p in pairs])
        rows.append(InfluenceRow(subject=pair, scores=drops[mine].mean(axis=0), support=count))

    return InfluenceReport(
        kind=InfluenceKind.CONFUSION_LOG_RATIO,
        rows=tuple(rows),
        attribute_names=default_attribute_names(classes.attributes.shape[1]),
    )
