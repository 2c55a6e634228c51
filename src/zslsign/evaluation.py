"""Class-normalized top-k accuracy, GZSL summaries and the random baseline.

Evaluation takes one integer truth rank per sample (models.truth_ranks), not
ranked lists of class ids. Accuracy is normalized by class sizes: the
unweighted mean over classes of per-class top-k hit rates, times 100. The
random baseline is its exact expectation under uniformly random rankings.
All percentages are kept at full precision here; rounding to one decimal is a
presentation concern.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .data import SplitConfig
from .errors import EmptyEvaluationSet


def harmonic_mean(seen: float, unseen: float) -> float:
    """2su/(s+u), defined as 0 when s + u == 0."""
    if seen + unseen == 0:
        return 0.0
    return 2.0 * seen * unseen / (seen + unseen)


@dataclass(frozen=True)
class EvalReport:
    per_k: dict[int, float]  # percentage, class-normalized over all evaluated samples
    per_class: dict[str, dict[int, float]]  # per-class hit rates in [0, 1]
    n_samples: int
    n_classes: int
    seen_per_k: dict[int, float] | None = None
    unseen_per_k: dict[int, float] | None = None
    harmonic_per_k: dict[int, float] | None = None

    def to_dict(self) -> dict:
        return {
            "per_k": {str(k): v for k, v in sorted(self.per_k.items())},
            "per_class": {
                cid: {str(k): v for k, v in sorted(rates.items())}
                for cid, rates in sorted(self.per_class.items())
            },
            "n_samples": self.n_samples,
            "n_classes": self.n_classes,
            "seen_per_k": None if self.seen_per_k is None else {str(k): v for k, v in sorted(self.seen_per_k.items())},
            "unseen_per_k": None if self.unseen_per_k is None else {str(k): v for k, v in sorted(self.unseen_per_k.items())},
            "harmonic_per_k": None
            if self.harmonic_per_k is None
            else {str(k): v for k, v in sorted(self.harmonic_per_k.items())},
        }


def topk_accuracy(
    ranks: Sequence[int],
    truths: Sequence[str],
    ks: Sequence[int] = (1, 2, 5),
) -> EvalReport:
    """Class-normalized top-k accuracy from each sample's 0-based truth rank; a hit is rank < k."""
    ranks = np.asarray(ranks)
    if ranks.shape != (len(truths),):
        raise ValueError(f"{ranks.shape} ranks for {len(truths)} truths")
    if not len(truths):
        raise EmptyEvaluationSet("no samples to evaluate")
    if not ks or any(k < 1 for k in ks):
        raise ValueError(f"ks must be nonempty positive integers, got {list(ks)}")

    classes, column = np.unique(np.asarray(truths, dtype=str), return_inverse=True)  # sorted class ids
    sizes = np.bincount(column)
    hits = {k: np.bincount(column, weights=ranks < k, minlength=len(classes)) for k in ks}
    per_class = {str(cid): {k: float(hits[k][j] / sizes[j]) for k in ks} for j, cid in enumerate(classes)}
    per_k = {k: 100.0 * float(np.mean([rates[k] for rates in per_class.values()])) for k in ks}
    return EvalReport(per_k=per_k, per_class=per_class, n_samples=len(truths), n_classes=len(classes))


def gzsl_report(
    ranks: Sequence[int],
    truths: Sequence[str],
    split: SplitConfig,
    ks: Sequence[int] = (1, 2, 5),
) -> EvalReport:
    """Top-k report with seen/unseen breakdown and harmonic means.

    Ranks must have been taken against the joint seen+unseen candidate set.
    A missing seen (or unseen) sample subset leaves that breakdown absent and
    the harmonic mean at 0.
    """
    overall = topk_accuracy(ranks, truths, ks)
    ranks, labels = np.asarray(ranks), np.asarray(truths, dtype=str)

    def subset(ids: frozenset[str]) -> dict[int, float] | None:
        mask = np.isin(labels, sorted(ids))
        return topk_accuracy(ranks[mask], labels[mask].tolist(), ks).per_k if mask.any() else None

    seen, unseen = subset(split.seen_classes), subset(split.unseen_classes)
    harmonic = {k: harmonic_mean(seen[k] if seen else 0.0, unseen[k] if unseen else 0.0) for k in ks}
    return replace(overall, seen_per_k=seen, unseen_per_k=unseen, harmonic_per_k=harmonic)


def random_baseline(n_classes: int, ks: Sequence[int] = (1, 2, 5)) -> dict[int, float]:
    """Exact class-normalized top-k accuracy of a uniformly random ranking.

    The truth lands in each of the n_classes positions with probability 1/n,
    so every sample, and therefore every class whatever its size, is a top-k
    hit with probability min(k, n)/n. The expected accuracy is that rate
    times 100; oracles.brute_random_baseline estimates it by sampling.
    """
    if n_classes < 1:
        raise ValueError(f"the baseline needs at least one candidate class, got n_classes={n_classes}")
    for k in ks:
        if k < 1:
            raise ValueError(f"top-k needs k >= 1, got k={k}")
    return {k: 100.0 * min(k, n_classes) / n_classes for k in ks}
