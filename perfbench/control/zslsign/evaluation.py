"""Class-normalized top-k accuracy, GZSL summaries and the random baseline.

Accuracy is normalized by class sizes: the unweighted mean over classes of
per-class top-k hit rates, times 100. All percentages are kept at full
precision here; rounding to one decimal is a presentation concern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import SplitConfig
from .errors import EmptyEvaluationSet, UnrankedClass


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


def _per_class_rates(
    rankings: Sequence[Sequence[str]],
    truths: Sequence[str],
    ks: Sequence[int],
) -> dict[str, dict[int, float]]:
    if len(rankings) != len(truths):
        raise ValueError(f"{len(rankings)} rankings for {len(truths)} truths")
    if not truths:
        raise EmptyEvaluationSet("no samples to evaluate")
    if not ks or any(k < 1 for k in ks):
        raise ValueError(f"ks must be nonempty positive integers, got {list(ks)}")

    positions: dict[str, list[int]] = {}
    for i, (ranking, truth) in enumerate(zip(rankings, truths)):
        ranking = list(ranking)
        try:
            pos = ranking.index(truth)
        except ValueError:
            raise UnrankedClass(
                f"sample {i}: truth class {truth!r} absent from its candidate ranking"
            ) from None
        positions.setdefault(truth, []).append(pos)

    return {
        cid: {k: float(np.mean([pos < k for pos in pos_list])) for k in ks}
        for cid, pos_list in positions.items()
    }


def topk_accuracy(
    rankings: Sequence[Sequence[str]],
    truths: Sequence[str],
    ks: Sequence[int] = (1, 2, 5),
) -> EvalReport:
    """Class-normalized top-k accuracy over deterministic rankings."""
    per_class = _per_class_rates(rankings, truths, ks)
    ordered = sorted(per_class)
    per_k = {k: 100.0 * float(np.mean([per_class[c][k] for c in ordered])) for k in ks}
    return EvalReport(per_k=per_k, per_class=per_class, n_samples=len(truths), n_classes=len(per_class))


def gzsl_report(
    rankings: Sequence[Sequence[str]],
    truths: Sequence[str],
    split: SplitConfig,
    ks: Sequence[int] = (1, 2, 5),
) -> EvalReport:
    """Top-k report with seen/unseen breakdown and harmonic means.

    Rankings must have been produced against the joint seen+unseen candidate
    set. A missing seen (or unseen) sample subset leaves that breakdown absent
    and the harmonic mean at 0.
    """
    overall = topk_accuracy(rankings, truths, ks)

    def subset(ids: frozenset[str]) -> dict[int, float] | None:
        selected = [(r, t) for r, t in zip(rankings, truths) if t in ids]
        if not selected:
            return None
        sub = topk_accuracy([r for r, _ in selected], [t for _, t in selected], ks)
        return sub.per_k

    seen = subset(split.seen_classes)
    unseen = subset(split.unseen_classes)
    harmonic = {
        k: harmonic_mean(
            seen[k] if seen is not None else 0.0,
            unseen[k] if unseen is not None else 0.0,
        )
        for k in ks
    }
    return EvalReport(
        per_k=overall.per_k,
        per_class=overall.per_class,
        n_samples=overall.n_samples,
        n_classes=overall.n_classes,
        seen_per_k=seen,
        unseen_per_k=unseen,
        harmonic_per_k=harmonic,
    )


def random_baseline(
    n_classes: int,
    class_sizes: Mapping[str, int] | Sequence[int],
    ks: Sequence[int] = (1, 2, 5),
    trials: int = 10000,
    seed: int = 0,
) -> dict[int, float]:
    """Monte-Carlo class-normalized top-k accuracy of uniformly random rankings.

    Each trial draws, per sample, a uniform position of the truth class inside
    a random ranking of the n_classes candidates; the class-normalized top-k
    accuracy of the trial is then averaged over trials. Deterministic per seed.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    sizes = list(class_sizes.values()) if isinstance(class_sizes, Mapping) else list(class_sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("class_sizes must be nonempty positive counts")

    rng = np.random.default_rng(seed)
    total = sum(sizes)
    positions = rng.integers(0, n_classes, size=(trials, total), dtype=np.int32)

    bounds = np.cumsum([0] + sizes)
    out: dict[int, float] = {}
    for k in ks:
        hit = positions < k
        class_rates = np.stack(
            [hit[:, bounds[i] : bounds[i + 1]].mean(axis=1) for i in range(len(sizes))], axis=1
        )
        out[k] = float(100.0 * class_rates.mean(axis=1).mean())
    return out
