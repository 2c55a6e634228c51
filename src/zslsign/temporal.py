"""Temporal aggregation of feature sequences into fixed-length video embeddings.

Two aggregators are provided: plain temporal average pooling, and a 1-D
temporal-shift multiply-accumulate kernel that mixes each snippet row with its
immediate neighbours (zero-filled at the sequence boundary) before pooling.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EmptySequence


class AggregatorKind(Enum):
    AVERAGE_POOL = "avgpool"
    TEMPORAL_SHIFT_MAC = "tsm"


@dataclass(frozen=True)
class AggregatorSpec:
    """Configuration of the sequence aggregator.

    weights are the (previous, current, next) taps of the shift kernel and are
    only consulted for the TEMPORAL_SHIFT_MAC kind. Out-of-range rows are
    zero-filled; this is the only boundary policy supported.
    """

    kind: AggregatorKind = AggregatorKind.AVERAGE_POOL
    weights: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self) -> None:
        w = tuple(float(v) for v in self.weights)
        if len(w) != 3:
            raise ValueError(f"shift kernel needs exactly 3 weights, got {len(w)}")
        if not all(np.isfinite(w)):
            raise ValueError(f"shift kernel weights must be finite, got {w}")
        object.__setattr__(self, "weights", w)


def aggregate(mat: np.ndarray, spec: AggregatorSpec) -> np.ndarray:
    """Pool a T x d sequence into one d-vector.

    Pooling is linear, so the shift kernel folds into the column sums S: the
    zero-filled backward shift sums to S - x_last and the forward shift to
    S - x_first, giving (w1 (S - x_last) + w2 S + w3 (S - x_first)) / T.
    Average pooling is S / T, which is exactly numpy's mean.
    """
    if mat.ndim != 2 or mat.shape[0] < 1:
        raise EmptySequence(f"expected a nonempty T x d matrix, got shape {mat.shape}")
    total = mat.sum(axis=0)
    if spec.kind is AggregatorKind.AVERAGE_POOL:
        return total / mat.shape[0]
    w1, w2, w3 = spec.weights
    return (w1 * (total - mat[-1]) + w2 * total + w3 * (total - mat[0])) / mat.shape[0]


def embed_video(body: np.ndarray, hand: np.ndarray | None, spec: AggregatorSpec) -> np.ndarray:
    """Video embedding: the body frames aggregated, then the hand frames when given, concatenated."""
    parts = [aggregate(body, spec)]
    if hand is not None:
        parts.append(aggregate(hand, spec))
    return np.concatenate(parts)
