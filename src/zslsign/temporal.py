"""Temporal aggregation of feature sequences into fixed-length video embeddings.

Two aggregators are provided: plain temporal average pooling, and a 1-D
temporal-shift multiply-accumulate kernel that mixes each snippet row with its
immediate neighbours (zero-filled at the sequence boundary) before pooling.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import FeatureSequence, Sample
from .errors import EmptySequence, MissingHandStream


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


def _matrix(seq: FeatureSequence | np.ndarray) -> np.ndarray:
    mat = seq.data if isinstance(seq, FeatureSequence) else np.asarray(seq, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] < 1:
        raise EmptySequence(f"expected a nonempty T x d matrix, got shape {mat.shape}")
    return mat


def average_pool(seq: FeatureSequence | np.ndarray) -> np.ndarray:
    """Column means over snippet rows."""
    return _matrix(seq).mean(axis=0)


def shift_1d(seq: FeatureSequence | np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward-, identity- and forward-shifted copies of the row sequence.

    Row i of the backward shift is input row i-1 (row 0 becomes zeros); row i
    of the forward shift is input row i+1 (last row becomes zeros).
    """
    mat = _matrix(seq)
    minus = np.zeros_like(mat)
    plus = np.zeros_like(mat)
    minus[1:] = mat[:-1]
    plus[:-1] = mat[1:]
    return minus, mat.copy(), plus


def tsm_aggregate(seq: FeatureSequence | np.ndarray, spec: AggregatorSpec) -> np.ndarray:
    """Shift-multiply-accumulate with a 3-tap kernel, then average pool.

    With weights (0, 1, 0) this reduces exactly to average_pool.
    """
    if spec.kind is not AggregatorKind.TEMPORAL_SHIFT_MAC:
        raise ValueError(f"tsm_aggregate needs a TEMPORAL_SHIFT_MAC spec, got {spec.kind}")
    w1, w2, w3 = spec.weights
    minus, zero, plus = shift_1d(seq)
    mixed = w1 * minus + w2 * zero + w3 * plus
    return mixed.mean(axis=0)


def aggregate(seq: FeatureSequence | np.ndarray, spec: AggregatorSpec) -> np.ndarray:
    if spec.kind is AggregatorKind.AVERAGE_POOL:
        return average_pool(seq)
    return tsm_aggregate(seq, spec)


def embed_video(sample: Sample, spec: AggregatorSpec, use_hand: bool = False) -> np.ndarray:
    """Video embedding: each stream aggregated, then concatenated body first, hand second."""
    parts = [aggregate(sample.body, spec)]
    if use_hand:
        hand = sample.hand
        if hand is None:
            raise MissingHandStream(f"sample {sample.sample_id!r} has no hand sequence")
        parts.append(aggregate(hand, spec))
    return np.concatenate(parts)
