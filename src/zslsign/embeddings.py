"""Class-embedding composition from binary attributes and text vectors.

A class embedding is the attribute vector, a linearly reduced text vector, or
their concatenation (attributes first). ClassEmbeddingSet.compose is the one
composition path: it stacks every class of a candidate or training set into a
|C| x t matrix. The reduction matrix is a trainable parameter owned by the
model; composition itself is stateless. When the requested text width equals
the raw text width and no reduction matrix is supplied, the raw text vectors
are used directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import ClassDescriptor
from .errors import DimensionMismatch, MissingReduction


class ModeKind(Enum):
    ATTRIBUTES = "attr"
    TEXT = "text"
    COMBINED = "combined"


@dataclass(frozen=True)
class EmbeddingMode:
    """Which class information enters the embedding, and the reduced text width."""

    kind: ModeKind = ModeKind.ATTRIBUTES
    d_t: int = 64

    def __post_init__(self) -> None:
        if self.d_t < 1:
            raise ValueError(f"d_t must be >= 1, got {self.d_t}")

    @property
    def uses_text(self) -> bool:
        return self.kind in (ModeKind.TEXT, ModeKind.COMBINED)

    @property
    def uses_attributes(self) -> bool:
        return self.kind in (ModeKind.ATTRIBUTES, ModeKind.COMBINED)

    def embedding_dim(self, attribute_count: int) -> int:
        """Length t of the composed embedding under this mode."""
        text_part = self.d_t if self.uses_text else 0
        attr_part = attribute_count if self.uses_attributes else 0
        return attr_part + text_part


@dataclass(frozen=True)
class ClassEmbeddingSet:
    """Ordered per-class attribute/text blocks with a composition hook.

    This is the embedding provider handed to the trainers: it fixes the class
    ordering and re-composes the stacked embedding matrix for any reduction
    matrix, so gradients can flow through the text block during training.
    """

    class_ids: tuple[str, ...]
    attributes: np.ndarray  # |C| x A
    texts: np.ndarray  # |C| x D_text
    mode: EmbeddingMode

    @classmethod
    def from_descriptors(cls, descriptors: list[ClassDescriptor], mode: EmbeddingMode) -> "ClassEmbeddingSet":
        ordered = sorted(descriptors, key=lambda c: c.class_id)
        return cls(
            class_ids=tuple(c.class_id for c in ordered),
            attributes=np.stack([c.attributes for c in ordered]),
            texts=np.stack([c.text for c in ordered]),
            mode=mode,
        )

    @property
    def n_classes(self) -> int:
        return len(self.class_ids)

    @property
    def text_dim(self) -> int:
        return self.texts.shape[1]

    @property
    def embedding_dim(self) -> int:
        return self.mode.embedding_dim(self.attributes.shape[1])

    def index_of(self, class_id: str) -> int:
        try:
            return self.class_ids.index(class_id)
        except ValueError:
            raise KeyError(f"class {class_id!r} not in embedding set") from None

    def compose(self, reduction: np.ndarray | None = None) -> np.ndarray:
        """Stacked |C| x t class-embedding matrix; rows follow class_ids order."""
        mode = self.mode
        blocks = []
        if mode.uses_attributes:
            blocks.append(self.attributes)
        if mode.uses_text:
            if reduction is None:
                if mode.d_t != self.text_dim:
                    raise MissingReduction(
                        f"mode {mode.kind.value!r} with d_t={mode.d_t} needs a "
                        f"{self.text_dim}x{mode.d_t} reduction matrix"
                    )
                blocks.append(self.texts)
            else:
                if reduction.shape != (self.text_dim, mode.d_t):
                    raise DimensionMismatch(
                        f"reduction matrix is {reduction.shape}, expected ({self.text_dim}, {mode.d_t})"
                    )
                blocks.append(self.texts @ reduction)
        return np.hstack(blocks)
