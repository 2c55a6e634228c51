"""Bilinear compatibility models: training, scoring, truth ranks, persistence.

The compatibility score of a video embedding phi and class embedding rho is
the dense bilinear form phi' W rho; CompatModel.scores evaluates it for all
samples and classes at once as Phi W S', in whichever association costs fewer
multiply-adds for the shapes. Three trainers produce W:

* lle    - softmax cross-entropy with l2 penalty on W, minimized by
           deterministic full-batch gradient descent; a text-reduction matrix
           M is optimized jointly when the embedding mode calls for one. Each
           pass scores through the same Phi W S' path, exponentiates once, and
           shares one d x |C| product F'G between the gradients of W and M.
* eszsl  - ridge-style regression closed form
           W = (X X' + gamma I)^-1 X Y S' (S S' + lam I)^-1.
* sae    - auto-encoding projection: the minimum-norm solution P of the
           Sylvester equation S S' P + lam P X X' = (1 + lam) S X', as W = P'.

eszsl and sae share one closed form from thin SVDs of X and S; neither forms
a d x d or t x t matrix or solves a linear system.

Class posteriors p(c|v) are defined as the softmax of compatibility scores
over the active candidate set, matching the training loss. This is the
posterior the attribute-influence analysis differentiates. score_candidates
is the one path from a model, video embeddings and candidate descriptors to
the class-id-sorted candidate set and its score matrix; ranking and the
influence analysis both start from it. Evaluation reads the score matrix
directly: truth_ranks gives each sample the integer rank of its true class,
and the predicted class is the row's argmax.

A saved model is a JSON header plus a binary weights file beside it
(model.json and model.npy); the header binds the weights by the CRC-32 of
their values, and a header that still holds W inline is refused.
"""

from __future__ import annotations

import json
import math
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .data import ClassDescriptor, read_input, read_vector, write_vector
from .embeddings import ClassEmbeddingSet, EmbeddingMode, ModeKind
from .errors import (
    DegenerateData,
    DimensionMismatch,
    EmptyCandidates,
    InstanceTooLarge,
    NonFiniteLoss,
    SchemaMismatch,
    SingularSystem,
    UnrankedClass,
)

MAX_STEP_HALVINGS = 30


class Method(Enum):
    LLE = "lle"
    ESZSL = "eszsl"
    SAE = "sae"


@dataclass(frozen=True)
class TrainConfig:
    """Gradient-descent settings for the lle trainer."""

    lam: float = 1e-3
    learning_rate: float = 1e-2
    epochs: int = 1000
    seed: int = 0
    init_scale: float = 1e-3

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.init_scale <= 0:
            raise ValueError(f"init_scale must be > 0, got {self.init_scale}")


@dataclass(frozen=True)
class CompatModel:
    W: np.ndarray  # d x t
    M: np.ndarray | None  # D_text x d_t, present when the mode trains a reduction
    mode: EmbeddingMode
    method: Method
    hyperparams: dict[str, float]
    seed: int = 0
    epochs: int = 0
    final_loss: float = float("nan")
    d_text: int | None = None
    loss_history: tuple[float, ...] = field(default=(), compare=False)  # in-memory only

    def __post_init__(self) -> None:
        W = np.asarray(self.W, dtype=np.float64)
        if W.ndim != 2:
            raise ValueError(f"W must be a matrix, got ndim={W.ndim}")
        if not np.all(np.isfinite(W)):
            raise ValueError("W contains non-finite entries")
        object.__setattr__(self, "W", W)
        if self.M is not None:
            M = np.asarray(self.M, dtype=np.float64)
            if not np.all(np.isfinite(M)):
                raise ValueError("M contains non-finite entries")
            object.__setattr__(self, "M", M)

    @property
    def d(self) -> int:
        return self.W.shape[0]

    @property
    def t(self) -> int:
        return self.W.shape[1]

    def scores(self, features, class_matrix) -> np.ndarray:
        """Compatibility scores Phi W S' of each video embedding against each class row.

        features is one video embedding (length d) or an N x d matrix;
        class_matrix is |C| x t, as ClassEmbeddingSet.compose returns it.
        """
        phi = np.asarray(features, dtype=np.float64)
        S = np.asarray(class_matrix, dtype=np.float64)
        if len(S) == 0:
            raise EmptyCandidates("no candidate classes given")
        if phi.shape[-1] != self.d:
            raise DimensionMismatch(f"video embedding has length {phi.shape[-1]}, W expects {self.d}")
        if S.ndim != 2 or S.shape[1] != self.t:
            raise DimensionMismatch(f"class embeddings have shape {S.shape}, W expects length {self.t}")
        return _bilinear(phi, self.W, S)


def score_candidates(
    model: CompatModel, features, candidates: Sequence[ClassDescriptor]
) -> tuple[ClassEmbeddingSet, np.ndarray]:
    """The candidates as a class-id-sorted ClassEmbeddingSet in the model's mode, and the N x |C| scores."""
    classes = ClassEmbeddingSet.from_descriptors(list(candidates), model.mode)
    return classes, model.scores(features, classes.compose(model.M))


def posteriors(scores: np.ndarray) -> np.ndarray:
    """Row-wise max-shifted softmax over compatibility scores; rows sum to 1 within 1e-12."""
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _bilinear(features: np.ndarray, W: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Phi W S' in whichever association, (Phi W) S' or Phi (W S'), costs fewer multiply-adds.

    multi_dot decides from the shapes alone, so the same shapes always take the same path.
    """
    return np.linalg.multi_dot([features, W, S.T])


def truth_ranks(scores: np.ndarray, class_ids: Sequence[str], truths: Sequence[str]) -> np.ndarray:
    """0-based rank of each row's truth class in descending score order (ties: ascending class_id).

    The rank counts the columns that score above the truth, plus those that tie
    with it and come before it; the columns must follow ascending class_id, as
    ClassEmbeddingSet rows do. Rank 0 is the row's argmax (its first maximum).
    """
    ids = list(class_ids)
    if ids != sorted(ids):
        raise ValueError("score columns must follow ascending class_id order")
    scores = np.asarray(scores)
    if scores.shape != (len(truths), len(ids)):
        raise DimensionMismatch(f"scores have shape {scores.shape}, expected {len(truths)} x {len(ids)}")
    column = {cid: j for j, cid in enumerate(ids)}
    try:
        cols = np.array([column[t] for t in truths], dtype=np.intp)
    except KeyError as exc:
        raise UnrankedClass(f"truth class {exc.args[0]!r} is not among the {len(ids)} candidates") from None
    z = scores[np.arange(len(cols)), cols][:, None]
    before = np.arange(len(ids)) < cols[:, None]
    return np.count_nonzero((scores > z) | ((scores == z) & before), axis=1)


# ---------------------------------------------------------------------------
# lle: regularized softmax cross-entropy, full-batch gradient descent
# ---------------------------------------------------------------------------


def _label_indices(labels: Sequence[str], classes: ClassEmbeddingSet) -> np.ndarray:
    return np.array([classes.index_of(label) for label in labels], dtype=np.intp)


def _lle_forward(W, M, features, y, classes, lam) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Objective value, class matrix S, and the softmax pieces E = exp(Z - max) and s = E.sum(1) of one pass.

    The loss is mean(m + log s - z_y) + lam ||W||^2 for scores Z with row maxima m; E
    overwrites Z, so one N x |C| array holds scores, then numerators.
    """
    S = classes.compose(M)
    Z = _bilinear(features, W, S)
    z_y = Z[np.arange(len(y)), y]
    m = Z.max(axis=1)
    Z -= m[:, None]
    E = np.exp(Z, out=Z)
    s = E.sum(axis=1)
    loss = float(np.mean(np.log(s) - (z_y - m)) + lam * np.sum(W * W))
    return loss, S, E, s


def _lle_backward(W, M, features, y, classes, lam, S, E, s) -> tuple[np.ndarray, np.ndarray | None]:
    """Gradients with respect to W (and M if present) from a forward pass at (W, M); E is overwritten.

    With G = E / (n s) - onehot / n, both gradients share FG = F'G (d x |C|):
    grad_W = FG S + 2 lam W and grad_M = T' (FG' W_text).
    """
    n = len(y)
    G = np.divide(E, (n * s)[:, None], out=E)
    G[np.arange(n), y] -= 1.0 / n
    FG = features.T @ G
    grad_W = FG @ S + 2.0 * lam * W
    grad_M = None
    if M is not None:
        offset = classes.attributes.shape[1] if classes.mode.uses_attributes else 0  # text columns of W
        grad_M = classes.texts.T @ (FG.T @ W[:, offset:])
    return grad_W, grad_M


def train_lle(
    features: np.ndarray,
    labels: Sequence[str],
    classes: ClassEmbeddingSet,
    cfg: TrainConfig = TrainConfig(),
) -> CompatModel:
    """Fit W (and, in text-reducing modes, M) by deterministic gradient descent.

    Each epoch takes one full-batch step; if the step would increase the loss
    the step size is halved, up to MAX_STEP_HALVINGS times, before giving up
    with NonFiniteLoss. Same seed and config therefore reproduce the exact
    same parameters. A trial step costs one forward pass (scores, one max-shifted
    exp, the loss); only an accepted step adds the backward pass, which turns
    that pass's exp into G = softmax/n - onehot/n and shares F'G between
    grad_W = F'G S + 2 lam W and grad_M = T' (F'G)' W_text.
    """
    features = np.asarray(features, dtype=np.float64)
    if classes.n_classes < 2:
        raise DegenerateData(f"need at least 2 seen classes to train, got {classes.n_classes}")
    if features.ndim != 2 or features.shape[0] != len(labels):
        raise DimensionMismatch(
            f"features must be N x d with one row per label, got {features.shape} for {len(labels)} labels"
        )

    d = features.shape[1]
    t = classes.embedding_dim
    mode = classes.mode
    trains_reduction = mode.uses_text and mode.d_t != classes.text_dim

    rng = np.random.default_rng(cfg.seed)
    W = rng.uniform(-cfg.init_scale, cfg.init_scale, size=(d, t))
    M = rng.uniform(-cfg.init_scale, cfg.init_scale, size=(classes.text_dim, mode.d_t)) if trains_reduction else None

    y = _label_indices(labels, classes)
    loss, *forward = _lle_forward(W, M, features, y, classes, cfg.lam)
    if not math.isfinite(loss):
        raise NonFiniteLoss(f"initial loss is {loss}")
    grad_W, grad_M = _lle_backward(W, M, features, y, classes, cfg.lam, *forward)
    history = [loss]

    # at a converged point the theoretical decrease of a tiny step underflows and
    # re-evaluation noise sits a few ulps above the current loss; treat that as a plateau
    plateau_tol = 32.0 * np.finfo(np.float64).eps * max(1.0, abs(loss))
    for _ in range(cfg.epochs):
        step = cfg.learning_rate
        moved = False
        loss_try = math.inf
        for _attempt in range(MAX_STEP_HALVINGS + 1):
            W_try = W - step * grad_W
            M_try = M - step * grad_M if M is not None else None
            loss_try, *forward = _lle_forward(W_try, M_try, features, y, classes, cfg.lam)
            if math.isfinite(loss_try) and loss_try <= loss:
                W, M, loss = W_try, M_try, loss_try
                moved = True
                break
            step *= 0.5
        if moved:
            grad_W, grad_M = _lle_backward(W, M, features, y, classes, cfg.lam, *forward)
        elif not (math.isfinite(loss_try) and loss_try - loss <= plateau_tol):
            raise NonFiniteLoss(
                f"step halving exhausted after {MAX_STEP_HALVINGS} halvings at loss {loss!r}"
            )
        history.append(loss)

    return CompatModel(
        W=W,
        M=M,
        mode=mode,
        method=Method.LLE,
        hyperparams={"lam": cfg.lam, "learning_rate": cfg.learning_rate, "init_scale": cfg.init_scale},
        seed=cfg.seed,
        epochs=cfg.epochs,
        final_loss=history[-1],
        d_text=classes.text_dim if mode.uses_text else None,
        loss_history=tuple(history),
    )


# ---------------------------------------------------------------------------
# eszsl and sae: closed forms from thin SVDs
# ---------------------------------------------------------------------------


def _kept_svd(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD M = U diag(s) Vh without singular values at or below max(shape) * eps * s_max (matrix_rank's cut)."""
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    keep = s > max(M.shape) * np.finfo(np.float64).eps * s.max(initial=0.0)
    return U[:, keep], s[keep], Vh[keep]


@contextmanager
def _closed_form_errors(method: Method, solve: str, t: int, d: int, n: int, largest: int) -> Iterator[None]:
    """Turn a closed form's MemoryError into InstanceTooLarge and a failed SVD into SingularSystem."""
    try:
        yield
    except MemoryError:
        nbytes = largest * np.dtype(np.float64).itemsize
        raise InstanceTooLarge(
            f"{method.value}: the {solve} for t={t}, d={d}, N={n} could not allocate its operands "
            f"(the largest is {nbytes} bytes, {nbytes / 2**30:.1f} GiB)"
        ) from None
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"{method.value}: singular value decomposition failed: {exc}") from None


def _svd_closed_form(A, B, mixing, scale, denominator, zero_rhs: str) -> np.ndarray:
    """U [scale a_i (Vh mixing Wh')_ij b_j / denominator(a_i, b_j)] P' from A = U diag(a) Vh and B = P diag(b) Wh.

    Both SVDs are cut by _kept_svd; mixing None is the identity. The right-hand side lies in
    range(A) x range(B), so cut singular values carry none of it. A projected middle within
    rounding of zero (relative to ||mixing||) raises SingularSystem(zero_rhs), not noise.
    """
    U, a, Vh = _kept_svd(A)
    P, b, Wh = _kept_svd(B)
    middle = Vh @ Wh.T if mixing is None else Vh @ mixing @ Wh.T
    norm = 1.0 if mixing is None else np.linalg.norm(mixing)
    if np.abs(middle).max(initial=0.0) <= (Vh.shape[1] + Wh.shape[1]) * np.finfo(np.float64).eps * norm:
        raise SingularSystem(zero_rhs)
    return U @ (scale * a[:, None] * middle * b / denominator(a[:, None], b)) @ P.T


def train_eszsl(
    features: np.ndarray,
    labels: Sequence[str],
    classes: ClassEmbeddingSet,
    gamma: float = 1e-3,
    lam: float = 1e-3,
) -> CompatModel:
    """Ridge solution W = (X X' + gamma I)^-1 X Y S' (S S' + lam I)^-1 with +1/-1 class targets Y.

    With thin SVDs X = V diag(x) Z' (d x N) and S = Q diag(s) R' (t x |C|) it is exactly
    W = V [x_i / (x_i^2 + gamma) (Z'YR)_ij s_j / (s_j^2 + lam)] Q': no d x d or t x t matrix is
    formed and nothing is solved. gamma and lam must be > 0. The closed form fits no reduction, so a
    text-bearing mode needs d_t equal to the raw text width. Errors are as in sae.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    if lam <= 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    from .oracles import eszsl_objective  # the reference module, loaded only by the commands that fit eszsl

    X = np.asarray(features, dtype=np.float64).T  # d x N
    S = classes.compose().T  # t x |C|
    (d, n), (t, c) = X.shape, S.shape
    with _closed_form_errors(Method.ESZSL, "ridge solve", t, d, n, max(d * n, t * c, d * t, n * c)):
        Y = np.where(np.arange(c) == _label_indices(labels, classes)[:, None], 1.0, -1.0)
        zero = "eszsl: X Y S' is zero, so the ridge solution is zero"
        W = _svd_closed_form(X, S, Y, 1.0, lambda x, s: (x**2 + gamma) * (s**2 + lam), zero)
        final_loss = eszsl_objective(W, X, S, Y, gamma, lam)

    return CompatModel(
        W=W,
        M=None,
        mode=classes.mode,
        method=Method.ESZSL,
        hyperparams={"gamma": gamma, "lam": lam},
        final_loss=final_loss,
        d_text=classes.text_dim if classes.mode.uses_text else None,
    )


_RESIDUAL_ROWS = 64  # rows of P per block of sae's residual: no t x d temporary is formed


def _sylvester_residual(P: np.ndarray, S: np.ndarray, X: np.ndarray, lam: float) -> float:
    """oracles.sylvester_residual of P, one block of _RESIDUAL_ROWS rows of P at a time.

    Each block's rows of S S' P + lam P X X' and (1 + lam) S X' are formed as
    the oracle forms them, through the sample dimension, and only their sums of
    squares are kept. The sums add up in another order than the oracle's one
    norm over all rows, so the two agree to rounding, not bit for bit.
    """
    SP = S.T @ P  # N x d
    misfit = scale = np.float64(0.0)
    for start in range(0, P.shape[0], _RESIDUAL_ROWS):
        rows = slice(start, start + _RESIDUAL_ROWS)
        rhs = ((1.0 + lam) * S[rows] @ X.T).ravel()
        diff = S[rows] @ SP
        diff += lam * (P[rows] @ X) @ X.T
        diff = diff.ravel()
        diff -= rhs
        misfit += diff @ diff
        scale += rhs @ rhs
    return float(np.sqrt(misfit) / np.sqrt(scale))


def train_sae(
    features: np.ndarray,
    labels: Sequence[str],
    classes: ClassEmbeddingSet,
    lam_sae: float = 1e-3,
) -> CompatModel:
    """Fit the semantic auto-encoder projection and store it as a compatibility W.

    Solves S S' P + lam P X X' = (1 + lam) S X' for the t x d projection P,
    with S holding one class-embedding column per training sample; W = P'.
    With thin SVDs S = Q diag(s) R' and X = V diag(x) Z' the minimum-norm
    solution is P = Q [(1 + lam) s_i (R'Z)_ij x_j / (s_i^2 + lam x_j^2)] V',
    where every kept denominator is positive.
    """
    if lam_sae <= 0:
        raise ValueError(f"lam_sae must be > 0, got {lam_sae}")
    X = np.asarray(features, dtype=np.float64).T  # d x N
    S = classes.compose()[_label_indices(labels, classes)].T  # t x N, one column per sample
    (t, n), d = S.shape, X.shape[0]
    with _closed_form_errors(Method.SAE, "Sylvester solve", t, d, n, max(t * n, d * n, t * d)):
        zero = "sae: (1 + lam) S X' is zero, so the minimum-norm projection is zero"
        P = _svd_closed_form(S, X, None, 1.0 + lam_sae, lambda s, x: s**2 + lam_sae * x**2, zero)
        residual = _sylvester_residual(P, S, X, lam_sae)
    if not math.isfinite(residual):
        raise SingularSystem(f"sylvester solve produced non-finite residual {residual!r}")

    return CompatModel(
        W=P.T,
        M=None,
        mode=classes.mode,
        method=Method.SAE,
        hyperparams={"lam_sae": lam_sae},
        final_loss=residual,
        d_text=classes.text_dim if classes.mode.uses_text else None,
    )


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def save_model(model: CompatModel, path: str | Path) -> Path:
    """Write the model as a JSON header at path plus its weights in <stem>.npy beside it.

    The .npy file holds W.ravel() then M.ravel() as one little-endian float64
    vector (data.write_vector), so the values round-trip bit for bit. The
    header names that file and carries the CRC-32 of its values, which binds
    the two files of one save together.
    """
    path = Path(path)
    weights = path.with_suffix(".npy")
    parts = [model.W.ravel()] + ([model.M.ravel()] if model.M is not None else [])
    path.parent.mkdir(parents=True, exist_ok=True)
    crc = write_vector(weights, np.concatenate(parts))
    doc = {
        "method": model.method.value,
        "mode": model.mode.kind.value,
        "d": model.d,
        "t": model.t,
        "d_text": model.d_text,
        "d_t": model.mode.d_t,
        "has_M": model.M is not None,
        "weights": weights.name,
        "weights_crc32": crc,
        "hyperparams": {k: float(v) for k, v in sorted(model.hyperparams.items())},
        "seed": model.seed,
        "epochs": model.epochs,
        "final_loss": float(model.final_loss),
    }
    path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
    return path


def load_model(path: str | Path) -> CompatModel:
    """Read a model written by save_model; a header that disagrees with its weights is a SchemaMismatch."""
    path = Path(path)
    try:
        doc = json.loads(read_input(path, "model file").decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaMismatch(f"model file {path} is not valid JSON: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise SchemaMismatch(f"model file {path}: top level must be a JSON object")
    if "W" in doc:
        raise SchemaMismatch(
            f"model file {path} holds W inline, an older format that is no longer read; "
            f"retrain the model to write its weights to {path.with_suffix('.npy').name}"
        )

    try:
        method = Method(doc["method"])
        mode = EmbeddingMode(kind=ModeKind(doc["mode"]), d_t=doc["d_t"])
        d, t = int(doc["d"]), int(doc["t"])
        d_text = doc["d_text"]
        has_m = doc["has_M"]
        name = doc["weights"]
        crc = doc["weights_crc32"]
    except (KeyError, ValueError, TypeError) as exc:
        raise SchemaMismatch(f"model file {path} is missing or corrupts a schema field: {exc}") from None
    if d < 1 or t < 1 or type(has_m) is not bool or not isinstance(name, str):
        raise SchemaMismatch(f"model file {path}: corrupt d, t, has_M or weights field")
    if has_m and not (type(d_text) is int and d_text >= 1):
        raise SchemaMismatch(f"model file {path}: M present but d_text is {d_text!r}")

    weights = path.parent / name
    try:
        flat = read_vector(read_input(weights, "model weights file"))
    except ValueError as exc:
        raise SchemaMismatch(f"model weights {weights} are not a float64 npy vector: {exc}") from None
    m_size = d_text * mode.d_t if has_m else 0
    if flat.size != d * t + m_size:
        expected = f"{d}x{t}" + (f" + {d_text}x{mode.d_t}" if has_m else "")
        raise SchemaMismatch(f"model weights {weights} hold {flat.size} values, header {path} says {expected}")
    if zlib.crc32(flat) != crc:
        raise SchemaMismatch(f"model weights {weights} do not match the CRC-32 in {path} (another save's file?)")
    W = flat[: d * t].reshape(d, t)
    M = flat[d * t :].reshape(d_text, mode.d_t) if has_m else None

    return CompatModel(
        W=W,
        M=M,
        mode=mode,
        method=method,
        hyperparams=dict(doc.get("hyperparams", {})),
        seed=int(doc.get("seed", 0)),
        epochs=int(doc.get("epochs", 0)),
        final_loss=float(doc["final_loss"]),
        d_text=d_text,
    )
