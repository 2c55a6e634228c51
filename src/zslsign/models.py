"""Bilinear compatibility models: training, scoring, truth ranks, persistence.

The compatibility score of a video embedding phi and class embedding rho is
the dense bilinear form phi' W rho; CompatModel.scores evaluates it for all
samples and classes at once as Phi W S', in whichever association costs fewer
multiply-adds for the shapes. Three trainers produce W:

* lle    - softmax cross-entropy with l2 penalty on W and M, minimized by
           deterministic full-batch gradient descent with Barzilai-Borwein
           steps until it converges (epochs is a cap); a text-reduction matrix
           M is optimized jointly when the embedding mode calls for one. Each
           pass scores class-major, Z' = S W' F' (|C| x N, one column per
           sample), through the same bilinear helper as Phi W S', so every
           per-sample softmax step runs down a column. It exponentiates once,
           and one |C| x d product G'F serves the gradients of W and M. A fit
           composes its class matrix once and rewrites only its text block.
* eszsl  - ridge-style regression closed form
           W = (X X' + gamma I)^-1 X Y S' (S S' + lam I)^-1.
* sae    - auto-encoding projection: the minimum-norm solution P of the
           Sylvester equation S S' P + lam P X X' = (1 + lam) S X', as W = P'.

eszsl and sae share one closed form from thin SVDs of X and of a t x |C| class
matrix, and read the objective they minimize off its core; neither forms a
t x N, d x d or t x t matrix or solves a linear system. Each trainer takes its
hyperparameters as keywords and checks them first against its row of HYPERPARAMETERS.

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

from .data import ClassDescriptor, parse_json, read_input, read_vector, write_vector
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
MAX_STEP_GROWTH = 4.0  # a Barzilai-Borwein step is at most this multiple of the last accepted step
STOP_WINDOW = 10  # epochs over which the convergence stop reads the loss's relative decrease
STOP_TOLERANCE = 1e-4  # a decrease over STOP_WINDOW epochs at or below this fraction of the loss ends a fit
BLOCK_ROWS = 64  # rows per block of lle's elementwise passes over W, M and their gradients


class Method(Enum):
    LLE = "lle"
    ESZSL = "eszsl"
    SAE = "sae"


def is_json_number(value) -> bool:
    """A finite int or float: what a strict JSON number parses to (true and false are bools, not numbers)."""
    return type(value) in (int, float) and math.isfinite(value)


def _check_bound(key: str, value: float, low: float, strict: bool) -> None:
    """Refuse a value below low (or at it, when strict) or not finite, naming key and value."""
    if value < low or (strict and value == low):
        raise ValueError(f"{key} must be {'>' if strict else '>='} {low}, got {value}")
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value}")


# each method's hyperparameters, in check order: (name, low, strict) refuses a value below low, or at it when strict
HYPERPARAMETERS: dict[Method, tuple[tuple[str, float, bool], ...]] = {
    Method.LLE: (("lam", 0, False), ("learning_rate", 0, True), ("epochs", 1, False), ("init_scale", 0, True),
                 ("seed", 0, False)),
    Method.ESZSL: (("gamma", 0, True), ("lam", 0, True)),
    Method.SAE: (("lam_sae", 0, True),),
}


def check_hyperparameters(method: Method, **values: float) -> None:
    """Refuse the first of the method's values, in HYPERPARAMETERS order, that is out of range or not finite."""
    for name, low, strict in HYPERPARAMETERS[method]:
        _check_bound(name, values[name], low, strict)


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
    stop: str | None = field(default=None, compare=False)  # in-memory only: what ended an lle fit (see train_lle)

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


class _LleFit:
    """One lle fit's fixed operands, laid out for class-major scores Z' = S W' F' (|C| x N).

    Each sample's scores are a column of Z', so every per-sample reduction runs down columns
    over contiguous rows. truth holds the flat index of each sample's true-class score in Z'.
    F is only read, through transposed views, never copied. S is composed once, at the
    reduction M the fit starts from; class_matrix(M) writes T M into its text block in place
    (the attribute block stays as written), and without a reduction S is never recomposed.
    """

    def __init__(self, features: np.ndarray, labels: Sequence[str], classes: ClassEmbeddingSet, lam: float, M) -> None:
        n = len(labels)
        self.features = features
        self.truth = _label_indices(labels, classes) * n + np.arange(n)
        self.lam = lam
        self.texts = classes.texts
        self.offset = classes.attributes.shape[1] if classes.mode.uses_attributes else 0  # text columns of W and S
        self.S = classes.compose(M)

    def class_matrix(self, M) -> np.ndarray:
        """S at reduction M (|C| x t); valid until the next call."""
        if M is not None:
            np.matmul(self.texts, M, out=self.S[:, self.offset :])
        return self.S


def _inner(W1, M1, W2, M2) -> float:
    """<(W1, M1), (W2, M2)>: the inner product of two (W, M) pairs as vectors; M1 and M2 are both None without M."""
    return float(np.vdot(W1, W2) + (np.vdot(M1, M2) if M1 is not None else 0.0))


def _row_blocks(n_rows: int) -> Iterator[slice]:
    return (slice(start, start + BLOCK_ROWS) for start in range(0, n_rows, BLOCK_ROWS))


def _add_decay(grad: np.ndarray, lam: float, param: np.ndarray) -> None:
    """grad += 2 lam param, BLOCK_ROWS rows at a time, so that no temporary is param's size."""
    for rows in _row_blocks(len(param)):
        grad[rows] += 2.0 * lam * param[rows]


def _lle_forward(W, M, fit: _LleFit) -> tuple[float, np.ndarray, np.ndarray]:
    """Objective value and the softmax pieces E = exp(Z' - m) and s = column sums of E of one pass.

    For class-major scores Z' with column maxima m, the loss is mean(m + log s - z_y) + lam (||W||^2 + ||M||^2).
    E overwrites Z', so one |C| x N array holds scores, then numerators.
    """
    Z = _bilinear(fit.class_matrix(M), W.T, fit.features)
    z_y = Z.take(fit.truth)
    m = Z.max(axis=0)
    Z -= m
    E = np.exp(Z, out=Z)
    s = E.sum(axis=0)
    loss = float((np.log(s) - (z_y - m)).sum() / len(s) + fit.lam * _inner(W, M, W, M))
    return loss, E, s


def _lle_backward(W, M, fit: _LleFit, E, s) -> tuple[np.ndarray, np.ndarray | None]:
    """Gradients with respect to W (and M if present) from the forward pass just taken at (W, M); E is overwritten.

    With G' = E / (n s) - onehot / n (|C| x N), both gradients share GF = G'F (|C| x d):
    grad_W = GF' S + 2 lam W and grad_M = T' (GF W_text) + 2 lam M.
    """
    n = len(s)
    G = np.divide(E, n * s, out=E)
    G.reshape(-1)[fit.truth] -= 1.0 / n  # E is the C-contiguous product of _bilinear, so this is a view
    GF = G @ fit.features
    grad_W = GF.T @ fit.S
    _add_decay(grad_W, fit.lam, W)
    grad_M = None
    if M is not None:
        grad_M = fit.texts.T @ (GF @ W[:, fit.offset :])
        _add_decay(grad_M, fit.lam, M)
    return grad_W, grad_M


def _gradient_change(old, new) -> tuple[float, float]:
    """<g_old, y> and <y, y> for y = g - g_old over W and M together; old and new are (grad_W, grad_M) pairs.

    y is formed BLOCK_ROWS rows at a time, so no array of a gradient's size is kept. An entry of y
    whose g and g_old agree within a factor 2, as near convergence, is exact; the same two numbers
    read off ||g_old||^2, <g_old, g> and ||g||^2 would lose eps ||g||^2 / ||y||^2 of their size to
    cancellation.
    """
    g_old_y = y_y = 0.0
    for g_old, g in zip(old, new):
        if g is None:
            continue
        for rows in _row_blocks(len(g)):
            y = g[rows] - g_old[rows]
            g_old_y += float(np.vdot(g_old[rows], y))
            y_y += float(np.vdot(y, y))
    return g_old_y, y_y


def _next_step(step: float, g_old_y: float, y_y: float) -> float:
    """The first trial step after an accepted step of size step: BB2 = s'y / y'y, at most MAX_STEP_GROWTH * step.

    With s = -step g_old and y = g - g_old over W and M together (_gradient_change gives <g_old, y>
    and y'y), s'y = -step <g_old, y>. When s'y or y'y is not positive, or the quotient is not
    finite, the accepted step is kept.
    """
    sy, yy = -step * g_old_y, y_y
    if not (sy > 0.0 and yy > 0.0 and math.isfinite(sy / yy)):
        return step
    return min(sy / yy, MAX_STEP_GROWTH * step)


def train_lle(
    features: np.ndarray,
    labels: Sequence[str],
    classes: ClassEmbeddingSet,
    lam: float = 1e-3,
    learning_rate: float = 1e-2,
    epochs: int = 1000,
    seed: int = 0,
    init_scale: float = 1e-3,
) -> CompatModel:
    """Fit W (and, in text-reducing modes, M) by deterministic gradient descent with Barzilai-Borwein steps.

    The objective is mean softmax cross-entropy + lam (||W||^2 + ||M||^2); the penalty on M gives it
    a minimum, since scaling M by c and W's text block by 1/c leaves every score as it is. W and M start
    uniform in [-init_scale, init_scale], drawn from seed (W first). Each epoch tries one full-batch step
    along the negative gradient of W and M together, halving the step after a trial whose loss is not
    finite or rises, up to MAX_STEP_HALVINGS times; the first trial that does not rise is taken. Epoch 1 first
    tries learning_rate; each later epoch first tries the BB2 step s'y / y'y of the step just taken
    (_next_step), at most MAX_STEP_GROWTH times that step. A fit ends after the epoch that
    * accepts no step: "plateau", when its last trial rose by at most 32 eps max(1, |initial loss|),
      which is rounding at a converged point; otherwise it raises NonFiniteLoss;
    * brings the loss to within STOP_TOLERANCE of it, relative, of the loss STOP_WINDOW epochs before:
      "tolerance";
    * is the epochs-th: "cap".
    So epochs is a cap and learning_rate a first step. The model records the epochs run, the loss
    after each (loss_history, the initial loss first) and which of the three ended the fit (stop).
    The same seed and hyperparameters reproduce the exact same parameters.

    A trial step costs one forward pass (class-major scores S W' F', one max-shifted exp down each
    sample's column, the loss); only an accepted step adds the backward pass, which turns that pass's
    exp into G' = softmax/n - onehot/n and shares G'F between grad_W = (G'F)' S + 2 lam W and
    grad_M = T' (G'F W_text) + 2 lam M. The penalty terms and the step rule's gradient difference
    are formed BLOCK_ROWS rows at a time, so neither keeps an array of W's or M's size. The fit's
    operands live in one _LleFit: F is never copied, and the class matrix is one buffer whose text
    block T M each trial rewrites in place.
    """
    check_hyperparameters(
        Method.LLE, lam=lam, learning_rate=learning_rate, epochs=epochs, init_scale=init_scale, seed=seed
    )
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

    rng = np.random.default_rng(seed)
    W = rng.uniform(-init_scale, init_scale, size=(d, t))
    M = rng.uniform(-init_scale, init_scale, size=(classes.text_dim, mode.d_t)) if trains_reduction else None

    fit = _LleFit(features, labels, classes, lam, M)
    loss, *forward = _lle_forward(W, M, fit)
    if not math.isfinite(loss):
        raise NonFiniteLoss(f"initial loss is {loss}")
    grad_W, grad_M = _lle_backward(W, M, fit, *forward)
    history = [loss]

    # at a converged point the theoretical decrease of a tiny step underflows and
    # re-evaluation noise sits a few ulps above the current loss; treat that as a plateau
    plateau_tol = 32.0 * np.finfo(np.float64).eps * max(1.0, abs(loss))
    first_step = learning_rate
    stop = "cap"
    for _ in range(epochs):
        step = first_step
        moved = False
        loss_try = math.inf
        for _attempt in range(MAX_STEP_HALVINGS + 1):
            W_try = M_try = forward = None  # freed before the next trial forms, or they set the fit's memory peak
            W_try = W - step * grad_W
            M_try = M - step * grad_M if M is not None else None
            loss_try, *forward = _lle_forward(W_try, M_try, fit)
            if math.isfinite(loss_try) and loss_try <= loss:
                W, M, loss = W_try, M_try, loss_try
                moved = True
                break
            step *= 0.5
        history.append(loss)
        if not moved:
            if not (math.isfinite(loss_try) and loss_try - loss <= plateau_tol):
                raise NonFiniteLoss(
                    f"step halving exhausted after {MAX_STEP_HALVINGS} halvings at loss {loss!r}"
                )
            stop = "plateau"
            break
        old = grad_W, grad_M
        grad_W, grad_M = _lle_backward(W, M, fit, *forward)
        first_step = _next_step(step, *_gradient_change(old, (grad_W, grad_M)))
        del old  # so the next epoch's trials run beside one gradient, not two
        if len(history) > STOP_WINDOW and history[-1 - STOP_WINDOW] - loss <= STOP_TOLERANCE * abs(loss):
            stop = "tolerance"
            break

    return CompatModel(
        W=W,
        M=M,
        mode=mode,
        method=Method.LLE,
        hyperparams={"lam": lam, "learning_rate": learning_rate, "init_scale": init_scale},
        seed=seed,
        epochs=len(history) - 1,
        final_loss=history[-1],
        d_text=classes.text_dim if mode.uses_text else None,
        loss_history=tuple(history),
        stop=stop,
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
def _closed_form_errors(method: Method, solve: str, X: np.ndarray, classes: ClassEmbeddingSet) -> Iterator[None]:
    """Turn a closed form's MemoryError into InstanceTooLarge and a failed SVD into SingularSystem."""
    try:
        yield
    except MemoryError:
        (d, n), t, c = X.shape, classes.embedding_dim, classes.n_classes  # operands d x N, t x |C|, d x t, N x |C|
        nbytes = max(d * n, t * c, d * t, n * c) * np.dtype(np.float64).itemsize
        raise InstanceTooLarge(
            f"{method.value}: the {solve} for t={t}, d={d}, N={n} could not allocate its operands "
            f"(the largest is {nbytes} bytes, {nbytes / 2**20:.1f} MiB)"
        ) from None
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"{method.value}: singular value decomposition failed: {exc}") from None


def _svd_closed_form(A, B, mixing, scale, denominator, total, zero_rhs) -> tuple[np.ndarray, float]:
    """The solution U core P' from A = U diag(a) Vh and B = P diag(b) Wh, and the objective it minimizes.

    numer = scale a_i (Vh mixing Wh')_ij b_j and core = numer / denominator(a_i, b_j). The objective is a quadratic
    with right-hand side U numer P' and value total(a, b) at zero (read off the singular values, so no caller keeps
    A), so its minimum is that less <core, numer>. The cuts of _kept_svd lose none of the right-hand side, which
    lies in range(A) x range(B). A middle that is all rounding (relative to ||mixing||) raises SingularSystem(zero_rhs).
    """
    U, a, Vh = _kept_svd(A)
    P, b, Wh = _kept_svd(B)
    middle = Vh @ mixing @ Wh.T
    if np.abs(middle).max(initial=0.0) <= (Vh.shape[1] + Wh.shape[1]) * np.finfo(float).eps * np.linalg.norm(mixing):
        raise SingularSystem(zero_rhs)
    del A, B, mixing  # operands passed as expressions are freed before the t x d product, the fit's memory peak
    numer = scale * a[:, None] * middle * b
    core = numer / denominator(a[:, None], b)
    objective = float(total(a, b) - np.vdot(core, numer))
    del middle, numer  # freed before that product as well
    return U @ core @ P.T, objective


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
    formed and nothing is solved. final_loss is the objective W minimizes, ||X'WS - Y||^2 + gamma ||WS||^2
    + lam ||X'W||^2 + gamma lam ||W||^2, read off the core as ||Y||^2 = N |C| less <core, numer>.
    gamma and lam must be finite and > 0. The closed form fits no reduction, so a text-bearing mode needs
    d_t equal to the raw text width. Errors are as in sae.
    """
    check_hyperparameters(Method.ESZSL, gamma=gamma, lam=lam)
    X = np.asarray(features, dtype=np.float64).T  # d x N
    with _closed_form_errors(Method.ESZSL, "ridge solve", X, classes):
        Y = np.where(np.arange(classes.n_classes) == _label_indices(labels, classes)[:, None], 1.0, -1.0)
        zero = "eszsl: X Y S' is zero, so the ridge solution is zero"
        W, final_loss = _svd_closed_form(  # S = classes.compose().T, t x |C|
            X, classes.compose().T, Y, 1.0, lambda x, s: (x**2 + gamma) * (s**2 + lam), lambda x, s: Y.size, zero
        )

    return CompatModel(
        W=W,
        M=None,
        mode=classes.mode,
        method=Method.ESZSL,
        hyperparams={"gamma": gamma, "lam": lam},
        final_loss=final_loss,
        d_text=classes.text_dim if classes.mode.uses_text else None,
    )


def train_sae(
    features: np.ndarray,
    labels: Sequence[str],
    classes: ClassEmbeddingSet,
    lam_sae: float = 1e-3,
) -> CompatModel:
    """Fit the semantic auto-encoder projection and store it as a compatibility W.

    Solves S S' P + lam P X X' = (1 + lam) S X' for the t x d projection P, with S (t x N) holding one
    class-embedding column per training sample; W = P'. S = A D has only |C| distinct columns: A is the
    t x |C| class matrix with each column times the root of its class's sample count n_c, and
    D = diag(1 / sqrt n_c) E' (E the N x |C| one-hot labels; an empty class's row is 0) has orthonormal
    rows on A's range. So with thin SVDs A = Q diag(s) R' and X = V diag(x) Z' the minimum-norm solution
    is P = Q [(1 + lam) s_i (R'DZ)_ij x_j / (s_i^2 + lam x_j^2)] V', and no t x N matrix is formed.
    final_loss is the objective P minimizes, ||X - P'S||^2 + lam ||PX - S||^2, read off the core as
    ||X||^2 + lam ||A||^2 = x'x + lam s's less <core, numer>.
    """
    check_hyperparameters(Method.SAE, lam_sae=lam_sae)
    X = np.asarray(features, dtype=np.float64).T  # d x N
    onehot = np.arange(classes.n_classes)[:, None] == _label_indices(labels, classes)  # E', |C| x N
    root = np.sqrt(onehot.sum(axis=1))  # sqrt n_c
    with _closed_form_errors(Method.SAE, "Sylvester solve", X, classes):
        zero = "sae: (1 + lam) S X' is zero, so the minimum-norm projection is zero"
        P, final_loss = _svd_closed_form(
            classes.compose().T * root, X, onehot / np.maximum(root, 1.0)[:, None],  # A and D, S = A D
            1.0 + lam_sae, lambda s, x: s**2 + lam_sae * x**2, lambda s, x: x @ x + lam_sae * (s @ s), zero,
        )
    if not math.isfinite(final_loss):
        raise SingularSystem(f"sae: the Sylvester solve produced a non-finite objective {final_loss!r}")

    return CompatModel(
        W=P.T,
        M=None,
        mode=classes.mode,
        method=Method.SAE,
        hyperparams={"lam_sae": lam_sae},
        final_loss=final_loss,
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
    the two files of one save together. The header is serialized as strict
    JSON before either file is written: a non-finite final_loss or
    hyperparameter is a ValueError naming the path and the field, and writes
    nothing.
    """
    path = Path(path)
    weights = path.with_suffix(".npy")
    parts = [model.W.ravel()] + ([model.M.ravel()] if model.M is not None else [])
    values = np.concatenate(parts).astype("<f8", copy=False)
    hyperparams = {k: float(v) for k, v in sorted(model.hyperparams.items())}
    numbers = {"final_loss": float(model.final_loss), **{f"hyperparams.{k}": v for k, v in hyperparams.items()}}
    for key, value in numbers.items():
        if not math.isfinite(value):
            raise ValueError(f"model file {path}: {key} is {value!r}, which is not JSON compliant")
    doc = {
        "method": model.method.value,
        "mode": model.mode.kind.value,
        "d": model.d,
        "t": model.t,
        "d_text": model.d_text,
        "d_t": model.mode.d_t,
        "has_M": model.M is not None,
        "weights": weights.name,
        "weights_crc32": zlib.crc32(values),
        "hyperparams": hyperparams,
        "seed": model.seed,
        "epochs": model.epochs,
        "final_loss": numbers["final_loss"],
    }
    header = json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_vector(weights, values)
    path.write_text(header, encoding="utf-8")
    return path


def load_model(path: str | Path) -> CompatModel:
    """Read a model written by save_model; a header that disagrees with its weights is a SchemaMismatch."""
    path = Path(path)
    doc = parse_json(read_input(path, "model file"), f"model file {path}", SchemaMismatch)
    if "W" in doc:
        raise SchemaMismatch(
            f"model file {path} holds W inline, an older format that is no longer read; "
            f"retrain the model to write its weights to {path.with_suffix('.npy').name}"
        )

    try:
        method, kind = Method(doc["method"]), ModeKind(doc["mode"])
        d, t, d_t, d_text = doc["d"], doc["t"], doc["d_t"], doc["d_text"]
        has_m, name, crc = doc["has_M"], doc["weights"], doc["weights_crc32"]
        hyperparams, seed, epochs, final_loss = doc["hyperparams"], doc["seed"], doc["epochs"], doc["final_loss"]
    except (KeyError, ValueError) as exc:
        raise SchemaMismatch(f"model file {path} is missing or corrupts a schema field: {exc}") from None
    if type(has_m) is not bool:
        raise SchemaMismatch(f"model file {path}: has_M must be true or false, got {has_m!r}")
    if not isinstance(name, str):
        raise SchemaMismatch(f"model file {path}: weights must be a file name string, got {name!r}")
    if not (type(d_text) is int and d_text >= 1 or d_text is None and not has_m):
        raise SchemaMismatch(f"model file {path}: d_text must be an integer >= 1, or null without M, got {d_text!r}")
    if not (type(hyperparams) is dict and all(map(is_json_number, hyperparams.values()))):
        raise SchemaMismatch(f"model file {path}: hyperparams must be an object of numbers, got {hyperparams!r}")
    for key, value, low in (("d", d, 1), ("t", t, 1), ("d_t", d_t, 1),
                            ("weights_crc32", crc, 0), ("seed", seed, 0), ("epochs", epochs, 0)):
        if not (type(value) is int and value >= low):
            raise SchemaMismatch(f"model file {path}: {key} must be an integer >= {low}, got {value!r}")
    if not is_json_number(final_loss):
        raise SchemaMismatch(f"model file {path}: final_loss must be a finite number, got {final_loss!r}")

    weights = path.parent / name
    try:
        flat = read_vector(read_input(weights, "model weights file"))
    except ValueError as exc:
        raise SchemaMismatch(f"model weights {weights} are not a float64 npy vector: {exc}") from None
    m_size = d_text * d_t if has_m else 0
    if flat.size != d * t + m_size:
        expected = f"{d}x{t}" + (f" + {d_text}x{d_t}" if has_m else "")
        raise SchemaMismatch(f"model weights {weights} hold {flat.size} values, header {path} says {expected}")
    if zlib.crc32(flat) != crc:
        raise SchemaMismatch(f"model weights {weights} do not match the CRC-32 in {path} (another save's file?)")
    W = flat[: d * t].reshape(d, t)
    M = flat[d * t :].reshape(d_text, d_t) if has_m else None

    return CompatModel(
        W=W,
        M=M,
        mode=EmbeddingMode(kind=kind, d_t=d_t),
        method=method,
        hyperparams=dict(hyperparams),
        seed=seed,
        epochs=epochs,
        final_loss=float(final_loss),
        d_text=d_text,
    )
