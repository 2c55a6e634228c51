"""Brute-force reference implementations used to cross-check the fast paths.

Every function here recomputes its target with the most direct algorithm
available (explicit loops, extended-precision accumulation) and is kept
deliberately independent of the implementations it checks. All oracles are
desk-scale only: instances beyond 64 per dimension are rejected.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Sequence

import numpy as np

from .data import ClassDescriptor
from .errors import IndexOutOfRange, InstanceTooLarge, NonFiniteLoss, SingularSystem

MAX_DIM = 64
TRIAL_CHUNK = 10_000  # Monte-Carlo trials drawn at once


def _guard(**dims: int) -> None:
    for name, value in dims.items():
        if value > MAX_DIM:
            raise InstanceTooLarge(f"oracle limit: {name}={value} exceeds {MAX_DIM}")


def brute_bilinear(phi: np.ndarray, W: np.ndarray, rho: np.ndarray) -> float:
    """phi' W rho by explicit double loop in extended precision."""
    d, t = W.shape
    _guard(d=d, t=t)
    acc = np.longdouble(0.0)
    for i in range(d):
        for j in range(t):
            acc += np.longdouble(phi[i]) * np.longdouble(W[i, j]) * np.longdouble(rho[j])
    return float(acc)


def brute_softmax(scores: Sequence[float]) -> np.ndarray:
    """Direct exp/sum softmax in extended precision (no stabilizing shift).

    80-bit exponent range keeps exp finite for scores up to a few thousand,
    which is exactly what lets this stay independent of the max-shift path.
    """
    _guard(n=len(scores))
    s = np.asarray(scores, dtype=np.longdouble)
    e = np.exp(s)
    return (e / e.sum()).astype(np.float64)


def _lle_samples(W, M, features, labels, classes):
    """Per sample: its row, the posteriors of every class and the truth's index; plus the class embeddings.

    Each class embedding is composed by hand as [attributes, text @ M] (raw text when M is
    None), scored against the sample with brute_bilinear and normalized as brute_softmax does, but
    left in extended precision: a posterior stays normal down to about e^-11355, not float64's e^-708.
    """
    n, d = features.shape
    _guard(n=n, d=d, classes=classes.n_classes, text=classes.text_dim)
    mode = classes.mode
    rhos = []
    for a, text in zip(classes.attributes, classes.texts):
        parts = [a] if mode.uses_attributes else []
        if mode.uses_text:
            parts.append(text if M is None else text.astype(np.longdouble) @ M.astype(np.longdouble))
        rhos.append(np.concatenate(parts))
    samples = []
    for phi, label in zip(features, labels):
        e = np.exp(np.array([brute_bilinear(phi, W, rho) for rho in rhos], dtype=np.longdouble))
        samples.append((phi, e / e.sum(), list(classes.class_ids).index(label)))
    return samples, rhos


def brute_lle_objective(W, M, features, labels, classes, lam: float) -> float:
    """lle's objective, mean_i -log p(y_i | phi_i) + lam (||W||^2 + ||M||^2), one sample at a time.

    Sums run in extended precision; without M the penalty is lam ||W||^2.
    """
    samples, _ = _lle_samples(W, M, features, labels, classes)
    acc = np.longdouble(0.0)
    for _, probs, y in samples:
        acc -= np.log(np.longdouble(probs[y]))
    weights = W.ravel() if M is None else np.concatenate([W.ravel(), M.ravel()])
    penalty = sum(np.longdouble(w) * np.longdouble(w) for w in weights)
    return float(acc / len(samples) + np.longdouble(lam) * penalty)


def brute_lle_gradients(W, M, features, labels, classes, lam: float) -> tuple[np.ndarray, np.ndarray | None]:
    """Gradients of brute_lle_objective with respect to W (and M if given), summed per sample and class.

    With g_c = (p_c - [c = y]) / n, a sample adds g_c phi rho_c' to grad_W and, through the
    text block rho_c = [.., M' tau_c], g_c tau_c (W_text' phi)' to grad_M; the penalty adds
    2 lam W and 2 lam M.
    """
    samples, rhos = _lle_samples(W, M, features, labels, classes)
    n = len(samples)
    offset = classes.attributes.shape[1] if classes.mode.uses_attributes else 0  # rho = [attributes, text]
    W_text = W[:, offset:].astype(np.longdouble)
    grad_W = 2 * np.longdouble(lam) * W.astype(np.longdouble)
    grad_M = None if M is None else 2 * np.longdouble(lam) * M.astype(np.longdouble)
    for phi, probs, y in samples:
        phi = phi.astype(np.longdouble)
        for c, (rho, text) in enumerate(zip(rhos, classes.texts)):
            g = (np.longdouble(probs[c]) - (c == y)) / n
            grad_W += g * np.outer(phi, rho.astype(np.longdouble))
            if grad_M is not None:
                grad_M += g * np.outer(text.astype(np.longdouble), phi @ W_text)
    return grad_W.astype(np.float64), None if grad_M is None else grad_M.astype(np.float64)


def brute_lle_descent(
    W, M, features, labels, classes, lam: float, learning_rate: float, epochs: int, max_halvings: int,
    max_growth: float, window: int, tolerance: float,
) -> tuple[np.ndarray, np.ndarray | None, list[float], list[list[tuple[float, float]]], str]:
    """lle's Barzilai-Borwein descent from (W, M) on brute_lle_objective and brute_lle_gradients.

    Each epoch tries W - step grad_W (and M - step grad_M), halving the step after each trial whose
    loss is not finite or rises, up to max_halvings halvings; a trial that does not rise is taken.
    Epoch 1 starts at step = learning_rate. After a step that was taken, with s = -step g_old and
    y = g - g_old formed as vectors over W and M (g_old and g the gradients before and after it),
    the next epoch starts at s'y / y'y, or at max_growth times the step taken if that is less, or
    at the step taken if s'y or y'y is not positive or the quotient not finite. The descent ends
    after the epoch that
    * takes no step ("plateau", when the last trial rose by at most 32 eps max(1, |initial loss|);
      otherwise NonFiniteLoss is raised);
    * ends at a loss whose decrease from the loss window epochs before is at most tolerance times
      its magnitude ("tolerance");
    * is the epochs-th ("cap").
    Returns W, M, the losses (the initial one, then one after each epoch run), per epoch the step and
    the loss of each trial in order, and what ended it.
    """
    loss = brute_lle_objective(W, M, features, labels, classes, lam)
    if not np.isfinite(loss):
        raise NonFiniteLoss(f"initial loss is {loss}")
    grads = brute_lle_gradients(W, M, features, labels, classes, lam)
    history, trials = [loss], []
    plateau_tol = 32.0 * np.finfo(np.float64).eps * max(1.0, abs(loss))
    step = learning_rate
    for _ in range(epochs):
        trials.append([])
        for _ in range(max_halvings + 1):
            W_try = W - step * grads[0]
            M_try = None if M is None else M - step * grads[1]
            loss_try = brute_lle_objective(W_try, M_try, features, labels, classes, lam)
            trials[-1].append((step, loss_try))
            if np.isfinite(loss_try) and loss_try <= loss:
                break
            step *= 0.5
        else:
            if not (np.isfinite(loss_try) and loss_try - loss <= plateau_tol):
                raise NonFiniteLoss(f"step halving exhausted after {max_halvings} halvings at loss {loss!r}")
            history.append(loss)
            return W, M, history, trials, "plateau"
        old = grads
        W, M, loss = W_try, M_try, loss_try
        grads = brute_lle_gradients(W, M, features, labels, classes, lam)
        history.append(loss)
        g_old, g = (np.concatenate([part.ravel() for part in pair if part is not None]) for pair in (old, grads))
        g_old, g = g_old.astype(np.longdouble), g.astype(np.longdouble)
        s, y = -np.longdouble(step) * g_old, g - g_old
        sy, yy = s @ y, y @ y
        bb = float(sy / yy) if sy > 0 and yy > 0 else np.nan
        step = min(bb, max_growth * step) if np.isfinite(bb) else step
        if len(history) > window and history[-1 - window] - loss <= tolerance * abs(loss):
            return W, M, history, trials, "tolerance"
    return W, M, history, trials, "cap"


def brute_column_means(matrix: np.ndarray) -> np.ndarray:
    """Column means by per-element summation loops."""
    rows, cols = matrix.shape
    _guard(rows=rows, cols=cols)
    out = np.zeros(cols)
    for j in range(cols):
        acc = np.longdouble(0.0)
        for i in range(rows):
            acc += np.longdouble(matrix[i, j])
        out[j] = float(acc / rows)
    return out


def brute_tsm(matrix: np.ndarray, weights: Sequence[float]) -> np.ndarray:
    """3-tap shift kernel + average pooling via explicit index loops."""
    rows, cols = matrix.shape
    _guard(rows=rows, cols=cols)
    w1, w2, w3 = weights
    out = np.zeros(cols)
    for j in range(cols):
        acc = np.longdouble(0.0)
        for i in range(rows):
            prev = matrix[i - 1, j] if i - 1 >= 0 else 0.0
            nxt = matrix[i + 1, j] if i + 1 < rows else 0.0
            acc += np.longdouble(w1 * prev + w2 * matrix[i, j] + w3 * nxt)
        out[j] = float(acc / rows)
    return out


def brute_topk_count(
    rankings: Sequence[Sequence[str]],
    truths: Sequence[str],
    ks: Sequence[int],
) -> dict[int, float]:
    """Class-normalized top-k accuracy by per-sample membership counting."""
    _guard(n_samples=len(truths))
    per_class: dict[str, list[Sequence[str]]] = {}
    for ranking, truth in zip(rankings, truths):
        per_class.setdefault(truth, []).append(ranking)
    out = {}
    for k in ks:
        rates = []
        for truth in sorted(per_class):
            hits = 0
            for ranking in per_class[truth]:
                if truth in list(ranking)[:k]:
                    hits += 1
            rates.append(hits / len(per_class[truth]))
        out[k] = 100.0 * sum(rates) / len(rates)
    return out


def rank_scores(scores: np.ndarray, class_ids: Sequence[str]) -> list[list[str]]:
    """Each score row's class ids in descending order; a stable sort keeps ties in (ascending) column order."""
    _guard(rows=scores.shape[0], classes=len(class_ids))
    ids = list(class_ids)
    if ids != sorted(ids):
        raise ValueError("score columns must follow ascending class_id order")
    order = np.argsort(-scores, axis=1, kind="stable")
    return np.array(ids, dtype=object)[order].tolist()


def brute_random_baseline(
    n_classes: int,
    class_sizes: Sequence[int],
    ks: Sequence[int],
    trials: int = 10000,
    seed: int = 0,
) -> dict[int, float]:
    """Monte-Carlo class-normalized top-k accuracy of uniformly random rankings.

    Each trial draws, per sample, a uniform position of the truth class inside
    a random ranking of the n_classes candidates; the class-normalized top-k
    accuracy of the trial is then averaged over trials. Deterministic per seed.
    """
    _guard(n_classes=n_classes, class_count=len(class_sizes))
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    sizes = list(class_sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("class_sizes must be nonempty positive counts")

    rng = np.random.default_rng(seed)
    bounds = np.cumsum([0] + sizes)
    totals = dict.fromkeys(ks, 0.0)
    for start in range(0, trials, TRIAL_CHUNK):  # memory stays flat in the number of trials
        positions = rng.integers(0, n_classes, size=(min(TRIAL_CHUNK, trials - start), bounds[-1]), dtype=np.int32)
        for k in totals:
            hit = positions < k
            class_rates = np.stack([hit[:, bounds[i] : bounds[i + 1]].mean(axis=1) for i in range(len(sizes))], axis=1)
            totals[k] += class_rates.mean(axis=1).sum()
    return {k: float(100.0 * total / trials) for k, total in totals.items()}


def finite_difference_grad(
    fn: Callable[[np.ndarray], float],
    x0: np.ndarray,
    step: float = 1e-5,
) -> np.ndarray:
    """Central finite differences of a scalar function, coordinate by coordinate."""
    if x0.size > MAX_DIM * MAX_DIM:
        raise InstanceTooLarge(f"oracle limit: {x0.size} parameters exceed {MAX_DIM * MAX_DIM}")
    grad = np.zeros_like(x0, dtype=np.float64)
    flat = x0.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        probe = x0.copy()
        probe.ravel()[i] = orig + step
        f_plus = fn(probe)
        probe.ravel()[i] = orig - step
        f_minus = fn(probe)
        gflat[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def eszsl_objective(
    W: np.ndarray, X: np.ndarray, S: np.ndarray, Y: np.ndarray, gamma: float, lam: float
) -> float:
    """Ridge-regularized regression objective whose minimizer is the closed form.

    X is d x N (sample columns), S is t x |C| (class columns), Y is N x |C|
    with +1 at the true class and -1 elsewhere.
    """
    fit = X.T @ W @ S - Y
    return float(
        np.sum(fit * fit)
        + gamma * np.sum((W @ S) ** 2)
        + lam * np.sum((X.T @ W) ** 2)
        + gamma * lam * np.sum(W * W)
    )


def eszsl_gradient(
    W: np.ndarray, X: np.ndarray, S: np.ndarray, Y: np.ndarray, gamma: float, lam: float
) -> np.ndarray:
    """Symbolic gradient of eszsl_objective with respect to W."""
    return 2.0 * (
        X @ (X.T @ W @ S - Y) @ S.T
        + gamma * W @ (S @ S.T)
        + lam * (X @ X.T) @ W
        + gamma * lam * W
    )


def brute_sylvester(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Solve A W + W B = C through the dense (t d) x (t d) Kronecker system."""
    t = A.shape[0]
    d = B.shape[0]
    _guard(t=t, d=d)
    K = np.kron(np.eye(d), A) + np.kron(B.T, np.eye(t))
    try:
        w = np.linalg.solve(K, C.flatten(order="F"))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"sylvester system is singular: {exc}") from None
    return w.reshape((t, d), order="F")


def sae_objective(P: np.ndarray, S: np.ndarray, X: np.ndarray, lam: float) -> float:
    """sae's objective ||X - P'S||^2 + lam ||P X - S||^2 for P t x d, S t x N (one class column per sample), X d x N."""
    decoded, encoded = X - P.T @ S, P @ X - S
    return float(np.sum(decoded * decoded) + lam * np.sum(encoded * encoded))


def sylvester_residual(W: np.ndarray, S: np.ndarray, X: np.ndarray, lam: float) -> float:
    """Relative residual of S S' W + lam W X X' = (1 + lam) S X'.

    The products are taken through the sample dimension, so no t x t or d x d
    Gram matrix is formed.
    """
    rhs = (1.0 + lam) * S @ X.T
    lhs = S @ (S.T @ W) + lam * (W @ X) @ X.T
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))


# ---------------------------------------------------------------------------
# per-sample attribute flip influence: recompose the flipped class, rescore all
# ---------------------------------------------------------------------------


def flip_attribute(descriptor: ClassDescriptor, k: int) -> ClassDescriptor:
    """Copy of the descriptor with binary attribute k flipped (an involution)."""
    n = descriptor.attributes.shape[0]
    if not 0 <= k < n:
        raise IndexOutOfRange(f"attribute index {k} outside [0, {n})")
    attrs = descriptor.attributes.copy()
    attrs[k] = 1.0 - attrs[k]
    return replace(descriptor, attributes=attrs)


def _candidate_scores(model, phi, candidates: Sequence[ClassDescriptor]) -> np.ndarray:
    """phi' W rho for each candidate, composing each rho from its own descriptor."""
    _guard(candidates=len(candidates))
    mode = model.mode
    q = np.asarray(phi, dtype=np.float64) @ model.W
    scores = np.empty(len(candidates))
    for i, c in enumerate(candidates):
        parts = [c.attributes] if mode.uses_attributes else []
        if mode.uses_text:
            parts.append(c.text if model.M is None else c.text @ model.M)
        scores[i] = float(q @ np.concatenate(parts))
    return scores


def _target_posterior(model, phi, idx: int, candidates: Sequence[ClassDescriptor]) -> float:
    scores = _candidate_scores(model, phi, candidates)
    e = np.exp(scores - scores.max())
    return float(e[idx] / e.sum())


def flip_influence_correct(
    model, phi, target: ClassDescriptor, k: int, candidates: Sequence[ClassDescriptor]
) -> float:
    """Posterior of the target class minus its posterior after flipping attribute k.

    Only the target class is recomposed; every other candidate keeps its
    original embedding, so their raw scores are untouched by the flip.
    """
    idx = [c.class_id for c in candidates].index(target.class_id)
    flipped = [flip_attribute(c, k) if i == idx else c for i, c in enumerate(candidates)]
    return _target_posterior(model, phi, idx, candidates) - _target_posterior(model, phi, idx, flipped)


def log_ratio(model, phi, c_star: str, c_other: str, candidates: Sequence[ClassDescriptor]) -> float:
    """log p(c_star|v) - log p(c_other|v), computed via stable log-softmax."""
    scores = _candidate_scores(model, phi, candidates)
    shifted = scores - scores.max()
    log_p = shifted - np.log(np.exp(shifted).sum())
    ids = [c.class_id for c in candidates]
    return float(log_p[ids.index(c_star)] - log_p[ids.index(c_other)])


def flip_influence_confusion(
    model, phi, c_star: str, c_other: str, k: int, candidates: Sequence[ClassDescriptor]
) -> float:
    """Log-ratio drop when attribute k of the predicted class c_star is flipped."""
    idx = [c.class_id for c in candidates].index(c_star)
    flipped = [flip_attribute(c, k) if i == idx else c for i, c in enumerate(candidates)]
    return log_ratio(model, phi, c_star, c_other, candidates) - log_ratio(model, phi, c_star, c_other, flipped)
