import numpy as np
import pytest

from zslsign.embeddings import ClassEmbeddingSet, EmbeddingMode
from zslsign.errors import InstanceTooLarge
from zslsign.oracles import (
    brute_bilinear,
    brute_column_means,
    brute_lle_gradients,
    brute_lle_objective,
    brute_random_baseline,
    brute_softmax,
    brute_sylvester,
    brute_topk_count,
    brute_tsm,
    eszsl_gradient,
    eszsl_objective,
    finite_difference_grad,
    rank_scores,
    sylvester_residual,
)


def test_brute_bilinear_hand_case():
    phi = np.array([1.0, 2.0])
    W = np.array([[1.0, 0.0], [0.0, 3.0]])
    rho = np.array([1.0, 1.0])
    assert brute_bilinear(phi, W, rho) == 7.0  # 1*1*1 + 2*3*1


def test_brute_softmax_uniform_and_extreme():
    assert np.allclose(brute_softmax([2.0, 2.0]), [0.5, 0.5], atol=1e-15)
    p = brute_softmax([1000.0, 0.0])
    assert np.all(np.isfinite(p)) and p[0] > 1 - 1e-12


def test_brute_column_means_hand_case():
    assert np.array_equal(brute_column_means(np.array([[1.0, 2.0], [3.0, 4.0]])), [2.0, 3.0])


def test_brute_tsm_hand_case():
    mat = np.array([[1.0], [2.0], [3.0]])
    # rows after (1,1,1) kernel with zero fill: 3, 6, 5 -> mean 14/3
    assert abs(brute_tsm(mat, (1.0, 1.0, 1.0))[0] - 14.0 / 3.0) < 1e-15


def test_brute_topk_count_enumeration():
    rankings = [["a", "b", "c"], ["b", "a", "c"], ["c", "b", "a"]]
    truths = ["a", "a", "b"]
    got = brute_topk_count(rankings, truths, ks=[1, 2])
    assert got[1] == pytest.approx(100.0 * (0.5 + 0.0) / 2.0)
    assert got[2] == pytest.approx(100.0 * (1.0 + 1.0) / 2.0)


def test_finite_difference_on_known_quadratic():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(4, 4))
    A = A + A.T
    x = rng.normal(size=4)
    grad = finite_difference_grad(lambda v: float(v @ A @ v), x, step=1e-5)
    assert np.max(np.abs(grad - 2.0 * A @ x)) < 1e-8


def test_eszsl_gradient_scalar():
    W = np.array([[0.25]])
    X = np.array([[1.0]])
    S = np.array([[1.0]])
    Y = np.array([[1.0]])
    # closed-form solution for gamma = lam = 1: gradient vanishes at W = 1/4
    assert abs(eszsl_gradient(W, X, S, Y, 1.0, 1.0)[0, 0]) < 1e-15
    assert eszsl_objective(W, X, S, Y, 1.0, 1.0) == pytest.approx(0.75)


def test_sylvester_residual_zero_for_exact_solution():
    S = np.array([[1.0]])
    X = np.array([[1.0]])
    W = np.array([[1.0]])
    assert sylvester_residual(W, S, X, 1.0) == 0.0


def test_brute_sylvester_rectangular():
    rng = np.random.default_rng(14)
    A = rng.normal(size=(4, 4))
    A = A @ A.T + np.eye(4)
    B = rng.normal(size=(6, 6))
    B = B @ B.T + np.eye(6)
    C = rng.normal(size=(4, 6))
    W = brute_sylvester(A, B, C)
    assert np.max(np.abs(A @ W + W @ B - C)) < 1e-9


def test_brute_sylvester_size_guard_refuses_before_allocating(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("the Kronecker system must not be built beyond the guard")

    monkeypatch.setattr(np, "kron", no_allocation)
    with pytest.raises(InstanceTooLarge, match=r"oracle limit: t=65 exceeds 64"):
        brute_sylvester(np.eye(65), np.eye(6), np.zeros((65, 6)))
    with pytest.raises(InstanceTooLarge, match=r"oracle limit: d=65 exceeds 64"):
        brute_sylvester(np.eye(4), np.eye(65), np.zeros((4, 65)))


def test_size_guards():
    big = np.zeros((65, 2))
    with pytest.raises(InstanceTooLarge):
        brute_column_means(big)
    with pytest.raises(InstanceTooLarge):
        brute_tsm(big, (1, 1, 1))
    with pytest.raises(InstanceTooLarge):
        brute_softmax(np.zeros(65))
    with pytest.raises(InstanceTooLarge):
        brute_bilinear(np.zeros(65), np.zeros((65, 2)), np.zeros(2))
    with pytest.raises(InstanceTooLarge):
        finite_difference_grad(lambda v: 0.0, np.zeros((65, 65)))
    with pytest.raises(InstanceTooLarge):
        brute_topk_count([["a"]] * 65, ["a"] * 65, [1])
    with pytest.raises(InstanceTooLarge):
        rank_scores(np.zeros((65, 2)), ["a", "b"])
    with pytest.raises(InstanceTooLarge):
        rank_scores(np.zeros((2, 65)), [f"c{i:02d}" for i in range(65)])
    with pytest.raises(InstanceTooLarge):
        brute_random_baseline(65, [1], [1])
    with pytest.raises(InstanceTooLarge):
        brute_random_baseline(2, [1] * 65, [1])
    classes = ClassEmbeddingSet(("a", "b"), np.eye(2), np.zeros((2, 1)), EmbeddingMode())
    for oracle in (brute_lle_objective, brute_lle_gradients):
        with pytest.raises(InstanceTooLarge, match=r"oracle limit: n=65 exceeds 64"):
            oracle(np.eye(2), None, np.zeros((65, 2)), ["a"] * 65, classes, 0.0)
        with pytest.raises(InstanceTooLarge, match=r"oracle limit: d=65 exceeds 64"):
            oracle(np.zeros((65, 2)), None, np.zeros((1, 65)), ["a"], classes, 0.0)
