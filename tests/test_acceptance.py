"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own pass/fail report.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from zslsign.cli import main as cli_main
from zslsign.data import SplitConfig, SplitMode, load_dataset, save_dataset
from zslsign.embeddings import ClassEmbeddingSet, EmbeddingMode, ModeKind
from zslsign.errors import InvariantViolation
from zslsign.evaluation import harmonic_mean, random_baseline
from zslsign.experiment import (
    Role,
    RunConfig,
    candidate_class_ids,
    evaluate,
    rank_samples,
    train_from_config,
)
from zslsign.models import (
    CompatModel,
    Method,
    posteriors,
    train_eszsl,
    train_sae,
    truth_ranks,
)
from zslsign.oracles import (
    brute_bilinear,
    brute_softmax,
    brute_topk_count,
    brute_tsm,
    eszsl_gradient,
    eszsl_objective,
    finite_difference_grad,
    flip_attribute,
    flip_influence_confusion,
    flip_influence_correct,
    rank_scores,
    sylvester_residual,
)
from zslsign.evaluation import topk_accuracy
from zslsign.synth import SynthSpec, generate
from zslsign.temporal import AggregatorKind, AggregatorSpec, aggregate

from conftest import lle_gradients, lle_objective, make_descriptor

ATTR = EmbeddingMode(kind=ModeKind.ATTRIBUTES)

FIXTURE_SPEC = SynthSpec()  # 24 seen / 10 unseen / 5 validation, sigma=0.01, 20 samples per class
FIXTURE_CFG = RunConfig(
    embedding="combined", d_t=8, epochs=500, learning_rate=0.5, lam=1e-3, seed=0, repeats=1
)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def attr_model(W) -> CompatModel:
    return CompatModel(W=np.asarray(W, float), M=None, mode=ATTR, method=Method.LLE, hyperparams={})


def scores_of(model, phi, cands) -> np.ndarray:
    """Scores of phi against cands, in class_id order (the order the tests build them in)."""
    return model.scores(phi, ClassEmbeddingSet.from_descriptors(cands, model.mode).compose(model.M))


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:>2} PASS - {detail}")


def test_criterion_01_random_baseline_reproduction():
    start = time.perf_counter()
    result = random_baseline(n_classes=50, ks=(1, 2, 5))
    elapsed = time.perf_counter() - start
    for k, expected in ((1, 2.0), (2, 4.0), (5, 10.0)):
        assert result[k] == expected, f"top-{k}: {result[k]} vs {expected}"
    assert elapsed < 5.0
    report(1, f"random baseline top-1/2/5 = {result[1]:.2f}/{result[2]:.2f}/{result[5]:.2f} "
              f"(target 2/4/10, exact) in {elapsed:.2f}s")


def test_criterion_02_harmonic_mean_reproduction():
    pairs = [((54.6, 4.8), 8.8), ((33.3, 6.7), 11.1)]
    for (s, u), expected in pairs:
        got = harmonic_mean(s, u)
        # one-decimal reference values derive from unrounded inputs; agree to one decimal unit
        assert abs(got - expected) < 0.1, f"H({s},{u}) = {got} vs {expected}"
    report(2, "harmonic means H(54.6,4.8)=8.8 and H(33.3,6.7)=11.1 at one-decimal agreement")


def test_criterion_03_lle_gradient_vs_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    descriptors = [
        make_descriptor(f"c{i}", rng.integers(0, 2, size=2), text=unit(rng.normal(size=3)))
        for i in range(3)
    ]
    classes = ClassEmbeddingSet.from_descriptors(descriptors, EmbeddingMode(kind=ModeKind.COMBINED, d_t=1))
    assert classes.embedding_dim == 3
    features = rng.normal(size=(8, 4))  # d=4, t=3, N=8
    labels = [f"c{i % 3}" for i in range(8)]
    W = rng.normal(size=(4, 3))
    M = rng.normal(size=(3, 1))
    lam = 1e-3

    _, grad_W, grad_M = lle_gradients(W, M, features, labels, classes, lam)
    fd_W = finite_difference_grad(lambda Wp: lle_objective(Wp, M, features, labels, classes, lam), W, step=1e-5)
    fd_M = finite_difference_grad(lambda Mp: lle_objective(W, Mp, features, labels, classes, lam), M, step=1e-5)

    def max_rel(a, f):
        return float(np.max(np.abs(a - f) / np.maximum.reduce([np.abs(a), np.abs(f), np.full_like(a, 1e-10)])))

    err_w, err_m = max_rel(grad_W, fd_W), max_rel(grad_M, fd_M)
    elapsed = time.perf_counter() - start
    assert err_w < 1e-5 and err_m < 1e-5
    assert elapsed < 1.0
    report(3, f"LLE gradient max rel err: W {err_w:.2e}, M {err_m:.2e} (< 1e-5) in {elapsed:.2f}s")


def test_criterion_04_eszsl_stationarity():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    descriptors = [make_descriptor(f"c{i}", rng.integers(0, 2, size=5)) for i in range(6)]
    classes = ClassEmbeddingSet.from_descriptors(descriptors, ATTR)
    features = rng.normal(size=(30, 7))
    labels = [f"c{i % 6}" for i in range(30)]
    gamma, lam = 0.15, 0.25
    model = train_eszsl(features, labels, classes, gamma=gamma, lam=lam)

    X = features.T
    S = classes.compose(None).T
    Y = -np.ones((30, 6))
    for i, label in enumerate(labels):
        Y[i, classes.index_of(label)] = 1.0

    grad_norm = float(np.linalg.norm(eszsl_gradient(model.W, X, S, Y, gamma, lam)))
    base = eszsl_objective(model.W, X, S, Y, gamma, lam)
    scale = max(1.0, abs(base))
    assert grad_norm < 1e-8 * scale

    increases = 0
    for _ in range(100):
        delta = rng.normal(size=model.W.shape)
        delta *= 1e-3 / np.linalg.norm(delta)
        if eszsl_objective(model.W + delta, X, S, Y, gamma, lam) >= base:
            increases += 1
    elapsed = time.perf_counter() - start
    assert increases == 100
    assert elapsed < 5.0
    report(4, f"ESZSL gradient norm {grad_norm:.2e} < 1e-8*scale; 100/100 perturbations non-decreasing "
              f"in {elapsed:.2f}s")


def test_criterion_05_sae_sylvester_residual():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        d = int(rng.integers(2, 33))
        attr_count = int(rng.integers(2, 33))
        n_classes = int(rng.integers(2, 7))
        n = int(rng.integers(n_classes, 40))
        descriptors = [make_descriptor(f"c{i}", rng.integers(0, 2, size=attr_count)) for i in range(n_classes)]
        classes = ClassEmbeddingSet.from_descriptors(descriptors, ATTR)
        features = rng.normal(size=(n, d))
        labels = [f"c{i % n_classes}" for i in range(n)]
        lam = float(rng.uniform(0.05, 2.0))
        model = train_sae(features, labels, classes, lam_sae=lam)
        S = classes.compose(None)[[classes.index_of(l) for l in labels]].T
        residual = sylvester_residual(model.W.T, S, features.T, lam)
        worst = max(worst, residual)
    elapsed = time.perf_counter() - start
    assert worst < 1e-8
    assert elapsed < 10.0
    report(5, f"SAE relative residual worst {worst:.2e} (< 1e-8) over 50 instances in {elapsed:.2f}s")


def test_criterion_06_planted_structure_recovery(saved):
    start = time.perf_counter()
    dataset, _ = generate(FIXTURE_SPEC)
    assert len(dataset.split.unseen_classes) == 10
    assert FIXTURE_SPEC.noise_sigma == 0.01
    assert FIXTURE_SPEC.samples_per_class == 20

    view = saved.view(dataset, FIXTURE_CFG, [Role.SEEN, Role.CANDIDATES])
    model = train_from_config(view, FIXTURE_CFG)
    zsl = evaluate(view, model, FIXTURE_CFG)
    top1 = zsl.per_k[1]
    assert top1 >= 90.0

    gzsl_dataset = replace(dataset, split=replace(dataset.split, mode=SplitMode.GZSL))
    gzsl = evaluate(saved.view(gzsl_dataset, FIXTURE_CFG, [Role.CANDIDATES]), model, FIXTURE_CFG)
    harmonic = gzsl.harmonic_per_k[1]
    elapsed = time.perf_counter() - start
    assert harmonic > 0.0
    assert elapsed < 60.0
    report(6, f"planted recovery: unseen top-1 {top1:.1f}% (>= 90), GZSL harmonic {harmonic:.1f} (> 0) "
              f"in {elapsed:.1f}s")


def test_criterion_07_flip_difference_identities():
    start = time.perf_counter()

    # (a) zero-weight attribute column: influence exactly 0
    W = np.array([[1.0, 0.0, 2.0], [3.0, 0.0, -1.0]])
    model = attr_model(W)
    cands = [make_descriptor(f"c{i}", bits) for i, bits in enumerate([[1, 0, 1], [0, 1, 0], [1, 1, 1]])]
    phi = np.array([0.7, -0.3])
    assert flip_influence_correct(model, phi, cands[0], 1, cands) == 0.0

    # (b) double flip restores posteriors bit-exactly
    rng = np.random.default_rng(11)
    model_b = attr_model(rng.normal(size=(3, 4)))
    cands_b = [make_descriptor(f"c{i}", rng.integers(0, 2, size=4)) for i in range(5)]
    phi_b = rng.normal(size=3)
    before = posteriors(scores_of(model_b, phi_b, cands_b))
    twice = list(cands_b)
    twice[2] = flip_attribute(flip_attribute(cands_b[2], 1), 1)
    after = posteriors(scores_of(model_b, phi_b, twice))
    assert np.array_equal(before, after)

    # (c) confusion influence equals the raw score difference, 200 random instances
    worst = 0.0
    for seed in range(200):
        rng = np.random.default_rng(2000 + seed)
        d = int(rng.integers(2, 7))
        A = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        model_c = attr_model(rng.normal(size=(d, A)))
        cands_c = [make_descriptor(f"c{i}", rng.integers(0, 2, size=A)) for i in range(n)]
        phi_c = rng.normal(size=d)
        star_idx, other_idx = rng.permutation(n)[:2]
        star = cands_c[int(star_idx)]
        other = cands_c[int(other_idx)]  # a confusion pair: predicted != ground truth
        k = int(rng.integers(A))
        got = flip_influence_confusion(model_c, phi_c, star.class_id, other.class_id, k, cands_c)
        s_before = scores_of(model_c, phi_c, [star])[0]
        s_after = scores_of(model_c, phi_c, [flip_attribute(star, k)])[0]
        worst = max(worst, abs(got - (s_before - s_after)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 5.0
    report(7, f"flip identities hold; confusion-vs-score-difference worst gap {worst:.2e} (< 1e-12) "
              f"in {elapsed:.2f}s")


def test_criterion_08_oracle_equivalence():
    start = time.perf_counter()
    worst = {"bilinear": 0.0, "softmax": 0.0, "topk": 0.0, "tsm": 0.0}
    for seed in range(200):
        rng = np.random.default_rng(3000 + seed)
        d = int(rng.integers(1, 9))
        t = int(rng.integers(1, 9))
        W = rng.normal(size=(d, t))
        phi = rng.normal(size=d)
        rho = rng.normal(size=t)
        model = attr_model(W)
        gap = abs(model.scores(phi, rho[None, :])[0] - brute_bilinear(phi, W, rho))
        worst["bilinear"] = max(worst["bilinear"], gap)

        n = int(rng.integers(2, 9))
        scores = model.scores(phi, rng.normal(size=(n, t)))
        worst["softmax"] = max(
            worst["softmax"], float(np.max(np.abs(posteriors(scores) - brute_softmax(list(scores)))))
        )

        classes = [f"c{i}" for i in range(4)]
        ranked = rng.integers(-1, 2, size=(8, 4)).astype(float)  # exact ties
        truths = [classes[i % 4] for i in range(8)]
        ks = [1, 2, 4]
        fast = topk_accuracy(truth_ranks(ranked, classes, truths), truths, ks)
        slow = brute_topk_count(rank_scores(ranked, classes), truths, ks)
        worst["topk"] = max(worst["topk"], max(abs(fast.per_k[k] - slow[k]) for k in ks))

        mat = rng.normal(size=(int(rng.integers(1, 9)), int(rng.integers(1, 6))))
        weights = tuple(rng.uniform(-1, 1, size=3))
        spec = AggregatorSpec(kind=AggregatorKind.TEMPORAL_SHIFT_MAC, weights=weights)
        worst["tsm"] = max(worst["tsm"], float(np.max(np.abs(aggregate(mat, spec) - brute_tsm(mat, weights)))))
    elapsed = time.perf_counter() - start
    for name, gap in worst.items():
        assert gap < 1e-12, f"{name}: {gap}"
    assert elapsed < 10.0
    report(8, "oracle equivalence over 200 instances: "
              + ", ".join(f"{k} {v:.1e}" for k, v in worst.items()) + f" (< 1e-12) in {elapsed:.2f}s")


def _snapshot(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def test_criterion_09_command_determinism(tmp_path):
    data = tmp_path / "data"
    args = ["synth", "--out", str(data), "--classes", "14", "--seen", "8", "--unseen", "4",
            "--attributes", "6", "--text-dim", "4", "--samples-per-class", "6", "--snippets", "4",
            "--width", "12", "--noise", "0.01", "--seed", "5"]
    assert cli_main(args) == 0

    overrides = ["--manifest", str(data / "manifest.json"), "--embedding", "combined", "--d-t", "4",
                 "--epochs", "120", "--learning-rate", "0.5", "--lam", "1e-3", "--seed", "5",
                 "--repeats", "1"]
    train_dir, eval_dir, analyze_dir = tmp_path / "train", tmp_path / "eval", tmp_path / "analyze"

    def run_all():
        assert cli_main(["train", "--out", str(train_dir)] + overrides) == 0
        model = str(train_dir / "model.json")
        assert cli_main(["eval", "--model", model, "--out", str(eval_dir)] + overrides) == 0
        assert cli_main(["analyze", "--model", model, "--correct", "--out", str(analyze_dir)] + overrides) == 0

    run_all()
    first = {d: _snapshot(d) for d in (train_dir, eval_dir, analyze_dir)}
    assert {"model.json", "model.npy"} <= set(first[train_dir])
    run_all()
    second = {d: _snapshot(d) for d in (train_dir, eval_dir, analyze_dir)}
    assert first == second
    n_files = sum(len(v) for v in first.values())
    report(9, f"train/eval/analyze reruns byte-identical across {n_files} output files")


def test_criterion_10_protocol_shape_checks(tmp_path, saved):
    dataset, _ = generate(SynthSpec(n_classes=12, n_seen=6, n_unseen=4, attribute_count=5,
                                    text_dim=4, samples_per_class=4, snippets=3, stream_width=8,
                                    noise_sigma=0.01, seed=2))
    cfg = RunConfig(embedding="attr", epochs=60, learning_rate=0.5, seed=2, repeats=1)
    view = saved.view(dataset, cfg, [Role.SEEN, Role.CANDIDATES])
    model = train_from_config(view, cfg)

    # (a) ZSL candidate set excludes every seen class
    zsl_ids = candidate_class_ids(dataset.split)
    assert not set(zsl_ids) & set(dataset.split.seen_classes)

    # (b) GZSL model predicting over unseen-only candidates equals the ZSL prediction, exactly:
    # a GZSL split of the unseen classes alone (half of them as its seen ones) has the ZSL
    # candidate set and evaluation samples
    zsl = view.stack(Role.CANDIDATES)
    zsl_ranks, zsl_predicted = rank_samples(model, zsl)
    unseen = sorted(dataset.split.unseen_classes)
    gzsl_split = SplitConfig(frozenset(unseen[:2]), frozenset(), frozenset(unseen[2:]), SplitMode.GZSL)
    gzsl = saved.view(replace(dataset, split=gzsl_split), cfg, [Role.CANDIDATES]).stack(Role.CANDIDATES)
    gzsl_ranks, gzsl_predicted = rank_samples(model, gzsl)
    assert gzsl.labels == zsl.labels
    assert np.array_equal(gzsl_ranks, zsl_ranks)
    assert gzsl_predicted == zsl_predicted
    # the score matrices themselves agree bit for bit, so every class's rank does too
    class_bits = lambda stack: [(c.class_id, c.attributes.tobytes(), c.text.tobytes()) for c in stack.classes]
    assert class_bits(zsl) == class_bits(gzsl)
    assert scores_of(model, gzsl.features, gzsl.classes).tobytes() == \
        scores_of(model, zsl.features, zsl.classes).tobytes()

    # (c) the loader rejects overlapping ZSL splits
    save_dataset(dataset, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["split"]["unseen"].append(manifest["split"]["seen"][0])
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(InvariantViolation):
        load_dataset(tmp_path / "manifest.json")
    load_dataset(saved.manifest(dataset))  # the split as generated loads
    report(10, "ZSL candidates exclude seen classes; GZSL-over-unseen == ZSL exactly; "
               "overlapping ZSL split rejected")
