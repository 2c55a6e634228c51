#!/usr/bin/env python3
"""End-to-end experiment on a synthetic dataset with planted structure.

Generates the fixture, trains one model per formulation (lle / eszsl / sae),
reports ZSL and GZSL accuracy against the random baseline, and runs both
attribute-influence analyses on the lle model. Everything is seeded, so the
printed numbers are reproducible.

Usage: python scripts/run_synth_experiment.py [--out OUT] [--seed N]
"""

import argparse
from dataclasses import replace
from pathlib import Path

from zslsign.data import Dataset, SplitMode, save_dataset
from zslsign.evaluation import random_baseline
from zslsign.experiment import Role, RunConfig, embed_dataset, evaluate, train_from_config
from zslsign.influence import class_influence_matrix, confusion_influence_matrix
from zslsign.errors import NoMisclassifications
from zslsign.models import save_model
from zslsign.synth import SynthSpec, generate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/synth_experiment")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=500)
    args = parser.parse_args()

    out = Path(args.out)
    spec = SynthSpec(seed=args.seed)
    dataset, _ = generate(spec)
    manifest = save_dataset(dataset, out / "data")
    print(f"fixture: {len(dataset.classes)} classes, {len(dataset.samples)} samples -> {manifest}")

    gzsl_dataset = Dataset(
        dataset.classes, dataset.samples, dataset.split.with_mode(SplitMode.GZSL), dataset.attribute_count
    )
    ks = (1, 2, 5)
    n_unseen = len(dataset.split.unseen_classes)
    baseline = random_baseline(n_unseen, ks)
    print("random baseline (ZSL candidates): "
          + "  ".join(f"top-{k} {baseline[k]:5.1f}" for k in ks))

    base = RunConfig(
        embedding="combined",
        d_t=spec.text_dim,  # equals the raw text width: no reduction layer
        epochs=args.epochs,
        learning_rate=0.5,
        lam=1e-3,
        seed=args.seed,
        repeats=1,
    )
    # every method reads the same video embeddings: stack them once per sample set
    seen = embed_dataset(dataset, base, [Role.SEEN])
    zsl_view = embed_dataset(dataset, base, [Role.CANDIDATES])
    gzsl_view = embed_dataset(gzsl_dataset, base, [Role.CANDIDATES])
    lle_model = None
    for method in ("lle", "eszsl", "sae"):
        cfg = replace(base, method=method)
        model = train_from_config(seen, cfg)
        save_model(model, out / f"model_{method}.json")
        zsl = evaluate(zsl_view, model, cfg)
        gzsl = evaluate(gzsl_view, model, cfg)
        print(f"{method:6s} ZSL  " + "  ".join(f"top-{k} {zsl.per_k[k]:5.1f}" for k in ks))
        print(f"{'':6s} GZSL harmonic "
              + "  ".join(f"top-{k} {gzsl.harmonic_per_k[k]:5.1f}" for k in ks))
        if method == "lle":
            lle_model = model

    candidates = zsl_view.stack(Role.CANDIDATES)
    features, truths = candidates.features, candidates.labels
    unseen = sorted(dataset.split.unseen_classes)
    correct = class_influence_matrix(lle_model, features, truths, unseen, candidates.classes)
    print(f"influence (correct predictions): {len(correct.rows)} class rows, "
          f"{len(correct.omitted)} omitted")
    try:
        confusions = confusion_influence_matrix(lle_model, features, truths, candidates.classes, top_n_confusions=4)
        print(f"influence (confusions): {len(confusions.rows)} pair rows")
        for row in confusions.rows:
            truth, predicted = row.subject
            top_attr = int(row.scores.argmax())
            print(f"  {truth} -> {predicted} (n={row.support}): "
                  f"strongest attribute {confusions.attribute_names[top_attr]} "
                  f"({row.scores[top_attr]:+.3f})")
    except NoMisclassifications:
        print("influence (confusions): model is perfectly accurate on this fixture")


if __name__ == "__main__":
    main()
