"""Command-line entry point: synth, train, predict, eval, analyze, baseline, sweep.

Every command is deterministic given its config and seed; outputs carry no
timestamps, floats in text outputs are written with full round-trip
precision, and `train` writes each model as a JSON header (model.json) plus
its raw float64 weights (model.npy), so a rerun under the same BLAS thread
count writes byte-identical files. Exit codes: 0 success, 2 input error,
3 dimension/schema error, 4 mode error, 1 internal error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import re
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .data import SplitMode, save_dataset
from .errors import (
    DimensionMismatch,
    InvariantViolation,
    MissingFile,
    MissingReduction,
    ModeWithoutAttributes,
    ParseError,
    SchemaMismatch,
    ZslSignError,
)
from .evaluation import random_baseline
from .experiment import (
    CHOICES,
    SWEEP_ROLES,
    Role,
    RunConfig,
    candidate_class_ids,
    check_sweepable,
    evaluate,
    load_embedded,
    load_run_config,
    rank_samples,
    sweep_text_dim,
    train_repeats,
)
from .models import load_model, save_model

if TYPE_CHECKING:
    from .influence import InfluenceReport

# Names from the modules that only some commands run. A module is imported on
# the first lookup of one of its names on this module, so the other commands
# start without it. Commands look the names up through _lazy, so they also see
# a replacement bound on this module (a test's or a tracer's).
_COMMAND_NAMES = {
    "SynthSpec": "synth",
    "generate": "synth",
    "class_influence_matrix": "influence",
    "confusion_influence_matrix": "influence",
    "positive_affiliation_summary": "influence",
}


def __getattr__(name: str):
    module = _COMMAND_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __package__), name)
    globals()[name] = value
    return value


_lazy = sys.modules[__name__]


def _out_dir(args, cfg: RunConfig | None = None) -> Path:
    root = os.environ.get("ZSLSIGN_OUT_ROOT", ".")
    chosen = getattr(args, "out", None) or (cfg.out_dir if cfg else None) or root
    path = Path(chosen)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _resolve_config(args) -> RunConfig:
    cfg = load_run_config(args.config) if getattr(args, "config", None) else RunConfig()
    overrides = {
        f.name: getattr(args, f.name) for f in fields(RunConfig) if getattr(args, f.name, None) is not None
    }
    if getattr(args, "out", None) is not None:
        overrides["out_dir"] = args.out
    return replace(cfg, **overrides)


def _echoed_out_dir(args, cfg: RunConfig) -> Path:
    """The output directory, with the effective config written into it."""
    out = _out_dir(args, cfg)
    _write_json(out / "effective_config.json", cfg.to_dict())
    return out


def _print_metric_table(rows: dict[str, dict[int, float] | None], ks) -> None:
    header = "metric".ljust(10) + "".join(f"top-{k}".rjust(9) for k in ks)
    print(header)
    for label, per_k in rows.items():
        if per_k is None:
            continue
        print(label.ljust(10) + "".join(f"{per_k[k]:9.1f}" for k in ks))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    spec = _lazy.SynthSpec(
        n_classes=args.classes,
        n_seen=args.seen,
        n_unseen=args.unseen,
        attribute_count=args.attributes,
        text_dim=args.text_dim,
        samples_per_class=args.samples_per_class,
        snippets=args.snippets,
        stream_width=args.width,
        noise_sigma=args.noise,
        planted_map_scale=args.scale,
        seed=args.seed,
        split_mode=SplitMode.GZSL if args.gzsl else SplitMode.ZSL,
    )
    dataset, planted = _lazy.generate(spec)
    out = _out_dir(args)
    manifest_path = save_dataset(dataset, out, extra_csv={"planted_map.csv": planted})
    _write_json(out / "synth_spec.json", {**asdict(spec), "split_mode": spec.split_mode.value})
    print(f"wrote {manifest_path}")
    return 0


def _write_training_log(path: Path, history: tuple[float, ...], final_loss: float) -> None:
    rows = ["epoch,loss"]
    if history:
        rows.extend(f"{epoch},{loss!r}" for epoch, loss in enumerate(history))
    else:
        rows.append(f"0,{final_loss!r}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    data = load_embedded(cfg, (Role.SEEN,))
    out = _echoed_out_dir(args, cfg)
    models = train_repeats(data, cfg)
    suffixes = [""] if cfg.repeats == 1 else [f"_r{r}" for r in range(cfg.repeats)]
    for suffix, model in zip(suffixes, models):
        save_model(model, out / f"model{suffix}.json")
        _write_training_log(out / f"training_log{suffix}.csv", model.loss_history, model.final_loss)
    if cfg.repeats == 1:
        print(f"trained {cfg.method} model: final loss {model.final_loss!r}")
        print(f"wrote {out / 'model.json'}")
        return 0

    finals = [model.final_loss for model in models]
    summary = {
        "repeats": cfg.repeats,
        "seeds": [cfg.seed + r for r in range(cfg.repeats)],
        "final_loss_mean": float(np.mean(finals)),
        "final_loss_stddev": float(np.std(finals, ddof=1)),
        "final_losses": [float(v) for v in finals],
        "models": [f"model{suffix}.json" for suffix in suffixes],
    }
    _write_json(out / "summary.json", summary)
    print(f"trained {cfg.repeats} {cfg.method} models: mean final loss {summary['final_loss_mean']!r}")
    print(f"wrote {out / 'summary.json'}")
    return 0


def cmd_predict(args) -> int:
    cfg = _resolve_config(args)
    model = load_model(args.model)
    data = load_embedded(cfg, (Role.CANDIDATES,))
    candidates = data.stack(Role.CANDIDATES)
    ranks, predicted = rank_samples(model, candidates)
    out = _out_dir(args, cfg)
    rows = ["sample_id,truth,predicted,truth_rank"]
    for sid, rank, truth, pred in zip(candidates.sample_ids, ranks, candidates.labels, predicted):
        rows.append(f"{sid},{truth},{pred},{rank + 1}")
    (out / "predictions.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    print(f"wrote {out / 'predictions.csv'}")
    return 0


def cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    model = load_model(args.model)
    data = load_embedded(cfg, (Role.CANDIDATES,))
    report = evaluate(data, model, cfg)
    payload = report.to_dict()

    table: dict[str, dict[int, float] | None] = {"overall": report.per_k}
    if data.split.mode is SplitMode.GZSL:
        table["seen"] = report.seen_per_k
        table["unseen"] = report.unseen_per_k
        table["harmonic"] = report.harmonic_per_k
    if args.random_baseline:
        baseline = random_baseline(len(data.stack(Role.CANDIDATES).classes), cfg.ks)
        table["random"] = baseline
        payload["random_per_k"] = {str(k): v for k, v in sorted(baseline.items())}

    out = _echoed_out_dir(args, cfg)
    _write_json(out / "report.json", payload)
    _print_metric_table(table, cfg.ks)
    print(f"wrote {out / 'report.json'}")
    return 0


def _write_influence_csv(path: Path, report: InfluenceReport) -> None:
    header = "subject,support," + ",".join(report.attribute_names)
    rows = [header]
    for row in report.rows:
        subject = row.subject if isinstance(row.subject, str) else f"{row.subject[0]}->{row.subject[1]}"
        rows.append(f"{subject},{row.support}," + ",".join(repr(float(v)) for v in row.scores))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _write_affiliation_csv(path: Path, report: InfluenceReport, attrs: dict[str, np.ndarray], which: str) -> None:
    header = "subject," + ",".join(report.attribute_names)
    rows = [header]
    for row in report.rows:
        if isinstance(row.subject, str):
            subject, cid = row.subject, row.subject
        else:
            subject = f"{row.subject[0]}->{row.subject[1]}"
            cid = row.subject[0] if which == "truth" else row.subject[1]
        rows.append(f"{subject}," + ",".join(str(int(b)) for b in attrs[cid]))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def cmd_analyze(args) -> int:
    cfg = _resolve_config(args)
    model = load_model(args.model)
    data = load_embedded(cfg, (Role.CANDIDATES,))
    candidates = data.stack(Role.CANDIDATES)
    features, truths = candidates.features, candidates.labels
    out = _echoed_out_dir(args, cfg)
    attrs = {c.class_id: c.attributes for c in candidates.classes}

    if args.confusions is not None:
        report = _lazy.confusion_influence_matrix(
            model, features, truths, candidates.classes, top_n_confusions=args.confusions
        )
        _write_json(out / "influence_confusions.json", report.to_dict())
        _write_influence_csv(out / "influence_confusions.csv", report)
        _write_affiliation_csv(out / "affiliation_predicted.csv", report, attrs, which="predicted")
        _write_affiliation_csv(out / "affiliation_truth.csv", report, attrs, which="truth")
        print(f"wrote {out / 'influence_confusions.json'} ({len(report.rows)} confusion rows)")
        return 0

    unseen = sorted(data.split.unseen_classes)
    report = _lazy.class_influence_matrix(model, features, truths, unseen, candidates.classes)
    _write_json(out / "influence_correct.json", report.to_dict())
    _write_influence_csv(out / "influence_correct.csv", report)
    _write_affiliation_csv(out / "affiliation_correct.csv", report, attrs, which="predicted")
    if args.min_affiliation is not None:
        class_attrs = {cid: attrs[cid] for cid in unseen}
        summary = _lazy.positive_affiliation_summary(report, class_attrs, args.min_affiliation)
        rows = ["attribute,mean_influence"]
        rows.extend(f"{report.attribute_names[k]},{v!r}" for k, v in sorted(summary.items()))
        (out / "affiliation_summary.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    print(f"wrote {out / 'influence_correct.json'} ({len(report.rows)} class rows)")
    return 0


def cmd_baseline(args) -> int:
    if args.manifest:
        # every file is read and checked, but no sample is pooled or kept
        data = load_embedded(RunConfig(manifest=args.manifest), ())
        n_classes = len(candidate_class_ids(data.split))
    elif args.classes is None:
        raise ParseError("baseline needs either --manifest or --classes")
    else:
        n_classes = args.classes
    result = random_baseline(n_classes, args.ks)
    _print_metric_table({"random": result}, args.ks)
    if args.out:
        out = _out_dir(args)
        per_k = {str(k): v for k, v in sorted(result.items())}
        _write_json(out / "baseline.json", {"n_classes": n_classes, "per_k": per_k})
        print(f"wrote {out / 'baseline.json'}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    if args.param != "d_t":
        raise ParseError(f"only the d_t parameter can be swept, got {args.param!r}")
    check_sweepable(cfg)
    data = load_embedded(cfg, SWEEP_ROLES)
    rows = sweep_text_dim(data, cfg, args.values)
    out = _echoed_out_dir(args, cfg)
    lines = ["d_t,mean_val_top1,stddev"]
    lines.extend(f"{value},{mean!r},{std!r}" for value, mean, std in rows)
    (out / "sweep_d_t.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for value, mean, std in rows:
        print(f"d_t={value}: val top-1 {mean:.1f} +- {std:.1f}")
    print(f"wrote {out / 'sweep_d_t.csv'}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _list_of(kind: type, what: str):
    """An argparse type: a comma-separated list of kind values, as a tuple; a bad token exits 2."""

    def parse(text: str) -> tuple:
        try:
            return tuple(kind(token) for token in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}") from None

    return parse


_INTS = _list_of(int, "integers")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="run-config JSON file")
    p.add_argument("--manifest", help="dataset manifest path")
    p.add_argument("--aggregator", choices=CHOICES["aggregator"])
    p.add_argument("--tsm-weights", dest="tsm_weights", type=_list_of(float, "numbers"), help="w1,w2,w3")
    hand = p.add_mutually_exclusive_group()
    hand.add_argument("--use-hand", dest="use_hand", action="store_true", default=None)
    hand.add_argument("--no-use-hand", dest="use_hand", action="store_false", default=None)
    p.add_argument("--embedding", choices=CHOICES["embedding"])
    p.add_argument("--d-t", dest="d_t", type=int)
    p.add_argument("--method", choices=CHOICES["method"])
    p.add_argument("--lam", type=float)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--init-scale", dest="init_scale", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--lam-sae", dest="lam_sae", type=float)
    p.add_argument("--ks", type=_INTS, help="comma-separated top-k values, e.g. 1,2,5")
    p.add_argument("--repeats", type=int)
    p.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zslsign",
        description="Zero-shot sign recognition toolkit over precomputed feature sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset with planted structure")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=39)
    p.add_argument("--seen", type=int, default=24)
    p.add_argument("--unseen", type=int, default=10)
    p.add_argument("--attributes", type=int, default=12)
    p.add_argument("--text-dim", dest="text_dim", type=int, default=8)
    p.add_argument("--samples-per-class", dest="samples_per_class", type=int, default=20)
    p.add_argument("--snippets", type=int, default=6)
    p.add_argument("--width", type=int, default=24)
    p.add_argument("--noise", type=float, default=0.01)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gzsl", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a compatibility model")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="rank candidates for every evaluation sample")
    _add_config_flags(p)
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="evaluate a trained model")
    _add_config_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--random-baseline", dest="random_baseline", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="attribute flip-difference analysis")
    _add_config_flags(p)
    p.add_argument("--model", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--correct", action="store_true")
    group.add_argument("--confusions", type=int, metavar="N")
    p.add_argument("--min-affiliation", dest="min_affiliation", type=int)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "baseline", help="exact class-normalized top-k accuracy of uniformly random rankings, 100*min(k,n)/n"
    )
    p.add_argument("--manifest", help="take n from the manifest's prediction candidates")
    p.add_argument("--classes", type=int, help="number of candidate classes n")
    p.add_argument("--ks", type=_INTS, default=(1, 2, 5))
    p.add_argument("--out")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("sweep", help="sweep the text-reduction width against validation accuracy")
    _add_config_flags(p)
    p.add_argument("--param", default="d_t")
    p.add_argument("--values", type=_INTS, required=True, help="comma-separated widths, e.g. 8,16,32,64")
    p.set_defaults(func=cmd_sweep)

    return parser


_NEGATIVE_VALUE = re.compile(r"-\.?\d")  # -1e-3, -.5, -0.5,1,0.5
_LONG_OPTION = re.compile(r"--[^=]+$")  # an option without an attached "=value"


def _join_negative_values(argv: list[str]) -> list[str]:
    """Join a negative value to the long option before it, so "--gamma -1e-3" parses as "--gamma=-1e-3".

    argparse takes "-1e-3" or "-0.5,1,0.5" after a space for an option, since only
    plain numbers like "-0.001" look negative to it.
    """
    out: list[str] = []
    for token in argv:
        if out and _NEGATIVE_VALUE.match(token) and _LONG_OPTION.match(out[-1]):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_join_negative_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except (MissingFile, ParseError, InvariantViolation, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DimensionMismatch, SchemaMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ModeWithoutAttributes, MissingReduction) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ZslSignError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
