"""Workload definitions: the dataset each workload writes and the CLI commands it runs.

Every command runs with the workload's run directory as parent of its pass
directory: the manifest is always ``../data/manifest.json`` and outputs go to
``out/<op>/``. Relative paths keep ``effective_config.json`` identical between
passes, so output trees of different passes can be compared byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

MANIFEST = "../data/manifest.json"


@dataclass(frozen=True)
class Op:
    """One CLI command of a workload's loop."""

    name: str  # metric stem: the wall time is reported as f"{name}_s"
    argv: tuple[str, ...]  # arguments after `zslsign`
    outputs: tuple[str, ...]  # files the command must write, relative to the pass directory
    # A clean refusal (exit 1 with a recorded error) is an accepted outcome. It
    # still counts in ops_failed; only a crash of another kind fails the check.
    may_refuse: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    setup: str  # "synth": `zslsign synth`; "twostream": perfbench/twostream.py
    setup_args: tuple[str, ...]  # before --out/--seed
    ops: tuple[Op, ...]
    candidates: int  # classes eval ranks against; its random baseline must read 100/candidates
    min_confusion_rows: int = 1


def _train(name: str, method: str, flags: tuple[str, ...], **kw) -> Op:
    out = f"out/{name}"
    argv = ("train", "--manifest", MANIFEST, "--out", out, "--method", method, *flags)
    return Op(name, argv, (f"{out}/model.json",), **kw)


def _eval(model: str, flags: tuple[str, ...]) -> Op:
    argv = ("eval", "--manifest", MANIFEST, "--model", model, "--out", "out/eval", "--random-baseline", *flags)
    return Op("eval", argv, ("out/eval/report.json",))


def _analyze(model: str, flags: tuple[str, ...]) -> tuple[Op, Op]:
    base = ("analyze", "--manifest", MANIFEST, "--model", model)
    correct = Op(
        "analyze_correct",
        (*base, "--out", "out/analyze_correct", *flags, "--correct", "--min-affiliation", "3"),
        ("out/analyze_correct/influence_correct.json", "out/analyze_correct/affiliation_summary.csv"),
    )
    confusions = Op(
        "analyze_confusions",
        (*base, "--out", "out/analyze_confusions", *flags, "--confusions", "4"),
        ("out/analyze_confusions/influence_confusions.json",),
    )
    return correct, confusions


def _paper() -> Workload:
    reduced = ("--embedding", "combined", "--d-t", "64")
    raw = ("--embedding", "combined", "--d-t", "768")
    model = "out/train_lle/model.json"
    return Workload(
        name="paper-zsl",
        setup="synth",
        # One sample per class keeps a loop near 13 s (flip influence costs
        # ~0.15 s per correct sample). Noise 0.32 leaves at least 8 confusion
        # pairs on each of seeds 0-39, so `--confusions 4` always has 4 rows.
        setup_args=(
            "--classes", "250", "--seen", "170", "--unseen", "50", "--attributes", "53",
            "--text-dim", "768", "--samples-per-class", "1", "--snippets", "16", "--width", "256",
            "--noise", "0.32",
        ),
        ops=(
            _train("train_lle", "lle", (*reduced, "--epochs", "50", "--learning-rate", "0.5", "--seed", "0", "--repeats", "1")),
            _train("train_eszsl", "eszsl", (*raw, "--repeats", "1")),
            # The dense Kronecker Sylvester solve needs 329 GiB at this width.
            _train("train_sae", "sae", (*raw, "--repeats", "1"), may_refuse=True),
            _eval(model, reduced),
            *_analyze(model, reduced),
        ),
        candidates=50,
        min_confusion_rows=4,
    )


def _sweep() -> Workload:
    streams = ("--aggregator", "tsm", "--use-hand")
    attr = ("--embedding", "attr", *streams)
    return Workload(
        name="sweep-2stream",
        setup="twostream",
        setup_args=(),
        ops=(
            Op(
                "sweep",
                (
                    "sweep", "--manifest", MANIFEST, "--out", "out/sweep", "--embedding", "combined",
                    *streams, "--values", "8,16,32,64", "--repeats", "3", "--epochs", "200",
                    "--learning-rate", "0.5", "--seed", "0",
                ),
                ("out/sweep/sweep_d_t.csv",),
            ),
            _train("train_sae", "sae", (*attr, "--repeats", "1")),
            _train("train_eszsl", "eszsl", (*attr, "--repeats", "1")),
            _eval("out/train_sae/model.json", attr),
        ),
        candidates=30,
    )


WORKLOADS = {w.name: w for w in (_paper(), _sweep())}
