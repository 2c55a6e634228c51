"""In-process tracing of zslsign from the outside.

Each traced name is replaced, for the duration of a traced pass, by a wrapper
installed where its caller looks it up (a module global or a class attribute).
Boundary calls record a span (name, start, end, parent, trace id); hot inner
calls only add to counters. Every wrapper also keeps self time per module: a
call's duration minus the time of the traced calls nested in it.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

SPAN, COUNT = True, False

# (module the caller looks the name up in, attribute path, metric name, span?)
PATCHES = (
    ("zslsign.cli", "generate", "synth.generate", SPAN),
    ("zslsign.cli", "save_dataset", "data.save_dataset", SPAN),
    ("twostream", "generate", "synth.generate", SPAN),
    ("twostream", "save_dataset", "data.save_dataset", SPAN),
    ("zslsign.cli", "load_dataset", "data.load_dataset", SPAN),
    ("zslsign.data", "validate_dataset", "data.validate_dataset", SPAN),
    ("zslsign.cli", "train_from_config", "experiment.train_from_config", SPAN),
    ("zslsign.experiment", "train_from_config", "experiment.train_from_config", SPAN),
    ("zslsign.cli", "evaluate", "experiment.evaluate", SPAN),
    ("zslsign.cli", "rank_samples", "experiment.rank_samples", SPAN),
    ("zslsign.experiment", "rank_samples", "experiment.rank_samples", SPAN),
    ("zslsign.experiment", "validation_top1", "experiment.validation_top1", SPAN),
    ("zslsign.cli", "sweep_text_dim", "experiment.sweep_text_dim", SPAN),
    ("zslsign.cli", "analysis_samples", "experiment.analysis_samples", SPAN),
    ("zslsign.experiment", "stack_video_embeddings", "experiment.stack_video_embeddings", COUNT),
    ("zslsign.experiment", "embed_video", "temporal.embed_video", COUNT),
    ("zslsign.models", "compose_embedding", "embeddings.compose_embedding", COUNT),
    ("zslsign.embeddings", "ClassEmbeddingSet.compose", "embeddings.ClassEmbeddingSet.compose", COUNT),
    ("zslsign.experiment", "train_lle", "models.train_lle", SPAN),
    ("zslsign.experiment", "train_eszsl", "models.train_eszsl", SPAN),
    ("zslsign.experiment", "train_sae", "models.train_sae", SPAN),
    ("zslsign.models", "solve_sylvester", "models.solve_sylvester", SPAN),
    ("zslsign.models", "lle_objective", "models.lle_objective", COUNT),
    ("zslsign.models", "lle_gradients", "models.lle_gradients", COUNT),
    ("zslsign.experiment", "predict", "models.predict", COUNT),
    ("zslsign.influence", "predict", "models.predict", COUNT),
    ("zslsign.models", "score_candidates", "models.score_candidates", COUNT),
    ("zslsign.cli", "save_model", "models.save_model", SPAN),
    ("zslsign.cli", "load_model", "models.load_model", SPAN),
    ("zslsign.experiment", "topk_accuracy", "evaluation.topk_accuracy", SPAN),
    ("zslsign.evaluation", "topk_accuracy", "evaluation.topk_accuracy", SPAN),
    ("zslsign.cli", "random_baseline", "evaluation.random_baseline", SPAN),
    ("zslsign.cli", "class_influence_matrix", "influence.class_influence_matrix", SPAN),
    ("zslsign.cli", "confusion_influence_matrix", "influence.confusion_influence_matrix", SPAN),
    ("zslsign.cli", "positive_affiliation_summary", "influence.positive_affiliation_summary", SPAN),
    ("zslsign.influence", "flip_influence_correct", "influence.flip_influence_correct", COUNT),
    ("zslsign.influence", "flip_influence_confusion", "influence.flip_influence_confusion", COUNT),
)


def csv_bytes(manifest_path: Path) -> int:
    """On-disk bytes of the CSV files a manifest points to."""
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    root = manifest_path.parent
    files = [c["text_file"] for c in manifest.get("classes", []) if "text_file" in c]
    for s in manifest.get("samples", []):
        files.extend(s[k] for k in ("body", "hand") if s.get(k) is not None)
    return sum((root / f).stat().st_size for f in files)


class Tracer:
    """Spans and counters of one traced pass, kept in memory until written."""

    def __init__(self) -> None:
        self.origin = perf_counter()
        self.spans: list[tuple | None] = []  # (id, parent, trace, name, start, end)
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.failures: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.csv_bytes_read = 0
        self.trace_id: str | None = None
        self._frames: list[list] = []  # [seconds of traced children, span id seen by children]
        self._csv_sizes: dict[Path, int] = {}

    def wrap(self, fn, name: str, span: bool):
        module = name.split(".", 1)[0]
        frames = self._frames

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = frames[-1][1] if frames else None
            sid = None
            if span:
                sid = len(self.spans)
                self.spans.append(None)
            frame = [0.0, sid if span else parent]
            frames.append(frame)
            failed = False
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = perf_counter()
                frames.pop()
                elapsed = end - start
                self.calls[name] += 1
                self.seconds[name] += elapsed
                self.failures[name] += failed
                self.self_s[module] += elapsed - frame[0]
                if frames:
                    frames[-1][0] += elapsed
                if span:
                    self.spans[sid] = (sid, parent, self.trace_id, name, start - self.origin, end - self.origin)

        if name == "data.load_dataset":
            # work count, added outside the timed call: CSV bytes the loader must parse
            def counted(manifest_path, *args, **kwargs):
                result = traced(manifest_path, *args, **kwargs)
                path = Path(manifest_path).resolve()
                if path not in self._csv_sizes:
                    self._csv_sizes[path] = csv_bytes(path)
                self.csv_bytes_read += self._csv_sizes[path]
                return result

            return counted
        return traced

    def run(self, name: str, trace_id: str, fn, *args):
        """Call fn inside a root span; its trace id tags every span below it."""
        self.trace_id = trace_id
        try:
            return self.wrap(fn, name, SPAN)(*args)
        finally:
            self.trace_id = None

    def to_dict(self) -> dict:
        keys = ("id", "parent", "trace", "name", "start_s", "end_s")
        return {
            "spans": [dict(zip(keys, s)) for s in self.spans if s is not None],
            "counters": {
                name: {"calls": self.calls[name], "s": self.seconds[name], "failed": self.failures[name]}
                for name in sorted(self.calls)
            },
            "self_s": dict(sorted(self.self_s.items())),
            "csv_bytes_read": self.csv_bytes_read,
        }


@contextmanager
def installed(tracer: Tracer):
    """Install every patch whose target exists; yield the names that were missing.

    A name a later version of the code no longer has is skipped, and its
    counters stay at zero.
    """
    undo = []
    missing = []
    try:
        for module_name, path, metric, span in PATCHES:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, tracer.wrap(original, metric, span))
            undo.append((owner, attr, original))
        yield missing
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
