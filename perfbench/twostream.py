"""Write the body + hand dataset of the sweep-2stream workload.

    python3 perfbench/twostream.py --out DIR --seed N

The CLI's `synth` writes one stream only. Here two `generate` calls share the
seed, so they draw the same classes, sample ids and snippet counts; the hand
call uses a narrower stream width, which changes its planted map and rows.
Needs `zslsign` importable (the benchmark puts the checkout's `src` on the path).
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from zslsign.data import FeatureSequence, Sample, Stream, save_dataset
from zslsign.synth import SynthSpec, generate

BODY = SynthSpec(
    n_classes=100,
    n_seen=60,
    n_unseen=30,
    attribute_count=53,
    text_dim=64,
    samples_per_class=6,
    snippets=6,
    stream_width=32,
    noise_sigma=0.1,
)
HAND_WIDTH = 24


def write(out: str, seed: int) -> None:
    spec = replace(BODY, seed=seed)
    body, _ = generate(spec)
    hand, _ = generate(replace(spec, stream_width=HAND_WIDTH))
    hand_rows = {s.sample_id: s.body.data for s in hand.samples}
    samples = tuple(
        Sample(
            s.sample_id,
            s.class_id,
            {
                Stream.BODY: s.body,
                Stream.HAND: FeatureSequence(s.sample_id, Stream.HAND, hand_rows[s.sample_id]),
            },
        )
        for s in body.samples
    )
    save_dataset(replace(body, samples=samples), out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    write(args.out, args.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
