#!/usr/bin/env python3
"""Small end-to-end demonstration of the three selection strategies.

Runs the pipeline's gen-data, train-teacher, decode and select stages for one
seed, then prints per-strategy pseudo-label quality, elitist win counts, and
the confidence spread, without training any students. Artifacts go under
--output-root (a temporary directory by default; an existing run directory is
reused stage by stage). Under a minute on the default config.
"""
import argparse
import logging
import tempfile
from pathlib import Path

import numpy as np

from ekd.config import load_config
from ekd.corpus import load_corpus
from ekd.pipeline import (SeedPaths, stage_decode, stage_gen_data, stage_select,
                          stage_train_teacher)
from ekd.selection import load_selection
from ekd.wer import accumulate, wer


def run(config, seed: int, root: Path) -> None:
    paths = SeedPaths(root, seed)
    stage_gen_data(config, seed, paths)
    print(f"training teachers under {paths.base} ...")
    stage_train_teacher(config, seed, paths)
    stage_decode(config, seed, paths)
    stage_select(config, seed, paths)

    vocab = config.vocabulary()
    student_train = load_corpus(paths.corpus_path(config.student_domain.name, "train"))
    refs = {u.id: vocab.indices_to_words(u.transcript) for u in student_train.utterances}
    names = [r.name for r in config.teacher_domains]
    print(f"\nselection over {len(refs)} unlabeled student-domain utterances "
          f"({len(names)} teachers):")
    for strategy in config.strategies:
        _, result = load_selection(paths.selection_path(strategy))
        parts = [wer(refs[o.utterance_id],
                     vocab.indices_to_words(o.pseudo_transcript)) for o in result.outcomes]
        confidences = [o.sequence_confidence for o in result.outcomes]
        line = (f"  {strategy:18s} pseudo-label WER {accumulate(parts).wer:6.3f}  "
                f"mean confidence {np.mean(confidences):.3f}")
        if result.win_counts is not None:
            wins = " ".join(f"{n}={c}" for n, c in zip(names, result.win_counts))
            line += f"  wins: {wins}"
        print(line)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-c", "--config")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--output-root", help="run directory root (default: a temporary directory)")
    args = parser.parse_args()
    logging.basicConfig(level=logging.WARNING)

    config = load_config(args.config)
    seed = args.seed if args.seed is not None else config.seeds[0]
    if args.output_root:
        run(config, seed, Path(args.output_root))
    else:
        with tempfile.TemporaryDirectory(prefix="ekd-demo-") as tmp:
            run(config, seed, Path(tmp))


if __name__ == "__main__":
    main()
