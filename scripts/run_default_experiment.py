#!/usr/bin/env python3
"""Run the default five-seed experiment and print the summary tables.

Writes all artifacts under runs/default (override with --output-root). About
50 seconds on one core (51 s pinned to one core of a 2-vCPU host with
OPENBLAS_NUM_THREADS=1).
"""
import argparse
import logging
import time

from ekd.config import load_config
from ekd.pipeline import output_root, run_pipeline


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-c", "--config", help="experiment YAML (default: built-in config)")
    parser.add_argument("--output-root", help="where to write the run directory")
    parser.add_argument("--force", action="store_true")
    args = parser.parse_args()

    logging.basicConfig(level=logging.INFO, format="%(levelname).1s %(name)s: %(message)s")
    config = load_config(args.config)
    start = time.monotonic()
    run_pipeline(config, args.output_root, force=args.force)
    summary = output_root(config, args.output_root) / "summary"
    print(f"done in {time.monotonic() - start:.0f}s")
    print(f"\n=== per-seed tables ({summary / 'per_seed.txt'}):\n")
    print((summary / "per_seed.txt").read_text())
    print(f"\n=== cross-seed summary, mean WER ({summary / 'summary.tsv'}):")
    print((summary / "summary.tsv").read_text(), end="")


if __name__ == "__main__":
    main()
