"""Command-line entry point: one subcommand per pipeline stage plus the
full pipeline, report assembly, and a default-config writer."""
from __future__ import annotations

import argparse
import logging
import sys

from .config import default_config, load_config, save_config
from .pipeline import (STAGES, PipelineError, SeedPaths, output_root, run_pipeline, run_stage,
                       write_summary)

logger = logging.getLogger(__name__)


def _add_common(p: argparse.ArgumentParser, with_seed: bool = True) -> None:
    p.add_argument("-c", "--config", help="experiment config YAML (defaults apply if omitted)")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override a config key (dotted path, YAML value)")
    p.add_argument("--output-root", help="run directory root (wins over the config's)")
    p.add_argument("--force", action="store_true",
                   help="delete existing outputs and rebuild them")
    if with_seed:
        p.add_argument("--seed", type=int, help="experiment seed (default: first config seed)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ekd",
        description="Ensemble distillation experiments for CTC sequence models "
                    "on synthetic multi-domain corpora.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init-config", help="write the default config as YAML")
    p.add_argument("-o", "--out", default="experiment.yaml")

    p = sub.add_parser("pipeline", help="run every stage for every configured seed")
    _add_common(p, with_seed=False)

    for name, stage in STAGES.items():
        p = sub.add_parser(name, help=stage.__doc__)
        _add_common(p)
        if name == "report":
            p.add_argument("--summary", action="store_true",
                           help="cross-seed summary instead of one seed")

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")

    try:
        if args.command == "init-config":
            save_config(default_config(), args.out)
            print(f"wrote {args.out}")
            return 0
        config = load_config(args.config, args.overrides)
        if args.command == "pipeline":
            table = run_pipeline(config, args.output_root, force=args.force)
            print(table.to_text())
            return 0

        root = output_root(config, args.output_root)
        seed = args.seed if args.seed is not None else config.seeds[0]
        paths = SeedPaths(root, seed)
        paths.ensure()
        if args.command == "report" and args.summary:
            per_seed = {s: run_stage("report", config, s, SeedPaths(root, s))
                        for s in config.seeds}
            print(write_summary(root, per_seed), end="")
        else:
            table = run_stage(args.command, config, seed, paths, force=args.force)
            if table is not None:
                print(table.to_text())
    except (PipelineError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
