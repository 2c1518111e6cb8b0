"""Command-line entry point for benchmark runs and ablation sweeps.

Each ``BenchmarkConfig`` field is one flag, generated from the field: its
name with ``-`` for ``_``, the config file's parser for that key, and the
field's help text and default.  Values given on the command line override
the file.  Exit status is 0 on success and 1 on any error, with a single
``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from tafssl.config import BenchmarkConfig, field_parsers, parse_config_file
from tafssl.harness import format_reports, run_ablation, write_csv


class _Parser(argparse.ArgumentParser):
    """Raises flag errors as ValueError, so they share the one-line
    ``error: ...`` report and exit status 1 of every other error."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tafssl",
        description="Few-shot classification benchmarks over precomputed features: "
        "task-adaptive PCA/ICA subspaces with nearest-prototype, Bayesian k-means, "
        "or mean-shift propagation inference.",
    )
    parser.add_argument("--config", metavar="PATH", help="key=value config file; CLI flags override it")
    parsers = field_parsers(BenchmarkConfig)
    for f in fields(BenchmarkConfig):
        # No parser default: a flag left out must not override the config file.
        flag, help_text = f"--{f.name.replace('_', '-')}", f"{f.metadata['help']} (default {f.default})"
        parser.add_argument(flag, type=parsers[f.name], help=help_text)
    return parser


def config_from_args(args: argparse.Namespace) -> BenchmarkConfig:
    values = parse_config_file(args.config) if args.config else {}
    for f in fields(BenchmarkConfig):
        arg = getattr(args, f.name)
        if arg is not None:
            values[f.name] = arg
    return BenchmarkConfig(**values)


def main(argv=None) -> int:
    try:
        config = config_from_args(build_parser().parse_args(argv))
        if config.out:  # a bad path fails now, not after the whole run
            folder = os.path.dirname(config.out) or "."
            if os.path.isdir(config.out):
                raise ValueError(f"out: {config.out} is a directory")
            if not os.path.isdir(folder):
                raise ValueError(f"out: no such directory: {folder}")
        table = run_ablation(config)
        print(format_reports(table, config.sweep))
        if config.out:
            write_csv(config.out, table, config.sweep)
            print(f"wrote {config.out}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
