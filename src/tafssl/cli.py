"""Command-line entry point for benchmark runs and ablation sweeps.

Flags mirror the config-file keys one to one; values given on the command
line override the file.  Exit status is 0 on success and 1 on any error,
with a single ``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from tafssl.harness import (
    METHODS,
    SWEEP_VALUES,
    BenchmarkConfig,
    boolean,
    format_reports,
    parse_config_file,
    run_ablation,
    run_benchmark,
    write_csv,
)


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
    parser.add_argument("--method", help=f"comma-separated list from: {', '.join(METHODS)}")
    parser.add_argument("--mode", choices=["transductive", "semi"], help="unlabeled pool source (default transductive)")
    parser.add_argument("--ways", type=int, help="classes per episode (default 5)")
    parser.add_argument("--shots", type=int, help="support samples per class (default 1)")
    parser.add_argument("--queries", type=int, help="query samples per class (default 15)")
    parser.add_argument("--unlabeled", type=int, help="semi mode: unlabeled samples per class (default 0)")
    parser.add_argument("--distractors", type=int, help="semi mode: extra unlabeled-only classes (default 0)")
    parser.add_argument("--unbalanced-r", dest="unbalanced_r", type=int, help="per-class extra queries ~ uniform[0,R] (default 0)")
    parser.add_argument("--episodes", type=int, help="episode count (default 10000)")
    parser.add_argument("--seed", type=int, help="master seed (default 0)")
    parser.add_argument("--dim", type=int, help="subspace dimension override (defaults: pca 4, ica 10)")
    parser.add_argument("--features", metavar="PATH", help="feature store file (.csv or binary)")
    parser.add_argument("--synthetic", metavar="PATH|reference", help="mixture-of-Gaussians config file, or 'reference'")
    parser.add_argument("--sweep", choices=sorted(SWEEP_VALUES), help="run an ablation sweep instead of a single benchmark")
    parser.add_argument("--out", metavar="PATH", help="write results CSV here")
    parser.add_argument("--workers", type=int, help="parallel episode workers (default 1)")
    parser.add_argument(
        "--sub-normalize-first",
        dest="sub_normalize_first",
        type=boolean,
        metavar="{true,false}",
        help="sub/sub-star baselines: L2-normalize samples before prototype averaging (default true)",
    )
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
        if config.sweep:
            table = run_ablation(config)
            sweep = config.sweep
        else:
            table = [(None, run_benchmark(config))]
            sweep = None
        print(format_reports(table, sweep))
        if config.out:
            write_csv(config.out, table, sweep)
            print(f"wrote {config.out}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
