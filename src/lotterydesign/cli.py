"""Command-line front end.

Verbs: one per harness pipeline, plus selftest. Exit codes:
0 success, 1 configuration or I/O problem, 3 verification failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ConfigError, LotteryDesignError
from .harness import _PIPELINES, ScenarioConfig, run_scenario, run_selftest

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFICATION = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lotterydesign",
        description=(
            "Equilibria, efficiency bounds, and optimal reward/perturbation "
            "design for perturbed fixed-prize lottery games."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in _PIPELINES:
        p = sub.add_parser(verb, help=f"run the {verb} pipeline")
        p.add_argument("--config", required=True, help="scenario YAML file")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="seed override")
    p = sub.add_parser("selftest", help="run the property and golden-number battery")
    p.add_argument("--out", default=None, help="optional report directory")
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.verb == "selftest":
        ok, lines, _ = run_selftest(seed=args.seed, out_dir=args.out)
        for line in lines:
            print(line)
        print(f"selftest: {'all checks passed' if ok else 'FAILURES detected'}")
        return EXIT_OK if ok else EXIT_VERIFICATION

    out_dir = args.out or os.environ.get("LOTTERYDESIGN_OUT")
    try:
        cfg = ScenarioConfig.from_file(args.config)
        result = run_scenario(args.verb, cfg, out_dir=out_dir, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LotteryDesignError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION

    print(f"{args.verb}: status={result.status} out={result.out_dir}")
    for name in result.artifacts:
        print(f"  wrote {result.out_dir / name}")
    return EXIT_OK if result.status == "ok" else EXIT_VERIFICATION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
