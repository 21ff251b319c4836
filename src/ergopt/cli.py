"""Batch entry point: run one experiment config and write its report."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .errors import BudgetExceededError, ErgoptError
from .report import run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ergopt",
        description="Bracket maximum ergodic averages of matrix cocycles and "
                    "run the perturbation / irregularity experiments.",
    )
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--out", required=True, help="path for the JSON report")
    parser.add_argument("--cache-dir", default=os.environ.get("EOPT_CACHE_DIR"),
                        help="report cache directory (env: EOPT_CACHE_DIR)")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility and ignored")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)
    try:
        report = run(args.config, args.out, cache_dir=args.cache_dir,
                     threads=args.threads)
    except BudgetExceededError as exc:
        _emit_error(args.out, exc)
        return 3
    except ErgoptError as exc:
        _emit_error(args.out, exc)
        return 2
    if args.verbose:
        print(json.dumps(report["body"]["results"], indent=1, sort_keys=True))
    return 0


def _emit_error(out_path: str, exc: ErgoptError) -> None:
    payload = {"error": {"code": exc.code, "message": str(exc)}}
    try:
        with open(out_path, "w") as fh:
            json.dump(payload, fh, indent=1)
    except OSError:
        pass
    print(f"ergopt: {exc.code}: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
