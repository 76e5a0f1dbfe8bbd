"""Command-line entry: run experiments, render reports, print cost tables.

Exit codes: 0 ok, 2 configuration or input error, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import os
import sys

from .config import BLAS_THREAD_VARS, load_config
from .errors import NumericError, PadflError


def _resolve_out(cfg):
    root = os.environ.get("PADFL_OUTPUT_ROOT")
    if root and not os.path.isabs(cfg.out_dir):
        cfg.out_dir = os.path.join(root, cfg.out_dir)
    return cfg


def main(argv=None):
    # Pin BLAS to one thread before numpy loads, so runs default to one
    # worker process per CPU and their bytes do not depend on the core count.
    if "numpy" not in sys.modules:
        for var in BLAS_THREAD_VARS:
            os.environ.setdefault(var, "1")
    parser = argparse.ArgumentParser(prog="padfl",
                                     description="capacity-heterogeneous personalized "
                                                 "federated learning simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured run")
    p_run.add_argument("config")
    p_run.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key")

    p_rep = sub.add_parser("report", help="render curves and cluster tables")
    p_rep.add_argument("dirs", nargs="+")
    p_rep.add_argument("-o", "--out", required=True)

    p_acc = sub.add_parser("account", help="print the analytic cost table")
    p_acc.add_argument("config")
    p_acc.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            from .runner import run

            cfg = _resolve_out(load_config(args.config, args.overrides))
            record = run(cfg)
            final = record.rounds[-1].mean_test if record.rounds else float("nan")
            print(f"completed {len(record.rounds)} rounds"
                  f"{' (early stop)' if record.early_stopped else ''}; "
                  f"mean test acc {final:.4f}; wrote {record.config.out_dir}")
        elif args.command == "report":
            from .report import write_report

            svg, table = write_report(args.dirs, args.out)
            print(f"wrote {svg} and {table}")
        else:
            from .report import account, format_account

            cfg = load_config(args.config, args.overrides)
            print(format_account(*account(cfg)))
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (PadflError, FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
