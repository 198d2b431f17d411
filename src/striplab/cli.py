"""`lab` command line: run, validate and plot experiments.

Exit codes: 0 on pass, 1 on tolerance failure, 2 on config or IO error.
LAB_THREADS caps cell-level parallelism (default 1; results are identical
for any value).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import StripLabError
from .experiments import (emit_plots, run_experiment, validate_config,
                          write_results)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("-o", "--output", default=None,
                       help="output directory (default: config's output_dir)")

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("config")

    p_plot = sub.add_parser("plot", help="render SVGs from a results dir")
    p_plot.add_argument("results_dir")

    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            with open(args.config) as fh:
                validate_config(json.load(fh))
            print("config ok")
            return 0
        if args.command == "run":
            with open(args.config) as fh:
                cfg = json.load(fh)
            record = run_experiment(cfg)
            outdir = args.output or validate_config(cfg)["output_dir"]
            write_results(record, outdir)
            status = "PASS" if record.passed else "FAIL"
            print("%s %s -> %s" % (record.experiment, status, outdir))
            return 0 if record.passed else 1
        if args.command == "plot":
            for path in emit_plots(args.results_dir):
                print(path)
            return 0
    except (StripLabError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
