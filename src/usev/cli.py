"""Command-line entry point: usev simulate|stats|train|evaluate|sweep|gradcheck.

Exit codes: 0 success, 2 bad parameters/config/manifest, 3 I/O failure,
1 anything unexpected.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import config as cfgmod
from . import gradcheck, harness, mixsim


def _flag_value(label: str, parse, raw: str):
    """parse(raw), with any error prefixed by the flag it came from."""
    try:
        return parse(raw)
    except ValueError as e:
        raise ValueError(f"{label} {raw!r}: {e}") from None


def cmd_simulate(args) -> int:
    sim = cfgmod.load_config(args.config).sim
    occlusion = None
    if args.occlusion:
        occlusion = _flag_value("--occlusion", lambda r: cfgmod.parse_numbers(r, 2),
                                args.occlusion)
    manifest = mixsim.write_corpus(sim, args.count, args.seed, args.out,
                                   occlusion=occlusion,
                                   overlapped=args.overlapped)
    print(f"wrote {args.count} clips; manifest at {manifest}")
    return 0


def cmd_stats(args) -> int:
    report = mixsim.corpus_stats(args.manifest)
    print(report.table_text())
    return 0


def cmd_train(args) -> int:
    run = cfgmod.load_config(args.config)
    result = harness.train(run.train, run.model, args.train_manifest,
                           args.val_manifest, args.out)
    print(f"best val loss {result.best_val:.4f}; "
          f"checkpoint at {result.best_checkpoint}")
    return 0


def cmd_evaluate(args) -> int:
    reports = harness.evaluate(args.checkpoint, args.test_manifest, args.out)
    for name, report in reports.items():
        print(f"== {name}")
        print(report.clip_table_text())
        print(report.kind_table_text())
    return 0


def cmd_sweep(args) -> int:
    run = cfgmod.load_config(args.config)
    if args.grid:
        grid = [_flag_value("--grid tuple", cfgmod.parse_weights, chunk)
                for chunk in args.grid.split(";")]
    else:
        grid = list(harness.DEFAULT_WEIGHT_GRID)
    harness.sweep_weights(run.train, run.model, grid, args.train_manifest,
                          args.val_manifest, args.out)
    print((Path(args.out) / "sweep.txt").read_text())
    return 0


def cmd_gradcheck(args) -> int:
    results = gradcheck.run_gradcheck(scope=args.scope, seeds=args.seeds)
    print(gradcheck.format_report(results))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="usev",
                                description="universal speaker extraction toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="simulate a mixture corpus")
    s.add_argument("--config", default=None, help="key=value config file")
    s.add_argument("--out", required=True)
    s.add_argument("--count", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--occlusion", default=None, metavar="LO,HI",
                   help="viseme occlusion fraction range")
    s.add_argument("--overlapped", action="store_true",
                   help="highly overlapped pre-training style corpus; always "
                        "noisy at noise_snr_db, never occluded")
    s.set_defaults(fn=cmd_simulate)

    s = sub.add_parser("stats", help="corpus composition from a manifest")
    s.add_argument("--manifest", required=True)
    s.set_defaults(fn=cmd_stats)

    s = sub.add_parser("train", help="train one model (one curriculum run)")
    s.add_argument("--config", default=None)
    s.add_argument("--train-manifest", required=True)
    s.add_argument("--val-manifest", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_train)

    s = sub.add_parser("evaluate", help="evaluate a checkpoint on full clips")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--test-manifest", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_evaluate)

    s = sub.add_parser("sweep", help="loss-weight sweep")
    s.add_argument("--config", default=None)
    s.add_argument("--train-manifest", required=True)
    s.add_argument("--val-manifest", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--grid", default=None,
                   help="semicolon-separated weight tuples, e.g. "
                        "'0.005,1,1,0.005;0.01,1,1,0.01'")
    s.set_defaults(fn=cmd_sweep)

    s = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    s.add_argument("--scope", choices=gradcheck.SCOPES, default="all")
    s.add_argument("--seeds", type=int, default=20)
    s.set_defaults(fn=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
