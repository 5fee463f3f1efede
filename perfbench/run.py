"""Benchmark of usev: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; usev is imported from its src/ directory.
The run sets up the workload (several times; the median is setup_s), runs
one untimed warm-up round, then timed rounds for --seconds, and last puts the
warm-up round's outputs through every reference check. Every timed round
must write the same bytes as the warm-up round.

--trace 0 prints the end-to-end metrics, the medians over the timed rounds.
--trace 1 alternates untraced and traced rounds and prints the per-layer
metrics from the traced ones, plus the tracing overhead per stage; the spans
go to .perfbench/spans-<workload>-seed<seed>.jsonl.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import os

# Tiny matrices gain nothing from BLAS threads, only noise; pin them before
# numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3

# Per-layer metric -> (span, statistic). "self" is the span's self time per
# call, "total" its whole duration per call, "per_step" its self time summed
# over a training step.
SPAN_METRICS = {
    "harness.train_step_ms": ("harness.train_step", "total"),
    "model.speech_encode_ms": ("model.speech_encode", "self"),
    "model.visual_encode_ms": ("model.visual_encode", "self"),
    "model.extract_mask_ms": ("model.extract_mask", "self"),
    "model.decode_ms": ("model.decode", "self"),
    "losses.loss_graph_ms": ("losses.loss_graph", "per_step"),
    "autodiff.backward_ms": ("autodiff.backward", "self"),
    "autodiff.adam_step_ms": ("autodiff.adam_step", "self"),
    "checkpoint.save_ms": ("checkpoint.save", "self"),
    "checkpoint.load_ms": ("checkpoint.load", "self"),
    "synth.gen_utterance_ms": ("synth.gen_utterance", "self"),
    "mixsim.plan_clip_ms": ("mixsim.plan_clip", "self"),
    "mixsim.simulate_general_ms": ("mixsim.simulate_general", "self"),
    "scenario.label_scenarios_ms": ("scenario.label_scenarios", "self"),
    "mixsim.apply_occlusion_ms": ("mixsim.apply_occlusion", "self"),
    "audio_io.write_ms": ("audio_io.write", "self"),
    "mixsim.write_visemes_ms": ("mixsim.write_visemes", "self"),
    "audio_io.read_ms": ("audio_io.read", "self"),
    "mixsim.load_record_ms": ("mixsim.load_record", "self"),
    "metrics.eval_report_ms": ("metrics.eval_report", "self"),
    "metrics.write_report_ms": ("metrics.write_report", "self"),
    "mixsim.corpus_stats_ms": ("mixsim.corpus_stats", "self"),
}
# Per-layer counts -> (counter, what it is divided by, unit).
COUNT_METRICS = {
    "autodiff.graph_nodes": ("autodiff.graph_nodes", "steps", "count"),
    "autodiff.lstm_cell_nodes": ("autodiff.lstm_cell_nodes", "steps", "count"),
    "autodiff.slice_nodes": ("autodiff.slice_nodes", "steps", "count"),
    "checkpoint.bytes": ("checkpoint.bytes", "saves", "B"),
    "audio_io.bytes_written": ("audio_io.bytes_written", "clips", "B"),
}
UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "train_clips_per_s": "clips/s",
    "evaluate_rtf": "s/s", "simulate_clips_per_s": "clips/s",
    "reload_clips_per_s": "clips/s",
}


def _import_usev():
    """Put the checkout's src/ first on the path; refuse any other usev."""
    src = ROOT / "src"
    if not (src / "usev" / "__init__.py").is_file():
        sys.exit(f"perfbench: no usev sources under {src}; run from a checkout")
    sys.path[:0] = [str(src), str(HERE)]
    import usev
    if Path(usev.__file__).resolve().parent != (src / "usev").resolve():
        sys.exit(f"perfbench: imported usev from {usev.__file__}, not {src}")


class Run:
    """Counts and timings of one benchmark run."""

    def __init__(self, w, seed: int, seeds: list[int], work: Path):
        self.w, self.seed, self.seeds, self.work = w, seed, seeds, work
        self.attempted = dict.fromkeys(w.ops_per_round, 0)
        self.failed = dict.fromkeys(w.ops_per_round, 0)
        self.errors: list[str] = []
        self.rounds = 0

    def round(self, init_checkpoint: Path, digest: str, label: str):
        """One timed round; returns (stage seconds, end-to-end figures), or
        None when a stage raised. The round's records and model are dropped
        here, so memory does not grow with the number of rounds."""
        import workloads
        gc.collect()  # every round starts from the same collector state
        self.rounds += 1
        out = self.work / f"round{self.rounds}"
        ops = self.w.ops_per_round
        for stage, n in ops.items():
            self.attempted[stage] += n
        try:
            r = workloads.run_round(self.w, self.seed, self.seeds, init_checkpoint, out)
            if r.failed_stage is None and workloads.output_digest(out) != digest:
                self.errors.append(f"{label} round {self.rounds} wrote other bytes "
                                   "than the warm-up round")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if r.failed_stage is not None:
            stages = list(ops)
            for stage in stages[stages.index(r.failed_stage):]:
                self.failed[stage] += ops[stage]
            return None
        return r.seconds, workloads.stage_metrics(self.w, r)


def warm_up(w, seed: int, seeds: list[int], init_checkpoint: Path, out: Path):
    """The untimed first round. Returns its result, the (record, estimate)
    pairs its evaluation scored, and the digest every timed round must
    reproduce; its files stay in `out` for the checks."""
    import workloads
    from usev import harness

    captured = []
    extraction_pairs = harness.extraction_pairs

    def capture(model, records):
        pairs = extraction_pairs(model, records)
        captured.append(pairs)
        return pairs

    harness.extraction_pairs = capture
    try:
        r = workloads.run_round(w, seed, seeds, init_checkpoint, out)
    finally:
        harness.extraction_pairs = extraction_pairs
    if r.failed_stage is not None:
        raise RuntimeError(f"warm-up round failed in its {r.failed_stage} stage")
    return r, captured[0], workloads.output_digest(out)


def per_layer(w, tracer, traced_rounds: int) -> dict[str, tuple]:
    """Per-layer figures over the traced rounds, as (value, unit)."""
    summary = tracer.summary()
    counts = tracer.counts
    steps = counts["train.steps"]
    out = {}
    for metric, (span, stat) in SPAN_METRICS.items():
        row = summary.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        if stat == "per_step":
            value = row["self_s"] / steps if steps else 0.0
        else:
            key = "total_s" if stat == "total" else "self_s"
            value = row[key] / row["calls"] if row["calls"] else 0.0
        out[metric] = (1e3 * value, "ms")
    divisors = {"steps": steps,
                "saves": summary.get("checkpoint.save", {"calls": 0})["calls"],
                "clips": w.corpora * w.clips * traced_rounds}
    for metric, (counter, per, unit) in COUNT_METRICS.items():
        out[metric] = (counts[counter] / divisors[per] if divisors[per] else 0.0, unit)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_usev()
    import tracer as tr
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=scratch))
    clock = time.perf_counter
    try:
        seeds = workloads.corpus_seeds(w, args.seed)
        setup_s = []
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            ckpt = workloads.setup(w, args.seed, seeds[0], work / "setup")
            setup_s.append(clock() - t0)
        warm, pairs, digest = warm_up(w, args.seed, seeds, ckpt, work / "warmup")

        run = Run(w, args.seed, seeds, work)
        untraced, traced = [], []  # (stage seconds, figures) per completed round
        tracer = tr.Tracer()
        deadline = clock() + args.seconds
        last = 0.0
        # Start a round only while the previous one would still fit.
        while not run.rounds or clock() + last <= deadline:
            t0 = clock()
            r = run.round(ckpt, digest, "untraced")
            if r is not None:
                untraced.append(r)
            if args.trace:
                uninstall = tr.install(tracer)
                try:
                    r = run.round(ckpt, digest, "traced")
                finally:
                    uninstall()
                if r is not None:
                    traced.append(r)
            last = clock() - t0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run.errors += workloads.check_round(w, seeds, warm, pairs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for stage in w.ops_per_round:
        print(f"{w.name} seed {args.seed}: {stage} attempted "
              f"{run.attempted[stage]}, failed {run.failed[stage]}")
    for e in run.errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    if not untraced or (args.trace and not traced):
        print("no round completed", file=sys.stderr)
        return 1

    def medians(rounds):
        return {k: statistics.median(m[k] for _, m in rounds) for k in rounds[0][1]}

    if args.trace:
        metrics = per_layer(w, tracer, len(traced))
        for stage in workloads.STAGES:
            plain = statistics.median(sec[stage] for sec, _ in untraced)
            slow = statistics.median(sec[stage] for sec, _ in traced)
            metrics[f"trace.{stage}_overhead_pct"] = (100.0 * (slow / plain - 1.0), "%")
        tracer.write_jsonl(scratch / f"spans-{w.name}-seed{args.seed}.jsonl")
    else:
        metrics = {k: (v, UNITS[k]) for k, v in medians(untraced).items()}
        metrics["setup_s"] = (statistics.median(setup_s), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not run.errors,
        "attempted": sum(run.attempted.values()),
        "failed": sum(run.failed.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


# glibc moves its mmap and trim thresholds with the sizes a process has
# freed, so whether a large array comes from the heap or is freshly mapped
# (and page-faulted) would depend on the run's history; runs of the full-scale
# workload fell into two speed modes that way. Fixed thresholds make every
# run allocate alike. glibc reads them only at start-up, hence the re-exec.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "33554432",
              "MALLOC_TRIM_THRESHOLD_": "1073741824"}

if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in MALLOC_ENV.items()):
        os.environ.update(MALLOC_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
