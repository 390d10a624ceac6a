"""One benchmark run: set-up, timed loop, correctness gates, metrics, result line."""

from __future__ import annotations

import gc
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

from . import spans, timing, workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
REFERENCE_PATH = os.path.join(HERE, "reference.json")
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# --seed picks one of this many recorded input variants (seed mod N), so every
# run can be checked against a recorded reference
N_VARIANTS = 8
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.0  # cheap set-ups repeat until this much wall time has passed
MIN_REPEATS = 2  # two identical train() runs (or eval passes) per phase, for the determinism gate
SETUP_PROBES = 10  # probes on each side of a set-up repetition

# Loss and score tolerance, fixed before recording: float64 runs that only
# reorder sums (2-D GEMM weight gradients, gathered head rows) stay far inside
# it; a changed loss, label or mask does not.
RTOL = 1e-8
ATOL = 1e-10


class Control:
    """Op boundaries of the untraced loop: the clock alone."""

    def __init__(self, clock):
        self.clock = clock

    def mark(self):
        self.clock.mark()

    def gap(self):
        self.clock.gap()

    def close(self):
        self.clock.close()

    def set_kind(self, kind):
        pass


class TracedControl(Control):
    def __init__(self, clock, tracer):
        super().__init__(clock)
        self.tracer = tracer
        self.mark = tracer.marker(clock)

    def gap(self):
        self.tracer.gap(self.clock)

    def close(self):
        self.tracer.close(self.clock)

    def set_kind(self, kind):
        self.tracer.kind = kind


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# gates


def matches(got, want):
    """Equal, with RTOL/ATOL on floats."""
    if isinstance(want, float) or isinstance(got, float):
        return (isinstance(got, (int, float)) and isinstance(want, (int, float))
                and abs(got - want) <= ATOL + RTOL * abs(want))
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(matches, got, want))
    return got == want


def gate_pretrain(outcome, reference, steps):
    """Failed steps: loss rows off the reference trace, or repeats whose final
    parameters differ from the first repeat's."""
    failed = 0
    first = next((d for d in outcome.digests if d is not None), None)
    for rows, digest in zip(outcome.outputs, outcome.digests):
        if rows is None or digest is None or digest != first or len(rows) != len(reference):
            failed += steps
            continue
        failed += sum(1 for got, want in zip(rows, reference) if not matches(got, want))
    if first is None:
        outcome.errors.append(("determinism", "no repeat finished"))
    elif any(d != first for d in outcome.digests):
        outcome.errors.append(("determinism", "final parameters differ between identical runs"))
    return failed


def gate_probe(outcome, reference):
    """Failed items: outputs off the reference, or different from the first pass."""
    failed = 0
    first = outcome.outputs[0] if outcome.outputs else None
    for results in outcome.outputs:
        for got, want, again in zip(results, reference, first):
            if got is None or not matches(got, want) or got != again:
                failed += 1
        failed += max(0, len(reference) - len(results))
    return failed


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# phases


def timed_setups(wl, smoke, tracer):
    """Set up repeatedly; returns (wall seconds, speed factor) of each repetition."""
    probe = timing.Probe()
    secs = []
    start = time.perf_counter()
    while not secs or not smoke and (
            len(secs) < SETUP_MIN_REPEATS or time.perf_counter() - start < SETUP_MIN_SECONDS):
        if tracer is not None:
            tracer.op_id = -2 - len(secs)
        gc.collect()
        before = probe.mean_ms(SETUP_PROBES)
        t0 = time.perf_counter()
        wl.setup()
        dt = time.perf_counter() - t0
        after = probe.mean_ms(SETUP_PROBES)
        secs.append((dt, probe.nominal_ms * 2 / (before + after)))
    if tracer is not None:
        tracer.op_id = -1
    return secs


def measure(wl, seconds, min_repeats, tracer=None):
    gc.collect()
    clock = timing.OpClock(timing.Probe(stream=wl.memory_bound))
    ctl = Control(clock) if tracer is None else TracedControl(clock, tracer)
    outcome = workloads.Outcome()
    wl.measure(ctl, seconds, min_repeats, outcome)
    wl.label_ops(outcome, len(clock.raw_ms))
    return clock, outcome


def end_to_end(clock, outcome, setups, rss_mb):
    norm = clock.normalised_ms()
    raw = np.asarray(clock.raw_ms)
    tokens = float(np.sum(outcome.op_tokens))
    setup_norm = [dt * s for dt, s in setups]
    m = {
        "setup_s": (statistics.median(setup_norm), "s", len(setups)),
        "op_ms.p50": (float(np.median(norm)), "ms", norm.size),
        "op_ms.p95": (timing.percentile(norm, 95), "ms", norm.size),
        "tokens_per_s": (tokens / (norm.sum() / 1000.0), "tokens/s", norm.size),
        "ops_per_s": (norm.size / (norm.sum() / 1000.0), "1/s", norm.size),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
    wall = {
        "setup_s": statistics.median(dt for dt, _ in setups),
        "op_ms.p50": float(np.median(raw)),
        "op_ms.p95": timing.percentile(raw, 95),
        "tokens_per_s": tokens / (raw.sum() / 1000.0),
        "ops_per_s": raw.size / (raw.sum() / 1000.0),
        "probe_ms.median": float(np.median(clock.probe_ms)),
    }
    return m, wall


# ---------------------------------------------------------------------------
# entry points


def run(args):
    variant = args.seed % N_VARIANTS
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        return _run(args, variant, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, variant, workdir):
    wl = workloads.make(args.workload, variant, args.smoke, workdir)
    reference = load_reference()[args.workload][wl.reference_key()][str(variant)]
    tracer = spans.Tracer() if args.trace else None

    if tracer is not None:
        tracer.install(count_graph=wl.pretraining)
    try:
        setups = timed_setups(wl, args.smoke, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    setup_errors = wl.check_setup()
    kept_ratio = wl.kept_ratio() if tracer is not None else None
    if not wl.pretraining:
        wl.build_items()

    if tracer is None:
        clock, outcome = measure(wl, args.seconds, MIN_REPEATS)
        # the high-water mark after a fixed amount of work, so it does not
        # depend on how many repeats the host's speed allowed
        rss = outcome.peak_rss_mb[MIN_REPEATS - 1]
    else:
        clock_off, outcome_off = measure(wl, args.seconds / 2, MIN_REPEATS)
        tracer.install(count_graph=wl.pretraining)
        try:
            clock, outcome = measure(wl, args.seconds / 2, MIN_REPEATS, tracer)
        finally:
            tracer.restore()

    attempted = len(setups)
    failed = len(setups) if setup_errors else 0
    errors = [("setup", e) for e in setup_errors]
    for checked in ([outcome] if tracer is None else [outcome_off, outcome]):
        if wl.pretraining:
            failed += gate_pretrain(checked, reference, wl.train_config.total_steps)
        else:
            failed += gate_probe(checked, reference)
        attempted += checked.attempted
        errors += checked.errors

    env = environment()
    print(f"# workload {args.workload} seed {args.seed} (input variant {variant}) "
          f"trace {int(bool(args.trace))} seconds {args.seconds} smoke {int(bool(args.smoke))}")
    print("# env " + json.dumps(env, sort_keys=True))
    if wl.notes:
        print("# sizes " + json.dumps(wl.notes, sort_keys=True))
    for what, msg in errors[:20]:
        print(f"# FAILED {what}: {msg}", file=sys.stderr)
    print(f"# error_rate {failed / attempted:.6f} ({failed} failed of {attempted} attempted)")

    section = "end_to_end" if tracer is None else "per_layer"
    declared = declared_units(section)
    if tracer is None:
        e2e, wall = end_to_end(clock, outcome, setups, rss)
        for name, (value, unit, n) in e2e.items():
            print(f"{name:<16} {value:14.6f} {unit:<9} n={n}  (wall {wall.get(name, float('nan')):.6f})")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _n) in e2e.items()}
        detail = {"wall": wall, "samples": {k: v[2] for k, v in e2e.items()}}
    else:
        per_layer = spans.layer_metrics(tracer, clock.windows, clock.scales(), [s for _, s in setups],
                                        outcome.kinds, wl.pretraining)
        per_layer["linker.kept_ratio"] = kept_ratio
        off = clock_off.normalised_ms()
        on = clock.normalised_ms()
        per_layer["trace.overhead_ms_per_op"] = float(on.mean() - off.mean())
        per_layer["trace.overhead_ratio"] = float(on.mean() / off.mean() - 1.0)
        for name in sorted(per_layer):
            print(f"{name:<40} {per_layer[name]:14.6f} {declared.get(name, '')}")
        metrics = {name: {"value": float(v), "unit": declared.get(name, "")} for name, v in per_layer.items()}
        detail = {"untraced_op_ms_mean": float(off.mean()), "traced_op_ms_mean": float(on.mean()),
                  "spans": len(tracer.spans)}
        tracer.write(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.spans.jsonl"))

    if set(metrics) != set(declared) or any(declared[k] != v["unit"] for k, v in metrics.items()):
        raise RuntimeError(f"emitted {section} metrics do not match BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(declared))}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{int(bool(args.trace))}.json"),
              "w", encoding="utf-8") as f:
        json.dump({**result, "env": env, "notes": wl.notes, "detail": detail,
                   "errors": errors[:100]}, f, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


def declared_units(section):
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def record(seeds=range(N_VARIANTS)):
    """Rewrite reference.json: loss traces and eval outputs of every variant."""
    ref = {}
    os.makedirs(OUT_DIR, exist_ok=True)
    for name in workloads.WORKLOADS:
        modes = (False, True) if name != "probe-eval" else (False,)
        for smoke in modes:
            for variant in seeds:
                workdir = tempfile.mkdtemp(prefix="record-", dir=OUT_DIR)
                try:
                    wl = workloads.make(name, variant, smoke, workdir)
                    wl.setup()
                    errors = wl.check_setup()
                    if not wl.pretraining:
                        wl.build_items()
                    _clock, outcome = measure(wl, 0.0, MIN_REPEATS)
                finally:
                    shutil.rmtree(workdir, ignore_errors=True)
                errors += outcome.errors
                if outcome.outputs[0] != outcome.outputs[1] or len(set(outcome.digests)) > 1:
                    errors.append("two identical runs differ")
                if errors:
                    raise RuntimeError(f"{name} variant {variant}: {errors}")
                ref.setdefault(name, {}).setdefault(wl.reference_key(), {})[str(variant)] = outcome.outputs[0]
                print(f"recorded {name} {wl.reference_key()} variant {variant}", flush=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as f:
        json.dump(ref, f, separators=(",", ":"), sort_keys=True)
        f.write("\n")
