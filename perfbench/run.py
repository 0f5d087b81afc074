"""klora benchmark: one workload per process, BLAS pinned to one thread.

    python3 perfbench/run.py --workload fit-small --seed 1 --seconds 30 --trace 0

Run it from the repository root. It repeats the workload's fixed unit of work
for about --seconds, checks every output, prints each metric by name and unit,
and ends with one JSON line {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json. With
--trace 1 plain units alternate with units run under span wrappers, and the
metrics are the per-layer ones. Results, digests and spans are written under
.perfbench-out/. README.md beside this file describes the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

BLAS_THREADS = 1
PINNED_ENV = {"OPENBLAS_NUM_THREADS": str(BLAS_THREADS), "OMP_NUM_THREADS": str(BLAS_THREADS),
              "MKL_NUM_THREADS": str(BLAS_THREADS), "NUMPY_MADVISE_HUGEPAGE": "0"}
SETUP_REPEATS = 9
YARDSTICK_LOOP = 300_000  # iterations of the interpreter yardstick; about 25 ms on a 2.1 GHz Xeon
YARDSTICK_ARRAY = (768, 768, 4)  # float64 shape of the memory yardstick's arrays, 19 MiB each
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("fit-small", "merge-large", "train-sparse")
KINDS = ("linear", "p-linear", "mix-k")
# ROADMAP item 1 baseline, measured before this benchmark existed
ROADMAP_FIT_US = {"linear": 124.0, "p-linear": 565.0, "mix-k": 579.0}
ROADMAP_MERGE_768 = {"kernels.merge.fwd_bwd_ms": 463.0, "kernels.merge.peak_mib": 149.0}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_environment() -> None:
    """Fix BLAS threads and numpy's huge-page advice before numpy is imported.

    With huge-page advice on, the kernel grants a huge page only when the host
    has a free 2 MiB block, so RSS and fault costs would follow the state of
    the host's memory rather than the program's.
    """
    os.environ.update(PINNED_ENV)


def load_workloads() -> dict:
    """Import the benchmark's workloads against the checkout's own src/."""
    if not (SRC / "klora" / "__init__.py").is_file():
        sys.exit(f"no klora package under {SRC}")
    sys.path.insert(0, str(SRC))
    import klora
    import workloads

    if Path(klora.__file__).resolve().parent != SRC / "klora":
        sys.exit(f"klora was imported from {klora.__file__}, not from {SRC}")
    return workloads.WORKLOADS


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": BLAS_THREADS, "pinned_env": PINNED_ENV,
        "machine": platform.machine(),
    }


def setup_seconds(args) -> float:
    """Imports plus set-up up to the first step, timed in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.split()[-1])


def run_phase(wl, state, seconds: float, scratch: Path, tracer=None, full=False) -> list:
    """Repeat the workload's unit while another one should end within `seconds`.

    Each unit's outputs are checked right after it, untraced, and then
    dropped, so peak memory does not grow with the number of units.
    """
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    units = []
    elapsed = 0.0
    while not units or elapsed + 0.5 * elapsed / len(units) < seconds:
        lo = len(tracer.spans) if tracer else 0
        with span("unit"):
            t0 = time.perf_counter()
            output = wl.run_unit(state, span, scratch, full)
            took = time.perf_counter() - t0
        stick = YARDSTICKS[wl.yardstick]()
        elapsed += took + stick
        unit = wl.summarize(output)
        unit.update(seconds=took, yardstick_seconds=stick,
                    spans=(lo, len(tracer.spans)) if tracer else None)
        with tracer.paused() if tracer else contextlib.nullcontext():
            unit["checks"], unit["observed"] = wl.verify(output)
        units.append(unit)
    return units


def steps_per_s(units) -> float:
    """Median wall-clock step rate over the units."""
    return statistics.median(u["steps"] / u["seconds"] for u in units)


def steps_per_yardstick(units) -> float:
    """Median over the units of the steps completed in the time one yardstick takes.

    Other tenants of a shared host slow the CPU by up to 40% for tens of
    seconds at a time. The workload's yardstick, a fixed piece of work timed
    right after each unit that leans on the same resource as the workload,
    slows with it, so a unit's step rate times the yardstick's time cancels
    most of the drift.
    """
    return statistics.median(u["steps"] / u["seconds"] * u["yardstick_seconds"] for u in units)


def interpreter_yardstick() -> float:
    """Seconds for a fixed pure-Python integer loop: the interpreter's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(YARDSTICK_LOOP):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def memory_yardstick() -> float:
    """Seconds to fill fresh 19 MiB arrays and stream them through two elementwise ops."""
    import numpy as np

    t0 = time.perf_counter()
    x = np.full(YARDSTICK_ARRAY, 1.5)
    y = np.multiply(x, 1.0001)
    np.add(y, x, out=y)
    del x, y
    return time.perf_counter() - t0


YARDSTICKS = {"interpreter": interpreter_yardstick, "memory": memory_yardstick}


def layer_metrics(tracer, setup_end: int, units_b: list) -> dict:
    lo, hi = units_b[0]["spans"][0], units_b[-1]["spans"][1]
    calls, dur, own = Counter(), defaultdict(float), defaultdict(float)
    for name, d, s in tracer.self_times(lo, hi):
        calls[name] += 1
        dur[name] += d
        own[name] += s
    n_units = len(units_b)

    def per_call(*names, per=None):
        count = calls[per or names[0]]
        return 1e3 * sum(dur[n] for n in names) / count if count else 0.0

    m = {"tensor.backward.ms": per_call("tensor.backward"),
         "tensor.nodes_per_step": tracer.nodes_per_step()}
    for kind in KINDS:
        m[f"kernels.merge.ms.{kind}"] = per_call(f"kernels.merge.{kind}")
    m["kernels.merge.calls"] = sum(calls[f"kernels.merge.{k}"] for k in KINDS) / n_units
    for part in ("sparsify", "alloc", "layer_score"):
        m[f"allocation.{part}.ms"] = per_call(f"allocation.{part}")
        m[f"allocation.{part}.calls"] = calls[f"allocation.{part}"] / n_units
    m["allocation.importance.ms"] = per_call(
        "allocation.importance.update", "allocation.importance.sensitivity",
        per="allocation.importance.update")
    m["allocation.importance.calls"] = calls["allocation.importance.update"] / n_units
    forward_calls = calls["model.forward"]
    m["model.forward.self_ms"] = (
        1e3 * sum(v for n, v in own.items() if n.startswith("model.forward")) / forward_calls
        if forward_calls else 0.0)
    m["model.adam.ms"] = per_call("model.adam")
    m["model.adam.calls"] = calls["model.adam"] / n_units
    m["experiments.target.ms"] = per_call(
        "experiments.target.draw", "experiments.target.rank", per="experiments.target.draw")
    m["checkpoint.roundtrip.ms"] = per_call("checkpoint.save", "checkpoint.load",
                                            per="checkpoint.save")
    setup = tracer.self_times(0, setup_end)
    builds = [d for name, d, _ in setup if name == "datasets.build"]
    m["datasets.build.ms"] = 1e3 * sum(builds) / len(builds) if builds else 0.0
    m["trace.unaccounted_share"] = own["unit"] / dur["unit"]
    return m


def layer_table(tracer, units_a: list, units_b: list) -> list:
    """Self time per step by layer over the traced units; 'unit' is time outside spans.

    The last row sets the time inside layer spans against the untraced step time.
    """
    lo, hi = units_b[0]["spans"][0], units_b[-1]["spans"][1]
    steps = sum(u["steps"] for u in units_b)
    by_layer = defaultdict(float)
    for name, _, s in tracer.self_times(lo, hi):
        by_layer[name.split(".")[0]] += s
    total = sum(by_layer.values())
    rows = [f"  {layer:<12} {1e3 * s / steps:10.4f} ms/step {100 * s / total:6.2f}%"
            for layer, s in sorted(by_layer.items(), key=lambda kv: -kv[1])]
    in_spans = 1e3 * (total - by_layer["unit"]) / steps
    untraced = 1e3 / steps_per_s(units_a)
    rows.append(f"  layer spans {in_spans:.4f} ms/step, untraced step {untraced:.4f} ms: "
                f"{in_spans / untraced - 1:+.2%}")
    return rows


def digest_of_units(units) -> str:
    """One digest for the run: the distinct unit digests, keyed by unit length."""
    by_length = sorted({(u["steps"], u["digest"]) for u in units})
    return hashlib.sha256(json.dumps(by_length).encode()).hexdigest()


def code_hash() -> str:
    h = hashlib.sha256()
    for base in (SRC, Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cross_run_checks(key: str, digest: str, counts) -> list:
    """Compare with earlier runs of the same workload, seed and code; then record."""
    store_path = OUT / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    seen = store.setdefault(key, {})
    checks = []
    if "digest" in seen:
        checks.append(("digest.cross_run", seen["digest"] == digest,
                       f"earlier {seen['digest']}, now {digest}"))
    seen.setdefault("digest", digest)
    if counts is not None:
        if "counts" in seen:
            checks.append(("counts.cross_run", seen["counts"] == counts,
                           f"earlier {seen['counts']}, now {counts}"))
        seen.setdefault("counts", counts)
    tmp = store_path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, store_path)
    return checks


def plain_run(wl, args, scratch: Path) -> tuple:
    setup_times = [setup_seconds(args) for _ in range(SETUP_REPEATS)]
    state = wl.prepare(args.seed)
    # the checked full-length unit doubles as warm-up and counts toward the time
    checked = run_phase(wl, state, 0, scratch, full=True)
    units = run_phase(wl, state, args.seconds - checked[0]["seconds"], scratch)
    metrics = {"peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               "steps_per_s": steps_per_s(units),
               "steps_per_yardstick": steps_per_yardstick(units),
               "setup_s": statistics.median(setup_times)}
    return checked + units, metrics, {"setup_seconds": setup_times}


def traced_run(wl, args, scratch: Path, env: dict) -> tuple:
    import workloads
    from tracing import Tracer

    tracer = Tracer()
    state_a = wl.prepare(args.seed)
    with tracer.installed(), tracer.span("setup"):
        state_b = wl.prepare(args.seed)
    setup_end = len(tracer.spans)
    checked = run_phase(wl, state_a, 0, scratch, full=True)
    # plain and traced units alternate, so drift in machine load hits both
    units_a, units_b = [], []
    elapsed = checked[0]["seconds"]
    while not units_a or elapsed * (1 + 0.5 / len(units_a)) < args.seconds:
        units_a += run_phase(wl, state_a, 0, scratch)
        with tracer.installed():
            units_b += run_phase(wl, state_b, 0, scratch, tracer)
        elapsed = sum(u["seconds"] for u in checked + units_a + units_b)

    metrics = layer_metrics(tracer, setup_end, units_b)
    metrics["trace_overhead"] = steps_per_s(units_a) / steps_per_s(units_b) - 1.0
    metrics.update(workloads.merge_probe(wl.probe_shape))
    metrics.update({f"experiments.fit_us_per_step.{k}": 0.0 for k in KINDS})
    metrics.update(wl.step_probes(args.seed))
    per_unit = [dict(sorted(tracer.counts(*u["spans"]).items())) for u in units_b]
    lines = ["self time by layer, traced units:"]
    lines += layer_table(tracer, units_a, units_b)
    lines += baseline_table(args.workload, metrics)
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json", env)
    return checked + units_a + units_b, metrics, {
        "lines": lines,
        "counts": {"nodes_per_step": metrics["tensor.nodes_per_step"], "calls": per_unit[0]},
        "counts_repeat": all(c == per_unit[0] for c in per_unit),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    if args.setup_only:
        t0 = time.perf_counter()
        load_workloads()[args.workload].setup_probe(args.seed)
        print(repr(time.perf_counter() - t0))
        return 0

    wl = load_workloads()[args.workload]
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.trace:
            units, metrics, extra = traced_run(wl, args, Path(tmp), env)
        else:
            units, metrics, extra = plain_run(wl, args, Path(tmp))
    metrics["final_loss"] = units[0]["final_loss"]
    metrics.setdefault("allocation.live_over_budget",
                       units[-1]["observed"].get("allocation.live_over_budget", 0.0))

    checks = [c for unit in units for c in unit["checks"]]
    # the checked unit may be longer than the timed ones; units of one length agree
    by_length = defaultdict(set)
    for u in units:
        by_length[u["steps"]].add(u["digest"])
    repeat_ok = all(len(d) == 1 for d in by_length.values())
    checks.append(("digest.repeat", repeat_ok,
                   f"distinct digests per unit length: {[len(d) for d in by_length.values()]}"))
    digest = digest_of_units(units)
    if "counts_repeat" in extra:
        checks.append(("counts.repeat", extra["counts_repeat"],
                       "call counts differ between traced units"))
    checks += workloads.merge_reference_checks(wl.merge_shapes, args.seed)
    key = f"{args.workload}/seed{args.seed}/{code_hash()}"
    checks += cross_run_checks(key, digest, extra.get("counts"))

    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[section]}
    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    failed = [c for c in checks if not c[1]]
    result = {
        "correct": not failed, "attempted": len(checks), "failed": len(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in declared.items()},
    }
    record = {"env": env, "digest": digest, "checks": checks, "result": result,
              "units": [{"seconds": u["seconds"], "yardstick_seconds": u["yardstick_seconds"],
                         "steps": u["steps"]} for u in units],
              "setup_seconds": extra.get("setup_seconds", [])}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    for line in extra.get("lines", []):
        print(line)
    for name, _, detail in failed:
        print(f"FAILED {name}: {detail}")
    print(f"units {len(units)}, steps per checked unit {units[0]['steps']}, "
          f"per timed unit {units[-1]['steps']}, digest {digest}")
    print(f"checks {len(checks)} attempted, {len(failed)} failed, "
          f"error_rate {len(failed) / len(checks)!r} ratio")
    if not args.trace:
        print(f"steps_per_s = {metrics['steps_per_s']!r} 1/s (wall clock, ungated)")
    for name, unit in declared.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    print(json.dumps(result), flush=True)
    return 0


def baseline_table(workload: str, metrics: dict) -> list:
    """The ROADMAP item-1 table rows this workload measures, beside the old figures."""
    rows = []
    if workload == "fit-small":
        for kind in KINDS:
            got = metrics[f"experiments.fit_us_per_step.{kind}"]
            rows.append(f"  fit step 32x32 r4 {kind:<8} {got:9.1f} us   "
                        f"(ROADMAP {ROADMAP_FIT_US[kind]:.0f} us)")
    if workload == "merge-large":
        for name, old in ROADMAP_MERGE_768.items():
            rows.append(f"  mix-k 768 r8 {name:<26} {metrics[name]:9.1f}   (ROADMAP {old:.0f})")
    return ["baseline table:"] + rows if rows else []


if __name__ == "__main__":
    sys.exit(main())
