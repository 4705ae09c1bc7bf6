"""Codec benchmark: seeded corpus, timed closed loop, output checks, metrics.

    python3 perfbench/run.py --workload encode_photo --seed 1 --seconds 20 --trace 0

One client, closed loop: each op starts when the previous one ends. Set-up
runs in a child process, so peak_rss_mb is the memory the timed loop's
process needs, not what building the inputs took. The loop runs whole
passes over the corpus until --seconds have gone by, so every image counts
equally. With --trace 0 it prints the end-to-end metrics; with --trace 1
it runs every op twice, untraced then traced, and prints per-layer metrics
from the traced ops' spans, which it also writes to
.perfbench/spans_<workload>.npz. Every output is checked off the clock; the
last stdout line is a JSON object with keys correct, attempted, failed and
metrics. Exit code 0 means every check passed, 1 that some failed, 2 that
the benchmark could not run.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import ctypes
import hashlib
import json
import multiprocessing
import os
import pathlib
import platform
import resource
import statistics
import sys
import time
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# set-up repeats until it has run SETUP_MIN_REPEATS times and SETUP_MIN_S
# seconds, or SETUP_MAX_REPEATS times; setup_s is the median
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 3.0
SETUP_MAX_REPEATS = 200
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, from glibc's malloc.h
DEFAULT_SEED = 1
DEFAULT_SECONDS = 20

# (name, unit, better, bound): the share of the parent's median by which a
# metric may get worse before a change counts as a regression. The time
# bounds sit at two to four times the quartile spread over ten seeds on a
# noisy 2-core host. bpp and psnr_db repeat exactly for a seed and vary by
# under 0.2% across seeds (corpus.py), so their bounds are kept small.
END_TO_END = (
    ("throughput_mpix_s", "MP/s", "higher", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("op_ms_p90", "ms", "lower", 0.25),
    ("bpp", "bit/px", "lower", 0.01),
    ("psnr_db", "dB", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)


def percentile(values, q: float) -> float:
    """q-th percentile (0-100), interpolating linearly between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def failing_layer(exc: BaseException) -> str:
    """The codec module whose code raised, from the innermost codec frame."""
    layer = "bench"
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith("mnscodec."):
            layer = module.split(".", 1)[1]
        tb = tb.tb_next
    return layer


def load_codec():
    """Import mnscodec from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path[:0] = [str(ROOT), str(src)]
    import mnscodec

    if not pathlib.Path(mnscodec.__file__).resolve().is_relative_to(src):
        raise ImportError(f"mnscodec imported from {mnscodec.__file__}, not from {src}")
    return mnscodec


def environment(mnscodec) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mnscodec": mnscodec.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "commit": commit,
    }


def keep_freed_memory() -> None:
    """Have glibc keep freed memory for reuse rather than hand it back to the
    OS. Otherwise each corpus build faults its ~150 MB of temporaries in
    afresh, and the kernel's fault handling made setup_s vary by 15-30%
    across runs. Other C libraries are left as they are."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    libc.mallopt(M_TRIM_THRESHOLD, 1 << 30)
    libc.mallopt(M_MMAP_THRESHOLD, 32 << 20)  # glibc's largest


def timed_setup(name: str, seed: int) -> tuple[list, list[float]]:
    """Build the workload's inputs several times; return the last build and
    each build's time. The corpus build is scaled by the corpus gauge, and
    each item's `prepare` codec calls by the op gauge, as ops are (speed.py).
    Meant for a child process, as it changes how the process's heap works."""
    from perfbench import speed, workloads

    keep_freed_memory()
    workload = workloads.WORKLOADS[name]
    corpus_gauge = speed.corpus_gauge()
    op_gauge = speed.SpeedGauge() if workload.prepare else None
    times: list[float] = []
    begin = time.perf_counter()
    while len(times) < SETUP_MIN_REPEATS or (time.perf_counter() - begin < SETUP_MIN_S
                                             and len(times) < SETUP_MAX_REPEATS):
        start = time.perf_counter()
        items = workload.setup(seed)
        elapsed = (time.perf_counter() - start) * corpus_gauge.scale()
        if workload.prepare:
            for i, item in enumerate(items):
                start = time.perf_counter()
                items[i] = workload.prepare(item)
                elapsed += (time.perf_counter() - start) * op_gauge.scale()
        times.append(elapsed)
    return items, times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One workload's timed loop and its bookkeeping."""

    def __init__(self, workload, items, gauge, tracer=None):
        self.workload = workload
        self.items = items
        self.gauge = gauge
        self.tracer = tracer
        # item index -> op seconds, untraced and traced, scaled to the gauge's nominal speed
        self.times: dict[int, list[float]] = {i: [] for i in range(len(items))}
        self.traced_times: dict[int, list[float]] = {i: [] for i in range(len(items))}
        self.raw_times: dict[int, list[float]] = {i: [] for i in range(len(items))}  # untraced, as measured
        self.op_scale: dict[int, float] = {}  # op id -> speed scale
        self.attempted = 0
        self.failed_by_layer: Counter = Counter()
        self.first: dict[int, object] = {}  # item index -> first output
        self.digests: dict[int, tuple[bytes, bytes]] = {}
        self.ok_ops: Counter = Counter()  # item index -> completed ops
        self.traced: list = []  # (op id, item, output) of completed traced ops

    def _fail(self, layer: str) -> None:
        self.failed_by_layer[layer] += 1

    def _one(self, index: int, traced: bool) -> None:
        item = self.items[index]
        self.attempted += 1
        op_id = self.attempted
        start = time.perf_counter()
        try:
            if traced:
                with self.tracer.traced_op(op_id):
                    out = self.workload.op(item)
            else:
                out = self.workload.op(item)
        except Exception as exc:  # count it against the layer that raised and keep going
            self._fail(failing_layer(exc))
            return
        finally:
            elapsed = time.perf_counter() - start
            scale = self.op_scale[op_id] = self.gauge.scale()
            if traced:
                self.traced_times[index].append(elapsed * scale)
            else:
                self.times[index].append(elapsed * scale)
                self.raw_times[index].append(elapsed)
        digests = out.digests()
        known = self.digests.setdefault(index, digests)
        if known != digests:  # the same input must give the same bytes every time
            self._fail("encoder" if known[0] != digests[0] else "decoder")
            return
        self.first.setdefault(index, out)
        self.ok_ops[index] += 1
        if traced:
            self.traced.append((op_id, item, out))

    def loop(self, seconds: float) -> None:
        start = time.perf_counter()
        while True:
            for index in range(len(self.items)):
                self._one(index, traced=False)
                if self.tracer is not None:
                    self._one(index, traced=True)
            if time.perf_counter() - start >= seconds:
                return


def pass_seconds(times: dict[int, list[float]]) -> float:
    """Time of a typical pass over the corpus: the sum of each image's median
    op time. Medians keep an op that straddled a change of machine speed
    from moving the result."""
    return sum(statistics.median(t) for t in times.values())


def check_outputs(run, evaluate):
    """Check each item's output once (repeats were digest-compared) and gather rate and quality."""
    bits = pixels = 0
    psnrs = []
    digest = hashlib.sha256()
    for index, item in enumerate(run.items):
        out = run.first.get(index)
        if out is None:
            continue
        try:
            ev = evaluate(item, out)
        except Exception as exc:
            failures = [(failing_layer(exc), f"check raised {exc!r}")]
        else:
            failures = ev.failures
            bits += ev.bits
            pixels += item.pixels
            psnrs.append(ev.psnr_db)
            digest.update(ev.digest)
        for layer, what in failures:
            print(f"check failed: {item.name}: {layer}: {what}", file=sys.stderr)
        if failures:  # every op of this item produced the failing output
            run.failed_by_layer[failures[0][0]] += run.ok_ops[index]
            run.ok_ops[index] = 0
    return bits, pixels, psnrs, digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:  # before numpy loads: BLAS sizes its thread pool at import
        os.environ[var] = "1"
    try:
        mnscodec = load_codec()
        from perfbench import layers, spans, speed, workloads
    except ImportError as exc:
        print(f"perfbench: cannot load the codec from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = workloads.WORKLOADS[args.workload]

    with concurrent.futures.ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        items, setup_times = pool.submit(timed_setup, workload.name, args.seed).result()
    rss_before_loop = peak_rss_mb()
    run = Run(workload, items, speed.SpeedGauge(), spans.Tracer() if args.trace else None)
    run.loop(args.seconds)
    rss_loop = peak_rss_mb()  # before the checks, which decode off the clock
    gauge = run.gauge
    bits, pixels, psnrs, digest = check_outputs(run, workloads.evaluate)
    failed = sum(run.failed_by_layer.values())
    # each image's pixels, weighted by the share of its ops that completed
    completed = sum(item.pixels * run.ok_ops[i] / (len(run.times[i]) + len(run.traced_times[i]))
                    for i, item in enumerate(items))

    env = environment(mnscodec)
    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"corpus {len(items)} images: {', '.join(item.name for item in items)}")
    print(f"ops attempted={run.attempted} failed={failed} error_rate={failed / run.attempted:.4g}"
          + "".join(f" {layer}.errors={n}" for layer, n in sorted(run.failed_by_layer.items())))
    print(f"digest sha256={digest}")
    print(f"speed reference kernel ms: median {1e3 * statistics.median(gauge.readings):.2f}, "
          f"min {1e3 * min(gauge.readings):.2f}, max {1e3 * max(gauge.readings):.2f}, "
          f"nominal {1e3 * speed.NOMINAL_S:.2f}; times below are scaled to the nominal speed")

    if args.trace:
        decode_config = workloads.DECODE_CONFIG
        table = run.tracer.table()
        metrics = layers.per_layer_metrics(table.scaled(run.op_scale), run.traced, run.tracer.final_deltas,
                                           run.failed_by_layer, decode_config.max_iters, decode_config.stop_delta)
        # both halves ran the same images the same number of times
        metrics["trace.throughput_ratio"] = pass_seconds(run.times) / pass_seconds(run.traced_times)
        metrics["unscaled.throughput_mpix_s"] = completed / 1e6 / pass_seconds(run.raw_times)
        metrics["unscaled.op_ms_p50"] = percentile([1e3 * statistics.median(t) for t in run.raw_times.values()], 50)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        spans.save_spans(table, run.op_scale, out_dir / f"spans_{workload.name}.npz")
        print(f"spans {len(table.name)} over {len(run.traced)} traced ops written to "
              f"{(out_dir / f'spans_{workload.name}.npz').relative_to(ROOT)}")
        units = layers.PER_LAYER_UNITS
    else:
        # an image's latency is the median of its repeats, which keeps ops that
        # ran through a slow spell of the machine from setting the percentiles
        image_ms = [1e3 * statistics.median(times) for times in run.times.values()]
        samples = sum(len(times) for times in run.times.values())
        metrics = {
            "throughput_mpix_s": completed / 1e6 / pass_seconds(run.times),
            "op_ms_p50": percentile(image_ms, 50),
            "op_ms_p90": percentile(image_ms, 90),
            "bpp": bits / pixels if pixels else 0.0,
            "psnr_db": statistics.fmean(psnrs) if psnrs else 0.0,
            "peak_rss_mb": rss_loop,
            "setup_s": statistics.median(setup_times),
        }
        units = {name: unit for name, unit, _, _ in END_TO_END}
        print(f"samples op_ms: {len(image_ms)} images, {samples} ops; setup_s median of {len(setup_times)}; "
              f"peak_rss_mb before the loop {rss_before_loop:.1f}; unscaled throughput_mpix_s "
              f"{completed / 1e6 / pass_seconds(run.raw_times):.6g}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
