"""Run every workload over several seeds and record the baseline.

    python3 perfbench/baseline.py [--seeds 1,2,3,4,5,6,7,8,9,10] [--out perfbench/baseline.json]

For each workload it makes one untraced run per seed and one traced run at
the default seed, one at a time, each with BENCHMARK.json's run_seconds. It
prints, per end-to-end metric, the median over seeds and the spread: the
distance between the first and third quartile as a share of the median. It
flags every spread that is not below a third of the metric's bound. The
JSON it writes holds the machine, the seeds, each run's digest and metrics,
and those medians and spreads.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.run import DEFAULT_SEED, END_TO_END  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    fields = {line.split(" ", 1)[0]: line.split(" ", 1)[1] for line in lines[:-1] if " " in line}
    return {
        "seed": seed,
        "env": json.loads(fields["env"]),
        "digest": fields["digest"].removeprefix("sha256="),
        **json.loads(lines[-1]),
    }


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {name: bound for name, _, _, bound in END_TO_END}

    seconds = spec["run_seconds"]
    record = {"default_seed": DEFAULT_SEED, "seeds": seeds, "run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        traced = run_once(workload, DEFAULT_SEED, seconds, 1)
        record["env"] = runs[0]["env"]
        summary = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = {"median": statistics.median(values), "spread": spread(values) if len(values) > 1 else 0.0,
                             "unit": runs[0]["metrics"][name]["unit"]}
            flag = "" if summary[name]["spread"] < bounds[name] / 3 else "  <-- over bound/3"
            print(f"{workload:18s} {name:18s} median {summary[name]['median']:10.5g} "
                  f"spread {summary[name]['spread']:.4f} bound {bounds[name]}{flag}", flush=True)
        record["workloads"][workload] = {
            "end_to_end": summary,
            "digests": {str(r["seed"]): r["digest"] for r in runs},
            "runs": [{"seed": r["seed"], "attempted": r["attempted"], "failed": r["failed"],
                      "metrics": {k: v["value"] for k, v in r["metrics"].items()}} for r in runs],
            "per_layer_default_seed": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    pathlib.Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
