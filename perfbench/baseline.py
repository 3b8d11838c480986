"""Record or print the benchmark baseline kept in perfbench/baseline.json.

    python3 perfbench/baseline.py show
        every metric by name and unit, with its recorded median (and the
        spread across seeds for the end-to-end metrics), per workload

    python3 perfbench/baseline.py record [--seeds 1-10] [--workloads ...]
        runs BENCHMARK.json's command once per seed per workload with
        tracing off, then once per workload with tracing on at the default
        seed, and rewrites baseline.json: the machine, the Python version,
        the output digests at the default seed, and for every end-to-end
        metric the median, the quartiles and the spread (q3 - q1) / median

Run from the root of the checkout.  Recording takes about
(seeds + 1) * workloads * (run_seconds + 10) seconds; run nothing else
meanwhile.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline.json")
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def load(path):
    with open(path) as f:
        return json.load(f)


def machine():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s failed (%d):\n%s%s" % (" ".join(cmd), proc.returncode, proc.stdout, proc.stderr))
    result = json.loads(lines[-1])
    digest = next((l.rsplit("digest ", 1)[1] for l in lines if "digest " in l), None)
    return result, digest


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "runs": values}


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(args):
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    base = load(BASELINE) if os.path.exists(BASELINE) else {}
    base["machine"] = machine()
    base.setdefault("digests", {})
    base.setdefault("end_to_end", {})
    base.setdefault("per_layer", {})
    base["run_seconds"] = bench["run_seconds"]
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    for workload in names:
        # The digest at the default seed first: later runs are gated on it.
        result, digest = run_once(bench, workload, workloads.DEFAULT_SEED, 1)
        if not result["correct"]:
            raise SystemExit("%s: traced run at the default seed is not correct" % workload)
        base["digests"][workload] = digest
        base["per_layer"][workload] = {k: v for k, v in result["metrics"].items()}
        with open(BASELINE, "w") as f:
            json.dump(base, f, indent=1, sort_keys=True)
        values = {}
        for seed in args.seeds:
            result, _ = run_once(bench, workload, seed, 0)
            if not result["correct"]:
                raise SystemExit("%s seed %d: not correct" % (workload, seed))
            for name, m in result["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
            print("%s seed %d: %s" % (workload, seed, ", ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)
        base["end_to_end"][workload] = {
            name: dict(spread(vals), unit=unit) for name, (unit, vals) in values.items()
        }
        base["end_to_end"][workload]["seeds"] = args.seeds
        with open(BASELINE, "w") as f:
            json.dump(base, f, indent=1, sort_keys=True)
    show(args)


def show(args):
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    base = load(BASELINE)
    m = base.get("machine", {})
    print("machine: %s, nproc %s, Python %s; run_seconds %s" % (
        m.get("cpu"), m.get("nproc"), m.get("python"), base.get("run_seconds")))
    bounds = {e["name"]: e["bound"] for e in bench["end_to_end"]}
    for w in bench["workloads"]:
        name = w["name"]
        e2e = base.get("end_to_end", {}).get(name, {})
        print("\n%s  (%s)" % (name, w["why"]))
        print("  digest at seed %d: %s" % (workloads.DEFAULT_SEED, base["digests"].get(name)))
        print("  seeds %s" % e2e.get("seeds"))
        for metric in bench["end_to_end"]:
            rec = e2e.get(metric["name"])
            if rec:
                print("  %-34s %-6s median %-12.6g spread %.3f (bound %.2f)" % (
                    metric["name"], metric["unit"], rec["median"], rec["spread"], bounds[metric["name"]]))
        layer = base.get("per_layer", {}).get(name, {})
        for metric in bench["per_layer"]:
            rec = layer.get(metric["name"])
            if rec is not None:
                print("  %-34s %-6s %.6g" % (metric["name"], metric["unit"], rec["value"]))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("record")
    r.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    r.add_argument("--workloads", nargs="*")
    sub.add_parser("show")
    args = p.parse_args()
    (record if args.cmd == "record" else show)(args)


if __name__ == "__main__":
    main()
