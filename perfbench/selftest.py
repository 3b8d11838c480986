"""Self-tests of the benchmark itself (not of ccalc).

    python3 perfbench/selftest.py            # about a minute

Checks that:
  * the same seed gives identical inputs and different seeds differ;
  * every block holds the same mix of shapes, whatever the seed;
  * the tracer wraps every binding of every target and puts them all back;
  * a traced block's span self times add up to its wall time, within the
    tracing overhead measured against the same block untraced;
  * BENCHMARK.json lists exactly the metrics run.py prints;
  * traced runs of the three workloads show the layer profile the workloads
    were chosen for (rings leads check_all; trace_form leads algebras, where
    chow and cubic stay idle; worksheets reach exact_divide and cli.main).
"""

import json
import os
import subprocess
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def check(cond, what):
    print("%s  %s" % ("ok  " if cond else "FAIL", what))
    if not cond:
        FAILURES.append(what)


def test_seeding():
    for name in ("algebras", "worksheets"):
        a = [workloads.block(name, 7, k) for k in range(3)]
        b = [workloads.block(name, 7, k) for k in range(3)]
        c = [workloads.block(name, 8, k) for k in range(3)]
        check(a == b, "%s: the same seed gives identical inputs" % name)
        check(a != c, "%s: different seeds give different inputs" % name)
        check(a[0] != a[1], "%s: blocks of one seed differ" % name)
    def algebra_mix(seed, k):
        ops = workloads.algebra_block(seed, k)
        factors = [f for op in ops for f in op["factors"]]
        return (
            Counter(len(op["factors"]) for op in ops),
            Counter(op["cap"] for op in ops),
            Counter(op["model"] for op in ops),
            Counter(len(monos) for monos, _ in factors),
            Counter(mult for _, mult in factors),
        )

    check(algebra_mix(1, 0) == algebra_mix(2, 0) == algebra_mix(2, 5),
          "algebras: every block has the same mix of shapes")
    kinds = {
        seed: Counter(argv[0] if code == 0 else "error" for argv, code in workloads.worksheet_block(seed, 0))
        for seed in (1, 2)
    }
    check(kinds[1] == kinds[2], "worksheets: every block has the same subcommand mix")


def test_patching(ccalc):
    from ccalc import checks, chow, cli, rings

    def bindings():
        return {
            "chow.exact_divide": chow.exact_divide,  # imported by name
            "Poly.__rmul__": rings.Poly.__rmul__,  # alias of __mul__
            "cli.class_bin": cli.class_bin,  # imported from another module
            "checks.PROPERTY_SUITES[0]": checks.PROPERTY_SUITES[0][1],  # inside a tuple
        }

    originals = bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for key, fn in bindings().items():
            check(getattr(fn, "__wrapped__", None) is originals[key], "install wraps %s" % key)
        check(rings.Poly.__mul__ is rings.Poly.__rmul__, "__mul__ and __rmul__ share one wrapper")
    finally:
        tracer.uninstall()
    check(bindings() == originals and not spans.Tracer()._reachable({}),
          "uninstall restores every binding")


def test_self_time(ccalc):
    # Alternate untraced and traced runs of one block and compare the fastest
    # of each, so that a slow spell of the machine does not pose as overhead.
    bench = run.Algebras(ccalc, 3)
    untraced, traced = [], []
    for _ in range(3):
        tally = run.Tally()
        bench.run_block(0, tally, render=True)
        untraced.append(tally)
        tracer = spans.Tracer()
        tracer.install()
        tally = run.Tally()
        try:
            bench.run_block(0, tally, tracer, render=True)
        finally:
            tracer.uninstall()
        traced.append((tally, sum(row[1] for row in tracer.table().values())))
    fastest, total_self = min(traced, key=lambda t: t[0].walls[0])
    wall = fastest.walls[0]
    overhead = wall - min(t.walls[0] for t in untraced)
    check(abs(total_self - wall) <= overhead,
          "span self times %.3f s match the traced wall %.3f s within the overhead %.3f s"
          % (total_self, wall, overhead))
    check(not any(t.failures for t in untraced + [t for t, _ in traced])
          and untraced[0].digest() == fastest.digest(),
          "a traced block gives the same outputs as an untraced one")


def test_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check([m["name"] for m in bench["end_to_end"]] == [n for n, _ in run.END_TO_END],
          "BENCHMARK.json end_to_end matches run.END_TO_END")
    per_layer = [n for n, _, _, _ in run.PER_LAYER] + [n for n, _ in run.PER_LAYER_DERIVED]
    check([m["name"] for m in bench["per_layer"]] == per_layer,
          "BENCHMARK.json per_layer matches run.py's per-layer metrics")
    check([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads match run.WORKLOADS")


def traced(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(result["correct"], "%s: traced run is correct" % workload)
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_profiles():
    m = traced("check_all")
    shares = {mod: m["%s.share" % mod] for mod in spans.MODULES}
    check(max(shares, key=shares.get) == "rings", "check_all: rings has the largest share")
    m = traced("algebras")
    incl = {k: v for k, v in m.items() if k.endswith(".incl_s") and not k.startswith("etale.sw_total")}
    check(max(incl, key=incl.get) == "etale.trace_form.incl_s",
          "algebras: trace_form has the largest inclusive time below sw_total")
    check(m["chow.class_bin.calls"] == m["chow.class_z.calls"] == 0 and m["cubic.share"] == 0,
          "algebras: chow and cubic record no calls")
    m = traced("worksheets")
    check(m["rings.exact_divide.calls"] > 0 and m["cli.main.calls"] > 0,
          "worksheets: exact_divide and cli.main both record calls")


def main():
    ccalc = run.load_ccalc()
    test_seeding()
    test_patching(ccalc)
    test_self_time(ccalc)
    test_benchmark_json()
    test_profiles()
    print("%d failed" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
