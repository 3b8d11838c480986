"""ccalc benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload check_all|algebras|worksheets \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ccalc is imported from ./src.  The
last line of stdout is one JSON object {"correct", "attempted", "failed",
"metrics"}; the lines before it give the sample counts and the times as
measured.

--trace 0 reports the end-to-end metrics, measured with nothing patched.
Times are given at nominal machine speed (see REF_SECONDS):

  setup_s      median over SETUP_PROBES fresh interpreters of the time from
               the first statement to `import ccalc.cli` plus building the
               first block of seeded inputs (interpreter start excluded)
  wall_s       median time of one block: one check-all pass, or one block of
               ALGEBRA_BLOCK / WORKSHEET_BLOCK operations
  ops_per_s    median over blocks of operations completed per second
  p50_ms, p90_ms   per-operation latency (for check_all an operation is a pass)
  peak_rss_mb  peak RSS of the measuring process or its largest child

--trace 1 runs the first PREFIX[workload] blocks twice, untraced and then
with every public ccalc function wrapped in a span recorder (spans.py), and
reports the per-layer metrics: calls, self time and sizes per span, each
module's share of the traced wall time, and the tracing overhead.

Operations run in one client, closed loop, one at a time.  check_all runs
each pass in a child forked after import, so every pass starts with the caches
`ccalc check-all` would start with; worksheets runs each request in a child
the same way; algebras runs in this process, like a library session.

Correctness gates: every check line is ok; every worksheet exits with its
expected code, classz/classd JSON oracles match, and rvalue agrees with an
independent gcd; every trace_form output equals the closed form diag(2^s m_S);
alpha_0 = 1, and alpha_i = 0 above rank/2 where {2} is trivial.  A digest of
the rendered outputs of the first PREFIX blocks must equal the traced run's,
and at DEFAULT_SEED the one recorded in perfbench/baseline.json.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("check_all", "algebras", "worksheets")
PREFIX = {"check_all": 1, "algebras": 4, "worksheets": 5}  # blocks digested and traced
SETUP_PROBES = 9
REQUEST_TIMEOUT = 20.0  # seconds per worksheet request
PASS_TIMEOUT = 150.0  # seconds per check-all pass

# Spans that must record calls in a traced run of each workload.
REQUIRED = {
    "check_all": (
        "rings.mul", "rings.poly", "rings.exact_divide", "chow.class_bin", "chow.class_z",
        "etale.trace_form", "etale.sw_total", "ksymbols.symbol", "ksymbols.kmul",
        "cubic.build_action", "cubic.orbits", "cubic.position", "cubic.certificate", "groups",
    ) + spans.CHECK_SECTIONS,
    "algebras": (
        "rings.mul", "etale.parse", "etale.trace_form", "etale.sw_total", "ksymbols.symbol",
        "ksymbols.kmul", "ksymbols.residue", "ksymbols.parse",
    ),
    "worksheets": (
        "rings.mul", "rings.exact_divide", "rings.symmetric_reduce", "rings.substitute",
        "chow.class_bin", "chow.class_z", "chow.fiber_pushforward", "etale.trace_form",
        "etale.sw_total", "ksymbols.residue", "ksymbols.parse", "cubic.build_action",
        "cubic.orbits", "cubic.position", "cubic.certificate", "groups", "cli.main",
    ),
}

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
    ("p50_ms", "ms"), ("p90_ms", "ms"), ("peak_rss_mb", "MB"),
)

# Per-layer metrics: (metric, unit, span, field); field is calls, self_s,
# incl_s or a counter name.
_SPAN_METRICS = (
    ("rings.mul", "calls"), ("rings.mul", "self_s"), ("rings.mul", "terms_out"),
    ("rings.add", "calls"), ("rings.add", "self_s"),
    ("rings.poly", "calls"), ("rings.poly", "self_s"),
    ("rings.exact_divide", "calls"), ("rings.exact_divide", "self_s"), ("rings.exact_divide", "cols"),
    ("rings.symmetric_reduce", "self_s"), ("rings.substitute", "self_s"),
    ("chow.class_bin", "calls"), ("chow.class_bin", "self_s"), ("chow.class_bin", "incl_s"),
    ("chow.class_z", "calls"), ("chow.class_z", "self_s"), ("chow.fiber_pushforward", "self_s"),
    ("etale.trace_form", "calls"), ("etale.trace_form", "self_s"), ("etale.trace_form", "incl_s"),
    ("etale.trace_form", "basis_out"),
    ("etale.sw_total", "calls"), ("etale.sw_total", "self_s"), ("etale.sw_total", "incl_s"),
    ("etale.parse", "self_s"),
    ("ksymbols.symbol", "calls"), ("ksymbols.symbol", "self_s"),
    ("ksymbols.kmul", "calls"), ("ksymbols.kmul", "self_s"), ("ksymbols.kmul", "support_out"),
    ("ksymbols.kadd", "calls"), ("ksymbols.kadd", "self_s"),
    ("ksymbols.residue", "calls"), ("ksymbols.residue", "self_s"), ("ksymbols.parse", "self_s"),
    ("cubic.build_action", "self_s"), ("cubic.orbits", "self_s"),
    ("cubic.position", "self_s"), ("cubic.certificate", "self_s"),
    ("groups", "calls"), ("groups", "self_s"),
    ("cli.main", "calls"), ("cli.main", "self_s"),
)
PER_LAYER = tuple(
    ("%s.%s" % (span, field), "s" if field.endswith("_s") else "count", span, field)
    for span, field in _SPAN_METRICS
) + tuple(
    ("%s.s" % section, "s", section, "incl_s") for section in spans.CHECK_SECTIONS
)
PER_LAYER_DERIVED = (
    ("etale.trace_form.repeat_share", "ratio"),  # calls on an extension seen before
    ("cli.main.repeat_share", "ratio"),  # worksheet requests whose argv came before
) + tuple(("%s.share" % m, "ratio") for m in spans.MODULES) + (("trace.overhead", "ratio"),)


class EnvironmentFault(Exception):
    """The checkout cannot be benchmarked (no sources, broken child)."""


# -- machine speed -----------------------------------------------------------------
# On a shared machine the same computation runs up to ~1.7x slower for spells
# of seconds to minutes.  Every end-to-end time is therefore reported at a
# nominal speed: the measured time times REF_SECONDS over the time a fixed
# pure-Python loop took at the moment of the measurement.  A change to ccalc
# moves the measured time and not the loop, so it shows in full.

REF_SECONDS = 0.0003  # the reference loop's time at nominal speed


def reference():
    """The fixed loop: tuple building and hashing, dict updates and int
    products, like ccalc's inner loops."""
    acc = {}
    for i in range(1200):
        key = (i % 31, i % 7)
        acc[key] = acc.get(key, 0) + i * i
    return len(acc)


def speed_sample():
    """Seconds the reference loop takes now: the median of three runs after
    one that warms the caches the interrupted work left cold.  The garbage
    collector is held off, so the time does not depend on ccalc's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        reference()
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            reference()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return sorted(times)[1]


def at_nominal(seconds, ref):
    return seconds * REF_SECONDS / ref


class SpeedTimer:
    """Samples speed_sample() every `period` seconds from SIGALRM while work
    runs in this process; `spent` is the time the samples took."""

    def __init__(self, period=0.1):
        self.period = period
        self.samples = []
        self.spent = 0.0

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(speed_sample())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples.append(speed_sample())
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.samples.append(speed_sample())


# -- running work in a forked child ------------------------------------------------


def run_forked(fn, timeout):
    """Run fn() in a child forked from this process; return (payload or None,
    seconds from fork to reap, child peak RSS in MB, error text)."""
    r, w = os.pipe()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # child: report fn()'s JSON payload on the pipe, never return
        code = 0
        try:
            os.close(r)
            data = json.dumps(fn()).encode()
            with os.fdopen(w, "wb") as f:
                f.write(data)
        except BaseException:
            traceback.print_exc()
            code = 70
        finally:
            os._exit(code)
    os.close(w)
    chunks, error = [], None
    deadline = t0 + timeout
    try:
        while True:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([r], [], [], left)[0]:
                os.kill(pid, signal.SIGKILL)
                error = "timed out after %.0f s" % timeout
                break
            chunk = os.read(r, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(r)
        _, status, usage = os.wait4(pid, 0)
    elapsed = time.perf_counter() - t0
    if error is None and status != 0:
        error = "child exited with status %d" % status
    payload = json.loads(b"".join(chunks)) if error is None else None
    return payload, elapsed, usage.ru_maxrss / 1024.0, error


def self_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- results of one set of blocks ----------------------------------------------------


class Tally:
    """Latencies, block walls, failures, rendered outputs and span tables."""

    def __init__(self):
        self.lats = []  # seconds per op, as measured
        self.walls = []  # seconds per block, as measured
        self.norm_lats = []  # the same at nominal speed
        self.norm_walls = []
        self.block_ops = []
        self.attempted = 0
        self.failures = []
        self.rendered = []
        self.tables = []
        self.rss_mb = 0.0

    def fail(self, what):
        self.failures.append(what)

    def op(self, lat, ref):
        self.lats.append(lat)
        self.norm_lats.append(at_nominal(lat, ref))

    def block(self, ops):
        """Close a block made of the last `ops` ops."""
        if not ops:
            return
        self.walls.append(sum(self.lats[len(self.lats) - ops:]))
        self.norm_walls.append(sum(self.norm_lats[len(self.norm_lats) - ops:]))
        self.block_ops.append(ops)

    def digest(self):
        h = hashlib.sha256()
        for line in self.rendered:
            h.update(line.encode())
            h.update(b"\n")
        return h.hexdigest()


# -- check_all ------------------------------------------------------------------------


class CheckAll:
    name = "check_all"
    forks = True  # each pass runs in its own child

    def __init__(self, ccalc, seed):
        self.checks = ccalc.checks
        self.seed = seed

    def _pass(self, tracer):
        if tracer is None:
            with SpeedTimer() as speed:
                t0 = time.perf_counter()
                lines = self.checks.run_all(seed=self.seed)
                wall = time.perf_counter() - t0 - speed.spent
            # work done is the integral of speed (1/ref) over the evenly
            # spaced samples, so the pass's reference time is their harmonic mean
            ref = statistics.harmonic_mean(speed.samples)
        else:  # samples taken inside spans would be charged to them
            before = speed_sample()
            t0 = time.perf_counter()
            lines = tracer.root("bench", self.checks.run_all, seed=self.seed)
            wall = time.perf_counter() - t0
            ref = (before + speed_sample()) / 2
        return {
            "wall": wall,
            "ref": ref,
            "lines": [[line.name, line.ok, line.detail] for line in lines],
            "table": tracer.table() if tracer else None,
        }

    def run_block(self, k, tally, tracer=None, render=False):
        payload, _, rss, error = run_forked(lambda: self._pass(tracer), PASS_TIMEOUT)
        tally.rss_mb = max(tally.rss_mb, rss)
        if error:
            tally.attempted += 1
            tally.fail("check-all pass: %s" % error)
            return
        tally.op(payload["wall"], payload["ref"])
        tally.block(1)
        if payload["table"] is not None:
            tally.tables.append(payload["table"])
        for name, ok, detail in payload["lines"]:
            tally.attempted += 1
            if not ok:
                tally.fail("check line failed: %s (%s)" % (name, detail))
            if render:
                tally.rendered.append("%s|%s|%s" % (ok, name, detail))


# -- algebras -----------------------------------------------------------------------


def closed_form_trace(ext):
    """The trace form of F(sqrt m_1..m_s) is diag(2^s m_S) over subsets S:
    its square classes, as a multiset."""
    s = len(ext)
    out = Counter()
    for mask in range(2 ** s):
        cls = frozenset()
        for j in range(s):
            if mask >> j & 1:
                cls ^= ext[j]
        if s % 2:
            cls ^= {"two"}
        out[cls] += 1
    return out


class Algebras:
    name = "algebras"
    forks = False

    def __init__(self, ccalc, seed):
        self.etale = ccalc.etale
        self.ksymbols = ccalc.ksymbols
        self.seed = seed
        self.models = {
            m: self.ksymbols.MODEL_PRESETS[m](workloads.INDETERMINATES) for m in workloads.MODELS
        }

    def _op(self, op):
        alg = self.etale.parse_algebra(op["text"], self.models[op["model"]])
        sw = self.etale.galois_sw_total(alg, max_degree=op["cap"])
        residues = [
            self.ksymbols.iterated_residue(sw.alpha(i), op["at"]) for i in range(sw.cap + 1)
        ]
        return alg, sw, residues

    def _run(self, k, tracer):
        """Block k, with every trace_form call logged for the closed-form gate."""
        log = []
        trace_form = self.etale.trace_form

        def logged(ext, model):
            out = trace_form(ext, model)
            log.append((ext, out))
            return out

        self.etale.trace_form = logged
        results = []
        refs = [speed_sample()]
        try:
            for op in workloads.algebra_block(self.seed, k):
                if results:
                    refs.append(speed_sample())
                del log[:]
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        out = self._op(op)
                    else:
                        out = tracer.root("bench", self._op, op)
                except Exception as e:  # a failed op is counted, not fatal
                    results.append((op, 0.0, None, "%s: %s" % (type(e).__name__, e)))
                    continue
                results.append((op, time.perf_counter() - t0, out, list(log)))
        finally:
            self.etale.trace_form = trace_form
        refs.append(speed_sample())
        # each op runs between two speed samples
        return [r + ((refs[i] + refs[i + 1]) / 2,) for i, r in enumerate(results)]

    def run_block(self, k, tally, tracer=None, render=False):
        results = self._run(k, tracer)
        done = 0
        for op, lat, out, log, ref in results:
            tally.attempted += 1
            if out is None:
                tally.fail("algebra %r (%s): %s" % (op["text"], op["model"], log))
                continue
            tally.op(lat, ref)
            done += 1
            problem = self._verify(op, out, log)
            if problem:
                tally.fail("algebra %r (%s): %s" % (op["text"], op["model"], problem))
            if render:
                alg, sw, residues = out
                tally.rendered.append("%s|%s|%d|%s|%d" % (alg, op["model"], op["cap"], alg.rank, sw.cap))
                for i in range(sw.cap + 1):
                    tally.rendered.append("alpha%d = %s ; res = %s" % (i, sw.alpha(i), residues[i]))
        tally.block(done)

    def _verify(self, op, out, log):
        alg, sw, residues = out
        spec = [(frozenset(frozenset(m) for m in monos), mult) for monos, mult in op["factors"]]
        got = [(frozenset(ext), mult) for ext, mult in alg.factors]
        if got != spec:
            return "parsed factors differ from the generated ones"
        rank = sum(mult * 2 ** len(monos) for monos, mult in spec)
        if alg.rank != rank or sw.cap != min(rank, op["cap"]):
            return "rank %d / cap %d, expected %d / %d" % (alg.rank, sw.cap, rank, min(rank, op["cap"]))
        if not sw.alpha(0).is_one():
            return "alpha0 is not 1"
        # Vanishing above rank/2 is claimed (and checked by checks.py) where
        # {2} is trivial; with {2} free the {2}-corrections need not vanish,
        # e.g. alpha4 of F(sqrt(b*c*d*e*f))^2 over the generic model.
        vanishing = op["model"] != "generic"
        for i in range(rank // 2 + 1, sw.cap + 1 if vanishing else 0):
            if not sw.alpha(i).is_zero():
                return "alpha%d is nonzero above half the rank" % i
        exts = {frozenset(ext) for ext, _ in alg.factors}
        if len(log) < sum(1 for ext, _ in alg.factors):
            return "trace_form ran %d times for %d factors" % (len(log), len(alg.factors))
        for ext, classes in log:
            if frozenset(ext) not in exts:
                return "trace_form called on an extension outside the algebra"
            if Counter(classes) != closed_form_trace(ext):
                return "trace form of %s differs from diag(2^s m_S)" % (sorted(map(sorted, ext)),)
        return None


# -- worksheets ---------------------------------------------------------------------


def _without_elapsed(text):
    """JSON documents with their elapsed field dropped; other text as is."""
    if not text.lstrip().startswith("{"):
        return text
    doc = json.loads(text)
    doc.pop("elapsed", None)
    return json.dumps(doc, sort_keys=True)


class Worksheets:
    name = "worksheets"
    forks = True  # each request runs in its own child

    def __init__(self, ccalc, seed):
        self.cli = ccalc.cli
        self.seed = seed

    def _serve(self, argv, tracer):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = self.cli.main(argv)
            else:
                code = tracer.root("bench", self.cli.main, argv)
        return {
            "code": code,
            "out": out.getvalue(),
            "err": err.getvalue(),
            "table": tracer.table() if tracer else None,
        }

    def run_block(self, k, tally, tracer=None, render=False):
        done = 0
        ref = speed_sample()
        for argv, expected in workloads.worksheet_block(self.seed, k):
            payload, lat, rss, error = run_forked(
                lambda: self._serve(argv, tracer), REQUEST_TIMEOUT
            )
            ref_before, ref = ref, speed_sample()
            tally.attempted += 1
            tally.rss_mb = max(tally.rss_mb, rss)
            if error:
                tally.fail("%s: %s" % (" ".join(argv), error))
                continue
            tally.op(lat, (ref_before + ref) / 2)
            done += 1
            if payload["table"] is not None:
                tally.tables.append(payload["table"])
            problem = self._verify(argv, expected, payload)
            if problem:
                tally.fail("%s: %s" % (" ".join(argv), problem))
            if render:
                tally.rendered.append(json.dumps(
                    [argv, payload["code"], _without_elapsed(payload["out"]), payload["err"]]
                ))
        tally.block(done)

    @staticmethod
    def _verify(argv, expected, payload):
        code, out = payload["code"], payload["out"]
        if code != expected:
            return "exit code %r, expected %d (%s)" % (code, expected, payload["err"].strip())
        if code or ("--json" not in argv and argv[0] != "rvalue"):
            return None  # an expected error, or text output with no oracle
        if "--json" in argv:
            doc = json.loads(out)
            if argv[0] in ("classz", "classd") and doc["oracle"]["match"] is not True:
                return "oracle mismatch"
            r = doc.get("r")
        else:
            r = int(out.split("\n")[0].rsplit("=", 1)[1])
        if argv[0] == "rvalue" and r != workloads.r_value(int(argv[2])):
            return "r = %r, expected %d" % (r, workloads.r_value(int(argv[2])))
        return None

    def repeat_share(self):
        """Share of the prefix's requests whose argv came earlier in it."""
        argvs = [
            tuple(argv)
            for k in range(PREFIX[self.name])
            for argv, _ in workloads.worksheet_block(self.seed, k)
        ]
        return 1 - len(set(argvs)) / len(argvs)


# -- measurement ----------------------------------------------------------------------


def load_ccalc():
    """Import ccalc.cli (hence every module) from this checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "ccalc", "cli.py")):
        raise EnvironmentFault("no ccalc sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import ccalc.cli

    if not os.path.abspath(ccalc.__file__).startswith(SRC + os.sep):
        raise EnvironmentFault("imported ccalc from %s, not from %s" % (ccalc.__file__, SRC))
    return ccalc


_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import ccalc.cli, workloads
workloads.block({workload!r}, {seed!r}, 0)
dt = time.perf_counter() - t0
import run
print(dt, sorted(run.speed_sample() for _ in range(5))[2])
"""


def measure_setup(workload, seed):
    """Median setup time over SETUP_PROBES fresh interpreters, at nominal
    speed and as measured."""
    code = _PROBE.format(src=SRC, here=HERE, workload=workload, seed=seed)
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, cwd=ROOT
        )
        if proc.returncode != 0:
            raise EnvironmentFault("setup probe failed:\n" + proc.stderr)
        dt, ref = map(float, proc.stdout.split()[-2:])
        times.append((at_nominal(dt, ref), dt))
    return statistics.median(t[0] for t in times), statistics.median(t[1] for t in times)


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_plain(bench, seconds, recorded_digest):
    """Blocks until `seconds` have passed (at least the prefix); end-to-end metrics."""
    tally = Tally()
    start = time.perf_counter()
    k = 0
    while k < PREFIX[bench.name] or time.perf_counter() - start < seconds:
        bench.run_block(k, tally, render=k < PREFIX[bench.name])
        k += 1
    digest = tally.digest()
    if recorded_digest and digest != recorded_digest:
        tally.fail("output digest %s differs from the recorded %s" % (digest, recorded_digest))
    metrics = {
        "wall_s": statistics.median(tally.norm_walls),
        "ops_per_s": statistics.median(n / w for n, w in zip(tally.block_ops, tally.norm_walls)),
        "p50_ms": 1000 * statistics.median(tally.norm_lats),
        "p90_ms": 1000 * percentile(tally.norm_lats, 90),
        "peak_rss_mb": max(tally.rss_mb, self_rss_mb()),
    }
    print("%s: %d blocks, %d ops in %.1f s; wall_s is the median of %d blocks, "
          "p50/p90 of %d ops; digest %s" % (
              bench.name, k, len(tally.lats), time.perf_counter() - start,
              len(tally.walls), len(tally.lats), digest))
    print("as measured: wall_s %.6g, p50_ms %.6g, p90_ms %.6g; machine speed %.3f of nominal" % (
        statistics.median(tally.walls), 1000 * statistics.median(tally.lats),
        1000 * percentile(tally.lats, 90), sum(tally.norm_lats) / sum(tally.lats)))
    return tally, metrics


def run_prefix(bench, tracer):
    """The first PREFIX blocks, rendered, with tracer installed if given."""
    tally = Tally()
    if tracer is not None:
        tracer.install()
    try:
        for k in range(PREFIX[bench.name]):
            bench.run_block(k, tally, tracer, render=True)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None and not bench.forks:
        tally.tables.append(tracer.table())
    return tally


def run_traced(bench, recorded_digest):
    """The prefix untraced, then traced; per-layer metrics."""
    if bench.forks:
        plain, traced = run_prefix(bench, None), run_prefix(bench, spans.Tracer())
    else:  # fork, so that both runs start from the same post-import state
        runs = []
        for tracer in (None, spans.Tracer()):
            payload, _, _, error = run_forked(lambda: vars(run_prefix(bench, tracer)), 170)
            if error:
                raise EnvironmentFault("prefix run in a child: %s" % error)
            tally = Tally()
            vars(tally).update(payload)
            runs.append(tally)
        plain, traced = runs
    table = spans.merge(traced.tables)
    traced_wall = sum(traced.walls)
    if traced.digest() != plain.digest():
        traced.fail("traced output digest differs from the untraced one")
    if recorded_digest and plain.digest() != recorded_digest:
        traced.fail("output digest %s differs from the recorded %s" % (plain.digest(), recorded_digest))
    for name in REQUIRED[bench.name]:
        if not table.get(name, [0])[0]:
            traced.fail("layer %s recorded no calls" % name)

    def field(span, key):
        calls, self_s, incl_s, counters = table.get(span, [0, 0.0, 0.0, {}])
        return {"calls": calls, "self_s": self_s, "incl_s": incl_s}.get(key, counters.get(key, 0))

    module_self = Counter()
    for span, row in table.items():
        module_self[span.split(".")[0]] += row[1]
    tf_calls = field("etale.trace_form", "calls")
    derived = {
        "etale.trace_form.repeat_share": field("etale.trace_form", "repeats") / tf_calls if tf_calls else 0.0,
        "cli.main.repeat_share": bench.repeat_share() if isinstance(bench, Worksheets) else 0.0,
        # both runs at nominal speed, so a slow spell between them does not count
        "trace.overhead": sum(traced.norm_walls) / sum(plain.norm_walls),
    }
    for module in spans.MODULES:
        derived["%s.share" % module] = module_self[module] / traced_wall
    metrics = {name: (field(span, key), unit) for name, unit, span, key in PER_LAYER}
    metrics.update((name, (derived[name], unit)) for name, unit in PER_LAYER_DERIVED)
    print("%s traced: %d ops; traced wall %.3f s, untraced %.3f s, span self total %.3f s; "
          "digest %s" % (bench.name, traced.attempted, traced_wall, sum(plain.walls),
                         sum(row[1] for row in table.values()), traced.digest()))
    return traced, metrics


def load_recorded_digest(workload, seed):
    if seed != workloads.DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "baseline.json")) as f:
        return json.load(f)["digests"].get(workload)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    os.environ.pop("CCALC_MODEL", None)  # requests choose their model explicitly
    try:
        ccalc = load_ccalc()
        bench = {"check_all": CheckAll, "algebras": Algebras, "worksheets": Worksheets}[
            args.workload](ccalc, args.seed)
        recorded = load_recorded_digest(args.workload, args.seed)
        if args.trace:
            tally, values = run_traced(bench, recorded)
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
        else:
            tally, values = run_plain(bench, args.seconds, recorded)
            values["setup_s"], raw = measure_setup(args.workload, args.seed)
            print("as measured: setup_s %.6g" % raw)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    except EnvironmentFault as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    for what in tally.failures[:20]:
        print("FAIL %s" % what, file=sys.stderr)
    failed = len(tally.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
