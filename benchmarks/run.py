#!/usr/bin/env python3
"""The hyperq benchmark: four closed-loop workloads with one client.

    python3 benchmarks/run.py --workload sweep-poly --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

Run from the repository root; the package is imported from ``src/``.
Each run repeats whole passes over its workload's operations while
another pass fits in ``--seconds`` (at least two), checks every output,
prints each metric by name with its unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  Times are scaled to
a reference machine speed (see ``Speed``).  With ``--trace 0`` the
metrics are the end-to-end ones, measured untraced; with ``--trace 1``
they are per-layer counts and times from one traced pass (see
``tracer.py``).  Details (output digest, tail percentile, layer shares)
go to ``.bench_out/`` in the working directory, and so do the spans of
traced runs.  The exit code is 1 if any operation failed or any output
is wrong.

Workloads (see README.md for why each exists):

* ``sweep-poly``    -- ``verify`` qrat, weightbij, mnent, mnthm, mprime, gg
* ``sweep-lattice`` -- ``verify`` mainbij, hrs, hbar
* ``queries``       -- 200 single CLI invocations, in process
* ``cli-cold``      -- 40 tiny commands, each a fresh ``python -m hyperq.cli``
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

import tracer
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT_DIR = ".bench_out"

WORKLOADS = ("sweep-poly", "sweep-lattice", "queries", "cli-cold")
#: per-operation deadline; no query of the stream comes near it
DEADLINE_S = {"sweep-poly": 120.0, "sweep-lattice": 120.0, "queries": 5.0, "cli-cold": 30.0}
#: a tighter deadline for the known-defect probe that enumerates, which
#: would otherwise run for hours and take gigabytes
COUNT_PROBE_DEADLINE_S = 1.0
SETUP_REPS = 5
IMPORT_REPS = 3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: seconds ``reference_work`` takes at reference speed (see ``Speed``)
REFERENCE_S = 0.0045
#: what a reference interpreter imports: numpy's C extensions and pure
#: Python modules hyperq does not use (see ``ChildSpeed``) ...
REFERENCE_IMPORTS = ("numpy", "xml.dom.minidom", "email.mime.multipart", "xmlrpc.client")
#: ... and the seconds it takes at reference speed
REFERENCE_CHILD_S = 0.150
#: at most this long between two speed samples
SPEED_EVERY_S = 0.25
#: an operation faster than this runs ``REPEATS`` times in a row in each
#: pass and counts with its median, to damp timer noise on short queries
REPEAT_BELOW_S = 0.02
REPEATS = 5

END_TO_END = {
    "setup_s": "s", "verdict_s": "s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "peak_rss_mb": "MB",
}


SWEEP_NAMES = ("qrat", "mainbij", "weightbij", "mnent", "mnthm", "mprime", "hrs", "gg", "hbar")
#: the functions with per-layer metrics; the tracer must find every one
#: of them, so that a renamed function fails the traced run instead of
#: reading 0
TRACED = (
    [f"poly.LaurentPoly.{m}" for m in ("mul", "add", "text")]
    + [f"poly.BiPoly.{m}" for m in ("mul", "add")]
    + [f"poly.RatFunc.{m}" for m in ("eq", "canonical")]
    + [f"stern.{f}" for f in ("fusc_q", "cw_q", "fusc_range")]
    + [f"hyperbinary.{f}" for f in ("h_q", "h_rs", "hbar_st", "expansions", "stats",
                                    "hbar_st_enum")]
    + [f"fence.{f}" for f in ("iso_check", "stilde", "ideals", "rgf", "weight_check")]
    + [f"matrices.{f}" for f in ("m_range", "m_prime_range", "m_of", "m_prime_of",
                                 "entries_formula", "row_sum_check", "m_prime_check")]
    + ["matrices.Mat2.matmul", "matrices.BiMat2.matmul"]
    + [f"qrational.{f}" for f in ("qdeform", "qdeform_via_graph", "closure_poly",
                                  "cw_index")]
    + ["cli.main"]
    + [f"verify.{sweep}" for sweep in SWEEP_NAMES]
)


def _per_layer() -> dict[str, str]:
    """Per-layer metric name -> unit, in ``<module>.<function>.<stat>`` form."""
    out: dict[str, str] = {}
    for f in TRACED:
        if f.startswith("verify."):
            out[f"{f}.busy_s"] = "s"
        else:
            out.update({f"{f}.calls": "count", f"{f}.busy_s": "s", f"{f}.self_s": "s"})
    out["poly.LaurentPoly.mul.term_pairs"] = "count"
    out["poly.BiPoly.mul.term_pairs"] = "count"
    out["hyperbinary.expansions.elements"] = "count"
    out.update({"cli.main.known_defect_fails": "count", "cli.import_ms": "ms",
                "cli.import_numpy_ms": "ms", "trace.overhead_ratio": "ratio"})
    return out


PER_LAYER = _per_layer()
_WORK_STAT = {"term_pairs", "elements"}


# ---------------------------------------------------------------------------
# machine speed


def reference_work() -> int:
    """Fixed pure-Python work that does not touch hyperq: sparse products
    of small dicts, like the package's hot loops."""
    a = {i: i + 1 for i in range(12)}
    n = 0
    for _ in range(300):
        out: dict[int, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in a.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        n += len(tuple(out.items()))
    return n


class Speed:
    """How fast the machine runs Python, sampled around and inside operations.

    The benchmark runs on shared machines whose speed was seen to swing
    by 2x within a minute, in CPU time as much as in wall time.  Timing
    ``reference_work`` just before and just after each operation and
    scaling the operation's time by ``REFERENCE_S`` over their mean cut
    the run-to-run spread of a 1.5 s sweep from 40% to 10% (interquartile
    range over median, 120 runs).  Operations longer than ``SPEED_EVERY_S``
    of CPU time are also sampled from inside, by a ``SIGVTALRM`` handler
    whose own time is taken off the operation's.  A time scaled this way
    reads as seconds on a machine where the reference work takes
    ``REFERENCE_S``.  Times taken in fresh interpreters are scaled by
    ``ChildSpeed`` instead.  Raw times are kept in the details.
    """

    reference_s = REFERENCE_S
    reps = 3  # reference runs per sample between operations
    every_s = SPEED_EVERY_S

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (when, reference seconds), in order
        self.handler_s = 0.0  # time spent sampling inside operations

    @staticmethod
    def _reference_s() -> float:
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0

    def sample(self) -> None:
        ref = statistics.median(self._reference_s() for _ in range(self.reps))
        self.samples.append((time.perf_counter(), ref))

    def between_ops(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= self.every_s:
            self.sample()

    def _on_tick(self, signum, frame) -> None:
        start = time.perf_counter()
        ref = self._reference_s()
        self.samples.append((time.perf_counter(), ref))
        self.handler_s += time.perf_counter() - start

    @contextlib.contextmanager
    def ticking(self):
        """Sample every ``SPEED_EVERY_S`` of this process's CPU time too."""
        previous = signal.signal(signal.SIGVTALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, SPEED_EVERY_S, SPEED_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            signal.signal(signal.SIGVTALRM, previous)

    def factor(self, t0: float, t1: float) -> float:
        """Scale for a time measured over [t0, t1]: the last sample before,
        every sample inside and the first sample after it."""
        times = [when for when, _ in self.samples]
        lo, hi = bisect.bisect_right(times, t0), bisect.bisect_left(times, t1)
        refs = [ref for _, ref in self.samples[max(lo - 1, 0):hi + 1]]
        return self.reference_s / statistics.mean(refs)


class ChildSpeed(Speed):
    """Speed at starting interpreters and loading modules, for times taken
    in fresh interpreters: set-up, import and cold commands.

    These are mostly start-up and import, which the pure-Python
    ``reference_work`` does not track: between two sets of runs here, raw
    ``cli-cold`` times rose 30% while the reference loop's did not, and
    set-up times scaled by it spread more than raw ones (23% against 13%
    over 30 interpreters).  The reference is instead a fresh interpreter
    importing those of ``REFERENCE_IMPORTS`` that are installed, sampled
    at most every two seconds between operations, never inside one.
    """

    reference_s = REFERENCE_CHILD_S
    reps = 1
    every_s = 2.0

    @staticmethod
    def _reference_s() -> float:
        code = ("import importlib.util as u\n"
                f"for m in {REFERENCE_IMPORTS!r}:\n"
                "    u.find_spec(m) and __import__(m)")
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
        return time.perf_counter() - t0

    def ticking(self):
        return contextlib.nullcontext()


# ---------------------------------------------------------------------------
# running one operation


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline()


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise ``Deadline`` in the main thread once ``seconds`` have passed."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Result:
    """Outcome of one operation: latency (inf on failure) and checks."""

    __slots__ = ("latency_s", "raw_s", "failed", "wrong", "output", "rss_kb")

    def __init__(self, latency_s, failed, wrong, output, rss_kb=0):
        self.latency_s = latency_s  # scaled by ``Speed`` once the pass ends
        self.raw_s = latency_s
        self.failed = failed      # checks that raised, timed out, exited non-zero or were wrong
        self.wrong = wrong        # an answer disagreed with its oracle
        self.output = output      # bytes fed to the digest
        self.rss_kb = rss_kb


def _judge(op: wl.Op, rc, stdout: str, error: str | None, latency: float, rss_kb: int = 0):
    if op.kind == "sweep" and error is None:
        # ``verify`` prints its report, then exits 1 if the report is FAIL
        ok, fails = wl.check_sweep(op, stdout)
        ok = ok and rc == 0
        fails = max(fails, 0 if ok else 1)
    elif error is not None or rc != 0:
        text = f"rc={rc} error={error}"
        return Result(math.inf, op.checks, False, text, rss_kb)
    else:
        ok = wl.check(op, "--json" in op.argv, stdout)
        fails = 0 if ok else 1
    return Result(latency if fails == 0 else math.inf, fails, not ok,
                  wl.stable_output(op, stdout), rss_kb)


def run_inprocess(op: wl.Op, main, limit_s: float) -> Result:
    """``main(argv)`` with stdout captured, under a deadline."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    t0 = time.perf_counter()
    try:
        with deadline(limit_s), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(op.argv))
    except Deadline:
        error = "deadline"
    except SystemExit as exc:  # argparse rejects the argv
        rc = exc.code
    except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
        error = type(exc).__name__
    latency = time.perf_counter() - t0
    return _judge(op, rc, out.getvalue(), error, latency)


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def run_child(op: wl.Op, limit_s: float, prefix: list[str]) -> Result:
    """A fresh interpreter running ``prefix + argv``; its own rusage."""
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, "child.out")
    error = None
    with open(out_path, "wb") as out, open(os.devnull, "wb") as null:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *prefix, *op.argv], stdout=out,
                                stderr=null, env=_child_env())
        try:
            with deadline(limit_s):
                _, status, usage = os.wait4(proc.pid, 0)
        except Deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            error = "deadline"
        latency = time.perf_counter() - t0
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    return _judge(op, rc, stdout, error, latency, usage.ru_maxrss)


# ---------------------------------------------------------------------------
# passes and metrics


def operations(workload: str, seed: int) -> list[wl.Op]:
    if workload in wl.SWEEPS:
        return wl.sweep_ops(workload)
    if workload == "queries":
        return wl.query_ops(seed)
    return wl.cold_ops(seed)


def run_pass(ops, run_one, speed: Speed, traced: bool = False):
    """One pass in order: (wall seconds, results with scaled latencies,
    ``ru_maxrss`` in KB at the end).  A traced pass runs each operation
    once and takes no samples inside operations, so that its counts are
    exact and its times free of sampling."""
    def measure(op):
        sampling = speed.handler_s
        res = run_one(op)
        res.latency_s -= speed.handler_s - sampling
        return res

    timed = []
    start = time.perf_counter()
    with contextlib.nullcontext() if traced else speed.ticking():
        for op in ops:
            speed.between_ops()
            t0 = time.perf_counter()
            res = measure(op)
            if res.latency_s < REPEAT_BELOW_S and not traced:
                reps = [res] + [measure(op) for _ in range(REPEATS - 1)]
                reps.sort(key=lambda r: r.latency_s)
                res = reps[REPEATS // 2]
                res.failed = max(r.failed for r in reps)
                res.wrong = any(r.wrong for r in reps)
            timed.append((t0, time.perf_counter(), res))
    speed.sample()
    for t0, t1, res in timed:
        res.raw_s = res.latency_s
        res.latency_s *= speed.factor(t0, t1)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return time.perf_counter() - start, [res for _, _, res in timed], rss_kb


def run_passes(ops, run_one, speed: Speed, seconds: float, min_passes: int):
    """Whole passes while another average one fits in ``seconds``; at
    least ``min_passes`` unless half of ``seconds`` is already gone, which
    bounds a run's length when the machine is slow."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, run_one, speed))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds and (
                len(passes) >= min_passes or elapsed > seconds / 2):
            return passes


def digest(ops, results) -> str:
    h = hashlib.sha256()
    for op, res in zip(ops, results):
        h.update(json.dumps([list(op.argv), res.output]).encode())
    return h.hexdigest()


def tail_rank(n: int) -> tuple[float, int]:
    """The highest ladder percentile with at least ten samples above it,
    as (percentile, 1-based rank); (100, n) when n is too small."""
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return pct, rank
    return 100.0, n


def summarize(ops, passes, limit_s: float) -> dict:
    """End-to-end figures over the passes of one untraced run."""
    def median_of(i, attr):
        return statistics.median(getattr(res[i], attr) for _, res, _ in passes)

    def capped(values):  # a failure adds the deadline it missed
        return sum(min(v, limit_s) for v in values)

    per_op = [median_of(i, "latency_s") for i in range(len(ops))]
    ordered = sorted(per_op)
    pct, rank = tail_rank(len(ordered))
    p50 = statistics.median(ordered)
    tail = ordered[rank - 1]
    digests = [digest(ops, res) for _, res, _ in passes]
    return {
        # each operation's median across passes, added up: one pass, with a
        # burst of noise in any single pass filtered out
        "verdict_s": capped(per_op),
        "raw_verdict_s": capped(median_of(i, "raw_s") for i in range(len(ops))),
        # a failure counts as +inf; it is shown as the deadline it missed
        "latency_p50_ms": 1000 * (p50 if math.isfinite(p50) else limit_s),
        "latency_tail_ms": 1000 * (tail if math.isfinite(tail) else limit_s),
        "tail_percentile": pct,
        "tail_samples": len(ordered),
        "tail_beyond": len(ordered) - rank,
        "per_op_ms": [[" ".join(op.argv)[:60], 1000 * lat] for op, lat in zip(ops, per_op)],
        "per_op_raw_ms": [1000 * median_of(i, "raw_s") for i in range(len(ops))],
        "passes": len(passes),
        "pass_s": [t for t, _, _ in passes],
        "digest": digests[0],
        "deterministic": len(set(digests)) == 1,
        "attempted": sum(op.checks for op in ops) * len(passes),
        "failed": sum(r.failed for _, res, _ in passes for r in res),
        "wrong": sum(r.wrong for _, res, _ in passes for r in res),
    }


# ---------------------------------------------------------------------------
# set-up and import probes (fresh interpreters)


def setup_probe(workload: str, seed: int) -> float:
    """Import hyperq and build the workload's inputs; seconds taken."""
    t0 = time.perf_counter()
    import hyperq.cli  # noqa: F401 - the import is what is timed
    operations(workload, seed)
    return time.perf_counter() - t0


def _child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=_child_env(), timeout=60, check=True)


def in_children(args: list[str], reps: int) -> list[tuple[str, str, float]]:
    """Run a fresh interpreter ``reps`` times, with ``ChildSpeed`` samples
    between; (stdout, stderr, scale for times taken inside) for each."""
    speed = ChildSpeed()
    speed.sample()
    runs = []
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = _child(args)
        t1 = time.perf_counter()
        speed.sample()
        runs.append((proc.stdout, proc.stderr, speed.factor(t0, t1)))
    return runs


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh interpreters of ``setup_probe``, scaled."""
    argv = [os.path.abspath(__file__), "--setup-probe", "--workload", workload,
            "--seed", str(seed)]
    return statistics.median(float(out.split()[-1]) * scale
                             for out, _, scale in in_children(argv, SETUP_REPS))


def measure_imports() -> tuple[float, float]:
    """Median cumulative ``import hyperq.cli`` time, and the numpy part of
    it, in ms, from ``python -X importtime``."""
    total, numpy = [], []
    for _, stderr, scale in in_children(["-X", "importtime", "-c", "import hyperq.cli"],
                                        IMPORT_REPS):
        cumulative = {}
        for line in stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cum, name = (part.strip() for part in line.split("|"))
            if cum.isdigit():
                cumulative[name] = int(cum)
        total.append(cumulative["hyperq.cli"] / 1000 * scale)
        numpy.append(cumulative.get("numpy", 0) / 1000 * scale)
    return statistics.median(total), statistics.median(numpy)


# ---------------------------------------------------------------------------
# workload runs


def runner(workload: str, traced_child: str | None = None):
    """The function that runs one operation of this workload."""
    limit = DEADLINE_S[workload]
    if workload == "cli-cold":
        prefix = ["-m", "hyperq.cli"]
        if traced_child is not None:
            prefix = [os.path.abspath(__file__), "--traced-child", traced_child, "--"]
        return lambda op: run_child(op, limit, prefix)
    import hyperq.cli as cli
    return lambda op: run_inprocess(op, cli.main, limit)


def untraced_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    ops = operations(workload, seed)
    speed = ChildSpeed() if workload == "cli-cold" else Speed()
    passes = run_passes(ops, runner(workload), speed, seconds, min_passes=2)
    s = summarize(ops, passes, DEADLINE_S[workload])
    if workload == "cli-cold":
        rss_kb = statistics.median(r.rss_kb for _, res, _ in passes for r in res)
    else:  # after one pass: later ones can add fragmentation, and how
        rss_kb = passes[0][2]  # many fit in a run depends on the machine
    s["peak_rss_mb"] = rss_kb / 1024
    s["setup_s"] = measure_setup(workload, seed)
    metrics = {name: s[name] for name in END_TO_END}
    return metrics, s


def traced_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Untraced passes for half the time, then exactly one traced pass."""
    ops = operations(workload, seed)
    limit = DEADLINE_S[workload]
    speed = ChildSpeed() if workload == "cli-cold" else Speed()
    untraced = run_passes(ops, runner(workload), speed, seconds / 2, min_passes=1)
    s = summarize(ops, untraced, limit)

    defect_fails = 0
    if workload == "queries":
        import hyperq.cli as cli
        probes = [run_inprocess(op, cli.main,
                                COUNT_PROBE_DEADLINE_S if op.kind == "hyper-count" else limit)
                  for op in wl.defect_probes(seed)]
        defect_fails = sum(1 for r in probes if r.failed)

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace")
    if workload == "cli-cold":
        check = tracer.Tracer()
        check.install(TRACED)  # fails here, not in every child, if one is gone
        check.uninstall()
        totals: dict[str, dict] = {}
        dump = f"{stem}-child.json"
        run_child_traced = runner(workload, dump)

        def run_one(op):
            res = run_child_traced(op)
            if os.path.exists(dump):  # a child killed at its deadline writes none
                with open(dump, encoding="utf-8") as fh:
                    tracer.merge(totals, json.load(fh)["totals"])
                os.remove(dump)
            return res

        traced = [run_pass(ops, run_one, speed, traced=True)]
    else:
        tr = tracer.Tracer()
        tr.install(TRACED)
        try:
            traced = [run_pass(ops, runner(workload), speed, traced=True)]
        finally:
            tr.uninstall()
        totals = tr.totals()
        tr.write_spans(stem + ".spans.tsv.gz")
    t = summarize(ops, traced, limit)
    scale = t["verdict_s"] / t["raw_verdict_s"]  # the pass's operations, scaled as a whole
    for row in totals.values():
        row["busy_s"] *= scale
        row["self_s"] *= scale
    import_ms, numpy_ms = measure_imports()

    metrics = {}
    for name in PER_LAYER:  # a traced function the pass never called reports 0
        func, stat = name.rsplit(".", 1)
        metrics[name] = totals.get(func, {}).get("work" if stat in _WORK_STAT else stat, 0)
    metrics["cli.main.known_defect_fails"] = defect_fails
    metrics["cli.import_ms"] = import_ms
    metrics["cli.import_numpy_ms"] = numpy_ms
    metrics["trace.overhead_ratio"] = t["verdict_s"] / s["verdict_s"]
    detail = dict(t, untraced=s, layer_shares=tracer.layer_shares(totals), totals=totals)
    detail["attempted"] = s["attempted"] + t["attempted"]
    detail["failed"] = s["failed"] + t["failed"]
    detail["wrong"] = s["wrong"] + t["wrong"]
    detail["deterministic"] = s["deterministic"] and t["deterministic"] and (
        s["digest"] == t["digest"])
    return metrics, detail


def gate(detail: dict) -> bool:
    """The correctness gate: no operation failed or answered wrong, and
    every pass gave byte-identical output."""
    return detail["failed"] == 0 and detail["wrong"] == 0 and detail["deterministic"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    metrics, detail = (traced_run if trace else untraced_run)(workload, seed, seconds)
    units = PER_LAYER if trace else END_TO_END
    correct = gate(detail)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                   "correct": correct, "metrics": metrics, "detail": detail}, fh, indent=1)
    print(f"# {workload} seed={seed} passes={detail['passes']} digest={detail['digest'][:16]} "
          f"tail=p{detail['tail_percentile']:g} of {detail['tail_samples']}")
    for name, value in metrics.items():
        print(f"{workload} {name} = {value:.6g} {units[name]}")
    result = {"correct": correct, "attempted": detail["attempted"], "failed": detail["failed"],
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return result


def traced_child(dump: str, argv: list[str]) -> int:
    """One ``cli.main`` call under the tracer, totals written to ``dump``."""
    tr = tracer.Tracer()
    tr.install(TRACED)
    import hyperq.cli as cli
    try:
        rc = cli.main(argv)
    finally:
        tr.uninstall()
        with open(dump, "w", encoding="utf-8") as fh:
            json.dump({"totals": tr.totals()}, fh)
    return rc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--traced-child", metavar="DUMP", help=argparse.SUPPRESS)
    parser.add_argument("rest", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hyperq", "cli.py")):
        print(f"run.py: no hyperq package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.traced_child:
        return traced_child(args.traced_child, args.rest[1:] if args.rest[:1] == ["--"]
                            else args.rest)
    if args.setup_probe:
        print(f"{setup_probe(args.workload, args.seed):.9f}")
        return 0

    if args.workload != "all":
        final = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    else:  # one process per workload, so that each has its own peak memory
        results = {}
        for w in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, check=False)
            print(proc.stdout, end="")
            results[w] = json.loads(proc.stdout.splitlines()[-1])
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}/{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
