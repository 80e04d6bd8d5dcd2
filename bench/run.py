"""Benchmark of the qdp engine: cold membership certificates on both routes
and the cold selftest, checked against recorded goldens.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --record-goldens [--workload W]

Every process is a cold ``qdp`` run (a fresh interpreter, empty caches)
started through ``bench/launch.py``, one at a time, from this one parent
process: a closed loop with one client.  A run first starts one untimed
``qdp list`` process (it compiles the bytecode, as an install would), then
repeats the workload's pass (see ``workloads.py``) while another pass is
expected to end within ``--seconds``; at least one pass always runs.

End-to-end metrics (``--trace 0``), printed with their units:
  wall_norm_s  mean over the run's passes of the pass's wall time (spawn of
               its first process to exit of its last), corrected to a
               nominal host speed by the run's host-speed factor (see
               ``HostSpeed``);
  setup_s      median over every pass process of spawn to "qdp.cli imported
               and the first bundle built";
  peak_rss_mb  median over passes of the largest ru_maxrss of the pass.
Each invocation is checked against ``goldens.json`` (exit code, verdict,
valuations, witness and a sha256 of its output; a traceback or a timeout is
a failure), and the final line reports attempted and failed invocations.
The raw wall time of each pass, their median and tail, the host-speed
factor and fail_ratio are printed above it.  A member-delta run holds two or
three passes, and their median is the middle pass alone; the mean uses all
of them (in ten runs the spread fell from 12% to 8% of the median).

Why wall time is corrected: on a shared 2-vCPU VM the host's speed drifts
by up to +-25% over tens of seconds to minutes (one fixed cold certificate
took 1.2 s in one stretch and 2.4 s a few minutes later, its user time
moving alike), so the median raw pass time of one 40 s run varies by about
a quarter from run to run, more than any bound worth holding a change to.
A thread of the parent times (in thread CPU time) a fixed slice of
stdlib-only work every SAMPLE_EVERY_S while the processes run.  The slice
uses no qdp code, so no change to the engine moves it.  Over 40 s windows
its median tracks the median time of a fixed cold certificate closely
(correlation 0.90-0.92), but the certificate's time moves less (log-log
slope 0.45-0.74 in three five-minute series), so the correction is the slice
ratio raised to HOST_ELASTICITY = 0.5.  On those series it took the spread of
40 s window medians from 12-22% to 7-9% (9-15% with a full division).

``--trace 1`` runs one untraced pass and then the same pass with the layer
trace of ``tracer.py`` installed, and reports per-layer metrics summed over
the traced pass's processes (cache sizes: the largest of any process), the
tracing overhead, and an exact-count scaling row (delta-cache terms for
h^3*x*y^2 at N = 5, 6, 7).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".bench_tmp")
GOLDENS = os.path.join(BENCH, "goldens.json")
sys.path.insert(0, BENCH)

from workloads import (DEFAULT_SEED, SELFTEST_SEEDS, WORKLOADS,  # noqa: E402
                       all_member_elements, jobs, member_argv)

RUN_DEADLINE_S = 170.0        # a run must end well inside 180 s
PROC_TIMEOUT_S = {"member-delta": 60.0, "member-pairing": 60.0,
                  "selftest": 150.0}
SCALING_ELEMENT = "h^3*x*y^2"
SCALING_ORDERS = (5, 6, 7)

# Mirrors qdp.selftest.CRITERIA; a renamed criterion stops a traced selftest.
CRITERIA = ("membership-battery", "limit-duality", "roundtrips",
            "deviation-product-expansion", "inclusion-exclusion",
            "limit-structure-valuations", "filtration-kernel",
            "pairing-duality", "oracle-agreement", "gauge-preservation",
            "bundle-invariants")

# Spans that must see calls in a traced pass; none means the wrappers no
# longer reach the code the workload is meant to exercise.
EXPECTED_FIRING = {
    "member-delta": ("drinfeld.prime_membership", "hopf.delta_n",
                     "hopf.delta_monomial", "hopf.coproduct_monomial",
                     "hopf.tensor_multiply", "hopf.normal_form",
                     "exprs.parse_element", "freealg.tensor_init"),
    "member-pairing": ("pairing.pair_mono", "pairing.ideal_products",
                       "pairing.axioms_check", "pairing.orthogonal_membership",
                       "hopf.coproduct_monomial", "hopf.tensor_multiply",
                       "drinfeld.rescale", "exprs.parse_element"),
    "selftest": ("report.run_tasks", "classical.extract", "drinfeld.rescale",
                 "drinfeld.prime_membership", "pairing.pair_mono",
                 "hopf.delta_monomial", "hopf.tensor_multiply",
                 "hopf.expand_into")
    + tuple(f"selftest.{c}" for c in CRITERIA),
}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# -- host speed -------------------------------------------------------------

REF_SLICE_ITERS = 20000
REF_SLICE_S = 0.09        # about the median slice while a pass runs (2-vCPU VM)
SAMPLE_EVERY_S = 1.0      # about 10% of the second core
HOST_ELASTICITY = 0.5     # d log(certificate time) / d log(slice time)


def reference_slice() -> float:
    """CPU seconds taken by a fixed piece of stdlib-only work shaped like the
    engine's inner loop: exact rationals multiplied and accumulated into a
    dict keyed by tuples.  The sums keep denominator 7, so every slice does
    the same work."""
    t0 = time.thread_time()
    acc: dict = {}
    a = Fraction(3, 7)
    for i in range(REF_SLICE_ITERS):
        key = (i % 13, i % 7)
        acc[key] = acc.get(key, 0) + a * (i % 5 + 1)
    return time.thread_time() - t0


class HostSpeed:
    """Times one reference slice at once and then every SAMPLE_EVERY_S, on a
    thread of this process, until stopped.  The processes under test run one
    at a time, so the slices use the otherwise idle second core."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while True:
            self.samples.append(reference_slice())
            if self._stop.wait(SAMPLE_EVERY_S):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def factor(self) -> float:
        """Multiplier taking a wall time measured meanwhile to the nominal
        host speed: below 1 when the host ran slow."""
        slice_s = statistics.median(self.samples)
        return (REF_SLICE_S / slice_s) ** HOST_ELASTICITY


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("QDP_DEFAULT_ORDER", None)   # it would change the default N
    return env


class Proc:
    """One finished cold process: timings, rusage and captured output."""

    def __init__(self, label, wall, status, ru, stdout, stderr, record,
                 timed_out, t_spawn):
        self.label = label
        self.wall = wall
        self.exit = os.waitstatus_to_exitcode(status)
        self.ru = ru
        self.stdout = stdout
        self.stderr = stderr
        self.record = record
        self.timed_out = timed_out
        self.t_spawn = t_spawn

    @property
    def setup_s(self):
        t = self.record.get("t_bundle") if self.record else None
        return None if t is None else t - self.t_spawn

    @property
    def rss_mb(self) -> float:
        return self.ru.ru_maxrss / 1024.0

    def summary(self) -> dict:
        return {"label": self.label, "wall_s": self.wall, "exit": self.exit,
                "setup_s": self.setup_s, "rss_mb": self.rss_mb,
                "user_s": self.ru.ru_utime, "sys_s": self.ru.ru_stime,
                "nivcsw": self.ru.ru_nivcsw, "timed_out": self.timed_out}


def spawn(label: str, launcher_args: list[str], timeout: float,
          seq: int) -> Proc:
    """Run one cold process to completion and collect it with wait4."""
    os.makedirs(TMP, exist_ok=True)
    base = os.path.join(TMP, f"p{os.getpid()}-{seq}")
    rec_path = base + ".rec"
    if os.path.exists(rec_path):
        os.remove(rec_path)
    cmd = [sys.executable, os.path.join(BENCH, "launch.py"),
           "--record", rec_path] + launcher_args
    killed = []

    with open(base + ".out", "wb") as out, open(base + ".err", "wb") as err:
        t0 = _now()
        p = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                             env=_child_env())

        def kill():
            killed.append(True)
            p.kill()
        timer = threading.Timer(max(timeout, 0.1), kill)
        timer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        t1 = _now()
        p.returncode = os.waitstatus_to_exitcode(status)
    with open(base + ".out", "rb") as fh:
        stdout = fh.read()
    with open(base + ".err", "rb") as fh:
        stderr = fh.read()
    record = None
    if os.path.exists(rec_path):
        with open(rec_path) as fh:
            record = json.load(fh)
    for suffix in (".out", ".err", ".rec"):
        if os.path.exists(base + suffix):
            os.remove(base + suffix)
    return Proc(label, t1 - t0, status, ru, stdout, stderr, record,
                bool(killed), t0)


# -- correctness ----------------------------------------------------------


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def load_goldens() -> dict:
    with open(GOLDENS) as fh:
        return json.load(fh)


def _certificate(proc: Proc, route: str):
    try:
        payload = json.loads(proc.stdout)
        return payload["certificates"][route]
    except (ValueError, KeyError, TypeError):
        return None


def check(workload: str, proc: Proc, goldens: dict) -> str | None:
    """None when the invocation matches its golden, else the reason."""
    if proc.timed_out:
        return "timed out"
    if b"Traceback" in proc.stderr:
        return "traceback: " + proc.stderr.decode(errors="replace")[-300:]
    key = proc.label
    want = goldens.get(workload, {}).get(key)
    if want is None:
        return f"no golden for {key!r}"
    if proc.exit != want["exit"]:
        return f"exit {proc.exit}, golden {want['exit']}"
    if workload != "selftest":
        route = "delta" if workload == "member-delta" else "pairing"
        cert = _certificate(proc, route)
        if cert is None:
            return "no certificate in the output"
        for field in ("verdict", "valuations", "witness"):
            if cert.get(field) != want[field]:
                return f"{field} {cert.get(field)!r}, golden {want[field]!r}"
    digest = hashlib.sha256(proc.stdout).hexdigest()
    if digest != want["sha256"]:
        return f"output digest {digest[:16]}, golden {want['sha256'][:16]}"
    return None


# -- running a workload -------------------------------------------------------


class Run:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.t_start = _now()
        self.seq = 0
        self.passes: list[dict] = []
        self.speed = 1.0

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (_now() - self.t_start)

    def _spawn(self, label, args, timeout=None):
        self.seq += 1
        cap = PROC_TIMEOUT_S[self.workload] if timeout is None else timeout
        return spawn(label, args, min(cap, self.remaining()), self.seq)

    def warm_up(self) -> None:
        """One untimed process, so no timed one pays for compiling the
        bytecode of a fresh checkout."""
        p = self._spawn("warm-up", ["--", "list"], 60.0)
        if p.exit != 0:
            raise SystemExit("warm-up failed: "
                             + p.stderr.decode(errors="replace")[-500:])

    def one_pass(self, mode: list[str]) -> dict:
        procs = []
        t0 = _now()
        for label, argv in jobs(self.workload, self.seed):
            proc = self._spawn(label, mode + ["--"] + argv)
            procs.append(proc)
            if proc.timed_out:
                break
        wall = _now() - t0
        done = {"wall_s": wall, "procs": procs,
                "peak_rss_mb": max(p.rss_mb for p in procs)}
        self.passes.append(done)
        return done

    def measure(self) -> None:
        """Repeat the pass while another one is expected to end within
        --seconds (at least one pass), so a run never overshoots, and note
        the host's speed meanwhile."""
        t0 = _now()
        with HostSpeed() as speed:
            while True:
                done = self.one_pass([])
                if any(p.timed_out for p in done["procs"]):
                    break
                if _now() - t0 + done["wall_s"] > self.seconds:
                    break
                if self.remaining() < 1.5 * done["wall_s"]:
                    break
        self.speed = speed.factor()


def tail(samples: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    s = sorted(samples)
    n = len(s)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        idx = max(0, math.ceil(q / 100.0 * n) - 1)
        if n - 1 - idx >= 10:
            return {"percentile": q, "value": s[idx], "samples": n}
    return None


def _git_commit() -> str | None:
    if shutil.which("git") is None:
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "qdp")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def context() -> dict:
    return {"commit": _git_commit(), "src_sha256": _src_digest(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg": list(os.getloadavg())}


# -- per-layer metrics ------------------------------------------------------------

_SPAN_CALLS = ("freealg.tensor_init", "hopf.normal_form",
               "hopf.tensor_multiply", "hopf.coproduct_monomial",
               "hopf.delta_monomial", "pairing.pair_mono")
_SPAN_SELF = ("freealg.tensor_init", "freealg.truncate", "hopf.normal_form",
              "hopf.tensor_multiply", "hopf.expand_into",
              "hopf.coproduct_monomial", "hopf.delta_monomial",
              "pairing.pair_mono")
_SPAN_TOTAL = ("drinfeld.prime_membership", "drinfeld.rescale",
               "pairing.axioms_check", "pairing.ideal_products",
               "classical.extract", "report.run_tasks",
               "exprs.parse_element")
_WORKING_SET = ("hopf.nf_cache.entries", "hopf.nf_cache.terms",
                "hopf.coproduct_cache.entries", "hopf.coproduct_cache.terms",
                "hopf.delta_cache.entries", "hopf.delta_cache.terms",
                "hopf.delta_cache.coeffs")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(procs: list[Proc]) -> tuple[dict, dict, dict]:
    """Per-layer values summed over processes, the merged spans, and the
    series ops merged per parent span."""
    spans: dict[str, list] = {}
    counts: dict[str, int] = {}
    by_parent: dict[str, list] = {}
    ws: dict[str, int] = {}
    for p in procs:
        tr = p.record["trace"]
        for name, agg in tr["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0, 0.0])
            for i, v in enumerate(agg):
                acc[i] += v
        for name, v in tr["counts"].items():
            counts[name] = counts.get(name, 0) + v
        for parent, o in tr["series_ops"].items():
            acc = by_parent.setdefault(parent, [0, 0.0, 0, 0, 0.0])
            for i, v in enumerate(o):
                acc[i] += v
        for name, v in p.record["working_set"].items():
            ws[name] = max(ws.get(name, 0), v) if "builtin" not in name \
                else ws.get(name, 0) + v

    ops = [sum(o[i] for o in by_parent.values()) for i in range(5)]

    def span(name, i):
        return spans.get(name, [0, 0.0, 0.0, 0.0])[i]

    m = {"series.mul.calls": ops[0], "series.mul.self_s": ops[1],
         "series.mul.coeff_products": ops[2], "series.add.calls": ops[3],
         "series.add.self_s": ops[4]}
    for name in _SPAN_CALLS:
        m[f"{name}.calls"] = span(name, 0)
    for name in _SPAN_SELF:
        m[f"{name}.self_s"] = span(name, 2)
    for name in _SPAN_TOTAL:
        m[f"{name}.s"] = span(name, 1)
    for name in ("hopf.normal_form", "hopf.coproduct_monomial",
                 "hopf.delta_monomial"):
        m[f"{name}.hit_ratio"] = _ratio(counts.get(f"{name}.hits", 0),
                                        span(name, 0))
    m["hopf.rewrite.steps"] = counts.get("hopf.rewrite.steps", 0)
    m["pairing.memo.hit_ratio"] = _ratio(counts.get("pairing.memo.hits", 0),
                                         counts.get("pairing.memo.lookups", 0))
    for name in _WORKING_SET:
        m[name] = ws.get(name, 0)
    m["bundles.builtin.hit_ratio"] = _ratio(
        ws.get("bundles.builtin.hits", 0),
        ws.get("bundles.builtin.hits", 0) + ws.get("bundles.builtin.misses", 0))
    m["report.run_tasks.wait_s"] = sum(
        span(f"selftest.{c}", 1) - span(f"selftest.{c}", 3) for c in CRITERIA)
    for c in CRITERIA:
        m[f"selftest.{c}.s"] = span(f"selftest.{c}", 1)
    m["cli.import.s"] = statistics.median(
        p.record["t_import"] - p.record["t_start"] for p in procs)
    return m, spans, by_parent


# -- output -----------------------------------------------------------------------


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio"):
        return "1"
    return "count"


def trace_metrics(workload, untraced, traced, scaling) -> tuple[dict, dict]:
    """Every per-layer metric BENCHMARK.json declares, from a traced pass,
    and the trace detail; a missing trace or a silent wrapper stops the
    run."""
    if not all(p.record and "trace" in p.record for p in traced["procs"]):
        raise SystemExit("trace: a traced process left no trace record")
    layers, spans, by_parent = layer_metrics(traced["procs"])
    silent = [n for n in EXPECTED_FIRING[workload]
              if not spans.get(n, [0])[0]]
    if silent:
        raise SystemExit(f"trace: expected wrappers saw no calls on "
                         f"{workload}: {', '.join(silent)}")
    for n, p in zip(SCALING_ORDERS, scaling):
        layers[f"hopf.delta_cache.terms_n{n}"] = (
            p.record["working_set"]["hopf.delta_cache.terms"]
            if p.record else 0)
    layers["trace.wall_s"] = traced["wall_s"]
    layers["trace.untraced_wall_s"] = untraced["wall_s"]
    layers["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    declared = [m["name"] for m in load_benchmark()["per_layer"]]
    missing = sorted(set(declared) - set(layers))
    if missing:
        raise SystemExit(f"trace: no value for {', '.join(missing)}")
    detail = {"spans": spans, "series_ops_by_parent": by_parent,
              "patched": traced["procs"][0].record["trace"]["patched"]}
    return {k: _metric(layers[k], _unit(k)) for k in declared}, detail


def run_workload(args) -> dict:
    goldens = load_goldens()
    ctx_start = context()
    run = Run(args.workload, args.seed, args.seconds)
    run.warm_up()
    trace_extra = {}
    if args.trace:
        untraced = run.one_pass([])
        traced = run.one_pass(["--trace"])
        scaling = []
        for n in SCALING_ORDERS:
            argv = ["member", "borel2", "--h-order", str(n),
                    f"--element={SCALING_ELEMENT}", "--format", "json"]
            scaling.append(run._spawn(f"scaling N={n}",
                                      ["--counters", "--"] + argv, 60.0))
    else:
        run.measure()

    failures = []
    attempted = 0
    for ps in run.passes:
        for p in ps["procs"]:
            attempted += 1
            why = check(args.workload, p, goldens)
            if why is not None:
                failures.append({"label": p.label, "why": why})
    setup_samples = [p.setup_s for ps in run.passes for p in ps["procs"]
                     if p.setup_s is not None]

    walls = [ps["wall_s"] for ps in run.passes]
    if args.trace:
        for p in scaling:
            attempted += 1
            if p.exit != 0 or b"Traceback" in p.stderr or not p.record:
                failures.append({"label": p.label, "why": f"exit {p.exit}"})
        metrics, trace_extra = trace_metrics(args.workload, untraced,
                                             traced, scaling)
    else:
        metrics = {
            "wall_norm_s": _metric(statistics.mean(walls) * run.speed, "s"),
            "setup_s": _metric(statistics.median(setup_samples), "s"),
            "peak_rss_mb": _metric(statistics.median(
                ps["peak_rss_mb"] for ps in run.passes), "MB"),
        }

    detail = {
        "workload": args.workload, "seed": args.seed,
        "trace": bool(args.trace),
        "jobs": [label for label, _ in jobs(args.workload, args.seed)],
        "passes": [{"wall_s": ps["wall_s"], "peak_rss_mb": ps["peak_rss_mb"],
                    "procs": [p.summary() for p in ps["procs"]]}
                   for ps in run.passes],
        "raw_wall_s": statistics.median(walls),
        "host_speed_factor": None if args.trace else run.speed,
        "wall_tail": tail([w * run.speed for w in walls]),
        "setup_samples": len(setup_samples),
        "fail_ratio": _ratio(len(failures), attempted),
        "failures": failures,
        "context": {"start": ctx_start, "end_loadavg": list(os.getloadavg())},
        **trace_extra,
    }
    return {"detail": detail, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def print_summary(res: dict) -> None:
    d = res["detail"]
    print(f"workload {d['workload']}  seed {d['seed']}  "
          f"trace {int(d['trace'])}  passes {len(d['passes'])}")
    print(f"  jobs: {', '.join(d['jobs'])}")
    for name, m in res["metrics"].items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'fail_ratio':<40} {d['fail_ratio']:>16.6g} 1  "
          f"({res['failed']} of {res['attempted']} invocations)")
    print(f"  {'wall_s (raw, median)':<40} {d['raw_wall_s']:>16.6g} s")
    if d["host_speed_factor"] is not None:
        print(f"  {'host speed factor':<40} {d['host_speed_factor']:>16.6g}")
    t = d["wall_tail"]
    print("  wall_norm_s tail: " + (
        f"p{t['percentile']:g} = {t['value']:.4f} s of {t['samples']} passes"
        if t else f"none ({len(d['passes'])} passes; a tail needs >= 11)")
        + f"; setup_s over {d['setup_samples']} processes")
    for i, ps in enumerate(d["passes"]):
        print(f"  pass {i} wall {ps['wall_s']:.3f} s")
        for p in ps["procs"]:
            print(f"  pass {i} {p['label']:<28} wall {p['wall_s']:8.3f} s  "
                  f"user {p['user_s']:7.2f} s  sys {p['sys_s']:5.2f} s  "
                  f"nivcsw {p['nivcsw']:6d}  rss {p['rss_mb']:7.1f} MB  "
                  f"exit {p['exit']}")
    parents = d.get("series_ops_by_parent", {})
    top = sorted(parents.items(), key=lambda kv: -(kv[1][1] + kv[1][4]))
    for parent, o in top[:6]:
        print(f"  series ops under {parent:<32} mul {o[0]:>9} in {o[1]:7.3f} s"
              f"  add {o[3]:>9} in {o[4]:7.3f} s")
    for f in d["failures"]:
        print(f"  FAIL {f['label']}: {f['why']}")
    ctx = d["context"]
    print(f"  context: commit {ctx['start']['commit']}  "
          f"src {ctx['start']['src_sha256'][:16]}  "
          f"python {ctx['start']['python']}  nproc {ctx['start']['nproc']}  "
          f"load {ctx['start']['loadavg']} -> {ctx['end_loadavg']}")


# -- golden recording ---------------------------------------------------------------


def record_goldens(workloads) -> None:
    """Run every catalogue element and every table seed once and store what
    this commit outputs.  Run it only on a commit whose results are known to
    be right: the goldens are the reference every later run is held to."""
    goldens = load_goldens() if os.path.exists(GOLDENS) else {}
    seq = 0
    for w in workloads:
        if w == "selftest":
            items = [(str(k), ["selftest", "--format", "json", "--seed",
                               str(k)])
                     for k in (DEFAULT_SEED,) + SELFTEST_SEEDS]
        else:
            items = [(e, member_argv(w, e)) for e in all_member_elements(w)]
        table = goldens.setdefault(w, {})
        for label, argv in items:
            seq += 1
            p = spawn(label, ["--"] + argv, 300.0, seq)
            if p.timed_out or b"Traceback" in p.stderr:
                raise SystemExit(f"{w} {label}: failed while recording")
            entry = {"exit": p.exit,
                     "sha256": hashlib.sha256(p.stdout).hexdigest()}
            if w != "selftest":
                route = "delta" if w == "member-delta" else "pairing"
                cert = _certificate(p, route)
                entry.update({k: cert[k] for k in
                              ("verdict", "valuations", "witness")})
            table[label] = entry
            print(f"{w} {label}: {entry}", flush=True)
    with open(GOLDENS, "w") as fh:
        fh.write(_goldens_text(goldens))


def _goldens_text(goldens: dict) -> str:
    """JSON with one line per recorded input."""
    blocks = []
    for w in sorted(goldens):
        rows = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                for k, v in sorted(goldens[w].items())]
        blocks.append(f" {json.dumps(w)}: {{\n" + ",\n".join(rows) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-goldens", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qdp", "cli.py")):
        print(f"error: no qdp sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_goldens:
        record_goldens([args.workload] if args.workload else WORKLOADS)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    res = run_workload(args)
    print_summary(res)
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
