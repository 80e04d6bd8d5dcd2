"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest -q bench

They are kept out of the repository's own suite (its testpaths is tests/),
because they start cold qdp processes.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402

_TERM = re.compile(r"^(?:h(?:\^(\d))?\*)?(x(?:\^(\d))?)?\*?(y(?:\^(\d))?)?$")


def _parse_term(term: str):
    """(k, a, b) of a term h^k x^a y^b, or None."""
    m = _TERM.match(term.strip())
    if not m or not (m.group(2) or m.group(4)):
        return None
    k = int(m.group(1) or 1) if term.strip().startswith("h") else 0
    a = int(m.group(3) or 1) if m.group(2) else 0
    b = int(m.group(5) or 1) if m.group(4) else 0
    return k, a, b


def _terms(element: str) -> list:
    if element == "y*x*y":            # normal form x*y^2 - y^2
        element = "x*y^2 - y^2"
    return [_parse_term(t) for t in re.split(r" [+-] ", element.lstrip("-"))]


def _in_family(element: str) -> bool:
    terms = _terms(element)
    return len(terms) <= 2 and all(
        t is not None and t[0] <= 3 and t[2] <= 2 and t[1] + t[2] <= 3
        for t in terms)


def _support(element: str) -> set:
    return {(a, b) for _, a, b in _terms(element)}


def test_default_seed_reproduces_the_listed_elements():
    assert workloads.elements("member-delta", workloads.DEFAULT_SEED) == [
        "h^3*x*y^2", "y*x*y", "h^2*y^2", "h^2*x*y"]
    assert workloads.elements("member-pairing", workloads.DEFAULT_SEED) == [
        "h^2*x*y", "x*y^2", "h*x + h^2*y^2"]
    assert workloads.selftest_seed(workloads.DEFAULT_SEED) == 20240


@pytest.mark.parametrize("workload", ["member-delta", "member-pairing"])
def test_seeded_elements_are_deterministic_and_in_the_family(workload):
    for seed in range(20):
        drawn = workloads.elements(workload, seed)
        assert drawn == workloads.elements(workload, seed)
        assert len(drawn) == len(workloads.CATALOGUES[workload])
    assert all(_in_family(e) for e in workloads.all_member_elements(workload))


@pytest.mark.parametrize("workload", ["member-delta", "member-pairing"])
def test_a_slot_varies_only_signs_and_h_powers(workload):
    for slot in workloads.CATALOGUES[workload]:
        assert len(set(slot)) == len(slot)
        assert all(_support(e) == _support(slot[0]) for e in slot), slot


def test_every_input_has_a_golden():
    goldens = run.load_goldens()
    for w in ("member-delta", "member-pairing"):
        assert set(workloads.all_member_elements(w)) <= set(goldens[w])
    assert {str(k) for k in workloads.SELFTEST_SEEDS} <= set(goldens["selftest"])
    assert goldens["selftest"]["20240"]["sha256"].startswith("684c721b1afdf4c7")


def test_host_speed_factor_follows_the_median_slice():
    speed = run.HostSpeed()
    speed.samples = [run.REF_SLICE_S * 4] * 3 + [99.0]
    assert speed.factor() == pytest.approx(4 ** -run.HOST_ELASTICITY)
    speed.samples = [run.REF_SLICE_S]
    assert speed.factor() == 1.0
    with run.HostSpeed() as speed:
        pass
    assert len(speed.samples) == 1 and speed.samples[0] > 0


def _traced(tmp_path, argv):
    rec = tmp_path / "rec.json"
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "launch.py"), "--record",
         str(rec), "--trace", "--"] + argv,
        capture_output=True, timeout=120, cwd=ROOT)
    assert b"Traceback" not in out.stderr, out.stderr.decode()
    record = json.loads(rec.read_text())
    assert record["t_start"] <= record["t_import"] <= record["t_bundle"]
    return out.returncode, json.loads(out.stdout), record


def test_member_delta_tiny_traced(tmp_path):
    code, payload, rec = _traced(tmp_path, [
        "member", "borel2", "--h-order", "3", "--element=h^2*x*y",
        "--format", "json"])
    assert code == 0 and payload["certificates"]["delta"]["witness"] is None
    spans = rec["trace"]["spans"]
    assert spans["hopf.delta_monomial"][0] > 0
    assert "pairing.pair_mono" not in spans
    assert rec["working_set"]["hopf.delta_cache.terms"] > 0


def test_member_pairing_tiny_traced(tmp_path):
    code, payload, rec = _traced(tmp_path, [
        "member", "borel2", "--via", "pairing", "--h-order", "3",
        "--degree", "3", "--element=x*y", "--format", "json"])
    assert code == 1
    assert payload["certificates"]["pairing"]["verdict"] == "NotMember"
    spans = rec["trace"]["spans"]
    assert spans["pairing.pair_mono"][0] > 0
    assert "hopf.delta_monomial" not in spans
    assert set(rec["trace"]["patched"]["qdp.hopf.normal_form"]) >= {
        "qdp.hopf", "qdp.classical", "qdp.selftest"}


_TINY_SELFTEST = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import qdp.cli, qdp.selftest
from tracer import Tracer
t = Tracer()
t.install()
crit = qdp.selftest.CRITERIA
crit[:] = [c for c in crit if c[0] in ("membership-battery", "limit-duality")]
out = qdp.selftest.run_selftest(qdp.selftest.RunConfig(h_order=3,
                                                       degree_cap=3))
assert out["passed"], out
spans = t.report()["spans"]
for name in ("selftest.membership-battery", "selftest.limit-duality",
             "report.run_tasks", "classical.extract"):
    assert spans[name][0] > 0, name
print("ok")
"""


def test_selftest_tiny_traced_on_the_thread_pool():
    code = _TINY_SELFTEST.format(bench=BENCH, src=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         timeout=120, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_end_to_end_run_matches_goldens():
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "member-pairing", "--seed", "3", "--seconds", "1", "--trace", "0"],
        capture_output=True, timeout=170, text=True, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0, out.stdout
    assert set(last["metrics"]) == {"wall_norm_s", "setup_s", "peak_rss_mb"}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "member-delta",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, timeout=170, text=True, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
