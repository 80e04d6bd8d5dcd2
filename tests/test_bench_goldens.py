"""The benchmark's member goldens, checked in process.

bench/goldens.json records the exit code and the sha256 of stdout of every
`qdp member` invocation the member-delta and member-pairing workloads can
make; bench/workloads.py builds their argument lists.  Both are read here,
not changed, so a change to the report bytes fails tier-1 and not only the
benchmark.  Each invocation clears the builtin() cache first, so that it
runs cold, as the benchmark's fresh processes do.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from qdp.bundles import builtin
from qdp.cli import run

BENCH = Path(__file__).resolve().parents[1] / "bench"
MEMBER_WORKLOADS = ("member-delta", "member-pairing")


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "qdp_bench_workloads", BENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


workloads = _load_workloads()
GOLDENS = json.loads((BENCH / "goldens.json").read_text(encoding="utf-8"))
CASES = [(w, e) for w in MEMBER_WORKLOADS for e in GOLDENS[w]]


@pytest.mark.parametrize("workload", MEMBER_WORKLOADS)
def test_goldens_cover_every_catalogue_element(workload):
    assert (sorted(GOLDENS[workload])
            == sorted(workloads.all_member_elements(workload)))


@pytest.mark.parametrize("workload, element", CASES,
                         ids=[f"{w}:{e}" for w, e in CASES])
def test_member_output_matches_the_golden(capsys, workload, element):
    want = GOLDENS[workload][element]
    builtin.cache_clear()
    code = run(workloads.member_argv(workload, element))
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert (code, digest) == (want["exit"], want["sha256"]), element
