"""fork_map: results in item order, the same rows and the same errors at
every CPU count, and no process left behind."""

import os
import pickle
import random
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import qdp.errors as errors
import qdp.report as report
import qdp.selftest as selftest
from qdp.bundles import BUILTIN_NAMES, builtin
from qdp.cli import run
from qdp.freealg import Monomial, TensorElement
from qdp.report import HopfReport, fork_map
from qdp.series import HSeries

import test_hopf

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="fork_map shares out work by fork")

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _category(exc) -> int:
    # the CLI's exit code for an error that reaches it
    if isinstance(exc, errors.MathematicalFailure):
        return 1
    return 2 if isinstance(exc, errors.InputError) else 3


def _error_classes():
    return [c for c in vars(errors).values()
            if isinstance(c, type) and issubclass(c, errors.QdpError)]


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda c: c.__name__)
def test_every_qdp_error_survives_a_pickle_round_trip(cls):
    # a worker pickles the exception of a failing item for the caller
    if cls is errors.NotAHopfMap:
        exc = cls("not a morphism", HopfReport())
    elif cls is errors.ExpressionSyntaxError:
        exc = cls("unexpected ')'", 4)
    else:
        exc = cls("a finding")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert _category(back) == _category(exc)
    assert vars(back).keys() == vars(exc).keys()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_results_come_in_item_order(monkeypatch, k):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(k)), raising=False)
    assert fork_map(lambda x: x * x, range(40)) == [x * x for x in range(40)]
    assert fork_map(lambda x: x, []) == []


def _fails_at_3_and_7(x):
    if x == 3:
        time.sleep(0.1)  # a later item fails first
        raise errors.InputError("item 3")
    if x == 7:
        raise errors.FuelExceeded("item 7")
    return x


@pytest.mark.parametrize("k", [1, 2, 3])
def test_the_lowest_failing_item_raises(monkeypatch, k):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(k)), raising=False)
    with pytest.raises(errors.InputError, match="item 3"):
        fork_map(_fails_at_3_and_7, range(12))


def _default_batteries():
    return selftest._pair_batteries(
        [builtin(name, selftest.BATTERY_ORDER, selftest.BATTERY_ORDER).quea
         for name in BUILTIN_NAMES], random.Random(selftest.DEFAULT_SEED))


def _rows_at(monkeypatch, k, make_rows):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(k)), raising=False)
    return [r.to_jsonable() for r in make_rows()]


def test_default_battery_rows_do_not_depend_on_cpu_count(monkeypatch):
    batteries = _default_batteries()
    rows = [_rows_at(monkeypatch, k,
                     lambda: selftest.product_expansion(batteries))
            for k in (1, 2, 3)]
    assert len(rows[0]) == 30 and all(r["passed"] for r in rows[0])
    assert rows[1] == rows[0] and rows[2] == rows[0]


def test_failing_mutant_rows_do_not_depend_on_cpu_count(monkeypatch):
    P = builtin("borel2", 4, 4).quea
    y = Monomial((0, 1))
    bump = TensorElement(P.name, 2, {(y, y): HSeries.h_power(1, 4)})
    cop = {"x": P.coproduct_on_gens["x"] + bump,
           "y": P.coproduct_on_gens["y"]}
    mutant = test_hopf.TestDeviationProductMutant()
    rows = [_rows_at(monkeypatch, k, lambda: mutant._rows(cop))
            for k in (1, 2, 3)]
    failing = [r for r in rows[0] if not r["passed"]]
    assert len(failing) == 4
    assert all("; first: a = " in r["detail"] for r in failing)
    assert rows[1] == rows[0] and rows[2] == rows[0]


def _raise_in_a_worker(exc, marker: Path):
    caller, slept = os.getpid(), []

    def unit(x):
        if os.getpid() == caller and not slept:
            slept.append(True)
            time.sleep(0.2)  # the workers meet the failing item first
        time.sleep(0.005)
        if x == 9:
            marker.write_text(str(os.getpid()))
            raise exc
        return x

    return fork_map(unit, range(10))


@pytest.mark.parametrize("exc, code, line", [
    (errors.InputError("bad input"), 2, "error: bad input"),
    (errors.FuelExceeded("no normal form"), 1,
     "mathematical failure: no normal form"),
    (ValueError("boom"), 3, "internal error: ValueError: boom"),
])
def test_a_worker_error_exits_as_at_one_cpu(monkeypatch, capsys, tmp_path,
                                            exc, code, line):
    marker = tmp_path / "raised-in"
    monkeypatch.setattr(selftest, "CRITERIA",
                        [("boom", lambda cfg: _raise_in_a_worker(exc, marker))])
    for k in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(k)), raising=False)
        assert run(["selftest"]) == code
        out, err = capsys.readouterr()
        assert (out, err) == ("", line + "\n")
        assert (int(marker.read_text()) == os.getpid()) == (k == 1)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_child_is_left_after_product_expansion(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    P = builtin("borel2", 4, 4).quea
    pairs = list(zip(selftest.random_elements(P, random.Random(1), 6),
                     selftest.random_elements(P, random.Random(2), 6)))
    assert all(r.passed for r in selftest.product_expansion([(P, pairs)]))
    _no_child_left()

    def fail(unit):
        raise errors.NotDivisible("planted")

    monkeypatch.setattr(selftest, "_expansion_failures", fail)
    with pytest.raises(errors.NotDivisible, match="planted"):
        selftest.product_expansion([(P, pairs)])
    _no_child_left()


_KILLED_CALLER = textwrap.dedent("""
    import os, sys, time
    from qdp import report
    os.sched_getaffinity = lambda pid: {0, 1, 2}

    def unit(x):
        with open(os.path.join(sys.argv[1], str(os.getpid())), "a") as fh:
            fh.write(f"{x}\\n")
        time.sleep(0.2)
        return x

    report.fork_map(unit, range(200))
""")


def _taken(log: Path) -> dict:
    return {int(p.name): len(p.read_text().split()) for p in log.iterdir()}


def _gone(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"  # a zombie has ended


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads process states from /proc")
def test_killing_the_caller_leaves_no_worker_running(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    caller = subprocess.Popen([sys.executable, "-c", _KILLED_CALLER,
                               str(tmp_path)], env=env)
    try:
        deadline = time.monotonic() + 20
        while len(_taken(tmp_path)) < 3 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(_taken(tmp_path)) == 3
    finally:
        caller.send_signal(signal.SIGKILL)
        caller.wait(timeout=10)
    at_kill = _taken(tmp_path)
    workers = [pid for pid in at_kill if pid != caller.pid]
    assert len(workers) == 2
    deadline = time.monotonic() + 5
    while not all(map(_gone, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert all(map(_gone, workers))
    # each worker finished at most the unit it had begun
    after = _taken(tmp_path)
    assert all(after[pid] <= at_kill[pid] + 1 for pid in workers)
