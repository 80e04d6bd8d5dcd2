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


def _at_cpus(monkeypatch, k):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(k)), raising=False)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_results_come_in_item_order(monkeypatch, k):
    _at_cpus(monkeypatch, k)
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
    _at_cpus(monkeypatch, k)
    with pytest.raises(errors.InputError, match="item 3"):
        fork_map(_fails_at_3_and_7, range(12))


def _default_batteries():
    return selftest._pair_batteries(
        [builtin(name, selftest.BATTERY_ORDER, selftest.BATTERY_ORDER).quea
         for name in BUILTIN_NAMES], random.Random(selftest.DEFAULT_SEED))


def _rows_at(monkeypatch, k, make_rows):
    _at_cpus(monkeypatch, k)
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


def _raise_in_a_worker(exc, marker: Path, count=10):
    """fork_map over range(count) with item 9 raising exc.  Each process
    that raises appends its pid to marker; the caller's first item first
    waits up to 5 s for a worker to do so, if there is one."""
    caller, waited = os.getpid(), []

    def unit(x):
        if os.getpid() == caller and not waited:
            waited.append(True)
            deadline = time.monotonic() + (
                5 if len(os.sched_getaffinity(0)) > 1 else 0)
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.005)
        time.sleep(0.005)
        if x == 9:
            with marker.open("a") as fh:
                fh.write(f"{os.getpid()}\n")
            raise exc
        return x

    return fork_map(unit, range(count))


def _raisers(marker: Path) -> list:
    """The pids marker names, in the order they raised; marker is removed."""
    pids = [int(p) for p in marker.read_text().split()]
    marker.unlink()
    return pids


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
        _at_cpus(monkeypatch, k)
        assert run(["selftest"]) == code
        out, err = capsys.readouterr()
        assert (out, err) == ("", line + "\n")
        # the failing item runs again in the caller, which raises it
        pids = _raisers(marker)
        assert len(pids) == 2 and pids[-1] == os.getpid()
        assert (pids[0] == os.getpid()) == (k == 1)


def _error_classes():
    return [c for c in vars(errors).values()
            if isinstance(c, type) and issubclass(c, errors.QdpError)]


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda c: c.__name__)
def test_every_qdp_error_raises_from_a_worker_as_at_one_cpu(monkeypatch,
                                                            tmp_path, cls):
    # no error crosses a process: the caller raises the item's own error
    if cls is errors.NotAHopfMap:
        exc = cls("not a morphism", HopfReport())
    elif cls is errors.ExpressionSyntaxError:
        exc = cls("unexpected ')'", 4)
    else:
        exc = cls("a finding")
    marker = tmp_path / "raised-in"
    _at_cpus(monkeypatch, 2)
    with pytest.raises(cls) as info:
        _raise_in_a_worker(exc, marker)
    assert info.value is exc
    assert _raisers(marker)[0] != os.getpid()


class _Unpicklable(ValueError):
    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: message


@pytest.mark.parametrize("k", [1, 2, 3])
def test_an_unpicklable_error_raises_as_at_one_cpu(monkeypatch, tmp_path, k):
    # it cannot cross a pipe, so the caller must raise it itself
    marker = tmp_path / "raised-in"
    exc = _Unpicklable("item 9")
    with pytest.raises(AttributeError, match="Can't pickle"):
        pickle.dumps(exc)
    _at_cpus(monkeypatch, k)
    with pytest.raises(_Unpicklable, match="item 9") as info:
        _raise_in_a_worker(exc, marker, count=12)
    assert info.value is exc
    assert (_raisers(marker)[0] == os.getpid()) == (k == 1)


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
