"""Check rows, reports, the one comparison, the task runner, JSON text.

Reports list every check performed, passes included, so a green run is as
auditable as a red one.  Every verdict that sets two computed values side
by side is decided by discrepancy.  Tasks run one after another, and
fork_map keeps item order at any CPU count, so the row order is fixed.
"""

from __future__ import annotations

import json
import os
from typing import Callable, NamedTuple, Sequence

from .freealg import TensorElement


def discrepancy(got, want, *cut) -> str:
    """"" when got and want agree, both first cut by truncate(*cut) when a
    cut is given; else "discrepancy: " and got - want, a tensor's shown by
    its leading three terms in deglex order, since a failing axiom can
    differ in thousands of terms."""
    if cut:
        got, want = got.truncate(*cut), want.truncate(*cut)
    if got == want:
        return ""
    diff = got - want
    if not isinstance(diff, TensorElement):
        return f"discrepancy: {diff}"
    terms = diff.sorted_terms()
    lead = TensorElement(diff.pres, diff.rank, dict(terms[:3]))
    more = f" (+{len(terms) - 3} more terms)" if len(terms) > 3 else ""
    return f"discrepancy: {lead!r}{more}"


class CheckRow(NamedTuple):
    check: str
    subject: str
    passed: bool
    detail: str = ""

    def to_jsonable(self) -> dict:
        out = {"check": self.check, "subject": self.subject,
               "passed": self.passed}
        if self.detail:
            out["detail"] = self.detail
        return out

    def __str__(self):
        tail = f"  [{self.detail}]" if self.detail and not self.passed else ""
        return f"{self.check}: {self.subject}{tail}"


class HopfReport:
    def __init__(self):
        self.rows: list[CheckRow] = []

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def add(self, check: str, subject: str, passed: bool, detail: str = ""):
        self.rows.append(CheckRow(check, subject, bool(passed), detail))

    def compare(self, check: str, subject: str, got, want, *cut):
        """The row that passes iff discrepancy(got, want, *cut) is ""."""
        note = discrepancy(got, want, *cut)
        self.rows.append(CheckRow(check, subject, not note, note))

    def extend(self, other: "HopfReport"):
        self.rows.extend(other.rows)

    def failures(self) -> list[CheckRow]:
        return [r for r in self.rows if not r.passed]

    def first_failure(self) -> str:
        """The first failing row as the text report shows it, or "" when
        every row passes: a detail for a row that summarises a report."""
        return next((str(r) for r in self.rows if not r.passed), "")

    def to_jsonable(self) -> list[dict]:
        return [r.to_jsonable() for r in self.rows]

    def __str__(self):
        return "\n".join(f"  {'ok ' if r.passed else 'FAIL'} {r}"
                         for r in self.rows)


def run_tasks(tasks: Sequence[tuple[str, Callable[[], list[CheckRow]]]]
              ) -> list[CheckRow]:
    """Run named row-producing tasks in order and concatenate their rows."""
    rows: list[CheckRow] = []
    for _, fn in tasks:
        rows.extend(fn())
    return rows


def fork_map(fn: Callable, items: Sequence) -> list:
    """[fn(x) for x in items]: the caller and a worker forked per further CPU
    take indices off a pipe filled first; workers pickle back the results
    they finished and end in os._exit.  A process stops at its first failing
    item.  Once all are reaped, the caller runs each index left undone, so
    the lowest failing one raises here.  No other thread may be running."""
    import pickle
    parent, workers = os.getpid(), []

    def drain() -> dict:
        # {index: result} per index taken while the caller lives
        done = {}
        while parent in (os.getpid(), os.getppid()) and (
                index := os.read(queue, 4)):
            i = int.from_bytes(index, "big")
            try:
                done[i] = fn(items[i])
            except Exception:
                os.read(queue, 4 * len(items))  # every later index is moot
                break
        return done

    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    queue, feed = os.pipe()
    os.set_blocking(feed, False)
    written = os.write(feed, b"".join(i.to_bytes(4, "big")
                                      for i in range(len(items))))
    os.close(feed)
    try:
        if written < 4 * len(items):
            raise ValueError(f"{len(items)} items overflow the work queue")
        for _ in range(cpus - 1 if hasattr(os, "fork") else 0):
            out, into = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    with open(into, "wb") as fh:
                        pickle.dump(drain(), fh)
                finally:
                    os._exit(0)
            os.close(into)
            workers.append((pid, out))
        done = drain()
        for pid, out in workers:
            with open(out, "rb", closefd=False) as fh:
                done.update(pickle.load(fh))
    finally:
        os.close(queue)
        for pid, out in workers:
            os.close(out)
            os.waitpid(pid, 0)
    return [done[i] if i in done else fn(items[i]) for i in range(len(items))]


def render_json(data: dict) -> str:
    return json.dumps(data, indent=2) + "\n"
