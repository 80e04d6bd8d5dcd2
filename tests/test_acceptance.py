"""Acceptance suite.

Runs the full verification battery twice, once in this process through
the CLI entry point and once in a fresh interpreter, checks the two
reports are byte-identical and match the recorded digest, and asserts
every criterion group from the in-process payload plus direct spot
checks of the load-bearing exact values.

One PASS/FAIL line per criterion is printed (visible with pytest -s).
"""

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from qdp.bundles import builtin
from qdp.classical import (dual_lie_bialgebra, extract_lie_bialgebra,
                           extract_poisson_structure, lie_bialgebra_equal)
from qdp.cli import run
from qdp.drinfeld import (PRIME_THEN_VEE, VEE_THEN_PRIME, prime_membership,
                          prime_presentation, roundtrip_check,
                          vee_presentation)
from qdp.freealg import Monomial
from qdp.hopf import coproduct
from qdp.selftest import CRITERIA, RunConfig
from qdp.series import HSeries

N = D = 8
SRC = Path(__file__).resolve().parents[1] / "src"
# sha256 of `qdp selftest --format json` at the default seed, as recorded
# in bench/goldens.json; any change to a report byte moves it.
REPORT_SHA256 = \
    "684c721b1afdf4c7eba693c736ef5230347c397c37f798adf77d4ebc0a43780b"


def _run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def selftest_outputs():
    # The fresh process shares no cache with this one; it runs meanwhile.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    fresh = subprocess.Popen(
        [sys.executable, "-m", "qdp.cli", "selftest", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    code_in, out_in = _run_cli(["selftest", "--format", "json"])
    out_fresh, err_fresh = fresh.communicate()
    assert code_in == 0 and fresh.returncode == 0, err_fresh
    return out_in, out_fresh


@pytest.fixture(scope="module")
def payload(selftest_outputs):
    return json.loads(selftest_outputs[0])


def _rows(payload, *checks):
    return [r for r in payload["checks"] if r["check"] in checks]


def _assert_criterion(k, label, rows, extra_ok=True):
    ok = bool(rows) and all(r["passed"] for r in rows) and extra_ok
    print(f"ACCEPTANCE {k:02d} {label}: {'PASS' if ok else 'FAIL'} "
          f"({len(rows)} checks)")
    assert ok, [r for r in rows if not r["passed"]]


def test_criterion_01_membership_battery(payload):
    rows = _rows(payload, "membership")
    subjects = {r["subject"] for r in rows}
    assert any("h*x" in s for s in subjects)
    assert any("h*y" in s for s in subjects)
    assert any("valuation exactly 1" in s for s in subjects)
    # direct spot check at the stated tolerances (exact)
    P = builtin("borel2", N, D).quea
    h = HSeries.h_power(1, N)
    assert prime_membership(P.gen("x").scaled(h), P).is_member
    assert prime_membership(P.gen("y").scaled(h), P).is_member
    cert = prime_membership(P.gen("y"), P)
    assert not cert.is_member
    assert cert.valuation_at(2) == 1
    assert 2 in cert.failing_ns()
    _assert_criterion(1, "membership battery", rows)


def test_criterion_02_limit_duality(payload):
    rows = _rows(payload, "limit-duality")
    for name in ("abelian2", "borel2", "heisenberg3"):
        b = builtin(name, N, D)
        L = extract_lie_bialgebra(b.quea)
        Q = prime_presentation(b.quea, D)
        assert lie_bialgebra_equal(extract_poisson_structure(Q),
                                   dual_lie_bialgebra(L))
        assert lie_bialgebra_equal(
            extract_lie_bialgebra(vee_presentation(Q)), L)
    _assert_criterion(2, "semiclassical duality tables", rows)


def test_criterion_03_roundtrips(payload):
    rows = _rows(payload, "roundtrip")
    P = builtin("borel2", N, D).quea
    assert roundtrip_check(P, PRIME_THEN_VEE, D).passed
    assert roundtrip_check(prime_presentation(P, D), VEE_THEN_PRIME).passed
    _assert_criterion(3, "transform round trips", rows)


def test_criterion_04_product_expansion(payload):
    rows = _rows(payload, "deviation-of-product", "deviation-of-commutator")
    assert all("50 pairs" in r["subject"] for r in rows)
    # five builtins x three set sizes x two identities
    assert len(rows) == 30
    _assert_criterion(4, "deviation-of-product expansions", rows)


def test_criterion_05_inclusion_exclusion(payload):
    rows = _rows(payload, "inclusion-exclusion")
    assert len(rows) == 5
    _assert_criterion(5, "inclusion-exclusion inversion", rows)


def test_criterion_06_limit_structure(payload):
    rows = _rows(payload, "limit-structure")
    Q = prime_presentation(builtin("borel2", N, D).quea, D)
    assert all(r.h_valuation() >= 1 for r in Q.relations.values())
    _assert_criterion(6, "limit-structure valuations", rows)


def test_criterion_07_filtration_kernel(payload):
    rows = _rows(payload, "filtration-kernel")
    assert len(rows) == 2
    _assert_criterion(7, "filtration kernel", rows)


def test_criterion_08_pairing_duality(payload):
    rows = _rows(payload, "pairing-duality", "pairing-axioms")
    subjects = {r["subject"] for r in rows}
    assert any("delta_mn" in s for s in subjects)
    assert any(s.startswith("abelian1") for s in subjects)
    assert any(s.startswith("borel2") for s in subjects)
    _assert_criterion(8, "pairing duality and axioms", rows)


def test_criterion_09_oracle_agreement(payload):
    rows = _rows(payload, "oracle-agreement")
    assert any("battery size" in r["subject"] for r in rows)
    assert len(rows) >= 31
    _assert_criterion(9, "membership oracle agreement", rows)


def test_criterion_10_gauge_preservation(payload):
    rows = _rows(payload, "gauge")
    subjects = {r["subject"] for r in rows}
    assert any("rejected" in s for s in subjects)
    _assert_criterion(10, "gauge preservation", rows)


def test_criteria_do_not_depend_on_their_order(payload):
    # each criterion reads only its own inputs, so running them back to
    # front on freshly built bundles reassembles the forward rows; reversing
    # swaps every pair, e.g. oracle-agreement now runs before pairing-duality
    cfg = RunConfig()
    builtin.cache_clear()
    rows = {name: fn(cfg) for name, fn in reversed(CRITERIA)}
    assert [r.to_jsonable() for name, _ in CRITERIA
            for r in rows[name]] == payload["checks"]


# The criteria that run at the configured orders and whose rows name
# neither: membership-battery's "failing n" detail lists n up to N by
# design (test_membership_battery_holds_at_twice_the_order compares the
# rest), and the random batteries and the kernel sweep run at orders of
# their own.
RAISED_ORDER_CRITERIA = ("limit-duality", "roundtrips",
                         "limit-structure-valuations", "pairing-duality",
                         "oracle-agreement", "gauge-preservation",
                         "bundle-invariants")


def test_rows_do_not_change_at_raised_orders():
    # an "up to truncation" verdict must not change when N and D are
    # raised, here doubled: every limit table, round trip, pairing value,
    # gauge row and bundle invariant.  The oracle cross-check is raised by
    # four only: on a 2-vCPU host it takes about 1.4 s of CPU at (12, 12),
    # 4.2 s at (14, 14) and 10.8 s at (16, 16), while the other six take
    # about 1.2 s together at (16, 16).
    criteria = dict(CRITERIA)
    for name in RAISED_ORDER_CRITERIA:
        rows = criteria[name](RunConfig(N, D))
        raised = (RunConfig(N + 4, D + 4) if name == "oracle-agreement"
                  else RunConfig(2 * N, 2 * D))
        assert criteria[name](raised) == rows, name


def test_membership_battery_holds_at_twice_the_order():
    # every verdict and witness of the battery, at N and at 2N; only the
    # list of failing n, which runs to N, may grow
    battery = dict(CRITERIA)["membership-battery"]

    def verdicts(cfg):
        return [(r.subject, r.passed,
                 None if r.detail.startswith("failing n") else r.detail)
                for r in battery(cfg)]
    assert verdicts(RunConfig(2 * N, D)) == verdicts(RunConfig(N, D))


def test_criterion_11_determinism(selftest_outputs):
    out_in, out_fresh = selftest_outputs
    ok = out_in == out_fresh
    print(f"ACCEPTANCE 11 deterministic reports: "
          f"{'PASS' if ok else 'FAIL'} ({len(out_in)} bytes)")
    assert ok


def test_criterion_11_fails_on_a_planted_cache_entry(selftest_outputs):
    # the mutant of test 11: one wrong entry in a cache of a shared bundle,
    # twice the coproduct of x*y in heisenberg3, fails its bundle-hopf-axioms
    # row, so this process's report differs from the fresh process's
    P = builtin("heisenberg3", N, D).quea
    xy = Monomial((1, 1, 0))
    try:
        P._coproduct_cache[xy] = coproduct(P.lift(xy), P).scaled(2)
        code, out_in = _run_cli(["selftest", "--format", "json"])
    finally:
        builtin.cache_clear()
    assert code == 1 and out_in != selftest_outputs[1]


def test_report_bytes_pinned(selftest_outputs):
    digest = hashlib.sha256(selftest_outputs[0].encode("utf-8")).hexdigest()
    assert digest == REPORT_SHA256


def test_selftest_passes_and_validates(payload):
    jsonschema = pytest.importorskip("jsonschema")
    schema_path = (Path(__file__).resolve().parents[1]
                   / "src/qdp/report_schema.json")
    schema = json.loads(schema_path.read_text(encoding="utf-8"))
    jsonschema.validate(payload, schema)
    assert payload["passed"] is True
