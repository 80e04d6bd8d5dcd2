from pathlib import Path

import pytest

from qdp.bundles import BUILTIN_NAMES, builtin, bundle_selfcheck
from qdp.classical import extract_lie_bialgebra, lie_bialgebra_equal
from qdp.errors import UnknownExample
from qdp.manifest import presentation_from_manifest, presentation_to_manifest
from qdp.report import render_json
from qdp.selftest import limit_duality_rows

MANIFEST_DIR = Path(__file__).resolve().parents[1] / "src/qdp/manifests"


def test_names_and_unknown():
    assert set(BUILTIN_NAMES) == {"abelian1", "abelian2", "abelian3",
                                  "borel2", "heisenberg3"}
    with pytest.raises(UnknownExample):
        builtin("nope", 8, 8)


def test_presentation_repr():
    # a POLY presentation carries no degree cap
    assert repr(builtin("borel2", 3, 3).quea) == (
        "Presentation('borel2', POLY, gens=['x', 'y'], N=3, D=None)")


def test_abelian2_tables_are_zero():
    b = builtin("abelian2", 8, 8)
    assert b.lie.to_jsonable()["bracket"] == []
    assert b.lie.to_jsonable()["cobracket"] == []


def test_borel2_coproduct_compatibility_note():
    # the recorded fact: Delta respects [x, y] = y
    b = builtin("borel2", 8, 8)
    from qdp.hopf import check_hopf_axioms
    rep = check_hopf_axioms(b.quea, 2)
    assert rep.passed
    assert "Delta(y)" in b.notes or "Delta" in b.notes


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_bundle_selfcheck(name):
    rep = bundle_selfcheck(builtin(name, 8, 8))
    assert rep.passed, rep.failures()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_recorded_lie_matches_extraction(name):
    b = builtin(name, 8, 8)
    assert lie_bialgebra_equal(extract_lie_bialgebra(b.quea), b.lie)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_manifest_roundtrip(name):
    P = builtin(name, 8, 8).quea
    back = presentation_from_manifest(presentation_to_manifest(P))
    assert back.generators == P.generators
    assert back.model == P.model
    assert back.relations == P.relations
    for g in P.generators:
        assert back.coproduct_on_gens[g] == P.coproduct_on_gens[g]
        assert back.antipode_on_gens[g] == P.antipode_on_gens[g]
        assert back.counit_on_gens[g] == P.counit_on_gens[g]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_shipped_manifest_is_current(name):
    P = builtin(name, 8, 8).quea
    want = render_json(presentation_to_manifest(P))
    shipped = (MANIFEST_DIR / f"{name}.json").read_text(encoding="utf-8")
    assert shipped == want


def test_bundles_cached_per_truncation():
    assert builtin("borel2", 8, 8) is builtin("borel2", 8, 8)
    assert builtin("borel2", 8, 8) is not builtin("borel2", 6, 6)


def test_heisenberg_has_no_seed():
    assert builtin("heisenberg3", 8, 8).pairing_seed is None


def test_borel2_is_self_dual_in_canonical_basis():
    b = builtin("borel2", 8, 8)
    assert lie_bialgebra_equal(b.lie, b.expected_dual)


def test_heisenberg_is_not_self_dual():
    b = builtin("heisenberg3", 8, 8)
    assert not lie_bialgebra_equal(b.lie, b.expected_dual)


def test_wrong_expected_dual_fails_one_limit_duality_row():
    # heisenberg3 is not self-dual, so a bundle that records its own Lie
    # bialgebra as the expected dual must fail exactly the row that reads
    # the record, and the four rows computed from the presentation pass
    b = builtin("heisenberg3", 6, 6)
    mutant = b._replace(expected_dual=b.lie)
    rows, _, _ = limit_duality_rows(mutant, 6)
    assert len(rows) == 5
    assert [r.subject for r in rows if not r.passed] == [
        "heisenberg3: poisson(prime) == expected dual"]
    assert all(r.passed for r in limit_duality_rows(b, 6)[0])
