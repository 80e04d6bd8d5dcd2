import argparse
import contextlib
import copy
import hashlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qdp import cli
from qdp.bundles import builtin
from qdp.cli import run
from qdp.selftest import limit_duality_rows

MANIFEST_DIR = Path(__file__).resolve().parents[1] / "src/qdp/manifests"


def test_list(capsys):
    assert run(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert "borel2" in out and "heisenberg3" in out


def test_show_manifest_matches_shipped(capsys):
    assert run(["show", "borel2", "--manifest"]) == 0
    out = capsys.readouterr().out
    shipped = (MANIFEST_DIR / "borel2.json").read_text(encoding="utf-8")
    assert out == shipped


def test_show_unknown_is_usage_error(capsys):
    assert run(["show", "nope"]) == 2


def test_member_nonmember_exits_1(capsys):
    assert run(["member", "borel2", "--element", "y"]) == 1
    out = capsys.readouterr().out
    assert "NotMember" in out


def test_member_both_routes_agree(capsys):
    assert run(["member", "borel2", "--element", "h*x", "--via", "both"]) == 0
    out = capsys.readouterr().out
    assert "routes-agree" in out


def test_member_bad_expression_is_usage_error(capsys):
    assert run(["member", "borel2", "--element", "h*q"]) == 2


def test_member_zero_denominator_is_usage_error(capsys):
    assert run(["member", "borel2", "--element", "1/0"]) == 2
    err = capsys.readouterr().err
    assert "denominator" in err and "Traceback" not in err


@pytest.mark.parametrize("via", ["delta", "pairing"])
@pytest.mark.parametrize("n_max", ["-3", "0"])
def test_member_vacuous_n_max_is_usage_error(capsys, via, n_max):
    # n = 0 alone only tests the counit, which every element passes
    assert run(["member", "borel2", "--element", "x", "--via", via,
                "--n-max", n_max]) == 2
    assert "n_max" in capsys.readouterr().err


def test_member_pairing_n_max_below_the_degree_is_usage_error(capsys):
    # level n pairs only against products of n factors, so x^2's witness
    # shows first at n = 2: at n_max 1 every valuation read null and the
    # pairing route certified a member
    assert run(["member", "borel2", "--via", "pairing", "--element", "x^2",
                "--n-max", "1"]) == 2
    err = capsys.readouterr().err
    assert "n_max 1" in err and "degree 2" in err and "Traceback" not in err
    assert run(["member", "borel2", "--via", "pairing", "--element", "x^2",
                "--n-max", "2", "--format", "json"]) == 1
    cert = json.loads(capsys.readouterr().out)["certificates"]["pairing"]
    assert (cert["verdict"], cert["witness"]) == ("NotMember", 2)


@pytest.mark.parametrize("argv", [
    ["--format", "json", "member", "borel2", "--element", "h*x"],
    ["--h-order", "3", "member", "borel2", "--element", "h*x"],
], ids=["format", "h-order"])
def test_flags_before_the_command_are_usage_errors(capsys, argv):
    # the subcommand's defaults overwrote them: the first printed text and
    # the second ran at N=8; argparse then read the flag's value as the
    # command ("invalid choice: '3'")
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: {argv[0]} comes before the command" in err
    assert "flags follow the command" in err and "invalid choice" not in err


def test_selftest_below_h_order_2_is_usage_error(capsys):
    # the membership battery reads delta_2(y), which a certificate to n=1
    # does not hold: this was an internal error, "2 is not in list"
    assert run(["selftest", "--h-order", "1"]) == 2
    err = capsys.readouterr().err
    assert "delta_2" in err and "Traceback" not in err


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    def boom(args, cfg):
        raise RuntimeError("boom")
    monkeypatch.setitem(cli._HANDLERS, "list", boom)
    assert run(["list"]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: boom\n"


@pytest.mark.parametrize("mangle, message", [
    (lambda rels: [dict(r, i=r["j"], j=r["i"]) for r in rels],
     "relation key"),
    (lambda rels: rels + rels, "given twice"),
], ids=["swapped", "duplicated"])
def test_manifest_relations_are_never_dropped(tmp_path, capsys, mangle,
                                              message):
    data = json.loads(
        (MANIFEST_DIR / "borel2.json").read_text(encoding="utf-8"))
    data["relations"] = mangle(data["relations"])
    path = tmp_path / "mangled.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run(["limit", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("table", ["coproduct", "counit", "antipode"])
def test_manifest_structure_maps_are_never_dropped(tmp_path, capsys, table):
    data = json.loads(
        (MANIFEST_DIR / "borel2.json").read_text(encoding="utf-8"))
    data[table]["z"] = data[table]["x"]
    path = tmp_path / "stray.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run(["check-hopf", str(path), "--bound", "1"]) == 2
    assert "'z', which is not a generator" in capsys.readouterr().err


@pytest.mark.parametrize("mangle, message", [
    (lambda data: data.update(relation=data.pop("relations")),
     "unknown keys ['relation']"),
    (lambda data: data.update(degree_cap=3),
     "a POLY manifest has no degree cap, got 3"),
], ids=["misspelled-key", "poly-degree-cap"])
def test_manifest_data_is_never_dropped(tmp_path, capsys, mangle, message):
    # "relation" for "relations" loaded the abelian algebra, and a POLY
    # manifest's degree cap was ignored; both exited 0
    data = _borel2_manifest()
    mangle(data)
    path = tmp_path / "mangled.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run(["check-hopf", str(path), "--bound", "1"]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_diamond_takes_no_bound(capsys):
    # diamond never read --bound, so --bound -5 printed PASS with exit 0
    assert run(["diamond", "borel2", "--bound", "-5"]) == 2
    assert "PASS" not in capsys.readouterr().out


def test_check_hopf_json_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    assert run(["check-hopf", "borel2", "--bound", "2",
                "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    schema = json.loads(
        (Path(__file__).resolve().parents[1] / "src/qdp/report_schema.json")
        .read_text(encoding="utf-8"))
    jsonschema.validate(payload, schema)
    assert payload["passed"] is True


def test_transform_roundtrip_via_files(tmp_path, capsys):
    prime_path = tmp_path / "prime.json"
    assert run(["prime", "borel2", "-o", str(prime_path)]) == 0
    capsys.readouterr()
    assert run(["roundtrip", str(prime_path), "--direction",
                "vee-prime"]) == 0
    capsys.readouterr()
    assert run(["vee", str(prime_path)]) == 0
    out = capsys.readouterr().out
    assert '"model": "POLY"' in out


def test_vee_of_poly_is_usage_error(capsys):
    assert run(["vee", "borel2"]) == 2


def test_dual_check(capsys):
    assert run(["dual-check", "borel2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    # one duality pipeline: dual-check reports the selftest's rows
    assert run(["dual-check", "borel2", "--format", "json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    want = [r.to_jsonable()
            for r in limit_duality_rows(builtin("borel2", 8, 8), 8)[0]]
    assert len(want) == 5
    assert [c for c in checks if c["check"] == "limit-duality"] == want


def test_limit_series_input(tmp_path, capsys):
    prime_path = tmp_path / "prime.json"
    run(["prime", "heisenberg3", "-o", str(prime_path)])
    capsys.readouterr()
    assert run(["limit", str(prime_path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["structure"]["cobracket"] == [[2, 0, 1, "1"]]
    assert payload["structure"]["bracket"] == []


# Leading 16 hex digits of the sha256 of each Lie bialgebra report, keyed
# by (command, source, format); `name'` is the `qdp prime name` image.
LIE_REPORT_SHA256 = {
    ("limit", "abelian1", "json"): "89f2c4e29975b89b",
    ("limit", "abelian1", "text"): "2099e64f48f30498",
    ("limit", "abelian1'", "json"): "dd9ddeea9ab966b2",
    ("limit", "abelian1'", "text"): "aac6c9707cdc7582",
    ("limit", "abelian2", "json"): "92184957246d94b7",
    ("limit", "abelian2", "text"): "7ce0bb431ac0fd35",
    ("limit", "abelian2'", "json"): "ab2c117183522cad",
    ("limit", "abelian2'", "text"): "9832500f05e7ee7b",
    ("limit", "abelian3", "json"): "332deec492d55e21",
    ("limit", "abelian3", "text"): "c9d1d3fe867bd3b9",
    ("limit", "abelian3'", "json"): "266000665bba0de5",
    ("limit", "abelian3'", "text"): "d2dd860f13040089",
    ("limit", "borel2", "json"): "a047071b0168c9db",
    ("limit", "borel2", "text"): "f6c3dceaed5e2a0b",
    ("limit", "borel2'", "json"): "2815910d1b336bfa",
    ("limit", "borel2'", "text"): "999c515c17f8e9ba",
    ("limit", "heisenberg3", "json"): "646805b86efb0006",
    ("limit", "heisenberg3", "text"): "b888c729071645db",
    ("limit", "heisenberg3'", "json"): "d128888a9dd4a78c",
    ("limit", "heisenberg3'", "text"): "4c35c89cee716df1",
    ("dual-check", "abelian1", "json"): "b4436e36578578ed",
    ("dual-check", "abelian2", "json"): "1fb76af42fe529ff",
    ("dual-check", "abelian3", "json"): "0d40721c42376da5",
    ("dual-check", "borel2", "json"): "a5362809476f5eb9",
    ("dual-check", "heisenberg3", "json"): "ed24ca165737aef6",
}


@pytest.mark.parametrize("cmd, source, fmt", sorted(LIE_REPORT_SHA256))
def test_lie_bialgebra_reports_pinned(tmp_path, capsys, cmd, source, fmt):
    path = source
    if source.endswith("'"):
        path = str(tmp_path / "prime.json")
        assert run(["prime", source[:-1], "-o", path]) == 0
        capsys.readouterr()
    assert run([cmd, path, "--format", fmt]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest[:16] == LIE_REPORT_SHA256[cmd, source, fmt]


def test_pair_command(tmp_path, capsys):
    prime_path = tmp_path / "prime.json"
    run(["prime", "borel2", "-o", str(prime_path)])
    seed_path = tmp_path / "seed.json"
    seed_path.write_text(json.dumps({
        "left": "borel2", "right": "borel2_prime",
        "values": [{"lgen": "x", "rgen": "x", "value": "1"},
                   {"lgen": "y", "rgen": "y", "value": "1"}]}),
        encoding="utf-8")
    capsys.readouterr()
    assert run(["pair", "borel2", str(prime_path),
                "--seed-file", str(seed_path),
                "--left-elem", "h*x", "--right-elem", "x"]) == 0
    assert "= h" in capsys.readouterr().out


def _borel2_seed(tmp_path, capsys, seed) -> list[str]:
    """The pair command's arguments for borel2 against its prime image,
    with `seed` written as the seed file."""
    prime_path = tmp_path / "prime.json"
    assert run(["prime", "borel2", "-o", str(prime_path)]) == 0
    capsys.readouterr()
    seed_path = tmp_path / "seed.json"
    seed_path.write_text(json.dumps(seed), encoding="utf-8")
    return ["pair", "borel2", str(prime_path), "--seed-file", str(seed_path)]


def _seed_values(*values) -> dict:
    return {"left": "borel2", "right": "borel2_prime", "values": list(values)}


@pytest.mark.parametrize("seed, message", [
    (_seed_values({"lgen": "x", "value": "1"}), "'rgen'"),
    (_seed_values(["x", "x", "1"]), "malformed seed manifest"),
    ([_seed_values()], "not list"),
    (_seed_values({"lgen": "x", "rgen": "x", "value": "1"},
                  {"lgen": "x", "rgen": "x", "value": "2"}),
     "<x, x> is given twice"),
    (_seed_values({"lgen": "x", "rgen": "x",
                   "value": {"v_min": -1, "order": 8, "coeffs": ["1"]}}),
     "h-valuation -1"),
    ({"left": "borel2", "right": "borel2_prime",
      "valuse": [{"lgen": "x", "rgen": "x", "value": "1"}]},
     "unknown keys ['valuse']"),
], ids=["no-rgen", "list-item", "top-level-list", "duplicate", "laurent",
        "misspelled-key"])
def test_malformed_seed_is_usage_error(tmp_path, capsys, seed, message):
    # the first three were internal errors (exit 3); the duplicate kept the
    # later value and the h^-1 value paired x^3 with x^3 to 6*h^-3, exit 0;
    # the misspelled "valuse" paired everything to 0, exit 0
    argv = _borel2_seed(tmp_path, capsys, seed)
    assert run([*argv, "--left-elem", "x^3", "--right-elem", "x^3"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_check_hopf_negative_bound_is_usage_error(capsys):
    # --bound -1 printed PASS over zero monomial rows
    assert run(["check-hopf", "abelian1", "--bound", "-1"]) == 2
    captured = capsys.readouterr()
    assert "degree bound -1" in captured.err and "PASS" not in captured.out


def test_no_command_prints_help(capsys):
    assert run([]) == 2


def _borel2_manifest() -> dict:
    return json.loads(
        (MANIFEST_DIR / "borel2.json").read_text(encoding="utf-8"))


def _laurent(coeff: dict) -> dict:
    return dict(coeff, v_min=-1)


@pytest.mark.parametrize("where", ["relation", "coproduct", "antipode"])
def test_laurent_manifest_is_usage_error(tmp_path, capsys, where):
    # a coefficient in h^-1: once accepted, `member` of h^3*x*y^2 gave exit
    # 0 (relation) or exit 1 (coproduct of y, x (x) y term)
    data = _borel2_manifest()
    if where == "relation":
        term = data["relations"][0]["r"][0]
    elif where == "coproduct":
        term = next(t for t in data["coproduct"]["y"]
                    if t["monomials"] == [[1, 0], [0, 1]])
    else:
        term = data["antipode"]["y"][0]
    term["coeff"] = _laurent(term["coeff"])
    path = tmp_path / "laurent.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run(["member", str(path), "--element=h^3*x*y^2"]) == 2
    err = capsys.readouterr().err
    assert "h-valuation -1" in err and "Traceback" not in err


def test_manifest_header_states_its_own_order(tmp_path, capsys):
    path = tmp_path / "borel2_5.json"
    assert run(["show", "borel2", "--manifest", "--h-order", "5"]) == 0
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    for extra in ([], ["--h-order", "5"]):
        assert run(["member", str(path), "--element=h^3*x*y^2",
                    "--format", "json", *extra]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["h_order"] == 5
        assert payload["certificates"]["delta"]["n_checked"] == \
            list(range(6))
    assert run(["member", str(path), "--element=h^3*x*y^2"]) == 0
    assert capsys.readouterr().out.startswith("[member] N=5 D=8\n")


def test_manifest_order_conflict_is_usage_error(tmp_path, capsys):
    assert run(["member", str(MANIFEST_DIR / "borel2.json"), "--h-order",
                "5", "--element=h^3*x*y^2", "--format", "json"]) == 2
    assert "--h-order 5 differs" in capsys.readouterr().err
    prime_path = tmp_path / "prime.json"
    assert run(["prime", "borel2", "--degree", "4", "-o",
                str(prime_path)]) == 0
    capsys.readouterr()
    assert run(["limit", str(prime_path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["degree_cap"] == 4
    assert run(["limit", str(prime_path), "--degree", "4"]) == 0
    capsys.readouterr()
    assert run(["limit", str(prime_path), "--degree", "6"]) == 2
    assert "--degree 6 differs" in capsys.readouterr().err


@pytest.mark.parametrize("path, value, message", [
    (("h_order",), 4.7, "h_order must be an integer"),
    (("degree_cap",), 2.5, "degree_cap must be an integer"),
    (("relations", 0, "i"), 0.6, "relation i must be an integer"),
    (("antipode", "y", 0, "monomial"), [0, 1.5],
     "monomial exponent must be an integer"),
    (("antipode", "y", 0, "monomial"), [-1, 2], "negative exponent"),
    (("antipode", "x", 0, "coeff", "order"), 4.7,
     "series order must be an integer"),
    (("antipode", "x", 0, "coeff", "v_min"), 0.5,
     "series v_min must be an integer"),
], ids=["h_order", "degree_cap", "relation-index", "fractional-exponent",
        "negative-exponent", "series-order", "series-v_min"])
def test_manifest_integers_are_never_truncated(tmp_path, capsys, path, value,
                                               message):
    # int() read 4.7 as 4, 0.6 as 0, [0, 1.5] as [0, 1] and a series
    # order 4.7 as 4, each a PASS
    data = _borel2_manifest()
    *inner, last = path
    target = data
    for key in inner:
        target = target[key]
    target[last] = value
    mangled = tmp_path / "mangled.json"
    mangled.write_text(json.dumps(data), encoding="utf-8")
    assert run(["check-hopf", str(mangled), "--bound", "1"]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("degree, element", [
    ("1", "x*y"), ("2", "y*x*y"), ("0", "x"), ("1", "h*x"), ("1", "h*y"),
    ("2", "h*x*y"), ("3", "h*x*y^2"), ("4", "h^2*x*y^2")])
def test_member_vacuous_window_is_usage_error(capsys, degree, element):
    # a candidate above the degree cap has no reliable pairing value: every
    # valuation read null and the verdict a member, although at D=8 both
    # x*y and y*x*y are NotMember; at D=1 the seed's degree-2 axiom suite
    # compared empty series, so h*x and h*y passed on a vacuous seed.  A
    # window below h^(d-1) for a degree-d candidate hides the witness of
    # h^(d-1) times a monomial: the last three were members, at D=8 not
    assert run(["member", "borel2", "--via", "pairing", "--degree", degree,
                f"--element={element}"]) == 2
    err = capsys.readouterr().err
    assert "degree cap" in err and "Traceback" not in err


def test_series_manifest_degree_cap_zero_is_usage_error(tmp_path, capsys):
    prime_path = tmp_path / "prime.json"
    assert run(["prime", "borel2", "--degree", "4", "-o",
                str(prime_path)]) == 0
    capsys.readouterr()
    data = json.loads(prime_path.read_text(encoding="utf-8"))
    data["degree_cap"] = 0
    prime_path.write_text(json.dumps(data), encoding="utf-8")
    assert run(["check-hopf", str(prime_path), "--bound", "1"]) == 2
    assert "degree cap must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, element", [
    (["--h-order", "7", "--element", "y*x*y"], 1,
     "(-1)*g1^2 + (1)*g0*g1^2"),
    (["--via", "pairing", "--element", "h*x + h^2*y^2"], 0,
     "(h)*g0 + (h^2)*g1^2"),
], ids=["delta", "pairing"])
def test_member_certificate_names_its_element(capsys, argv, code, element):
    # the certificate's element text is report bytes: terms in deglex order,
    # generators by index
    assert run(["member", "borel2", *argv, "--format", "json"]) == code
    certs = json.loads(capsys.readouterr().out)["certificates"]
    assert [c["element"] for c in certs.values()] == [element]


def test_every_command_has_a_handler():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(cli._HANDLERS)


# -- manifest fuzzing ---------------------------------------------------------
#
# Mutations of the borel2 manifest and of a pairing seed, one category each:
# wrong-arity and negative monomials, non-integer orders, Laurent, string
# and duplicate values, unknown keys and missing entries.  Whatever the
# input, check-hopf and pair must answer with exit 0, 1 or 2 and one line,
# never a traceback or an internal error.

_SEED = {"left": "borel2", "right": "borel2_prime",
         "values": [{"lgen": "x", "rgen": "x", "value": "1"},
                    {"lgen": "y", "rgen": "y", "value": "1"}]}


def _json_paths(node, path=()):
    """The path of every node under a JSON value, parents first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,), child
        yield from _json_paths(child, path + (key,))


def _mutation(doc):
    """A strategy for one (operation, path, value) edit of doc."""
    nodes = list(_json_paths(doc))

    def at(pred):
        found = [p for p, v in nodes if pred(p, v)]
        return st.sampled_from(found) if found else st.nothing()

    def is_monomial(p, v):
        return p[-1] == "monomial" or len(p) > 1 and p[-2] == "monomials"

    def is_integer(p, v):
        return p[-1] in ("h_order", "degree_cap", "order", "v_min", "i", "j")

    def is_series(p, v):
        return p[-1] in ("coeff", "value") or len(p) > 1 and p[-2] == "counit"

    def is_item(p, v):
        return isinstance(p[-1], int)

    def is_dict(p, v):
        return isinstance(v, dict)

    def anywhere(p, v):
        return True

    laurent = st.integers(1, 3).map(
        lambda k: {"v_min": -k, "order": 8, "coeffs": ["1"]})
    return st.one_of(
        st.tuples(st.just("set"), at(is_monomial),
                  st.lists(st.integers(0, 2), max_size=4)
                  .filter(lambda e: len(e) != 2)),
        st.tuples(st.just("set"), at(is_monomial),
                  st.tuples(st.integers(-3, -1), st.integers(0, 2)).map(list)),
        st.tuples(st.just("set"), at(is_integer),
                  st.sampled_from([2.5, -0.5, "8", None, True, [8]])),
        st.tuples(st.just("set"), at(is_series), laurent),
        st.tuples(st.just("set"), at(anywhere),
                  st.text("xyh^*+-/()0123 ", max_size=6)),
        st.tuples(st.just("duplicate"), at(is_item), st.none()),
        st.tuples(st.just("set"), st.one_of(st.just(()), at(is_dict))
                  .map(lambda p: p + ("bogus",)), st.integers(0, 2)),
        st.tuples(st.just("delete"), at(anywhere), st.none()))


def _apply(doc, edits):
    """doc with the edits made in turn; an edit whose path an earlier one
    removed is skipped."""
    doc = copy.deepcopy(doc)
    for op, path, value in edits:
        *inner, last = path
        parent = doc
        try:
            for key in inner:
                parent = parent[key]
            if op == "delete":
                del parent[last]
            elif op == "duplicate":
                parent.insert(last, copy.deepcopy(parent[last]))
            else:
                parent[last] = value
        except (AttributeError, KeyError, IndexError, TypeError):
            continue
    return doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["prime", "borel2", "-o", str(path / "prime.json")]) == 0
    return path


def _exit_contract(argv) -> int:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert "internal error" not in err.getvalue()
    return code


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_manifests_keep_the_exit_contract(fuzz_dir, data):
    # one of the two files is mutated, so that pair also meets each
    # mutation with the other file intact
    manifest, seed = _borel2_manifest(), _SEED
    if data.draw(st.booleans(), label="mutate the manifest"):
        manifest = _apply(manifest, data.draw(
            st.lists(_mutation(manifest), min_size=1, max_size=2)))
    else:
        seed = _apply(seed, data.draw(
            st.lists(_mutation(seed), min_size=1, max_size=2)))
    mpath, spath = fuzz_dir / "borel2.json", fuzz_dir / "seed.json"
    mpath.write_text(json.dumps(manifest), encoding="utf-8")
    spath.write_text(json.dumps(seed), encoding="utf-8")
    _exit_contract(["check-hopf", str(mpath), "--bound", "1"])
    _exit_contract(["pair", str(mpath), str(fuzz_dir / "prime.json"),
                    "--seed-file", str(spath), "--left-elem", "x*y",
                    "--right-elem", "x*y"])
