import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qdp import cli
from qdp.bundles import builtin
from qdp.cli import run
from qdp.errors import InputError
from qdp.manifest import presentation_from_manifest, seed_from_manifest
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


def test_selftest_text_report(capsys):
    # the default format: a header, one line per JSON row in the same
    # order, and the verdict
    argv = ["selftest", "--h-order", "4", "--degree", "4"]
    assert run([*argv, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["checks"]
    assert run(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "[selftest] N=4 D=4 seed=20240"
    assert lines[1:-1] == [f"  ok  {r['check']}: {r['subject']}"
                           for r in rows]
    assert lines[-1] == "result: PASS"


def test_prime_warns_below_the_degree_cap(capsys):
    assert run(["prime", "borel2", "--h-order", "3", "--degree", "5"]) == 0
    assert capsys.readouterr().err == (
        "warning: h-order 3 < degree cap 5; high-degree data is not "
        "certified\n")


def test_member_pairing_route_needs_a_builtin(capsys):
    assert run(["member", str(MANIFEST_DIR / "borel2.json"), "--via",
                "pairing", "--element", "x"]) == 2
    assert capsys.readouterr().err == (
        "error: the pairing route needs a built-in bundle with a canonical "
        "seed\n")


def test_mathematical_failure_exits_1(capsys):
    assert run(["member", "borel2", "--element", "exp(x)"]) == 1
    assert capsys.readouterr().err == (
        "mathematical failure: element exp needs h-valuation >= 1, got 0\n")


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
    (lambda data: data.update(model="FOO"), "unknown model 'FOO'"),
    (lambda data: data.update(model="SERIES"),
     "SERIES model needs a degree cap"),
    (lambda data: data.update(generators=["x", "x"]),
     "generator names must be distinct"),
    (lambda data: data["relations"][0]["r"][0]["coeff"].update(den=2),
     "a series has unknown keys ['den']"),
], ids=["misspelled-key", "poly-degree-cap", "unknown-model",
        "series-without-cap", "duplicate-generators", "series-key"])
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


@pytest.mark.parametrize("term, message", [
    (2, "(Delta - Delta_op)(y) has a nonzero h^0 part"),
    (3, "cobracket of y hits a degree (2,1) tensor term"),
], ids=["cocommutative-mod-h", "cobracket-in-wedge"])
def test_limit_of_a_non_lie_deformation_exits_1(tmp_path, capsys, term,
                                                message):
    # Delta(y)'s terms x (x) y at h^1 and x^2 (x) y at h^2, each moved one
    # power of h down
    data = _borel2_manifest()
    data["coproduct"]["y"][term]["coeff"]["v_min"] -= 1
    path = tmp_path / "skew.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run(["limit", str(path)]) == 1
    assert capsys.readouterr() == ("", f"mathematical failure: {message}\n")


def test_bare_numeric_coefficient_is_a_constant(tmp_path, capsys):
    data = _borel2_manifest()
    data["coproduct"]["x"][0]["coeff"] = 1
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run(["limit", str(path)]) == 0
    bare = capsys.readouterr()
    assert run(["limit", str(MANIFEST_DIR / "borel2.json")]) == 0
    assert bare == capsys.readouterr()


@pytest.mark.parametrize("text, message", [
    (None, "no such file: "), ('{"name": ', "not valid JSON: "),
], ids=["missing", "invalid"])
def test_unreadable_manifest_is_usage_error(tmp_path, capsys, text, message):
    path = tmp_path / "manifest.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    assert run(["limit", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}{path}")


@pytest.mark.parametrize("element, message", [
    ("x^y", "expected a natural number exponent (at position 2)"),
    ("1/x", "expected a denominator (at position 2)"),
    ("exp x", "expected '(' (at position 4)"),
    ("(x", "expected ')' (at position 2)"),
])
def test_malformed_expression_is_usage_error(capsys, element, message):
    assert run(["member", "borel2", "--element", element]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_trailing_space_in_an_expression_parses(capsys):
    certs = []
    for element in ("x ", "x"):
        assert run(["member", "borel2", "--element", element,
                    "--format", "json"]) == 1
        certs.append(json.loads(capsys.readouterr().out)["certificates"])
    assert certs[0] == certs[1]


# The common flags each command reads; a command takes no other.
FLAGS_READ = {
    "list": (),
    "show": ("--h-order", "--degree"),
    "prime": ("--h-order", "--degree"),
    "vee": ("--h-order", "--degree"),
    "selftest": ("--h-order", "--degree", "--format", "--seed"),
    **{cmd: ("--h-order", "--degree", "--format")
       for cmd in ("check-hopf", "diamond", "member", "limit", "dual-check",
                   "roundtrip", "pair")},
}
FLAG_VALUES = {"--h-order": "4", "--degree": "4", "--format": "json",
               "--seed": "5"}
COMMAND_ARGS = {
    "show": ["borel2"], "check-hopf": ["borel2"], "diamond": ["borel2"],
    "prime": ["borel2"], "vee": ["borel2"], "limit": ["borel2"],
    "dual-check": ["borel2"], "member": ["borel2", "--element", "h*x"],
    "roundtrip": ["borel2", "--direction", "prime-vee"],
    "pair": ["borel2", "borel2", "--seed-file", "seed.json",
             "--left-elem", "x", "--right-elem", "x"],
}


@pytest.mark.parametrize("cmd", sorted(FLAGS_READ))
def test_each_command_takes_only_the_flags_it_reads(capsys, cmd):
    # every command took all four flags, and 17 of those 48 were read by
    # nothing: `qdp list --format json` printed text and exited 0
    argv = [cmd, *COMMAND_ARGS.get(cmd, ())]
    flags = [[f, FLAG_VALUES[f]] for f in FLAGS_READ[cmd]]
    cli._build_parser().parse_args(argv + sum(flags, []))
    for flag, value in FLAG_VALUES.items():
        if flag not in FLAGS_READ[cmd]:
            assert run([*argv, flag, value]) == 2
            out, err = capsys.readouterr()
            assert out == "" and f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize("argv", [
    ["check-hopf", "borel2", "--b", "1"],
    ["check-hopf", "borel2", "--deg", "3"],
    ["pair", *COMMAND_ARGS["pair"], "--seed", "5"],
], ids=["bound", "degree", "seed-file"])
def test_flags_take_one_spelling(capsys, argv):
    # --b 1 --deg 3 ran check-hopf with bound 1 at D=3
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: {argv[-2]}" in err


def test_diamond_takes_no_bound(capsys):
    # diamond never read --bound, so --bound -5 printed PASS with exit 0
    assert run(["diamond", "borel2", "--bound", "-5"]) == 2
    assert "PASS" not in capsys.readouterr().out


def test_cli_import_loads_no_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize, several ms of
    # every cold qdp process; the records are NamedTuples or plain classes.
    # fork_map imports pickle when first called, and needs no pool module
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    probe = ("import sys, qdp.cli; "
             "print(sorted({'dataclasses', 'inspect', 'pickle', "
             "'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, text=True,
                         capture_output=True, check=True).stdout
    assert out.strip() == "[]"


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
    ("dual-check", "abelian1", "json"): "3e9f5709b81ec41c",
    ("dual-check", "abelian2", "json"): "4ef2d1e93d678ca7",
    ("dual-check", "abelian3", "json"): "356843f38e204687",
    ("dual-check", "borel2", "json"): "ddad3567a1ab9136",
    ("dual-check", "heisenberg3", "json"): "3167bd193458c3ce",
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


# Exit code and leading 16 hex digits of the sha256 of the text output of
# every bundle-taking command on every built-in at N = D = 4, keyed by
# (command, bundle), with the options below.  vee takes a SERIES
# presentation and the abelian bundles have no generator x, so those runs
# are usage errors with no output.
GRID_OPTIONS = {"member": ["--element", "h*x"],
                "roundtrip": ["--direction", "prime-vee"]}
COMMAND_GRID = {
    ("show", "abelian1"): (0, "c8fb8f45ff1b5c1c"),
    ("show", "abelian2"): (0, "b5e32b9b134b0b34"),
    ("show", "abelian3"): (0, "48bfea6dadb77139"),
    ("show", "borel2"): (0, "c61c8c158657f2f1"),
    ("show", "heisenberg3"): (0, "d0a1844698464400"),
    ("check-hopf", "abelian1"): (0, "27872c10585e1bdc"),
    ("check-hopf", "abelian2"): (0, "f2bfe144fb1513d4"),
    ("check-hopf", "abelian3"): (0, "b326247ef76e20ea"),
    ("check-hopf", "borel2"): (0, "6d0623905abc5a5f"),
    ("check-hopf", "heisenberg3"): (0, "0a18fedffe295a15"),
    ("diamond", "abelian1"): (0, "05274416087c5d63"),
    ("diamond", "abelian2"): (0, "05274416087c5d63"),
    ("diamond", "abelian3"): (0, "ac0210c9dc9a9d8e"),
    ("diamond", "borel2"): (0, "05274416087c5d63"),
    ("diamond", "heisenberg3"): (0, "caf21096f449f084"),
    ("prime", "abelian1"): (0, "2abcb14e77dfd415"),
    ("prime", "abelian2"): (0, "88711ab014b8ce92"),
    ("prime", "abelian3"): (0, "72dec5b4040d4895"),
    ("prime", "borel2"): (0, "053b9c22f28f05ba"),
    ("prime", "heisenberg3"): (0, "bde1ca50988128b7"),
    ("vee", "abelian1"): (2, "e3b0c44298fc1c14"),
    ("vee", "abelian2"): (2, "e3b0c44298fc1c14"),
    ("vee", "abelian3"): (2, "e3b0c44298fc1c14"),
    ("vee", "borel2"): (2, "e3b0c44298fc1c14"),
    ("vee", "heisenberg3"): (2, "e3b0c44298fc1c14"),
    ("member", "abelian1"): (0, "bb3937c3c5526ff2"),
    ("member", "abelian2"): (2, "e3b0c44298fc1c14"),
    ("member", "abelian3"): (2, "e3b0c44298fc1c14"),
    ("member", "borel2"): (0, "bb3937c3c5526ff2"),
    ("member", "heisenberg3"): (0, "bb3937c3c5526ff2"),
    ("limit", "abelian1"): (0, "ce21515df8c6cb18"),
    ("limit", "abelian2"): (0, "f9584f3e6aa73ed2"),
    ("limit", "abelian3"): (0, "787078ba1c07a74c"),
    ("limit", "borel2"): (0, "68fad682bd11d6f9"),
    ("limit", "heisenberg3"): (0, "e05d2383e703c82b"),
    ("dual-check", "abelian1"): (0, "e5cf6fa29b4d4e48"),
    ("dual-check", "abelian2"): (0, "27f58807cc64dbb3"),
    ("dual-check", "abelian3"): (0, "a56999437d084e78"),
    ("dual-check", "borel2"): (0, "114e74bc8b0377e2"),
    ("dual-check", "heisenberg3"): (0, "878eb62dda3a2e55"),
    ("roundtrip", "abelian1"): (0, "4a6a66e02ad94ac1"),
    ("roundtrip", "abelian2"): (0, "95d7a553791bfa2a"),
    ("roundtrip", "abelian3"): (0, "8d84022cbc0f18de"),
    ("roundtrip", "borel2"): (0, "024fd91e56afe0a5"),
    ("roundtrip", "heisenberg3"): (0, "b1ca30b5c1bee01c"),
}


@pytest.mark.parametrize("cmd, name", sorted(COMMAND_GRID))
def test_every_command_on_every_bundle(capsys, cmd, name):
    code = run([cmd, name, *GRID_OPTIONS.get(cmd, ()), "--h-order", "4",
                "--degree", "4"])
    out, err = capsys.readouterr()
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest[:16]) == COMMAND_GRID[cmd, name]
    assert "Traceback" not in err


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


def test_pair_header_states_the_pairing_order(tmp_path, capsys):
    # the two manifests are at h-orders 5 and 7; the value is known to the
    # smaller one, and the header states the order the pairing ran at
    left, right = tmp_path / "l5.json", tmp_path / "r7.json"
    assert run(["show", "borel2", "--manifest", "--h-order", "5"]) == 0
    left.write_text(capsys.readouterr().out, encoding="utf-8")
    assert run(["prime", "borel2", "--h-order", "7", "--degree", "4",
                "-o", str(right)]) == 0
    seed_path = tmp_path / "seed.json"
    seed_path.write_text(json.dumps({
        "left": "borel2", "right": "borel2_prime",
        "values": [{"lgen": "x", "rgen": "x", "value": "1"},
                   {"lgen": "y", "rgen": "y", "value": "1"}]}),
        encoding="utf-8")
    capsys.readouterr()
    assert run(["pair", str(left), str(right), "--seed-file", str(seed_path),
                "--left-elem", "x", "--right-elem", "x",
                "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "tool": "qdp", "command": "pair", "h_order": 5, "degree_cap": 4,
        "left": "x", "right": "x",
        "value": {"v_min": 0, "order": 5, "coeffs": ["1"]}}


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
    (_seed_values({"lgen": "x", "rgen": "q", "value": "1"}),
     "seed references unknown right generator 'q'"),
], ids=["no-rgen", "list-item", "top-level-list", "duplicate", "laurent",
        "misspelled-key", "unknown-rgen"])
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
    assert set(sub.choices) == set(cli._HANDLERS) == set(FLAGS_READ)


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


@pytest.mark.parametrize("coeffs, order, message", [
    (["1/0"], 8, "['1/0']}: Fraction(1, 0)"),
    ([0.1], 8, "must be an integer, got 0.1"),
    ([True], 8, "must be an integer, got True"),
    (["-1"], -5, "a nonzero coefficient lies past order -5"),
    (["-1", 0, 0, "2"], 2, "a nonzero coefficient lies past order 2"),
    ("-1", 8, "coeffs is not a list"),
], ids=["zero-denominator", "float", "boolean", "order-below-entry",
        "entry-past-order", "string-coeffs"])
def test_manifest_coefficient_entries_are_read_exactly(tmp_path, capsys,
                                                       coeffs, order,
                                                       message):
    # "1/0" exited 3; 0.1 was read as 3602879701896397/36028797018963968
    # and true as 1; an entry past the series' order was dropped, so with
    # "order": -5 on borel2's relation check-hopf passed the abelian algebra
    data = _borel2_manifest()
    data["relations"][0]["r"][0]["coeff"] = {"v_min": 0, "order": order,
                                             "coeffs": coeffs}
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run(["check-hopf", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("coeffs", [[-1], [-1.0], ["-1"], ["-2/2"]])
def test_manifest_coefficient_entries_integral_or_rational(tmp_path, coeffs):
    data = _borel2_manifest()
    data["relations"][0]["r"][0]["coeff"]["coeffs"] = coeffs
    P = presentation_from_manifest(data)
    assert P.relations == builtin("borel2", 8, 8).quea.relations


# The strings a coefficient reader can trip on, then a JSON value of every
# type
_TRICKY = st.sampled_from(["1/0", "-3/2", "0.5", "1e400", "nan", "inf", " 2 ",
                           "x", ""])
_JSON_VALUE = st.one_of(
    _TRICKY, st.none(), st.booleans(), st.integers(-3, 3), st.integers(),
    st.floats(), st.text(max_size=3), st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.sampled_from(["v_min", "order", "coeffs"]),
                    st.integers(-2, 2), max_size=2))


@st.composite
def _window_series(draw):
    series = {"v_min": draw(_JSON_VALUE), "order": draw(_JSON_VALUE),
              "coeffs": draw(st.one_of(st.lists(_JSON_VALUE, max_size=4),
                                       _JSON_VALUE))}
    if draw(st.booleans()):     # well-typed integers, mostly
        series["v_min"] = draw(st.integers(-3, 12))
        series["order"] = draw(st.integers(-3, 12))
    return series


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(where=st.sampled_from(["relation", "coproduct", "counit", "antipode",
                              "seed"]),
       series=_window_series())
def test_window_series_values_keep_the_exit_contract(where, series):
    # each reader returns a value or raises InputError (exit 2), never
    # another exception (exit 3)
    data, seed = _borel2_manifest(), copy.deepcopy(_SEED)
    if where == "relation":
        data["relations"][0]["r"][0]["coeff"] = series
    elif where == "coproduct":
        data["coproduct"]["y"][1]["coeff"] = series
    elif where == "counit":
        data["counit"]["x"] = series
    elif where == "antipode":
        data["antipode"]["y"][0]["coeff"] = series
    else:
        seed["values"][0]["value"] = series
    right = builtin("borel2", 8, 8).pairing_seed.right
    with contextlib.suppress(InputError):
        left = presentation_from_manifest(data)
        seed_from_manifest(seed, left, right)
