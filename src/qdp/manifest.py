"""JSON manifests for presentations, elements, tensors and pairing seeds.

Series values in a manifest may be given either in the explicit window
form {"v_min", "order", "coeffs"} or as a generator-free expression
string such as "exp(3*h)" or "1/2", expanded at load time at the
manifest's h-order.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import InputError
from .freealg import Element, Monomial, TensorElement, add_into
from .hopf import POLY, Presentation
from .pairing import PairingSeed
from .series import HSeries


def _exact_int(value, what: str) -> int:
    """A JSON number with an integral value, as an int; anything else (a
    fraction, a string, a boolean) is an input error, never truncated."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not value.is_integer()):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _no_unknown_keys(data: dict, known: tuple[str, ...], what: str):
    """A misspelled top-level key must not drop its data silently."""
    stray = sorted(set(data) - set(known))
    if stray:
        raise InputError(f"{what} has unknown keys {stray}; known: {known}")


def series_from_jsonable(data, order: int) -> HSeries:
    if isinstance(data, str):
        from .exprs import parse_scalar
        return parse_scalar(data, order)
    if isinstance(data, (int, float)):
        return HSeries.const(_exact_int(data, "a numeric coefficient"), order)
    try:
        for key in ("v_min", "order"):
            _exact_int(data[key], f"series {key}")
        return HSeries.from_jsonable(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad series value {data!r}: {exc}") from exc


def element_to_jsonable(e: Element) -> list:
    return [{"monomial": list(m.exponents), "coeff": c.to_jsonable()}
            for m, c in e.sorted_terms()]


def _monomial_from_jsonable(data) -> Monomial:
    exponents = tuple(_exact_int(x, "monomial exponent") for x in data)
    if any(e < 0 for e in exponents):
        raise InputError(f"monomial {list(exponents)} has a negative exponent")
    return Monomial(exponents)


def element_from_jsonable(data, pres: str, ngens: int, order: int) -> Element:
    terms = {}
    for item in data:
        m = _monomial_from_jsonable(item["monomial"])
        if len(m.exponents) != ngens:
            raise InputError(
                f"monomial {item['monomial']} has wrong arity (want {ngens})")
        c = series_from_jsonable(item["coeff"], order)
        add_into(terms, m, c)
    return Element(pres, terms)


def tensor_to_jsonable(t: TensorElement) -> list:
    return [{"monomials": [list(m.exponents) for m in key],
             "coeff": c.to_jsonable()}
            for key, c in t.sorted_terms()]


def tensor_from_jsonable(data, pres: str, rank: int, ngens: int,
                         order: int) -> TensorElement:
    terms = {}
    for item in data:
        key = tuple(_monomial_from_jsonable(ms) for ms in item["monomials"])
        if len(key) != rank or any(len(m.exponents) != ngens for m in key):
            raise InputError(f"bad tensor key {item['monomials']}")
        c = series_from_jsonable(item["coeff"], order)
        add_into(terms, key, c)
    return TensorElement(pres, rank, terms)


def presentation_to_manifest(P: Presentation) -> dict:
    return {
        "name": P.name,
        "model": P.model,
        "h_order": P.h_order,
        "degree_cap": P.degree_cap,
        "generators": list(P.generators),
        "relations": [
            {"i": i, "j": j, "r": element_to_jsonable(r)}
            for (i, j), r in sorted(P.relations.items()) if not r.is_zero()
        ],
        "coproduct": {g: tensor_to_jsonable(P.coproduct_on_gens[g])
                      for g in P.generators},
        "counit": {g: P.counit_on_gens[g].to_jsonable()
                   for g in P.generators},
        "antipode": {g: element_to_jsonable(P.antipode_on_gens[g])
                     for g in P.generators},
    }


def presentation_from_manifest(data: dict) -> Presentation:
    try:
        _no_unknown_keys(data, ("name", "model", "h_order", "degree_cap",
                                "generators", "relations", "coproduct",
                                "counit", "antipode"),
                         "a presentation manifest")
        name = data["name"]
        model = data["model"]
        order = _exact_int(data["h_order"], "h_order")
        cap = data.get("degree_cap")
        cap = None if cap is None else _exact_int(cap, "degree_cap")
        if model == POLY and cap is not None:
            raise InputError(f"a POLY manifest has no degree cap, got {cap}")
        gens = list(data["generators"])
        ngens = len(gens)
        relations = {}
        for item in data.get("relations", ()):
            i, j = (_exact_int(item[k], f"relation {k}") for k in "ij")
            if (i, j) in relations:
                raise InputError(f"relation ({i}, {j}) is given twice")
            relations[(i, j)] = element_from_jsonable(
                item["r"], name, ngens, order)
        # Every generator must have an entry, and entries under other
        # names are read too, so that Presentation rejects them.
        cop = {g: tensor_from_jsonable(data["coproduct"][g], name, 2, ngens,
                                       order)
               for g in [*gens, *data["coproduct"]]}
        eps = {g: series_from_jsonable(data["counit"][g], order)
               for g in [*gens, *data["counit"]]}
        ant = {g: element_from_jsonable(data["antipode"][g], name, ngens,
                                        order)
               for g in [*gens, *data["antipode"]]}
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed presentation manifest: {exc}") from exc
    return Presentation(name, model, gens, order, cap, relations, cop, eps,
                        ant)


def seed_from_manifest(data: dict, left: Presentation,
                       right: Presentation) -> PairingSeed:
    if not isinstance(data, dict):
        raise InputError("a seed manifest is a JSON object, not "
                         f"{type(data).__name__}")
    _no_unknown_keys(data, ("left", "right", "values"), "a seed manifest")
    if data.get("left") != left.name or data.get("right") != right.name:
        raise InputError(
            f"seed pairs {data.get('left')!r} with {data.get('right')!r}, "
            f"got presentations {left.name!r} and {right.name!r}")
    order = min(left.h_order, right.h_order)
    values = {}
    try:
        for item in data.get("values", ()):
            lg, rg = item["lgen"], item["rgen"]
            if lg not in left.gen_index:
                raise InputError(
                    f"seed references unknown left generator {lg!r}")
            if rg not in right.gen_index:
                raise InputError(
                    f"seed references unknown right generator {rg!r}")
            key = (left.gen_index[lg], right.gen_index[rg])
            if key in values:
                raise InputError(f"seed value <{lg}, {rg}> is given twice")
            values[key] = series_from_jsonable(item["value"], order)
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed seed manifest: {exc}") from exc
    return PairingSeed(left, right, values)


def load_json(path: str | Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"not valid JSON: {path}: {exc}") from exc


def dump_json(data: dict, path: str | Path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def manifest_text(data: dict) -> str:
    return json.dumps(data, indent=2) + "\n"
