"""The full verification battery behind `qdp selftest` and the acceptance
test suite.

Each criterion function returns plain CheckRows, and the criteria run one
after another in CRITERIA order.  Rows depend only on the configuration
(truncation orders and the random seed), so a configuration always emits
the same bytes.

Heavy random batteries run at the reduced truncation they are specified
at (h-order 4); the filtration-kernel sweep runs at h-order 2, which is
exact for what it asserts (an h-valuation >= 1 claim only involves the
h^0 coefficient, and no division by h occurs anywhere in that pipeline).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .bundles import (BUILTIN_NAMES, _primitive_tensor, builtin,
                      bundle_selfcheck)
from .classical import (dual_lie_bialgebra, extract_lie_bialgebra,
                        extract_poisson_structure, lie_bialgebra_equal,
                        validate_lie_bialgebra)
from .drinfeld import (GaugeMap, PRIME_THEN_VEE, VEE_THEN_PRIME,
                       gauge_preservation_check, prime_membership,
                       prime_presentation, roundtrip_check, vee_presentation)
from .errors import NotAHopfMap
from .freealg import TensorElement, add_into
from .hopf import (Presentation, big_delta_E, coproduct, delta_E, delta_n,
                   multiply, normal_form)
from .pairing import orthogonal_membership, pair, pairing_axioms_check
from .report import CheckRow, HopfReport, run_tasks
from .series import HSeries

DEFAULT_SEED = 20240

BATTERY_ORDER = 4      # h-order for the seeded random identity batteries
KERNEL_ORDER = 2       # h-order for the filtration-kernel sweep


@dataclass
class RunConfig:
    h_order: int = 8
    degree_cap: int = 8
    seed: int = DEFAULT_SEED
    output_format: str = "text"


def random_elements(P: Presentation, rng: random.Random, count: int,
                    max_degree: int = 3, max_h: int = 2,
                    max_terms: int = 3) -> list[TensorElement]:
    """Deterministic pseudo-random elements for identity batteries."""
    monos = P.monomials_up_to(max_degree)
    out = []
    for _ in range(count):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            m = monos[rng.randrange(len(monos))]
            num = rng.choice([-3, -2, -1, 1, 2, 3])
            den = rng.randint(1, 3)
            c = HSeries.h_power(rng.randint(0, max_h), P.h_order,
                                Fraction(num, den))
            add_into(terms, (m,), c)
        e = TensorElement(P.name, 1, terms)
        out.append(e if not e.is_zero() else P.gen(0))
    return out


# -- criterion 1: membership battery ---------------------------------------------


def membership_battery(cfg: RunConfig) -> list[CheckRow]:
    rep = HopfReport()
    P = builtin("borel2", cfg.h_order, cfg.degree_cap).quea
    h = HSeries.h_power(1, P.h_order)

    cert = prime_membership(P.gen("x").scaled(h), P)
    rep.add("membership", "borel2: h*x", cert.is_member, cert.verdict)
    cert = prime_membership(P.gen("y").scaled(h), P)
    rep.add("membership", "borel2: h*y", cert.is_member, cert.verdict)
    cert = prime_membership(P.gen("y"), P)
    rep.add("membership", "borel2: y is not a member", not cert.is_member,
            f"witness n={cert.witness}")
    rep.add("membership", "borel2: delta_2(y) has valuation exactly 1",
            cert.valuation_at(2) == 1, f"valuation {cert.valuation_at(2)}")
    rep.add("membership", "borel2: n=2 is a recorded counterexample for y",
            2 in cert.failing_ns(), f"failing n: {cert.failing_ns()}")
    return rep.rows


# -- criterion 2: limit duality tables ----------------------------------------------


def limit_duality_rows(bundle, degree_cap: int):
    """The limit-duality rows of one bundle, with the Lie bialgebra L its
    presentation quantises and the Poisson structure LP of its rescaled
    image (degree cap `degree_cap`): (rows, L, LP)."""
    name = bundle.name
    rep = HopfReport()
    L = extract_lie_bialgebra(bundle.quea)
    Q = prime_presentation(bundle.quea, degree_cap)
    LP = extract_poisson_structure(Q)
    rep.add("limit-duality", f"{name}: poisson(prime) == dual(lie)",
            lie_bialgebra_equal(LP, dual_lie_bialgebra(L)))
    rep.add("limit-duality", f"{name}: poisson(prime) == expected dual",
            lie_bialgebra_equal(LP, bundle.expected_dual))
    R = vee_presentation(Q)
    rep.add("limit-duality", f"{name}: lie(vee(prime)) == lie",
            lie_bialgebra_equal(extract_lie_bialgebra(R), L))
    rep.add("limit-duality", f"{name}: extracted structures validate",
            validate_lie_bialgebra(L).passed
            and validate_lie_bialgebra(LP).passed)
    rep.add("limit-duality",
            f"{name}: dual(lie(vee(poisson-side))) == poisson extraction",
            lie_bialgebra_equal(dual_lie_bialgebra(extract_lie_bialgebra(R)),
                                LP))
    return rep.rows, L, LP


def limit_duality(cfg: RunConfig) -> list[CheckRow]:
    rows = []
    for name in ("abelian2", "borel2", "heisenberg3"):
        b = builtin(name, cfg.h_order, cfg.degree_cap)
        rows += limit_duality_rows(b, cfg.degree_cap)[0]
    return rows


# -- criterion 3: round trips ----------------------------------------------------------


def roundtrips(cfg: RunConfig) -> list[CheckRow]:
    rep = HopfReport()
    for name in BUILTIN_NAMES:
        P = builtin(name, cfg.h_order, cfg.degree_cap).quea
        fwd = roundtrip_check(P, PRIME_THEN_VEE, cfg.degree_cap)
        rep.add("roundtrip", f"{name}: rescale up then down", fwd.passed,
                "" if fwd.passed else str(fwd.failures()[0]))
        Q = prime_presentation(P, cfg.degree_cap)
        back = roundtrip_check(Q, VEE_THEN_PRIME)
        rep.add("roundtrip", f"{name}: rescale down then up", back.passed,
                "" if back.passed else str(back.failures()[0]))
    return rep.rows


# -- criterion 4: deviation-of-product expansions ----------------------------------------


def _covering_pairs(phi: tuple[int, ...]):
    """All (lam, y) with lam | y = phi, as index subsets."""
    for mask in itertools.product((0, 1, 2), repeat=len(phi)):
        lam = tuple(p for p, m in zip(phi, mask) if m != 1)
        y = tuple(p for p, m in zip(phi, mask) if m != 0)
        yield lam, y


def _tensor_sum(parts, P: Presentation, rank: int) -> TensorElement:
    acc: dict = {}
    for sign, t in parts:
        for key, c in t.terms.items():
            add_into(acc, key, c if sign > 0 else -c)
    return TensorElement(P.name, rank, acc)


def product_expansion(cfg: RunConfig) -> list[CheckRow]:
    rep = HopfReport()
    rng = random.Random(cfg.seed)
    for name in BUILTIN_NAMES:
        P = builtin(name, BATTERY_ORDER, BATTERY_ORDER).quea
        pairs = list(zip(random_elements(P, rng, 50, max_terms=2),
                         random_elements(P, rng, 50, max_terms=2)))
        product_expansion_rows(rep, P, pairs)
    return rep.rows


def product_expansion_rows(rep: HopfReport, P: Presentation,
                           pairs: list[tuple[TensorElement, TensorElement]]
                           ) -> None:
    """Add to rep, for n = 1, 2, 3, the rows checking delta_n(ab) = sum over
    lam | y = {1..n} of delta_lam(a) delta_y(b), and delta_n(ab - ba)."""
    for n in (1, 2, 3):
        phi = tuple(range(1, n + 1))
        subsets = [s for k in range(n + 1)
                   for s in itertools.combinations(phi, k)]
        bad_prod = bad_comm = 0
        for a, b in pairs:
            ab = multiply(a, b, P)
            ba = multiply(b, a, P)
            da = {s: delta_E(a, s, n, P) for s in subsets}
            db = {s: delta_E(b, s, n, P) for s in subsets}
            want_parts = []
            comm_parts = []
            for lam, y in _covering_pairs(phi):
                prod = multiply(da[lam], db[y], P)
                want_parts.append((1, prod))
                if set(lam) & set(y):
                    comm_parts.append((1, prod))
                    comm_parts.append((-1, multiply(db[y], da[lam], P)))
            if delta_n(ab, n, P) != _tensor_sum(want_parts, P, n):
                bad_prod += 1
            if delta_n(ab - ba, n, P) != _tensor_sum(comm_parts, P, n):
                bad_comm += 1
        rep.add("deviation-of-product",
                f"{P.name}: delta_{n}(a*b) expansion on {len(pairs)} pairs",
                bad_prod == 0, f"{bad_prod} failures")
        rep.add("deviation-of-commutator",
                f"{P.name}: delta_{n}(ab-ba) expansion on {len(pairs)} pairs",
                bad_comm == 0, f"{bad_comm} failures")


# -- criterion 5: inclusion-exclusion inversion -----------------------------------------


def inclusion_exclusion(cfg: RunConfig) -> list[CheckRow]:
    rep = HopfReport()
    rng = random.Random(cfg.seed + 1)
    for name in BUILTIN_NAMES:
        P = builtin(name, BATTERY_ORDER, BATTERY_ORDER).quea
        elems = random_elements(P, rng, 8)
        bad = 0
        total = 0
        for a in elems:
            for n in (1, 2, 3):
                for k in range(n + 1):
                    for E in itertools.combinations(range(1, n + 1), k):
                        want = TensorElement.zero(P.name, n)
                        for t in range(len(E) + 1):
                            for psi in itertools.combinations(E, t):
                                want = want + delta_E(a, psi, n, P)
                        total += 1
                        if big_delta_E(a, E, n, P) != want:
                            bad += 1
        rep.add("inclusion-exclusion",
                f"{name}: Delta_E == sum of deviations over subsets "
                f"({total} instances)", bad == 0, f"{bad} failures")
    return rep.rows


# -- criterion 6: limit-structure valuations ----------------------------------------------


def limit_valuations(cfg: RunConfig) -> list[CheckRow]:
    rep = HopfReport()
    for name in BUILTIN_NAMES:
        P = builtin(name, cfg.h_order, cfg.degree_cap).quea
        Q = prime_presentation(P, cfg.degree_cap)
        ok = all(r.h_valuation() >= 1 for r in Q.relations.values())
        rep.add("limit-structure", f"{name}: rescaled-up algebra is "
                "commutative mod h", ok)
        R = vee_presentation(Q)
        for i, g in enumerate(R.generators):
            d = coproduct(R.gen(g), R)
            prim = _primitive_tensor(R.name, i, R.ngens, R.h_order)
            rep.add("limit-structure",
                    f"{name}: vee generator {g} primitive mod h",
                    (d - prim).h_valuation() >= 1)
            skew = d - d.swapped()
            rep.add("limit-structure",
                    f"{name}: vee coproduct of {g} cocommutative mod h",
                    skew.h_valuation() >= 1)
    return rep.rows


# -- criterion 7: filtration kernel ------------------------------------------------------


def filtration_kernel(cfg: RunConfig) -> list[CheckRow]:
    rep = HopfReport()
    for name in ("borel2", "heisenberg3"):
        P = builtin(name, KERNEL_ORDER, cfg.degree_cap).quea
        bad = []
        total = 0
        for m in P.monomials_up_to(4):
            lift = TensorElement(P.name, 1, {(m,): HSeries.one(P.h_order)})
            for n in range(m.degree, 5):
                total += 1
                if delta_n(lift, n + 1, P).h_valuation() < 1:
                    bad.append((m.exponents, n))
        rep.add("filtration-kernel",
                f"{name}: delta_(n+1) of degree<=n monomials vanishes "
                f"mod h ({total} instances)", not bad, f"failures: {bad}")
    return rep.rows


# -- criterion 8: pairing duality ----------------------------------------------------------


def pairing_duality(cfg: RunConfig) -> list[CheckRow]:
    rep = HopfReport()
    b1 = builtin("abelian1", cfg.h_order, cfg.degree_cap)
    seed = b1.pairing_seed
    L, R = seed.left, seed.right
    memo: dict = {}
    bad = []
    for m in range(6):
        xm = normal_form((0,) * m, L)
        for n in range(6):
            yn = normal_form((0,) * n, R).scaled(
                Fraction(1, factorial(n)))
            got = pair(xm, yn, seed, memo)
            want = (HSeries.one(seed.order) if m == n
                    else HSeries.zero(seed.order))
            if got != want:
                bad.append((m, n))
    rep.add("pairing-duality",
            "abelian1: <x^m, y^n/n!> == delta_mn for m,n <= 5 (36 values)",
            not bad, f"failures: {bad}")
    for name in ("abelian1", "borel2"):
        b = builtin(name, cfg.h_order, cfg.degree_cap)
        ax = pairing_axioms_check(b.pairing_seed, 3)
        rep.add("pairing-axioms",
                f"{name}: compatibility suite to degree 3 "
                f"({len(ax.rows)} instances)", ax.passed,
                "" if ax.passed else str(ax.failures()[0]))
    return rep.rows


# -- criterion 9: oracle agreement ------------------------------------------------------------


def _membership_battery_elements(P: Presentation,
                                 rng: random.Random
                                 ) -> list[tuple[str, TensorElement]]:
    h = HSeries.h_power(1, P.h_order)
    x, y = P.gen("x"), P.gen("y")
    named = [
        ("1", P.unit()),
        ("x", x), ("y", y),
        ("h*x", x.scaled(h)), ("h*y", y.scaled(h)),
        ("x*y", multiply(x, y, P)),
        ("y*x", multiply(y, x, P)),
        ("x^2", multiply(x, x, P)),
        ("y^2", multiply(y, y, P)),
        ("h*x*h*y", multiply(x.scaled(h), y.scaled(h), P)),
        ("h*y*h*x", multiply(y.scaled(h), x.scaled(h), P)),
        ("h*(x+y)", (x + y).scaled(h)),
        ("x+h*y", x + y.scaled(h)),
        ("h^2*y^2", multiply(y, y, P).scaled(h).scaled(h)),
        ("h^2*x*y", multiply(x, y, P).scaled(h).scaled(h)),
        ("h*x+h^2*y^2", x.scaled(h) + multiply(y, y, P).scaled(h).scaled(h)),
    ]
    randoms = random_elements(P, rng, 16, max_degree=2, max_h=2,
                              max_terms=2)
    named.extend((f"random{i}", e) for i, e in enumerate(randoms))
    return named


def oracle_agreement(cfg: RunConfig) -> list[CheckRow]:
    rep = HopfReport()
    b = builtin("borel2", cfg.h_order, cfg.degree_cap)
    P = b.quea
    rng = random.Random(cfg.seed + 2)
    battery = _membership_battery_elements(P, rng)
    certs = orthogonal_membership([a for _, a in battery], b.pairing_seed)
    for (label, a), c2 in zip(battery, certs):
        c1 = prime_membership(a, P)
        rep.add("oracle-agreement", f"borel2: {label}",
                c1.is_member == c2.is_member,
                f"deviation route {c1.verdict}, pairing route {c2.verdict}")
    rep.add("oracle-agreement", f"battery size >= 30 ({len(battery)})",
            len(battery) >= 30)
    return rep.rows


# -- criterion 10: gauge preservation -----------------------------------------------------------


def gauge_preservation(cfg: RunConfig) -> list[CheckRow]:
    rep = HopfReport()
    b = builtin("abelian2", cfg.h_order, cfg.degree_cap)
    P = b.quea
    h = HSeries.h_power(1, P.h_order)
    phi = GaugeMap.make(P, {"x1": P.gen("x1") + P.gen("x2").scaled(h),
                            "x2": P.gen("x2")})
    try:
        inner = gauge_preservation_check(P, phi)
        rep.add("gauge", "abelian2: x1 -> x1 + h*x2 passes all stages "
                f"({len(inner.rows)} checks)", inner.passed,
                "" if inner.passed else str(inner.failures()[0]))
    except NotAHopfMap as exc:
        rep.add("gauge", "abelian2: x1 -> x1 + h*x2", False, str(exc))

    ident = GaugeMap.identity(P)
    inner = gauge_preservation_check(P, ident)
    rep.add("gauge", "abelian2: identity gauge", inner.passed)

    B = builtin("borel2", cfg.h_order, cfg.degree_cap).quea
    bad = GaugeMap.make(B, {"x": B.gen("x") + B.gen("y").scaled(h),
                            "y": B.gen("y")})
    try:
        gauge_preservation_check(B, bad)
        rep.add("gauge", "borel2: x -> x + h*y is rejected", False,
                "check unexpectedly passed")
    except NotAHopfMap as exc:
        rep.add("gauge", "borel2: x -> x + h*y is rejected", True,
                f"rejected with {len(exc.report.failures())} "
                "failing morphism checks")
    return rep.rows


# -- bundle invariants (superset of the numbered criteria) ------------------------------------------


def bundle_invariants(cfg: RunConfig) -> list[CheckRow]:
    rep = HopfReport()
    for name in BUILTIN_NAMES:
        b = builtin(name, cfg.h_order, cfg.degree_cap)
        rep.extend(bundle_selfcheck(b, degree_bound=2))
    return rep.rows


CRITERIA = [
    ("membership-battery", membership_battery),
    ("limit-duality", limit_duality),
    ("roundtrips", roundtrips),
    ("deviation-product-expansion", product_expansion),
    ("inclusion-exclusion", inclusion_exclusion),
    ("limit-structure-valuations", limit_valuations),
    ("filtration-kernel", filtration_kernel),
    ("pairing-duality", pairing_duality),
    ("oracle-agreement", oracle_agreement),
    ("gauge-preservation", gauge_preservation),
    ("bundle-invariants", bundle_invariants),
]


def run_selftest(cfg: RunConfig) -> dict:
    """Run the whole battery; the payload is deterministic for a given
    configuration."""
    tasks = [(name, (lambda fn=fn: fn(cfg))) for name, fn in CRITERIA]
    rows = run_tasks(tasks)
    return {
        "tool": "qdp",
        "command": "selftest",
        "h_order": cfg.h_order,
        "degree_cap": cfg.degree_cap,
        "n_max": None,  # every certificate checks n up to the h-order
        "seed": cfg.seed,
        "checks": [r.to_jsonable() for r in rows],
        "passed": all(r.passed for r in rows),
    }
