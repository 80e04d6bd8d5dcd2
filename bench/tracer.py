"""Layer trace for one cold qdp process, installed from outside the package.

Every traced function is replaced in *every* qdp module that holds it, not
only in its home module, so copies made by ``from .hopf import normal_form``
are traced as well.  Each thread keeps its own span stack and its own
aggregates (the selftest runs its criteria on a thread pool); they are merged
when the report is built.

A span records calls, inclusive time (outermost call of that name only, so
recursion is not counted twice) and self time (inclusive time minus the
time of traced children).  The HSeries operations run millions of times, so
they are not spans: each one adds a count and its duration to the span that
called it, and its duration counts as child time of that span.

Times are wall-clock per thread.  On the selftest's thread pool they include
time a thread spent waiting for the interpreter lock inside the span; the
``cpu=True`` spans around each criterion record thread CPU time as well, so
that waiting is reported on its own.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import weakref

_pc = time.perf_counter

# Series-op slots of a span's op aggregate.
MUL_CALLS, MUL_S, MUL_PRODUCTS, ADD_CALLS, ADD_S = range(5)

# (home module, attribute, span name, modules that must hold a copy).
# The listed modules are the known copies; finding fewer means the package
# layout changed and the trace would silently miss calls.
FUNCTION_SPANS = [
    ("qdp.hopf", "normal_form", "hopf.normal_form",
     ("qdp.hopf", "qdp.classical", "qdp.selftest")),
    ("qdp.hopf", "multiply", "hopf.multiply",
     ("qdp.hopf", "qdp.drinfeld", "qdp.pairing", "qdp.selftest")),
    ("qdp.hopf", "coproduct_monomial", "hopf.coproduct_monomial",
     ("qdp.hopf", "qdp.pairing")),
    ("qdp.hopf", "delta_n", "hopf.delta_n",
     ("qdp.hopf", "qdp.drinfeld", "qdp.selftest")),
    ("qdp.hopf", "tensor_multiply", "hopf.tensor_multiply",
     ("qdp.hopf", "qdp.selftest")),
    ("qdp.hopf", "_expand_into", "hopf.expand_into", ("qdp.hopf",)),
    ("qdp.hopf", "_delta_monomial", "hopf.delta_monomial", ("qdp.hopf",)),
    ("qdp.drinfeld", "prime_membership", "drinfeld.prime_membership",
     ("qdp.drinfeld", "qdp.cli", "qdp.selftest")),
    ("qdp.drinfeld", "prime_presentation", "drinfeld.rescale",
     ("qdp.drinfeld", "qdp.cli", "qdp.selftest")),
    ("qdp.drinfeld", "vee_presentation", "drinfeld.rescale",
     ("qdp.drinfeld", "qdp.cli", "qdp.selftest")),
    ("qdp.drinfeld", "roundtrip_check", "drinfeld.rescale",
     ("qdp.drinfeld", "qdp.cli", "qdp.selftest")),
    ("qdp.pairing", "_pair_mono", "pairing.pair_mono", ("qdp.pairing",)),
    ("qdp.pairing", "pairing_axioms_check", "pairing.axioms_check",
     ("qdp.pairing", "qdp.cli", "qdp.selftest")),
    ("qdp.pairing", "_ideal_spanning_products", "pairing.ideal_products",
     ("qdp.pairing",)),
    ("qdp.pairing", "orthogonal_membership", "pairing.orthogonal_membership",
     ("qdp.pairing", "qdp.cli", "qdp.selftest")),
    ("qdp.classical", "extract_lie_bialgebra", "classical.extract",
     ("qdp.classical", "qdp.cli", "qdp.selftest")),
    ("qdp.classical", "extract_poisson_structure", "classical.extract",
     ("qdp.classical", "qdp.cli", "qdp.selftest")),
    ("qdp.report", "run_tasks", "report.run_tasks",
     ("qdp.report", "qdp.selftest")),
    ("qdp.exprs", "parse_element", "exprs.parse_element",
     ("qdp.exprs", "qdp.cli")),
]

METHOD_SPANS = [
    ("qdp.freealg", "TensorElement", "__init__", "freealg.tensor_init"),
    ("qdp.freealg", "TensorElement", "truncate", "freealg.truncate"),
    ("qdp.freealg", "Element", "truncate", "freealg.truncate"),
]


def _replace_everywhere(orig, replacement) -> list[str]:
    """Rebind every qdp module attribute that is `orig`; return the modules."""
    hit = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "qdp" or modname.startswith("qdp.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)
                hit.append(modname)
    return sorted(set(hit))


class _ThreadState:
    __slots__ = ("stack", "spans", "depth", "ops", "counts")

    def __init__(self):
        self.spans: dict[str, list] = {}   # name -> [calls, total_s, self_s, cpu_s]
        self.depth: dict[str, int] = {}
        self.ops: dict[str, list] = {}     # parent span -> series-op slots
        self.counts: dict[str, int] = {}
        self.stack = [["<root>", 0.0, self.ops_for("<root>")]]

    def ops_for(self, name: str) -> list:
        o = self.ops.get(name)
        if o is None:
            o = self.ops[name] = [0, 0.0, 0, 0, 0.0]
        return o

    def bump(self, name: str, by: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by


class Tracer:
    """Installs the wrappers and builds the per-process trace report."""

    def __init__(self):
        self._tls = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self.presentations = weakref.WeakSet()
        self.patched: dict[str, list[str]] = {}

    def _state(self) -> _ThreadState:
        try:
            return self._tls.state
        except AttributeError:
            st = _ThreadState()
            self._tls.state = st
            with self._lock:
                self._states.append(st)
            return st

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, before=None, cpu=False):
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            if before is not None:
                before(st, args)
            frame = [name, 0.0, st.ops_for(name)]
            st.stack.append(frame)
            d = st.depth.get(name, 0)
            st.depth[name] = d + 1
            c0 = time.thread_time() if cpu else 0.0
            t0 = _pc()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _pc() - t0
                st.stack.pop()
                st.depth[name] = d
                agg = st.spans.get(name)
                if agg is None:
                    agg = st.spans[name] = [0, 0.0, 0.0, 0.0]
                agg[0] += 1
                agg[2] += dur - frame[1]
                if d == 0:
                    agg[1] += dur
                if cpu:
                    agg[3] += time.thread_time() - c0
                st.stack[-1][1] += dur
        return wrapper

    def _series_ops(self, HSeries) -> None:
        state = self._state
        mul, add = HSeries.__mul__, HSeries.__add__

        def traced_mul(a, b):
            t0 = _pc()
            r = mul(a, b)
            dt = _pc() - t0
            f = state().stack[-1]
            f[1] += dt
            o = f[2]
            o[MUL_CALLS] += 1
            o[MUL_S] += dt
            o[MUL_PRODUCTS] += len(a.coeffs) * (
                len(b.coeffs) if isinstance(b, HSeries) else 1)
            return r

        def traced_add(a, b):
            t0 = _pc()
            r = add(a, b)
            dt = _pc() - t0
            f = state().stack[-1]
            f[1] += dt
            o = f[2]
            o[ADD_CALLS] += 1
            o[ADD_S] += dt
            return r

        HSeries.__mul__ = traced_mul
        HSeries.__rmul__ = traced_mul
        HSeries.__add__ = traced_add

    def track_presentations(self) -> None:
        """Keep a weak reference to every Presentation built from now on."""
        from qdp.hopf import Presentation
        orig = Presentation.__init__
        live = self.presentations

        @functools.wraps(orig)
        def init(self, *args, **kwargs):
            orig(self, *args, **kwargs)
            live.add(self)
        Presentation.__init__ = init

    def install(self) -> None:
        """Wrap every traced layer; qdp.cli must already be imported."""
        import qdp.cli
        import qdp.freealg
        import qdp.hopf
        import qdp.selftest
        from qdp.series import HSeries

        before = {
            "normal_form": self._nf_lookup,
            "coproduct_monomial": self._coproduct_lookup,
            "_delta_monomial": self._delta_lookup,
            "_pair_mono": self._memo_lookup,
        }
        for home, attr, name, expect in FUNCTION_SPANS:
            orig = getattr(sys.modules[home], attr)
            got = _replace_everywhere(
                orig, self.span(name, orig, before.get(attr)))
            missing = sorted(set(expect) - set(got))
            if missing:
                raise RuntimeError(f"{home}.{attr} not found in {missing}")
            self.patched[f"{home}.{attr}"] = got
        for home, cls, meth, name in METHOD_SPANS:
            klass = getattr(sys.modules[home], cls)
            setattr(klass, meth, self.span(name, getattr(klass, meth)))

        rewrite = qdp.hopf._rewrite_at
        state = self._state

        @functools.wraps(rewrite)
        def counted_rewrite(*args):
            state().bump("hopf.rewrite.steps")
            return rewrite(*args)
        self.patched["qdp.hopf._rewrite_at"] = _replace_everywhere(
            rewrite, counted_rewrite)

        crit = qdp.selftest.CRITERIA
        for i, (cname, fn) in enumerate(crit):
            crit[i] = (cname, self.span(f"selftest.{cname}", fn, cpu=True))
        for cmd, fn in list(qdp.cli._HANDLERS.items()):
            qdp.cli._HANDLERS[cmd] = self.span(f"cli.{cmd}", fn)
        self._series_ops(HSeries)
        self.track_presentations()

    # -- cache lookups made before the call, to count hits ----------------

    @staticmethod
    def _nf_lookup(st, args):
        st.bump("hopf.normal_form.hits", tuple(args[0]) in args[1]._nf_cache)

    @staticmethod
    def _coproduct_lookup(st, args):
        st.bump("hopf.coproduct_monomial.hits",
                args[1] in args[0]._coproduct_cache)

    @staticmethod
    def _delta_lookup(st, args):
        P, m, n = args
        st.bump("hopf.delta_monomial.hits", (m, n) in P._delta_cache)

    @staticmethod
    def _memo_lookup(st, args):
        # Mirrors _pair_mono: identity and generator-pair arguments return
        # before the memo is consulted.
        _seed, lm, rm, memo = args[:4]
        if lm.is_identity() or rm.is_identity() or (
                lm.degree == 1 and rm.degree == 1):
            return
        st.bump("pairing.memo.lookups")
        st.bump("pairing.memo.hits", (lm, rm) in memo)

    # -- report -------------------------------------------------------------

    def report(self) -> dict:
        spans: dict[str, list] = {}
        ops: dict[str, list] = {}
        counts: dict[str, int] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, agg in st.spans.items():
                acc = spans.setdefault(name, [0, 0.0, 0.0, 0.0])
                for i, v in enumerate(agg):
                    acc[i] += v
            for name, o in st.ops.items():
                acc = ops.setdefault(name, [0, 0.0, 0, 0, 0.0])
                for i, v in enumerate(o):
                    acc[i] += v
            for name, v in st.counts.items():
                counts[name] = counts.get(name, 0) + v
        return {"spans": spans, "series_ops": ops, "counts": counts,
                "patched": self.patched}


def working_set(presentations) -> dict:
    """Entries, terms and stored coefficients of the structure-map caches of
    the given presentations, plus the builtin() lru_cache statistics."""
    from qdp.bundles import builtin
    out = {}
    for cache in ("nf", "coproduct", "delta"):
        entries = terms = coeffs = 0
        for P in presentations:
            for value in getattr(P, f"_{cache}_cache").values():
                entries += 1
                terms += len(value.terms)
                coeffs += sum(len(c.coeffs) for c in value.terms.values())
        out[f"hopf.{cache}_cache.entries"] = entries
        out[f"hopf.{cache}_cache.terms"] = terms
        out[f"hopf.{cache}_cache.coeffs"] = coeffs
    info = builtin.cache_info()
    out["bundles.builtin.hits"] = info.hits
    out["bundles.builtin.misses"] = info.misses
    out["bundles.builtin.currsize"] = info.currsize
    return out
