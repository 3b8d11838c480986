"""Span recorders around the public functions of every ccalc module.

`Tracer.install()` replaces each target function at every place it is bound:
module globals (chow imports exact_divide, substitute and symmetric_reduce by
name; cubic, checks and cli import from the other modules), class attributes
(Poly.__rmul__ is a second name for Poly.__mul__), and module-level tuples,
lists and dicts that hold functions (checks.PROPERTY_SUITES).  A binding
missed this way would silently drop calls, so install() fails if any original
is still reachable afterwards.  `uninstall()` puts every original back.

Each span keeps a stack frame; its self time is its duration minus the
durations of the spans it called, so the self times of all spans add up to
the durations of the outermost spans.  Inclusive time counts only the
outermost call of a name, so recursion is not counted twice.
"""

import sys
import time

# (span name, module, attribute path).  Span names are "<module>.<what>";
# the module is the layer the time is charged to.
TARGETS = (
    ("rings.mul", "rings", "Poly.__mul__"),
    ("rings.add", "rings", "Poly.__add__"),
    ("rings.add", "rings", "Poly.__sub__"),
    ("rings.add", "rings", "Poly.__rsub__"),
    ("rings.add", "rings", "Poly.__neg__"),
    ("rings.poly", "rings", "Ring.poly"),
    ("rings.exact_divide", "rings", "exact_divide"),
    ("rings.substitute", "rings", "substitute"),
    ("rings.symmetric_reduce", "rings", "symmetric_reduce"),
    ("chow.class_z", "chow", "class_z"),
    ("chow.class_bin", "chow", "class_bin"),
    ("chow.fiber_pushforward", "chow", "fiber_pushforward"),
    ("ksymbols.symbol", "ksymbols", "symbol"),
    ("ksymbols.kmul", "ksymbols", "KElement.__mul__"),
    ("ksymbols.kadd", "ksymbols", "KElement.__add__"),
    ("ksymbols.residue", "ksymbols", "residue"),
    ("ksymbols.parse", "ksymbols", "parse_kelement"),
    ("ksymbols.parse", "ksymbols", "_parse_monomial"),
    ("etale.parse", "etale", "parse_algebra"),
    ("etale.trace_form", "etale", "trace_form"),
    ("etale.sw_total", "etale", "sw_total"),
    ("etale.galois_sw_total", "etale", "galois_sw_total"),
    ("etale.product_check", "etale", "alpha_tot_product_check"),
    ("cubic.config", "cubic", "PointConfig.__init__"),
    ("cubic.build_action", "cubic", "build_action"),
    ("cubic.orbits", "cubic", "orbit_decomposition"),
    ("cubic.position", "cubic", "verify_general_position"),
    ("cubic.certificate", "cubic", "nontriviality_certificate"),
    ("groups", "groups", "brauer_xd"),
    ("groups", "groups", "brauer_stack"),
    ("groups", "groups", "n_torsion"),
    ("groups", "groups", "hyperelliptic_divisibility"),
    ("groups", "groups", "consistency_report"),
    ("cli.main", "cli", "main"),
    ("checks.locus_classes", "checks", "check_locus_classes"),
    ("checks.binary_classes", "checks", "check_binary_classes"),
    ("checks.torsion_bookkeeping", "checks", "check_torsion_bookkeeping"),
    ("checks.sw_examples", "checks", "check_sw_examples"),
    ("checks.line_orbits", "checks", "check_line_orbits"),
    ("checks.general_position", "checks", "check_general_position"),
    ("checks.three_class_invariants", "checks", "check_three_class_invariants"),
    ("checks.group_evaluators", "checks", "check_group_evaluators"),
    ("checks.normal_forms", "checks", "property_normal_forms"),
    ("checks.projection_formula", "checks", "property_projection_formula"),
    ("checks.steinberg", "checks", "property_steinberg"),
    ("checks.multiplicativity", "checks", "property_multiplicativity"),
    ("checks.vanishing_bound", "checks", "property_vanishing_bound"),
)

MODULES = ("rings", "chow", "ksymbols", "etale", "cubic", "groups", "checks", "cli")
CHECK_SECTIONS = tuple(name for name, mod, _ in TARGETS if mod == "checks")


def _wrapper_for(val, wrappers):
    """The wrapper of val if val is a target function, else None."""
    entry = wrappers.get(id(val))
    return entry[1] if entry is not None and entry[0] is val else None


def _resolve(module, path):
    obj = sys.modules["ccalc." + module]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Stat:
    __slots__ = ("calls", "self_s", "incl_s", "depth", "counters")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.depth = 0
        self.counters = {}

    def add(self, key, n):
        self.counters[key] = self.counters.get(key, 0) + n


class Tracer:
    def __init__(self):
        self.stats = {}
        self.stack = []
        self._patched = []  # (owner, key, original); owner is a namespace or container
        self._seen_ext = set()
        self._cols = {}

    # -- recording ---------------------------------------------------------

    def stat(self, name):
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    def span(self, name, fn, after=None):
        """fn wrapped in a recorder; after(stat, result, args) adds counters."""
        stat = self.stat(name)
        stack = self.stack
        clock = time.perf_counter

        def recorded(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            stat.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += dur - frame[0]
                if not stat.depth:
                    stat.incl_s += dur
                if stack:
                    stack[-1][0] += dur
            if after is not None:
                t1 = clock()
                after(stat, result, args)
                if stack:  # counter bookkeeping is overhead, not the caller's work
                    stack[-1][0] += clock() - t1
            return result

        recorded.__wrapped__ = fn
        recorded.__name__ = getattr(fn, "__name__", name)
        return recorded

    def root(self, name, fn, *args, **kwargs):
        """Run fn as an outermost span (the benchmark's own frame)."""
        return self.span(name, fn)(*args, **kwargs)

    # -- counters ----------------------------------------------------------

    @staticmethod
    def _terms_out(stat, result, args):
        terms = getattr(result, "terms", None)
        if terms is not None:
            stat.add("terms_out", len(terms))

    @staticmethod
    def _support_out(stat, result, args):
        stat.add("support_out", len(result.support))

    def _trace_form_out(self, stat, result, args):
        ext, model = args
        stat.add("basis_out", len(result))
        key = (tuple(ext), model)
        if key in self._seen_ext:
            stat.add("repeats", 1)
        self._seen_ext.add(key)

    def _divide_cols(self, stat, result, args):
        num, den = args
        if num.is_zero():
            return
        key = (id(num.ring), num.homogeneous_degree() - den.homogeneous_degree())
        if key not in self._cols:
            self._cols[key] = len(num.ring.monomials_of_degree(key[1]))
        stat.add("cols", self._cols[key])

    def _after(self, name):
        return {
            "rings.mul": self._terms_out,
            "ksymbols.kmul": self._support_out,
            "etale.trace_form": self._trace_form_out,
            "rings.exact_divide": self._divide_cols,
        }.get(name)

    # -- patching ----------------------------------------------------------

    def install(self):
        wrappers = {}
        for name, module, path in TARGETS:
            fn = _resolve(module, path)
            wrappers[id(fn)] = (fn, self.span(name, fn, self._after(name)))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "ccalc" or mod_name.startswith("ccalc."):
                self._patch_namespace(mod, vars(mod), wrappers, depth=2)
        left = self._reachable(wrappers)
        if left:
            self.uninstall()
            raise RuntimeError("unpatched bindings: %s" % ", ".join(sorted(left)))

    def _patch_namespace(self, owner, namespace, wrappers, depth):
        for key, val in list(namespace.items()):
            wrapper = _wrapper_for(val, wrappers)
            if wrapper is not None:
                self._set(owner, key, wrapper, val)
            elif isinstance(val, type) and val.__module__.startswith("ccalc"):
                if owner is sys.modules[val.__module__]:
                    self._patch_namespace(val, dict(vars(val)), wrappers, depth)
            elif depth and isinstance(val, (tuple, list, dict)):
                new = self._replace_in(val, wrappers, depth)
                if new is not val:
                    self._set(owner, key, new, val)

    def _replace_in(self, container, wrappers, depth):
        """A copy of container with wrapped functions, or container itself."""
        items = list(container.items()) if isinstance(container, dict) else list(enumerate(container))
        changed = False
        out = []
        for k, v in items:
            wrapper = _wrapper_for(v, wrappers)
            if wrapper is not None:
                v, changed = wrapper, True
            elif depth > 1 and isinstance(v, (tuple, list, dict)):
                nv = self._replace_in(v, wrappers, depth - 1)
                changed = changed or nv is not v
                v = nv
            out.append((k, v))
        if not changed:
            return container
        if isinstance(container, dict):
            return type(container)(out)
        return type(container)(v for _, v in out)

    def _set(self, owner, key, new, old):
        setattr(owner, key, new)
        self._patched.append((owner, key, old))

    def _reachable(self, wrappers):
        """Names under which an unwrapped target can still be found."""
        found = set()

        def scan(label, val, depth):
            if _wrapper_for(val, wrappers) is not None:
                found.add(label)
            elif depth and isinstance(val, (tuple, list)):
                for i, v in enumerate(val):
                    scan("%s[%d]" % (label, i), v, depth - 1)
            elif depth and isinstance(val, dict):
                for k, v in val.items():
                    scan("%s[%r]" % (label, k), v, depth - 1)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "ccalc" or mod_name.startswith("ccalc."):
                for key, val in vars(mod).items():
                    scan("%s.%s" % (mod_name, key), val, 2)
                    if isinstance(val, type) and val.__module__ == mod_name:
                        for ckey, cval in vars(val).items():
                            scan("%s.%s.%s" % (mod_name, key, ckey), cval, 0)
        return found

    def uninstall(self):
        while self._patched:
            owner, key, old = self._patched.pop()
            setattr(owner, key, old)

    # -- results -----------------------------------------------------------

    def table(self):
        """Plain-data span table: {name: [calls, self_s, incl_s, counters]}."""
        return {
            name: [s.calls, s.self_s, s.incl_s, dict(s.counters)]
            for name, s in self.stats.items()
        }


def merge(tables):
    """Sum span tables (from forked children) into one."""
    out = {}
    for table in tables:
        for name, (calls, self_s, incl_s, counters) in table.items():
            row = out.setdefault(name, [0, 0.0, 0.0, {}])
            row[0] += calls
            row[1] += self_s
            row[2] += incl_s
            for key, n in counters.items():
                row[3][key] = row[3].get(key, 0) + n
    return out
