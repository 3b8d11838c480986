"""
Mod-2 Milnor symbol calculus over a rational function field.

Elements are sums of symbols {u1, ..., ur} whose entries are signed monomials
in named indeterminates, taken modulo squares and modulo the consequences of
the Steinberg relation that ever matter for such entries:

    {x, x} = {-1, x}       and       {x, -x} = 0.

A FieldModel fixes the behaviour of the base-field constants: the class of
-1 ("eps") and optionally the class of 2 may each be declared trivial (a
square) or free.  With eps free the coefficient ring is the polynomial ring
F_2[eps], which is what a completely real base field looks like; with every
constant trivial (a quadratically closed base) all constant classes die.

Normal form: each element is a set (mod 2) of basis symbols (m, gens) with
m the eps-exponent and gens a set of distinct free non-eps generators; the
product of two basis symbols gains one eps per shared generator:

    (m1, A) * (m2, B) = (m1 + m2 + |A & B|, A | B).

The free-module reading of these basis symbols is validated by the iterated
residue maps (see `residue`): residues at the generator set of a basis symbol
extract exactly that symbol's eps-power, so distinct basis symbols are
independent over the constants.
"""


class KError(Exception):
    pass


class UnknownGenerator(KError):
    pass


class ModelMismatch(KError):
    pass


class NotAnIndeterminate(KError):
    pass


_CONSTANT_SPELLING = {"minus_one": "-1", "two": "2"}

# Largest eps power the parser accepts: the basis rendering spells eps^m as
# m copies of -1, so the output grows with m.
EPS_POWER_LIMIT = 1000

# Most basis-symbol products `symbol` may form while it multiplies its entries
# out, one entry at a time: the sum over the entries of (basis symbols so far)
# x (pieces of the entry).  It bounds both the time and the support of one
# symbol, which otherwise grow exponentially with the entries: r entries of
# three disjoint names expand to 3^r basis symbols, and `ccalc residue` took
# 31 s on 12 of them.  At the bound, `ccalc residue` on {a,b,x0*x1,...,x24*x25}
# (8192 basis symbols) takes 0.3-0.4 s, 0.5-0.6 s with --json, interpreter
# start included (Python 3.11, 2-vCPU Xeon).
EXPANSION_LIMIT = 16384


class FieldModel:
    """Names and triviality flags for symbol entries.

    indeterminates: ordered tuple of transcendental names (a, b, ...).
    constants: map from constant-class name to "free" or "trivial";
    must contain "minus_one".
    """

    def __init__(self, indeterminates, constants, name="custom"):
        self.indeterminates = tuple(indeterminates)
        self.constants = dict(constants)
        self.name = name
        if "minus_one" not in self.constants:
            raise KError("a field model must flag the class of -1")
        for flag in self.constants.values():
            if flag not in ("free", "trivial"):
                raise KError("constant flags are 'free' or 'trivial', got %r" % flag)
        for n in self.indeterminates:
            if n in self.constants and n in _CONSTANT_SPELLING:
                raise KError(
                    "%r is reserved for the class of %s; write %s instead"
                    % (n, _CONSTANT_SPELLING[n], _CONSTANT_SPELLING[n])
                )
        overlap = set(self.indeterminates) & set(self.constants)
        if overlap or len(set(self.indeterminates)) != len(self.indeterminates):
            raise KError("model names must be unique")
        # sort order for generators inside a rendered symbol: free constants
        # first, then indeterminates in declaration order
        self._order = {}
        for n in self.constants:
            if n != "minus_one":
                self._order[n] = (0, _CONSTANT_SPELLING.get(n, n))
        for i, n in enumerate(self.indeterminates):
            self._order[n] = (1, i)

    @property
    def eps_free(self):
        return self.constants["minus_one"] == "free"

    def is_trivial(self, name):
        return self.constants.get(name) == "trivial"

    def knows(self, name):
        return name in self._order or name == "minus_one"

    def sort_gens(self, gens):
        return tuple(sorted(gens, key=self._order.__getitem__))

    def spell(self, name):
        return _CONSTANT_SPELLING.get(name, name)

    def __eq__(self, other):
        return (
            isinstance(other, FieldModel)
            and self.indeterminates == other.indeterminates
            and self.constants == other.constants
        )

    def __hash__(self):
        return hash((self.indeterminates, tuple(sorted(self.constants.items()))))

    def __repr__(self):
        return "FieldModel(%s over %s)" % (self.name, ", ".join(self.indeterminates))


def closed_model(indeterminates):
    """Quadratically closed base constants: -1 and 2 are both squares."""
    return FieldModel(
        indeterminates, {"minus_one": "trivial", "two": "trivial"}, name="closed"
    )


def euclidean_model(indeterminates):
    """Completely real base: -1 free (eps powers persist), 2 a square."""
    return FieldModel(
        indeterminates, {"minus_one": "free", "two": "trivial"}, name="euclidean"
    )


def generic_model(indeterminates):
    """Both -1 and 2 free, with no relation between them."""
    return FieldModel(
        indeterminates, {"minus_one": "free", "two": "free"}, name="generic"
    )


MODEL_PRESETS = {
    "closed": closed_model,
    "euclidean": euclidean_model,
    "generic": generic_model,
}


class KElement:
    """Immutable sum of basis symbols over a FieldModel."""

    __slots__ = ("model", "support")

    def __init__(self, model, support):
        _set_model(self, model)
        _set_support(self, frozenset(support))

    def __setattr__(self, *a):
        raise AttributeError("KElement is immutable")

    def is_zero(self):
        return not self.support

    def is_one(self):
        return self.support == frozenset({(0, frozenset())})

    def _check(self, other):
        if not isinstance(other, KElement):
            raise ModelMismatch("expected a KElement, got %r" % (other,))
        if other.model != self.model:
            raise ModelMismatch("operands live over different field models")

    def __add__(self, other):
        self._check(other)
        return KElement(self.model, self.support ^ other.support)

    def __mul__(self, other):
        self._check(other)
        return KElement(self.model, _product(self.model, self.support, other.support))

    def __eq__(self, other):
        return (
            isinstance(other, KElement)
            and self.model == other.model
            and self.support == other.support
        )

    def __hash__(self):
        return hash((self.model, self.support))

    def degrees(self):
        return sorted({m + len(g) for m, g in self.support})

    def _sorted_support(self):
        order = self.model.sort_gens
        return sorted(
            self.support, key=lambda s: (s[0] + len(s[1]), s[0], order(s[1]))
        )

    def render(self):
        if not self.support:
            return "0"
        chunks = []
        for m, gens in self._sorted_support():
            names = [self.model.spell(n) for n in self.model.sort_gens(gens)]
            names = ["-1"] * m + names
            chunks.append("{%s}" % ",".join(names) if names else "1")
        return " + ".join(chunks)

    def __str__(self):
        return self.render()

    __repr__ = __str__


# The slot setters, bound once: __init__ sets through them, since
# KElement.__setattr__ raises.
_set_model = KElement.model.__set__
_set_support = KElement.support.__set__


def zero(model):
    return KElement(model, frozenset())


def one(model):
    return KElement(model, frozenset({(0, frozenset())}))


def _as_monomial(entry, model):
    """Coerce an entry (string, iterable of names, or frozenset) to a reduced
    exponent-vector-mod-2, i.e. a frozenset of names."""
    if isinstance(entry, str):
        return _parse_monomial(entry, model)
    mono = frozenset()
    for name in entry:
        if not model.knows(name):
            raise UnknownGenerator(name)
        mono ^= {name}
    return mono


def _product(model, xs, ys):
    """Support of the product of two supports by the rule in the module
    docstring, summed mod 2; eps powers die where -1 is a square."""
    acc = set()
    for m1, g1 in xs:
        for m2, g2 in ys:
            acc ^= {(m1 + m2 + len(g1 & g2), g1 | g2)}
    if not model.eps_free:
        acc = {s for s in acc if s[0] == 0}
    return acc


def symbol(entries, model):
    """Normal form of the symbol with the given entries.

    An entry (a signed monomial, i.e. a square class) is the sum of one basis
    symbol per name in it that the model does not trivialize: (1, {}) for -1,
    (0, {n}) otherwise.  The symbol is the product of these sums, so
    {x,x} = {-1,x} follows from the product rule.  Raises KError when that
    product would form more than EXPANSION_LIMIT basis-symbol products.
    """
    acc = {(0, frozenset())}
    products = 0
    for entry in entries:
        pieces = {
            (1, frozenset()) if n == "minus_one" else (0, frozenset({n}))
            for n in _as_monomial(entry, model)
            if not model.is_trivial(n)
        }
        products += len(acc) * len(pieces)
        if products > EXPANSION_LIMIT:
            raise KError(
                "symbol expansion needs more than %d basis-symbol products"
                % EXPANSION_LIMIT
            )
        acc = _product(model, acc, pieces)
    return KElement(model, acc)


def residue(x, at):
    """Ramification at the valuation 'order of vanishing of the variable at':
    sends a basis symbol containing the variable to the symbol without it,
    and kills symbols not containing it.  Lowers degree by one."""
    if not x.model.knows(at):
        raise UnknownGenerator(at)
    if at not in x.model.indeterminates:
        raise NotAnIndeterminate(
            "residues are taken at indeterminates, not constant classes: %r" % at
        )
    out = set()
    for m, gens in x.support:
        if at in gens:
            out.symmetric_difference_update({(m, gens - {at})})
    return KElement(x.model, out)


def iterated_residue(x, names):
    for n in names:
        x = residue(x, n)
    return x


# -- parsing -----------------------------------------------------------------


def _parse_monomial(text, model):
    """One signed monomial: ["-"] factor ("*" factor)*, factor a name or a
    power of two; reduced mod squares to a frozenset of names."""
    s = text.strip()
    if not s:
        raise SyntaxError("empty symbol entry")
    mono = frozenset()
    if s.startswith("-"):
        mono ^= {"minus_one"}
        s = s[1:].strip()
        if not s:
            raise SyntaxError("dangling '-' in symbol entry %r" % text)
    for factor in s.split("*"):
        factor = factor.strip()
        if not factor:
            raise SyntaxError("empty factor in symbol entry %r" % text)
        if factor.isdecimal():
            if len(factor) > 4000:  # int() refuses digit strings past 4300
                raise SyntaxError("numeric entry in %r is too long" % text)
            n = int(factor)
            if n == 0:
                raise SyntaxError("0 is not a unit")
            while n % 4 == 0:
                n //= 4
            if n == 2:
                mono ^= {"two"}
            elif n != 1:
                raise SyntaxError(
                    "numeric entries must be powers of two, got %r" % factor
                )
        else:
            if not model.knows(factor) or factor == "minus_one":
                raise UnknownGenerator(factor)
            mono ^= {factor}
    return mono


def parse_kelement(text, model):
    """Inverse of render(): accepts the repeated -1 spelling, the eps^m
    prefix ("eps", "eps^m", "eps*{...}", "eps^m*{...}"; the '*' before braces
    is required), plus composite entries like {-1,a*b}."""
    s = text.strip()
    if s == "0":
        return zero(model)
    result = zero(model)
    # split on '+' outside braces
    depth = 0
    start = 0
    parts = []
    for i, ch in enumerate(s):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                raise SyntaxError("unbalanced '}' at position %d" % i)
        elif ch == "+" and depth == 0:
            parts.append(s[start:i])
            start = i + 1
    if depth != 0:
        raise SyntaxError("unbalanced '{' in %r" % text)
    parts.append(s[start:])
    for part in parts:
        result = result + _parse_term(part.strip(), model)
    return result


def _parse_term(part, model):
    """One term: "1", or "eps"/"eps^m" (m <= EPS_POWER_LIMIT), the basis
    symbol (m, {}), times an optional brace-delimited symbol after a '*'."""
    if not part:
        raise SyntaxError("empty term")
    if part == "1":
        return one(model)
    eps_m, rest = 0, part
    if part.startswith("eps"):
        eps_m, star, rest = 1, "", part[3:].strip()
        if rest.startswith("^"):
            num, star, rest = rest[1:].partition("*")
            num = num.strip()
            if not num.isdecimal():
                raise SyntaxError("bad eps power in %r" % part)
            num = num.lstrip("0") or "0"
            if len(num) > len(str(EPS_POWER_LIMIT)) or int(num) > EPS_POWER_LIMIT:
                raise SyntaxError(
                    "eps power in %r exceeds %d" % (part, EPS_POWER_LIMIT)
                )
            eps_m = int(num)
        elif rest.startswith("*"):
            star, rest = "*", rest[1:]
        elif rest:
            raise SyntaxError("expected '*' after eps in %r" % part)
        rest = rest.strip()
        if star and not rest:
            raise SyntaxError("nothing follows '*' in %r" % part)
    if not rest:
        body = one(model)
    elif not (rest.startswith("{") and rest.endswith("}")):
        raise SyntaxError("expected a brace-delimited symbol, got %r" % rest)
    else:
        entries = rest[1:-1].split(",")
        if entries == [""]:
            raise SyntaxError("empty symbol braces")
        body = symbol(entries, model)
    return KElement(model, _product(model, {(eps_m, frozenset())}, body.support))
