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

Inside an element, gens is an int bit mask.  The FieldModel gives each
non-eps name one bit, in display order (constants by spelling, then
the indeterminates in declaration order), so the rule above is
(m1 + m2 + (g1 & g2).bit_count(), g1 | g2) and a residue clears one bit.
Every square class enters through its model mask (`FieldModel.class_mask`),
the XOR of the bits of its names with the bits of the trivial names cleared;
a text entry is first read into a set of names by `_parse_monomial`.  The
mask is the degree-1 symbol {c}: below the minus_one bit it is the generator
mask of its basis symbols, and the minus_one bit is the basis symbol
{-1} = (1, 0).  `symbol` and the power formula both read a class so.

`render` sorts basis symbols by (degree, m, names), where names is the tuple
of internal names of the mask in display order compared as strings: "two"
sorts after "f", and "x10" before "x2", so the order is not that of the
masks.

The Stiefel-Whitney power formula of `etale`, the product of the (1 + c)^n
truncated at a degree cap, runs here, in `power_product`, in closed form and
on the model masks of the classes c.  Up to the degree, the product rule is
an OR-convolution of sets of masks, and the zeta transform over the subsets
of the names in use turns it into a bitwise AND; so no two supports are
multiplied, and each class is one int bit set until it is read off (see
`power_product`).

The free-module reading of these basis symbols is validated by the iterated
residue maps (see `residue`): residues at the generator set of a basis symbol
extract exactly that symbol's eps-power, so distinct basis symbols are
independent over the constants.

The three input languages share one tokenizer, `tokenize`, and its token
table: names (ASCII identifiers, the keywords eps, F and sqrt among them),
integers (runs of str.isdecimal digits), the punctuation { } ( ) , * ^ + -,
and runs of any other characters, which a square class reads as names.  One
reader per language, c standing for a square class:

    square class  ["-"] f ("*" f)*, each f a name or a power of two
    symbol        "0" | t ("+" t)*, each t "1" | eps["^"m]["*" {c,...}] | {c,...}
    algebra       a ("*" a)*, each a F["(" sqrt(c) ("," sqrt(c))* ")"]["^" m]
"""

import re

from . import CcalcError


class KError(CcalcError):
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
# (8192 basis symbols) takes 0.19-0.29 s, 0.24-0.41 s with --json, interpreter
# start included (Python 3.11, 2-vCPU Xeon); with frozensets of names in the
# support instead of bit masks it took 0.28-0.46 s and 0.40-0.63 s.
EXPANSION_LIMIT = 16384

# Most names `power_product` may have in use.  Over n names its closed form
# works on ints of 2^n bits, one per class, and a class may hold up to 2^n
# basis symbols, so time and memory double with each name.  In process
# (Python 3.11 on a 2-vCPU Xeon), forty random symbols over 16 names take
# 0.03-0.05 s and 23 MB at cap 8, and 1.6-1.7 s and 310 MB at cap 128, where
# the 129 classes hold 1.8 million basis symbols.  Past the limit it raises
# KError before it allocates anything, its point tables included: they are
# kept per name count (_POINT_TABLES, at most 17 entries; about 280 KB over
# 16 names).  `ccalc check-all` meets at most 6 names, and `ccalc sw` at most
# 6 (etale.SW_NAMES_LIMIT indeterminates and 2).
POWER_NAMES_LIMIT = 16


class FieldModel:
    """Names and triviality flags for symbol entries.

    indeterminates: ordered tuple of transcendental names (a, b, ...).
    constants: map from constant-class name to "free" or "trivial";
    must contain "minus_one".

    The constructor builds the model's name table, `_table`: each name,
    minus_one included, maps to its bit, and `_trivial` holds the bits of
    the names that the model makes squares.  The bits follow display order,
    minus_one last, so below minus_one's bit a mask is the generator mask of
    the basis symbols.  `class_mask` reads a square class into its mask
    through the table, and `residue`, `power_product`, `sort_gens` and
    `_parse_monomial` read it too.  Names stay the currency of the API at
    the edges (`factors`, trace forms, rendering); inside, a square class is
    its mask: in `symbol`, `etale.EtaleAlgebraExpr`, `etale.sw_total` with
    `power_product`, and `cubic.PointConfig` and `cubic.build_action`, and
    symbol supports hold generator masks.
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
        # one bit per name, in display order: the constants by spelling, then
        # the indeterminates in declaration order, then minus_one.  Sorting
        # makes the bits independent of the insertion order of `constants`.
        constants = sorted(
            (_CONSTANT_SPELLING.get(n, n), n)
            for n in self.constants
            if n != "minus_one"
        )
        self._names = tuple(n for _, n in constants) + self.indeterminates + ("minus_one",)
        # the name table: each name to its bit
        self._table = {n: 1 << i for i, n in enumerate(self._names)}
        self._trivial = sum(
            self._table[n] for n, flag in self.constants.items() if flag == "trivial"
        )
        self._indeterminate_bits = sum(self._table[n] for n in self.indeterminates)

    @property
    def eps_free(self):
        return self.constants["minus_one"] == "free"

    def class_mask(self, cls):
        """The mask of a square class (an iterable of names) in the model: the
        XOR of the bits of its names, the bits of trivial names cleared.
        Raises UnknownGenerator on the first name the model does not know,
        and KError for a string, which would read as the set of its letters,
        and for a value that is not iterable."""
        if isinstance(cls, str):
            raise KError("square class %s is a string; give a set of names" % _quote(cls))
        table, mask = self._table, 0
        try:
            for name in cls:
                try:
                    mask ^= table[name]
                except (KeyError, TypeError):  # TypeError: an unhashable name
                    raise UnknownGenerator(name) from None
        except TypeError:  # cls is not iterable
            raise KError("square class %r is not iterable; give a set of names" % (cls,)) from None
        return mask & ~self._trivial

    def sort_gens(self, gens):
        # display order is the order of the bits
        return tuple(sorted(gens, key=self._table.__getitem__))

    def gen_names(self, mask):
        """The names of the bits of `mask`, in display order (minus_one last)."""
        names = []
        while mask:
            low = mask & -mask
            names.append(self._names[low.bit_length() - 1])
            mask ^= low
        return tuple(names)

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
        return self.support == _ONE

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
        return sorted({m + g.bit_count() for m, g in self.support})

    def render(self):
        """Basis symbols sorted by (degree, m, names); see the module docstring."""
        if not self.support:
            return "0"
        names, spell = self.model.gen_names, self.model.spell
        chunks = []
        for _, m, gens in sorted(
            (m + g.bit_count(), m, names(g)) for m, g in self.support
        ):
            entries = ["-1"] * m + [spell(n) for n in gens]
            chunks.append("{%s}" % ",".join(entries) if entries else "1")
        return " + ".join(chunks)

    def __str__(self):
        return self.render()

    __repr__ = __str__


# The slot setters, bound once: __init__ sets through them, since
# KElement.__setattr__ raises.
_set_model = KElement.model.__set__
_set_support = KElement.support.__set__

# the support of 1: the basis symbol with no eps and no generators
_ONE = frozenset({(0, 0)})


def zero(model):
    return KElement(model, frozenset())


def one(model):
    return KElement(model, _ONE)


def _product(model, xs, ys):
    """Support of the product of two supports by the rule in the module
    docstring, summed mod 2; eps powers die where -1 is a square."""
    acc = set()
    for m1, g1 in xs:
        for m2, g2 in ys:
            acc ^= {(m1 + m2 + (g1 & g2).bit_count(), g1 | g2)}
    if not model.eps_free:
        acc = {s for s in acc if s[0] == 0}
    return acc


def symbol(entries, model):
    """Normal form of the symbol with the given entries.

    An entry is a square class: a text such as "-2*a" (see `_parse_monomial`)
    or an iterable of names.  It is read into its model mask
    (`FieldModel.class_mask`), and its degree-1 symbol is the sum of one
    basis symbol per bit: (1, 0) for the minus_one bit, (0, bit) for each
    other.  The symbol is the product of these sums, so {x,x} = {-1,x}
    follows from the product rule.  Raises KError when the entries are one
    string, which would read as its letters, and when that product would
    form more than EXPANSION_LIMIT basis-symbol products.
    """
    if isinstance(entries, str):
        raise KError(
            "symbol entries %s are a string; give a sequence of square classes"
            % _quote(entries)
        )
    neg = model._table["minus_one"]
    acc = _ONE
    products = 0
    for entry in entries:
        if isinstance(entry, str):
            reader = _Reader(entry)
            entry = _parse_monomial(reader, model)
            reader.expect("", "expected '*' between factors")
        c = model.class_mask(entry)
        pieces = {(1, 0)} if c & neg else set()
        c &= ~neg
        while c:
            bit = c & -c
            pieces.add((0, bit))
            c ^= bit
        products += len(acc) * len(pieces)
        if products > EXPANSION_LIMIT:
            raise KError(
                "symbol expansion needs more than %d basis-symbol products"
                % EXPANSION_LIMIT
            )
        acc = _product(model, acc, pieces)
    return KElement(model, acc)


# Name count n -> the point tables of `power_product` over n names, filled
# on first use: patterns[k], the points S that hold the k-th name (bit k of
# S); full, every point; steps, the (keep, shift) pairs of the inverse
# transform.  Over 16 names they take about 280 KB.
_POINT_TABLES = {}


def _point_tables(n):
    """Build and keep the point tables over n names, by doubling: a new
    name doubles the points, the points of the earlier names are copied
    into the upper half, and the new name holds that whole half."""
    patterns, size = [], 1
    for _ in range(n):
        patterns = [p | p << size for p in patterns] + [((1 << size) - 1) << size]
        size <<= 1
    full = (1 << size) - 1
    _POINT_TABLES[n] = patterns, full, [(full ^ p, 1 << k) for k, p in enumerate(patterns)]
    return _POINT_TABLES[n]


def power_product(counts, cap, model):
    """The classes of degrees 0..cap of the product of the (1 + c)^n over the
    items (c, n) of counts, each c the model mask of a square class
    (`FieldModel.class_mask`) standing for its degree-1 symbol {c}, and
    n >= 1: a list of cap + 1 KElements.  Raises KError when the symbols that
    enter use more than POWER_NAMES_LIMIT names.

    The closed form.  In a class of degree i the basis symbol (m, g) has
    m = i - |g|, so the product rule reads

        (i - |g1|, g1) * (j - |g2|, g2) = (i + j - |g1 | g2|, g1 | g2):

    up to the degree, a product is the OR-convolution of the sets of masks.
    The zeta transform over GF(2), zf(S) = sum over T <= S of f(T), is its
    own inverse and turns OR-convolution into the pointwise product
    (Bjorklund-Husfeldt-Kaski-Koivisto 2007).  A degree-1 symbol {c} becomes
    zc(S) = [c holds the minus_one bit] + |S & names(c)| mod 2: the
    minus_one bit is the basis symbol (1, 0), whose transform is the
    constant point function 1, and each other bit is the basis symbol of one
    name, whose transform is 1 at the points that contain the name.  So at
    each point S the product of the (1 + c t)^n is (1 + t)^N_S, N_S the sum
    of the n * zc(S).  By Lucas' theorem its degree-i coefficient is 1
    exactly when i & ~N_S == 0, which needs N_S only mod 2^L, 2^L > cap.
    Where -1 is a square the basis symbols with m > 0 are dropped at the
    end: the quotient by the ideal (eps) is a ring map.

    The points are the subsets S of the n names in use (the OR of the masks
    whose n is nonzero mod 2^L, the minus_one bit cleared), and a function
    on them is one int, bit S holding the value at S; zc is `full` or 0 by
    the minus_one bit, XOR the points `has[bit]` of each other bit of c.
    N_S is kept as L bit planes, filled by ripple-carry AND/XOR; each class
    is an AND of planes, transformed back by n shift-XOR steps and read off
    its set bits.

    The point tables depend on n alone: pattern k, the points that hold the
    k-th name in use, `full` and the inverse-transform steps are built once
    per n (`_point_tables`), and only after the limit check.  A call pairs
    each model bit in use with its pattern and builds `gens`, the model
    mask of each point, which the readout indexes.
    """
    width = cap.bit_length()  # L: only N_S mod 2^L matters
    counts = [(c, n) for c, n in counts.items() if n & ((1 << width) - 1)]
    neg = model._table["minus_one"]
    used = 0
    for c, _ in counts:
        used |= c
    used &= ~neg
    names = used.bit_count()
    if names > POWER_NAMES_LIMIT:
        raise KError("power product over %d names; the limit is %d" % (names, POWER_NAMES_LIMIT))
    patterns, full, steps = _POINT_TABLES.get(names) or _point_tables(names)
    gens = [0]  # point S -> the model mask of its names
    has = {}  # model bit -> the points S that contain its name
    for pattern in patterns:
        bit = used & -used
        has[bit] = pattern
        gens += [g | bit for g in gens]
        used ^= bit
    planes = [0] * width  # planes[k]: the points S with bit k of N_S set
    for c, n in counts:
        zc = full if c & neg else 0
        c &= ~neg
        while c:
            bit = c & -c
            zc ^= has[bit]
            c ^= bit
        for k in range(width):
            if n >> k & 1:
                carry = zc
                for p in range(k, width):
                    planes[p], carry = planes[p] ^ carry, planes[p] & carry
                    if not carry:
                        break
    eps_free = model.eps_free
    lucas = [full]  # lucas[i]: the points S with i & ~N_S == 0
    classes = [_ONE]
    for i in range(1, cap + 1):
        low = i & -i
        f = lucas[i ^ low] & planes[low.bit_length() - 1]
        lucas.append(f)
        for keep, shift in steps:
            f ^= (f & keep) << shift
        support = set()
        bits = bin(f)[:1:-1]  # bits[S] is bit S of f
        s = bits.find("1")
        while s >= 0:
            g = gens[s]
            m = i - g.bit_count()
            if eps_free or not m:
                support.add((m, g))
            s = bits.find("1", s + 1)
        classes.append(support)
    return [KElement(model, s) for s in classes]


def residue(x, at):
    """Ramification at the valuation 'order of vanishing of the variable at':
    sends a basis symbol containing the variable to the symbol without it,
    and kills symbols not containing it.  Lowers degree by one.  One lookup
    in the name table checks `at`: UnknownGenerator for a name the model does
    not know (an unhashable one included), then NotAnIndeterminate for a
    constant class."""
    model = x.model
    try:
        bit = model._table[at]
    except (KeyError, TypeError):
        raise UnknownGenerator(at) from None
    if not bit & model._indeterminate_bits:
        raise NotAnIndeterminate(
            "residues are taken at indeterminates, not constant classes: %r" % at
        )
    return KElement(model, {(m, g ^ bit) for m, g in x.support if g & bit})


def iterated_residue(x, names):
    """The residue at names[0], then at names[1], and so on, one `residue`
    per name.  A word given as a string raises KError, since it would read
    as the sequence of its letters."""
    if isinstance(names, str):
        raise KError("residue word %s is a string; give a sequence of names" % _quote(names))
    for n in names:
        x = residue(x, n)
    return x


# -- parsing -----------------------------------------------------------------

_PUNCT = "{}(),*^+-"
# The token table, one (kind, pattern) row per kind.  The rows start with
# disjoint sets of characters, whitespace separates tokens, and every other
# character starts one, so tokenizing never fails; the tokens of a text end
# with the empty "end" token.  \d matches exactly the characters for which
# str.isdecimal holds: a token is an integer exactly when it is decimal.
_TOKEN_TABLE = (
    ("punct", "[%s]" % re.escape(_PUNCT)),
    ("name", r"[A-Za-z_][A-Za-z_0-9]*"),
    ("int", r"\d+"),
    ("other", r"[^\s\dA-Za-z_%s]+" % re.escape(_PUNCT)),
    ("end", r"\Z"),
)
_TOKEN = re.compile("|".join(pattern for _, pattern in _TOKEN_TABLE))
KEYWORDS = ("eps", "F", "sqrt")

# Most digits of a numeral the readers convert, leading zeros aside: int()
# refuses digit strings past 4300.
NUMERAL_DIGITS = 4000

# Longest text a parse error quotes whole.  A longer one is quoted as the
# QUOTE_LIMIT characters around the error's position, with "..." at each cut.
QUOTE_LIMIT = 80


def tokenize(text):
    """The tokens of text as strings, the last one the empty end token."""
    return _TOKEN.findall(text)


def is_name(text):
    """Whether text is one name token: an ASCII identifier, which is what the
    "name" row of _TOKEN_TABLE matches."""
    return text.isascii() and text.isidentifier()


class _Reader:
    """A cursor over the tokens of one text; accept("") tests for the end."""

    def __init__(self, text):
        self.text, self.i = text, 0
        self.tokens = tokenize(text)

    def accept(self, token):
        """Step over the next token if it is token."""
        if self.tokens[self.i] == token:
            self.i += 1
            return True
        return False

    def expect(self, token, what):
        if self.tokens[self.i] != token:
            self.fail(what)
        self.i += 1

    def integer(self, name="numeral", digits=NUMERAL_DIGITS):
        """Step over the next token, an integer of at most `digits` digits
        besides leading zeros, and return its value.  An integer can be
        missing only after a '^', so the error for a missing one names it."""
        token = self.tokens[self.i]
        if not token.isdecimal():
            self.fail("expected an integer after '^'")
        value = token.lstrip("0") or "0"
        if len(value) > digits:
            self.fail("%s has more than %d digits" % (name, digits))
        self.i += 1
        return int(value)

    def fail(self, what, at=None, show_pos=True):
        """Raise the parse error: SyntaxError "<what> at position <pos> in
        <text>", pos being where token number `at` starts (by default the
        next token), and the error's offset pos + 1, as Python counts columns.
        show_pos=False leaves the position out of the message.  The text is
        quoted by `_quote`, so the message stays short for any input."""
        pos = [m.start() for m in _TOKEN.finditer(self.text)][self.i if at is None else at]
        where = " at position %d" % pos if show_pos else ""
        msg = "%s%s in %s" % (what, where, _quote(self.text, pos))
        raise SyntaxError(msg, (None, None, pos + 1, self.text))


def _quote(text, pos=0):
    """repr(text) if it has at most QUOTE_LIMIT characters; else the repr of
    the QUOTE_LIMIT characters around pos, "..." marking each side cut off."""
    start = min(max(0, pos - QUOTE_LIMIT // 2), max(0, len(text) - QUOTE_LIMIT))
    end = start + QUOTE_LIMIT
    return "%s%r%s" % ("..." if start else "", text[start:end], "..." if end < len(text) else "")


def _parse_monomial(reader, model):
    """One square class: ["-"] factor ("*" factor)*, a factor a power of two or
    a name or other token that the model knows (but minus_one); reduced mod
    squares to a frozenset of names."""
    mono = {"minus_one"} if reader.accept("-") else set()
    while True:
        token = reader.tokens[reader.i]
        if token.isdecimal():
            n = reader.integer()
            if n & (n - 1) or not n:
                reader.fail(
                    "numeric entries must be powers of two, got %s" % _quote(token), reader.i - 1
                )
            if n.bit_length() % 2 == 0:  # an odd power of two
                mono ^= {"two"}
        elif token and token not in _PUNCT:  # a name or other run, not the end
            if token not in model._table or token == "minus_one":
                cut = "..." if len(token) > QUOTE_LIMIT else ""
                raise UnknownGenerator(token[:QUOTE_LIMIT] + cut)
            reader.i += 1
            mono ^= {token}
        else:
            reader.fail("expected a name or a numeral")
        if not reader.accept("*"):
            return frozenset(mono)


def parse_kelement(text, model):
    """Inverse of render(): "0", or terms joined by '+' (see `_parse_term`).
    The braces must balance, which is checked before any term is read."""
    reader = _Reader(text)
    if reader.tokens == ["0", ""]:
        return zero(model)
    depth = 0
    for i, token in enumerate(reader.tokens):
        depth += (token == "{") - (token == "}")
        if depth < 0:
            reader.fail("unbalanced '}'", i)
    if depth:
        reader.fail("unbalanced '{'", -1, show_pos=False)  # at the end
    support = _parse_term(reader, model)
    while reader.accept("+"):
        support ^= _parse_term(reader, model)
    reader.expect("", "expected '+' between terms")
    return KElement(model, support)


def _parse_term(reader, model):
    """One term, as a support: "1"; "eps" or "eps^m" (m <= EPS_POWER_LIMIT),
    the basis symbol (m, 0), alone or times "*" and a braced symbol; or a
    braced symbol {u1,...,ur} of square classes."""
    if reader.accept("1"):
        return _ONE
    m = 0
    if reader.accept("eps"):
        m = reader.integer("eps power") if reader.accept("^") else 1
        if m > EPS_POWER_LIMIT:
            reader.fail("eps power exceeds %d" % EPS_POWER_LIMIT, reader.i - 1)
        if not reader.accept("*"):
            return _product(model, {(m, 0)}, _ONE)
    reader.expect("{", "expected a brace-delimited symbol")
    entries = [_parse_monomial(reader, model)]
    while reader.accept(","):
        entries.append(_parse_monomial(reader, model))
    reader.expect("}", "expected ',' or '}'")
    return _product(model, {(m, 0)}, symbol(entries, model).support)
