"""Validation raises across the library, one table row each: the request, the
exception it raises and the exception's message.  The CLI row runs `main` in
process and reports its exit code and stderr as a SystemExit."""

import contextlib
import io

import pytest

from ccalc.chow import class_bin
from ccalc.cli import main
from ccalc.cubic import CubicError, PointConfig
from ccalc.etale import EtaleAlgebraExpr, EtaleError, UnknownName
from ccalc.ksymbols import (
    FieldModel,
    KError,
    ModelMismatch,
    UnknownGenerator,
    euclidean_model,
    generic_model,
    iterated_residue,
    one,
    symbol,
)
from ccalc.rings import (
    DegreeMismatch,
    NonMonicRelation,
    NotAFiberGenerator,
    NotDivisible,
    NotHomogeneous,
    Ring,
    RingError,
    RingMismatch,
    exact_divide,
    symmetric_reduce,
)
from ccalc.rings import UnknownGenerator as UnknownRingGenerator

E = euclidean_model(("a", "b"))
A, B = frozenset({"a"}), frozenset({"b"})
R = Ring(["x"])
X = R.gen("x")
R2X = Ring(["x"]).gen("x")
YZ = Ring([("y", 2), ("z", 3)])
TX = Ring(["x", "t"], relations={"t": (2, [[(1, {"x": 1})], []])})


def _cli(*argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(list(argv))
    raise SystemExit("exit %d: %s" % (code, err.getvalue().strip()))


CASES = [
    # etale
    ("multiplicity 0", lambda: EtaleAlgebraExpr(E, [((A,), 0)]),
     EtaleError, "multiplicity must be a positive integer"),
    ("unknown name", lambda: EtaleAlgebraExpr(E, [((frozenset({"zz"}),), 1)]),
     UnknownName, "zz"),
    ("unhashable name", lambda: EtaleAlgebraExpr(E, [(([["a"]],), 1)]),
     UnknownName, "['a']"),
    # a string would read as the set of its letters: {a, b}, or an unknown z
    ("string square class", lambda: EtaleAlgebraExpr(E, [(("ab",), 1)]),
     EtaleError, "square class 'ab' is a string; give a set of names"),
    ("string square class of unknown letters", lambda: EtaleAlgebraExpr(E, [(("xyz",), 1)]),
     EtaleError, "square class 'xyz' is a string; give a set of names"),
    # a class or an extension that is not iterable
    ("int square class", lambda: EtaleAlgebraExpr(E, [((5,), 1)]),
     KError, "square class 5 is not iterable; give a set of names"),
    ("int extension", lambda: EtaleAlgebraExpr(E, [(5, 1)]),
     EtaleError, "extension 5 is not a sequence of square classes"),
    ("times across models",
     lambda: EtaleAlgebraExpr(E, []).times(EtaleAlgebraExpr(generic_model(("a", "b")), [])),
     ModelMismatch, "algebras live over different field models"),
    # ksymbols
    ("constant flag", lambda: FieldModel(("a",), {"minus_one": "maybe"}),
     KError, "constant flags are 'free' or 'trivial', got 'maybe'"),
    ("symbol plus int", lambda: one(E) + 1, ModelMismatch, "expected a KElement, got 1"),
    ("unknown symbol entry", lambda: symbol([["zz"]], E), UnknownGenerator, "zz"),
    # a string would read as its letters: the symbol {a,b}, the class of a*b
    ("string symbol entries", lambda: symbol("ab", E),
     KError, "symbol entries 'ab' are a string; give a sequence of square classes"),
    ("string class mask", lambda: E.class_mask("ab"),
     KError, "square class 'ab' is a string; give a set of names"),
    ("int symbol entry", lambda: symbol([5], E),
     KError, "square class 5 is not iterable; give a set of names"),
    ("int class mask", lambda: E.class_mask(5),
     KError, "square class 5 is not iterable; give a set of names"),
    # a string word would read as its letters: residues at x, 1, 0, or at b then a
    ("string residue word", lambda: iterated_residue(symbol([A, B], E), "x10"),
     KError, "residue word 'x10' is a string; give a sequence of names"),
    ("string residue word of model names", lambda: iterated_residue(symbol([A, B], E), "ba"),
     KError, "residue word 'ba' is a string; give a sequence of names"),
    ("long string residue word", lambda: iterated_residue(one(E), "ab" * 100),
     KError, "residue word %r... is a string; give a sequence of names" % ("ab" * 40)),
    # cubic
    ("string pair class", lambda: PointConfig(euclidean_model(("a", "b", "c")), ("ab", "c")),
     CubicError, "pair class 'ab' is a string; give a set of names"),
    ("unhashable pair class name", lambda: PointConfig(E, ([["a"]], ["b"])),
     CubicError, "unknown square class name ['a']"),
    ("int pair class", lambda: PointConfig(E, (5, ["b"])),
     KError, "square class 5 is not iterable; give a set of names"),
    ("five coordinate triples", lambda: PointConfig(E, (A, B), coordinates=[(1, 0, 0)] * 5),
     CubicError, "expected six coordinate triples"),
    ("six integer triples", lambda: PointConfig(E, (A, B), coordinates=[(1, 0, 0)] * 6),
     CubicError, "each coordinate must be a Poly"),
    ("six pairs", lambda: PointConfig(E, (A, B), coordinates=[(1, 0)] * 6),
     CubicError, "each point must be a triple of coordinates"),
    ("points from two rings",
     lambda: PointConfig(E, (A, B), coordinates=[(X, X, X)] * 5 + [(R2X, R2X, R2X)]),
     CubicError, "the coordinates live in different rings"),
    # chow
    ("push fiber u", lambda: class_bin(4, push_fiber="u"), NotAFiberGenerator, "u"),
    # rings
    ("generator degree 0", lambda: Ring([("x", 0)]),
     DegreeMismatch, "generator 'x' needs a positive integer degree"),
    ("relation with one coefficient of two", lambda: Ring(["x"], relations={"x": (2, [[]])}),
     NonMonicRelation, "relation for 'x' must give degree n >= 1 and exactly n coefficients"),
    ("unknown raw exponent", lambda: R.poly([(1, {"zz": 1})]), UnknownRingGenerator, "zz"),
    ("negative raw exponent", lambda: R.poly([(1, {"x": -1})]),
     RingError, "bad exponent -1 for 'x'"),
    ("power -1", lambda: X ** -1, RingError, "exponent must be a nonnegative integer"),
    ("not homogeneous", lambda: (X + X * X).homogeneous_degree(), NotHomogeneous, "x + x^2"),
    ("divide across rings", lambda: exact_divide(X, YZ.gen("y"), monic_in="x"),
     RingMismatch, "operands live in different rings"),
    ("divide by zero", lambda: exact_divide(X, R.zero, monic_in="x"),
     NotDivisible, "division by the zero element"),
    ("divide degree below", lambda: exact_divide(X, X * X, monic_in="x"),
     NotDivisible, "nonzero remainder"),
    ("no quotient monomials", lambda: exact_divide(YZ.gen("z"), YZ.gen("y"), monic_in="y"),
     NotDivisible, "nonzero remainder"),
    ("divide with a remainder", lambda: exact_divide(X * X + 1, X + 1, monic_in="x"),
     NotDivisible, "nonzero remainder"),
    ("divisor not monic", lambda: exact_divide(X * X, 2 * X, monic_in="x"),
     NotDivisible, "the divisor is not monic in 'x'"),
    ("divide in a fiber generator", lambda: exact_divide(TX.gen("t"), TX.gen("t"), monic_in="t"),
     NotDivisible, "'t' has a relation"),
    ("divide in a generator of a relation",
     lambda: exact_divide(TX.gen("x"), TX.gen("x"), monic_in="x"),
     NotDivisible, "'x' occurs in a relation"),
    ("divide in an unknown generator", lambda: exact_divide(X, X, monic_in="zz"),
     UnknownRingGenerator, "zz"),
    ("roots not of degree 1",
     lambda: symmetric_reduce(Ring([("l1", 2), "l2", "l3"]).one, Ring(["c1", "c2", "c3"])),
     DegreeMismatch, "symmetric reduction expects a degree-1 triple"),
    ("target not of degrees 1 2 3",
     lambda: symmetric_reduce(Ring(["l1", "l2", "l3"]).one, Ring(["c1", "c2", "c3"])),
     DegreeMismatch, "target images must have degrees 1, 2, 3"),
    # cli
    ("sw --max-degree -1", lambda: _cli("sw", "--algebra", "F", "--max-degree", "-1"),
     SystemExit, "exit 2: error: --max-degree must be >= 0"),
]


@pytest.mark.parametrize("call, error, message", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_validation_raises(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
