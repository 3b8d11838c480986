"""Seeded inputs for the three benchmark workloads.

Nothing here imports ccalc: the inputs are plain data (strings, argv lists,
expected exit codes) made from the seed alone, so the same seed always gives
the same inputs and the program under test only ever sees the result.

Blocks.  The `algebras` and `worksheets` streams are cut into blocks of a
fixed size.  Every block holds the same input shapes: the same ops' generator
counts and caps and the same multisets of multiplicities and models, or the
same subcommand kinds.  The seed shuffles them and draws everything else
(square classes, degrees, primes, names, flags).  Block k of a seed depends
only on (seed, k), so a run can go on for as many blocks as its time allows
while the mix it measures stays the same from seed to seed.
"""

import random
from math import gcd

DEFAULT_SEED = 20260819  # equal to ccalc.checks.DEFAULT_SEED: check_all is `ccalc check-all`

# -- algebras --------------------------------------------------------------------

INDETERMINATES = ("a", "b", "c", "d", "e", "f")
MODELS = ("closed", "euclidean", "generic")
# Constant classes each preset model declares trivial (squares); the
# independence test below must agree with EtaleAlgebraExpr's.
TRIVIAL = {"closed": {"minus_one", "two"}, "euclidean": {"two"}, "generic": set()}
_CLASS_NAMES = ("minus_one", "two") + INDETERMINATES

ALGEBRA_BLOCK = 20
_FACTOR_COUNTS = (1, 2, 3, 4)  # 5 ops of each per block: 50 factors
_GEN_COUNTS = (0, 1, 2, 3, 4)  # s = 5 (0.45 s) and s = 6 (3.3 s) would swamp the mix
_MULTIPLICITIES = tuple(range(1, 9))
_CAPS = tuple(range(2, 9))


def _balanced(rnd, values, n):
    """n values cycling through `values`, in seeded order."""
    out = [values[i % len(values)] for i in range(n)]
    rnd.shuffle(out)
    return out


def _block_rng(workload, seed, k):
    return random.Random("%s|%d|%d" % (workload, seed, k))


def _independent(monos, trivial):
    """Are the square classes independent over GF(2) once trivial names go?"""
    basis = []
    for mono in monos:
        v = 0
        for i, name in enumerate(_CLASS_NAMES):
            if name in mono and name not in trivial:
                v |= 1 << i
        for b in basis:
            v = min(v, v ^ b)
        if not v:
            return False
        basis.append(v)
    return True


def _class_text(mono, spell_two="2"):
    body = [spell_two if n == "two" else n for n in _CLASS_NAMES if n in mono and n != "minus_one"]
    text = "*".join(body) if body else "1"
    return "-" + text if "minus_one" in mono else text


def _random_classes(rnd, s, trivial, names=INDETERMINATES, constants=True):
    while True:
        monos = []
        for _ in range(s):
            mono = frozenset(n for n in names if rnd.random() < 0.35)
            if constants:
                mono |= {n for n in ("minus_one", "two") if rnd.random() < 0.15}
            monos.append(mono)
        if _independent(monos, trivial):
            return monos


def _factor_text(monos, mult):
    body = "F(%s)" % ",".join("sqrt(%s)" % _class_text(m) for m in monos) if monos else "F"
    return body + ("^%d" % mult if mult > 1 else "")


def _algebra_shapes():
    """(generator counts of the factors, SW cap) of each op, one list for
    every block.  An op's cost is set mostly by its largest s (trace_form is
    O(8^s)) and its cap, so fixing these keeps the latency percentiles from
    moving with the seed."""
    rnd = random.Random("algebra shapes")
    counts = _balanced(rnd, _FACTOR_COUNTS, ALGEBRA_BLOCK)
    gens = _balanced(rnd, _GEN_COUNTS, sum(counts))
    caps = _balanced(rnd, _CAPS, ALGEBRA_BLOCK)
    return [(tuple(gens.pop() for _ in range(count)), cap) for count, cap in zip(counts, caps)]


_ALGEBRA_SHAPES = _algebra_shapes()


def algebra_block(seed, k):
    """Block k: ALGEBRA_BLOCK ops, each a dict with the algebra text, its
    model, the SW cap, the ordered residue pair, and the closed-form check
    data (the square classes of every factor)."""
    rnd = _block_rng("algebras", seed, k)
    shapes = list(_ALGEBRA_SHAPES)
    rnd.shuffle(shapes)
    mults = _balanced(rnd, _MULTIPLICITIES, sum(len(gens) for gens, _ in shapes))
    models = _balanced(rnd, MODELS, ALGEBRA_BLOCK)
    ops = []
    for (shape, cap), model in zip(shapes, models):
        factors = []
        for s in shape:
            factors.append((_random_classes(rnd, s, TRIVIAL[model]), mults.pop()))
        ops.append({
            "model": model,
            "text": " * ".join(_factor_text(m, mult) for m, mult in factors),
            "factors": [(sorted(sorted(m) for m in monos), mult) for monos, mult in factors],
            "cap": cap,
            "at": rnd.sample(INDETERMINATES, 2),
        })
    return ops


# -- worksheets ------------------------------------------------------------------

WORKSHEET_BLOCK = 40
# (kind, requests per block).  classd is the slowest request and sits above
# the 85th percentile, so p90 measures it; the cheap kinds set p50.
_KINDS = (
    ("classz", 6), ("classd", 6), ("rvalue", 3), ("lines", 6),
    ("sw", 6), ("residue", 5), ("brauer", 6), ("error", 2),
)
_SYMBOL_NAMES = ("a", "b", "c", "x", "y")
_LINE_NAMES = ("a", "b", "c", "p", "q", "r", "t", "u", "w")
_STACKS = ("xd", "xdfr", "x4fr", "m3", "m3-minus-h3", "a3")
# Inputs with a known error exit: 1 for a computation error, 2 for usage.
_ERRORS = (
    (["classz", "-d", "2"], 1),
    (["classd", "-d", "3"], 1),
    (["classz"], 2),
    (["lines", "--gens", "a"], 2),
    (["sw", "--algebra", "F(sqrt(a)"], 1),
    (["sw", "--algebra", "F(sqrt(a),sqrt(a))"], 1),
    (["sw", "--algebra", "F(sqrt(a))", "--max-degree", "-1"], 2),
    (["brauer", "--stack", "xd"], 2),
    (["brauer", "--stack", "m3", "--char", "4"], 1),
    (["brauer", "--stack", "xdfr", "-d", "6"], 1),
    (["residue", "--expr", "{a,b", "--at", "a"], 1),
)


def is_prime(n):
    """Deterministic Miller-Rabin for n < 3.3e24 (bases: the first 13 primes)."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(rnd, lo, hi):
    while True:
        n = rnd.randrange(lo, hi) | 1
        if is_prime(n):
            return n


def _model_flag(rnd):
    model = rnd.choice(MODELS + (None,))
    return (["--model", model] if model else []), model or "euclidean"


def _sw_request(rnd):
    flag, model = _model_flag(rnd)
    factors = []
    for _ in range(rnd.randint(1, 2)):
        monos = _random_classes(rnd, rnd.randint(0, 2), TRIVIAL[model], names=_SYMBOL_NAMES)
        factors.append(_factor_text(monos, rnd.randint(1, 3)))
    argv = ["sw", "--algebra", " * ".join(factors)] + flag
    if rnd.random() < 0.5:
        argv += ["--max-degree", str(rnd.randint(0, 4))]
    return argv


def _residue_request(rnd):
    flag, _ = _model_flag(rnd)
    terms = []
    for _ in range(rnd.randint(1, 4)):
        entries = []
        for _ in range(rnd.randint(1, 3)):
            mono = frozenset(rnd.sample(_SYMBOL_NAMES, rnd.randint(1, 2)))
            if rnd.random() < 0.2:
                mono |= {"minus_one"}
            entries.append(_class_text(mono))
        if rnd.random() < 0.2:
            entries.append("-1")
        terms.append("{%s}" % ",".join(entries))
    return ["residue", "--expr", " + ".join(terms), "--at", rnd.choice(_SYMBOL_NAMES)] + flag


def _brauer_request(rnd):
    stack = rnd.choice(_STACKS)
    argv = ["brauer", "--stack", stack]
    d = None
    if stack == "xd":
        d = rnd.randint(3, 60)
    elif stack == "xdfr":
        d = rnd.choice((4, rnd.randrange(3, 60, 2)))
    if d is not None:
        argv += ["-d", str(d)]
    if rnd.random() < 2 / 3:
        argv += ["--char", str(_prime(rnd, 10 ** 8, 10 ** 9))]
    if stack == "xdfr" and rnd.random() < 0.3:
        argv.append("--closed")
    return argv


def worksheet_block(seed, k):
    """Block k: WORKSHEET_BLOCK requests, each (argv, expected exit code)."""
    rnd = _block_rng("worksheets", seed, k)
    kinds = [kind for kind, n in _KINDS for _ in range(n)]
    rnd.shuffle(kinds)
    json_left = {"classz": 2, "classd": 2}  # per block, so the oracle gate always runs
    gen_counts = _balanced(rnd, (2, 3), dict(_KINDS)["lines"])
    out = []
    for kind in kinds:
        code = 0
        if kind in ("classz", "classd", "rvalue"):
            argv = [kind, "-d", str(rnd.randint(3 if kind == "classz" else 4, 60))]
        elif kind == "lines":
            gens = rnd.sample(_LINE_NAMES, gen_counts.pop())
            argv = ["lines", "--gens", ",".join(gens), "--verify-position", "--certificate"]
        elif kind == "sw":
            argv = _sw_request(rnd)
        elif kind == "residue":
            argv = _residue_request(rnd)
        elif kind == "brauer":
            argv = _brauer_request(rnd)
        else:
            argv, code = rnd.choice(_ERRORS)
            argv = list(argv)
        if json_left.get(kind):
            json_left[kind] -= 1
            argv.append("--json")
        elif kind not in json_left and rnd.random() < 0.25:
            argv.append("--json")
        out.append((argv, code))
    return out


def r_value(d):
    """gcd(d(d-1)^2, 3(d-2)), computed here for the rvalue gate."""
    return gcd(d * (d - 1) ** 2, 3 * (d - 2))


def block(workload, seed, k):
    if workload == "algebras":
        return algebra_block(seed, k)
    if workload == "worksheets":
        return worksheet_block(seed, k)
    return [seed]  # check_all: one pass of checks.run_all(seed=seed)
