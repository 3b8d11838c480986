"""Replay fixed families of ccalc requests in process and check their digests.

Each family is a list of argument vectors for ``ccalc.cli.main``, run in
order in this process with stdout and stderr captured.  The JSON output of a
--json request is parsed, its "elapsed" dropped and dumped again with sorted
keys; a request's record is that stdout, "exit <code>" and its stderr.  The
sha256 of a family's records is compared with the digest recorded in
FAMILIES.  Stdlib only; ccalc is imported from the src/ next to this script.

    python3 tools/sweep.py

prints one line per family (name, request count, sha256, ok or MISMATCH) and
exits 1 if any digest differs from the recorded one.
"""

import contextlib
import hashlib
import io
import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ccalc.cli import main  # noqa: E402


def lines_requests(names, flag):
    """lines --gens over every order of two or three names, with and without --json."""
    return [
        ["lines", "--gens", ",".join(gens), flag, *extra]
        for k in (2, 3)
        for gens in itertools.permutations(names, k)
        for extra in ([], ["--json"])
    ]


def class_requests():
    """classz for d = 1..120 and classd for d = 2..120, with and without --json;
    the smallest degree of each is refused (exit 1)."""
    return [
        [command, "-d", str(d), *extra]
        for command, low in (("classz", 1), ("classd", 2))
        for d in range(low, 121)
        for extra in ([], ["--json"])
    ]


def big_classd_requests():
    """classd at d = 10^(n-1) + n for n = 50, 100 and 301 digits (d = 0, 2, 5
    mod 6), with and without --json."""
    return [
        ["classd", "-d", str(10 ** (n - 1) + n), *extra]
        for n in (50, 100, 301)
        for extra in ([], ["--json"])
    ]


def sw_requests(classes):
    """sw --max-degree 2 over every ordered pair and triple of classes, repeats
    included, as the square roots of one factor, in the closed, euclidean and
    generic models, with and without --json; a dependent subproduct is
    refused (exit 1)."""
    return [
        [
            "sw",
            "--algebra",
            "F(%s)" % ",".join("sqrt(%s)" % m for m in ext),
            "--model",
            model,
            "--max-degree",
            "2",
            *extra,
        ]
        for model in ("closed", "euclidean", "generic")
        for k in (2, 3)
        for ext in itertools.product(classes, repeat=k)
        for extra in ([], ["--json"])
    ]


def many_roots_requests(classes):
    """sw over one factor whose square roots are the first s classes of each
    rotation of `classes`, for s = 4..8, in the closed, euclidean and generic
    models, with and without --json; a dependent subproduct is refused
    (exit 1)."""
    return [
        [
            "sw",
            "--algebra",
            "F(%s)" % ",".join("sqrt(%s)" % m for m in (classes[i:] + classes[:i])[:s]),
            "--model",
            model,
            *extra,
        ]
        for model in ("closed", "euclidean", "generic")
        for s in range(4, 9)
        for i in range(len(classes))
        for extra in ([], ["--json"])
    ]


def power_requests(classes):
    """sw --max-degree 0..12 over products of two to four factors, in the
    closed, euclidean and generic models, with and without --json.  Product
    i of f factors takes its j-th factor's 1 + (i + j) % 3 roots from the
    classes, cyclically, starting at i + 2*j, with multiplicity
    1 + (i + 3*j) % 7."""
    n = len(classes)
    algebras = [
        " * ".join(
            "F(%s)^%d"
            % (
                ",".join(
                    "sqrt(%s)" % classes[(i + 2 * j + r) % n] for r in range(1 + (i + j) % 3)
                ),
                1 + (i + 3 * j) % 7,
            )
            for j in range(f)
        )
        for f in (2, 3, 4)
        for i in range(n)
    ]
    return [
        ["sw", "--algebra", alg, "--model", model, "--max-degree", str(d), *extra]
        for model in ("closed", "euclidean", "generic")
        for alg in algebras
        for d in range(13)
        for extra in ([], ["--json"])
    ]


def residue_requests(classes):
    """residue --at a of the symbol {c1,...,ck} for k = 1..3 over every ordered
    choice of classes, repeats included, in the closed, euclidean and generic
    models, with and without --json."""
    return [
        [
            "residue",
            "--expr",
            "{%s}" % ",".join(entries),
            "--at",
            "a",
            "--model",
            model,
            *extra,
        ]
        for model in ("closed", "euclidean", "generic")
        for k in (1, 2, 3)
        for entries in itertools.product(classes, repeat=k)
        for extra in ([], ["--json"])
    ]


# (name, requests, recorded sha256).  The three lines families use the nine
# worksheet names a, b, c, p, q, r, t, u, w, and names that once also named
# the square roots (x, y, z, v, w, x2, y2, z2).
FAMILIES = (
    (
        "lines --certificate",
        lines_requests("abcpqrtuw", "--certificate"),
        "eea619a72155f2ef8c98444fd0d20def0024cd2b2a0f14a0566dca6a76ef4483",
    ),
    (
        "lines --verify-position",
        lines_requests("abcpqrtuw", "--verify-position"),
        "8dabb85a8592f6babf7d79a50d79065ac11d8c8cd6de003618e1655a1a9e41ad",
    ),
    (
        "lines --verify-position, root-like names",
        lines_requests(
            ["a", "b", "x", "y", "z", "v", "w", "x2", "y2", "z2"], "--verify-position"
        ),
        "19c46222109f98895f50b65c4311a7239a5da08a4dc9939049ab598141e41897",
    ),
    (
        "classz and classd",
        class_requests(),
        "2849e886a93abf1911cd229758b96388d2265c9aead4013b5d50e42740413c7a",
    ),
    (
        "classd at 50-, 100- and 301-digit d",
        big_classd_requests(),
        "c9eaced1e414be6dd5bbfb94ae0c21091fd30f449d9c986e640b79b2bd7942eb",
    ),
    (
        "sw, one factor of two or three roots",
        sw_requests(("a", "b", "a*b", "-1", "-a", "2", "-2*b")),
        "aafebbee3c73b944a04aa15cf2b3d31ad2cbddef31540280f944d41c24946c8b",
    ),
    (
        "residue at a, one to three classes",
        residue_requests(("a", "b", "a*b", "-1", "-a", "2", "-2*b", "4", "8*a")),
        "8d3d7ddead99a53b7a5f82930895ea57fca5723ea208cd4c0814183c382f9396",
    ),
    (
        "sw, one factor of four to eight roots",
        many_roots_requests(("a", "b", "-c", "2*d", "e", "-1", "2", "a*b*c*d*e")),
        "8f7b63606cd80c686f4db3d7a2d6605df2c8f8258ff9d2c0915a0f2841621f4f",
    ),
    (
        "sw to degree 0..12, two to four factors",
        power_requests(("a", "-b", "2*c", "d", "-e", "a*b", "2*c*d", "-a*e", "b*c*d*e")),
        "b586aec04291c6021548dbcd5ad0b9b0bedd3b942b6f9dd51e57a0352fb7d1f0",
    ),
)


def digest(requests):
    """The sha256 of the records of requests, run in order."""
    h = hashlib.sha256()
    for argv in requests:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        text = out.getvalue()
        if "--json" in argv and text:
            doc = json.loads(text)
            doc.pop("elapsed")
            text = json.dumps(doc, sort_keys=True) + "\n"
        h.update(("%sexit %d\n%s" % (text, code, err.getvalue())).encode())
    return h.hexdigest()


def run():
    failed = 0
    for name, requests, recorded in FAMILIES:
        got = digest(requests)
        ok = got == recorded
        failed += not ok
        print("%-40s %5d %s %s" % (name, len(requests), got, "ok" if ok else "MISMATCH"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
