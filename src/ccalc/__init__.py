"""ccalc: exact worksheets for equivariant classes of singular plane-curve loci,
mod-2 Milnor symbols, trace-form invariants of etale algebras, the 27-lines
Galois bookkeeping, and the abelian-group descriptors they feed."""

__version__ = "0.1.0"


class CcalcError(Exception):
    """The root of the errors ccalc raises; a parse error is a builtin
    SyntaxError instead, which carries its position."""
