"""Reference computations the tests compare the package against.

They share nothing with the fast paths they check: a power by plain
ring multiplication checks the Frobenius dilation and the quotient's
power residues.
"""

from polymix import LaurentPoly, one


def poly_pow(g: LaurentPoly, n: int) -> LaurentPoly:
    """g**n by repeated squaring (n >= 0)."""
    if n < 0:
        raise ValueError("negative powers are not defined for general polynomials")
    result = one(g.p, g.dim)
    base = g
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result
