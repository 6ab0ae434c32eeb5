"""Torus constant terms of A1 from a count of lattices in the building.

The vertices of the Bruhat-Tits building of GL_2 over Q_p are lattices L in
Q_p^2 (over F_p[[t]] the counts are the same, Hall's polynomials).  Each L
between p^k Z_p^2 and Z_p^2 has one basis in Hermite normal form, the
columns (p^a1, 0) and (x, p^b1) with 0 <= x < p^a1.  Its elementary
divisors are p^b and p^a, with b = min(a1, b1, v(x)) and a = a1 + b1 - b.
Its relative position to Z_p^2 is the A1 coweight mu = a - b, and its
position on the Borel's flag, the pair L cap Q_p e_1 = p^a1 Z_p and the
image p^b1 Z_p of L in Q_p e_2, is the torus coweight lam = a1 - b1.

For a fixed a + b the number of lattices at (mu, lam) is
f = v^<2rho, lam> c_mu(lam) at v = sqrt(p), with c the torus constant-term
coefficient.  Nothing here is shared with ``heckebranch.hecke``.
"""


def valuation(x: int, p: int, cap: int) -> int:
    """The p-adic valuation of x, at most cap (that of 0)."""
    e = 0
    while e < cap and x % p == 0:
        x //= p
        e += 1
    return e


def torus_counts(p: int, k: int) -> dict:
    """{(mu, lam, a + b): the number of lattices between p^k Z_p^2 and
    Z_p^2 in that position}, for a prime p."""
    out: dict = {}
    for a1 in range(k + 1):
        for b1 in range(k + 1):
            for x in range(p ** a1):
                b = min(a1, b1, valuation(x, p, a1))
                a = a1 + b1 - b
                if a <= k:
                    key = (a - b, a1 - b1, a + b)
                    out[key] = out.get(key, 0) + 1
    return out
