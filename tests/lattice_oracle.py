"""Torus constant terms of A1 and A2 from a count of lattices in the building.

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

GL_3 is the same count one rank up.  A lattice between p^k Z_p^3 and Z_p^3
has one upper triangular basis in Hermite normal form: the diagonal is
p^a1, p^a2, p^a3, and each entry above it is reduced mod the diagonal entry
of its row.  Its elementary divisors p^e1 | p^e2 | p^e3 come from its
minors: e1 is the least valuation of an entry, e1 + e2 the least of a 2x2
minor, and e1 + e2 + e3 = a1 + a2 + a3.  The lattice contains p^k Z_p^3
exactly when e3 <= k.  In A2's fundamental coordinates its relative
position is mu = (e3 - e2, e2 - e1) and its position on the Borel's flag is
lam = (a1 - a2, a2 - a3), and the same f counts it.

The subgroups of the abelian p-group Z_p^n / diag(p^gamma_i) Z_p^n of type
gamma are the lattices M with diag(p^gamma_i) Z_p^n inside M inside Z_p^n,
each with one basis in the same Hermite normal form.  A subgroup's cotype
alpha is the elementary divisors of M, its type beta those of
diag(p^gamma_i) Z_p^n inside M; the count at (alpha, beta) is the Hall
number, the structure constant m of A_{n-1} at v = sqrt(p).
"""

import itertools


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


def a2_torus_counts(p: int, k: int) -> dict:
    """{(mu, lam, a1 + a2 + a3): the number of lattices between p^k Z_p^3
    and Z_p^3 in that position}, for a prime p."""
    out: dict = {}
    cap = 3 * k     # no least valuation of a minor here reaches above it
    pairs = ((0, 1), (0, 2), (1, 2))
    for a1, a2, a3 in itertools.product(range(k + 1), repeat=3):
        for x12, x13, x23 in itertools.product(
                range(p ** a1), range(p ** a1), range(p ** a2)):
            rows = ((p ** a1, x12, x13), (0, p ** a2, x23), (0, 0, p ** a3))
            e1 = min(valuation(x, p, cap) for row in rows for x in row)
            e12 = min(valuation(rows[i][c] * rows[j][d]
                                - rows[i][d] * rows[j][c], p, cap)
                      for i, j in pairs for c, d in pairs)
            size = a1 + a2 + a3
            e2, e3 = e12 - e1, size - e12
            if e3 <= k:
                key = ((e3 - e2, e2 - e1), (a1 - a2, a2 - a3), size)
                out[key] = out.get(key, 0) + 1
    return out


def _det(rows) -> int:
    """The determinant of a square integer matrix, by its first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * x * _det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


def _elementary_divisors(rows, p: int, cap: int) -> tuple:
    """The elementary divisor exponents of a nonsingular integer matrix over
    Z_p, largest first: e1 + ... + ek is the least valuation of a k x k
    minor, at most cap, and no such least valuation is above e1 + ... + en."""
    n = len(rows)
    sums = [0] + [min(valuation(_det([[rows[i][j] for j in cols]
                                      for i in picked]), p, cap)
                      for picked in itertools.combinations(range(n), k)
                      for cols in itertools.combinations(range(n), k))
                  for k in range(1, n + 1)]
    return tuple(sums[k] - sums[k - 1] for k in range(n, 0, -1))


def _solve_diagonal(m, diag, gamma, p: int):
    """The integer matrix y with m y = diag(p^gamma_j), m upper triangular
    with diagonal p^diag_i, by back substitution; None when y is not
    integral, that is when M does not hold diag(p^gamma_j) Z_p^n."""
    n = len(gamma)
    y = [[0] * n for _ in range(n)]
    for j in range(n):
        for i in range(j, -1, -1):
            rest = (p ** gamma[j] if i == j else 0) - sum(
                m[i][k] * y[k][j] for k in range(i + 1, j + 1))
            if rest % p ** diag[i]:
                return None
            y[i][j] = rest // p ** diag[i]
    return y


def hall_counts(gamma, p: int) -> dict:
    """{(alpha, beta): the number of subgroups of cotype alpha and type beta
    of the abelian p-group of type gamma}, for a prime p and a partition
    gamma with n parts; alpha and beta have n parts too."""
    n = len(gamma)
    cap = sum(gamma)
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out: dict = {}
    for diag in itertools.product(*(range(g + 1) for g in gamma)):
        for xs in itertools.product(*(range(p ** diag[i]) for i, _ in slots)):
            # the columns of m are M's basis
            m = [[p ** diag[i] if i == j else 0 for j in range(n)]
                 for i in range(n)]
            for (i, j), x in zip(slots, xs):
                m[i][j] = x
            y = _solve_diagonal(m, diag, gamma, p)
            if y is not None:
                key = (_elementary_divisors(m, p, cap),
                       _elementary_divisors(y, p, cap))
                out[key] = out.get(key, 0) + 1
    return out
