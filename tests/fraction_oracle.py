"""Reference route for coroot coordinates and weight multiplicities in
``Fraction`` arithmetic.

Coroot coefficients come from the rational inverse of the Cartan matrix (the
fundamental weights, by Gauss-Jordan elimination), and the hull,
coroot-lattice and dominance tests read their signs and denominators.  The
Freudenthal recursion runs with the half-sum ``rho_hat`` of positive coroots, orders the weights by the sum of
their coroot coefficients over the view's simple coroots, and divides in
``Fraction``s.  Independent of the integer adjugate and the doubled
coordinates that the library uses, so the tests compare the two.
"""

from fractions import Fraction

from heckebranch.rootdata import vec_add, vec_scale, vec_sub
from peel_oracle import fundamental_weights, solve_exact


def rho_hat(view) -> tuple:
    """Half the sum of the view's positive coroots."""
    return tuple(Fraction(c, 2) for c in view.two_rho_hat)


def coroot_coefficients(datum, x) -> tuple:
    inv = fundamental_weights(datum)
    # <omega_i, x> reads the i-th coroot coefficient
    return tuple(sum(inv[i][j] * Fraction(x[j]) for j in range(datum.rank))
                 for i in range(datum.rank))


def leq_dominance(datum, lower, upper) -> bool:
    cc = coroot_coefficients(datum, vec_sub(upper, lower))
    return all(c >= 0 and c.denominator == 1 for c in cc)


def in_coroot_lattice(datum, x) -> bool:
    return all(c.denominator == 1 for c in coroot_coefficients(datum, x))


def in_hull(datum, x, mu) -> bool:
    cc = coroot_coefficients(datum, vec_sub(mu, datum.full.dominate(x)))
    return all(c >= 0 for c in cc)


def _simple_coroots(view) -> list:
    # ambient coordinates of the view's simple coroots, ordered by indices
    simple = {r.index(1) + 1: c for r, c in zip(view.positive_roots,
                                                view.positive_coroots)
              if sum(r) == 1}
    return [simple[i] for i in view.indices]


def view_coroot_coefficients(view, x):
    """Coefficients of x over the view's simple coroots, or None when x is
    outside their span."""
    if not view.indices:
        return None if any(v != 0 for v in x) else ()
    cols = _simple_coroots(view)
    cm = [[cols[b][i - 1] for b in range(len(cols))] for i in view.indices]
    sol = tuple(v for (v,) in solve_exact(
        cm, [(x[i - 1],) for i in view.indices]))
    recon = [Fraction(0)] * view.ambient_rank
    for c, col in zip(sol, cols):
        for k in range(view.ambient_rank):
            recon[k] += c * col[k]
    if any(recon[k] != x[k] for k in range(view.ambient_rank)):
        return None
    return sol


def dominant_weights(view, mu) -> dict:
    """The Freudenthal recursion with rho_hat shifts and a ``Fraction``
    accumulator; returns the multiplicities in the order computed."""
    mu = tuple(mu)
    found = {mu}
    frontier = [mu]
    while frontier:
        nxt = []
        for x in frontier:
            for cv in view.positive_coroots:
                y = vec_sub(x, cv)
                if y not in found and view.is_dominant(y):
                    found.add(y)
                    nxt.append(y)
        frontier = nxt

    def depth(x):
        return sum(view_coroot_coefficients(view, vec_sub(mu, x)), Fraction(0))

    ordered = sorted(found, key=lambda x: (depth(x), x))
    half = rho_hat(view)
    shifted_mu = vec_add(mu, half)
    norm_mu = view.bilinear(shifted_mu, shifted_mu)
    mults: dict = {}
    orbit_mult: dict = {}
    for kappa in ordered:
        if kappa == mu:
            val = 1
        else:
            acc = Fraction(0)
            for cv in view.positive_coroots:
                k = 1
                while True:
                    y = vec_add(kappa, vec_scale(k, cv))
                    m = orbit_mult.get(y)
                    if m is None:
                        dom = view.dominate(y)
                        if dom not in mults:
                            break
                        m = mults[dom]
                    acc += m * view.bilinear(y, cv)
                    k += 1
            shifted = vec_add(kappa, half)
            val = 2 * acc / (norm_mu - view.bilinear(shifted, shifted))
            assert val.denominator == 1
            val = int(val)
        mults[kappa] = val
        for y in view.orbit(kappa):
            orbit_mult[y] = val
    return mults
