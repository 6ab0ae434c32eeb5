"""The Weyl group of a subsystem view, enumerated element by element.

The library never builds the group and stores no reflection matrix: it
walks orbits by simple reflections written through the simple coroots and
keeps only the diagram involution of the longest element.  The tests
compare it against the enumeration here, which builds the simple
reflections as matrices from the Cartan matrix, closes the view's under
products on coweight coordinates and, in parallel, on simple-root
coordinates (where each simple reflection acts by the transposed matrix),
and counts for each element the subsystem positive roots it makes negative.

The dot-action straightening here walks every point to the dominant chamber
with its sign and only then tests the final point for a wall, term by term;
the library's ``klimyk`` stops at the first point of its walk that a simple
reflection fixes, reads each point from a memo, and sums as it goes.

Orbits here are searched breadth first from the given point, uncached, and
weight tables take two passes: Freudenthal's recursion over the dominant
weights, then a second walk of every orbit to expand them.  The library
walks each orbit once per view from its dominant point, and builds the table
within its Freudenthal pass.
"""

from functools import lru_cache
from typing import NamedTuple

from heckebranch.characters import dominant_support
from heckebranch.rootdata import (
    mat_apply,
    pairing,
    root_datum,
    vec_add,
    vec_scale,
    vec_sub,
)


def mat_mul(x, y):
    n = len(x)
    return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def reflections(cartan) -> dict:
    """The simple reflections on coweight coordinates, keyed by 1-based
    index: the j-th is x -> x - x[j-1] * (j-th column of the Cartan
    matrix)."""
    n = len(cartan)
    return {j: tuple(tuple(int(i == k) - (k == j - 1) * cartan[i][j - 1]
                           for k in range(n)) for i in range(n))
            for j in range(1, n + 1)}


def positive_roots(cartan) -> list:
    """The positive (root, coroot) pairs, closed from the simple ones under
    the reflection matrices (transposed on simple-root coordinates) and
    sorted by (height, root)."""
    n = len(cartan)
    refl = [(tuple(zip(*s)), s) for s in reflections(cartan).values()]
    simple = [(tuple(int(i == j) for i in range(n)),
               tuple(row[j] for row in cartan)) for j in range(n)]
    pairs = set(simple)
    frontier = simple
    while frontier:
        nxt = []
        for root, coroot in frontier:
            for s_rt, s in refl:
                p = (mat_apply(s_rt, root), mat_apply(s, coroot))
                if p not in pairs:
                    pairs.add(p)
                    nxt.append(p)
        frontier = nxt
    return sorted((p for p in pairs if min(p[0]) >= 0),
                  key=lambda p: (sum(p[0]), p[0]))


class WeylGroup(NamedTuple):
    elements: tuple        # matrices on coweight coordinates, sorted
    root_elements: tuple   # the same elements on simple-root coordinates
    lengths: tuple         # subsystem positive roots each element inverts


@lru_cache(maxsize=None)
def group(view) -> WeylGroup:
    """The Weyl group of a view, cached per view."""
    n = view.ambient_rank
    refl = reflections(root_datum(view.key[0]).cartan_matrix)
    refl_rt = {i: tuple(zip(*refl[i])) for i in view.indices}
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    elements = {ident: ident}
    frontier = [(ident, ident)]
    while frontier:
        nxt = []
        for (a, r) in frontier:
            for i in view.indices:
                a2 = mat_mul(a, refl[i])
                if a2 not in elements:
                    r2 = mat_mul(r, refl_rt[i])
                    elements[a2] = r2
                    nxt.append((a2, r2))
        frontier = nxt
    elems = sorted(elements.items())
    lengths = tuple(sum(1 for root in view.positive_roots
                        if any(v < 0 for v in mat_apply(r, root)))
                    for (_, r) in elems)
    return WeylGroup(tuple(a for (a, _) in elems),
                     tuple(r for (_, r) in elems), lengths)


def order(view) -> int:
    return len(group(view).elements)


def longest_element(datum):
    """The element of the full group inverting every positive root."""
    g = group(datum.full)
    return g.elements[g.lengths.index(len(datum.full.positive_roots))]


def dominate_with_sign(view, x):
    """The view-dominant point of the orbit of x and the determinant sign of
    the minimal-length view Weyl element carrying x there.  The sign is only
    meaningful for view-regular x."""
    x = tuple(x)
    sign = 1
    coroots = view.simple_coroots
    while True:
        for i in view.indices:
            c = x[i - 1]
            if c < 0:
                x = tuple([a - c * b for a, b in zip(x, coroots[i])])
                sign = -sign
                break
        else:
            return x, sign


def dot_straighten(view, top, weights):
    """Klimyk's dot-action straightening by the full walk: the terms
    (highest weight, sign, coefficient) of ``weights`` whose walked point
    top + w + rho_hat, in doubled coordinates, ends off the view's walls."""
    shift = view.two_rho_hat
    base = [2 * a + s for a, s in zip(top, shift)]
    walls = [i - 1 for i in view.indices]
    for w, m in weights.items():
        dom, sign = dominate_with_sign(
            view, tuple([b + 2 * a for b, a in zip(base, w)]))
        if all(dom[i] for i in walls):
            yield tuple([(d - s) // 2 for d, s in zip(dom, shift)]), sign, m


def klimyk(view, top, weights):
    """The terms of ``dot_straighten``, each coefficient summed with its
    sign into its highest weight's, without zero sums."""
    out = {}
    for kappa, sign, m in dot_straighten(view, top, weights):
        out[kappa] = out.get(kappa, 0) + sign * m
    return {kappa: m for kappa, m in out.items() if m}


def tagged(weights):
    """The weights of ``weights`` with distinct powers of 3 as coefficients.
    A signed sum of distinct powers of 3 names its terms and their signs
    (balanced ternary is unique), so ``klimyk`` of this table equals the
    oracle's only if every term reaches the same highest weight with the
    same sign."""
    out, p = {}, 1
    for w in weights:
        out[w] = p
        p *= 3
    return out


def orbit(view, x):
    """The view orbit of x, searched breadth first from x under every simple
    reflection of the view, fixing ones included.  Not cached."""
    x = tuple(x)
    seen = {x}
    frontier = [x]
    while frontier:
        nxt = []
        for y in frontier:
            for i in view.indices:
                z = tuple(a - y[i - 1] * b
                          for a, b in zip(y, view.simple_coroots[i]))
                if z not in seen:
                    seen.add(z)
                    nxt.append(z)
        frontier = nxt
    return frozenset(seen)


def weight_table(view, mu):
    """The weight table of the module at the view-dominant mu in two passes:
    Freudenthal's recursion over the dominant weights, reading the weights
    above each one from the orbits of those already done, then every
    dominant weight's orbit walked again to expand the table."""
    mu = tuple(mu)
    ordered = sorted(dominant_support(view, mu),
                     key=lambda x: (-pairing(view.two_rho, x), x))
    shift = vec_add(mu, view.two_rho_hat)
    mults, orbit_mult = {}, {}
    for kappa in ordered:
        val = 1
        if kappa != mu:
            acc = 0
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
            denom = view.bilinear(vec_sub(mu, kappa), vec_add(shift, kappa))
            val, rem = divmod(2 * acc, denom)
            assert not rem
        mults[kappa] = val
        for y in orbit(view, kappa):
            orbit_mult[y] = val
    table = {}
    for kappa, m in mults.items():
        for y in orbit(view, kappa):
            table[y] = m
    return table
