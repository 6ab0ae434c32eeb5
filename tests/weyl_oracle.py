"""The Weyl group of a subsystem view, enumerated element by element.

The library never builds the group: it walks orbits by simple reflections
and keeps only the longest element.  The tests compare it against the
enumeration here, which closes the view's simple reflections under products
as matrices on coweight coordinates and, in parallel, on simple-root
coordinates (where each simple reflection acts by the transposed matrix),
and counts for each element the subsystem positive roots it makes negative.
"""

from functools import lru_cache
from typing import NamedTuple

from heckebranch.rootdata import mat_apply, mat_mul


class WeylGroup(NamedTuple):
    elements: tuple        # matrices on coweight coordinates, sorted
    root_elements: tuple   # the same elements on simple-root coordinates
    lengths: tuple         # subsystem positive roots each element inverts


@lru_cache(maxsize=None)
def group(view) -> WeylGroup:
    """The Weyl group of a view, cached per view."""
    n = view.ambient_rank
    refl_rt = {i: tuple(zip(*view.reflections[i])) for i in view.indices}
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    elements = {ident: ident}
    frontier = [(ident, ident)]
    while frontier:
        nxt = []
        for (a, r) in frontier:
            for i in view.indices:
                a2 = mat_mul(a, view.reflections[i])
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
    return g.elements[g.lengths.index(len(datum.positive_roots))]
