"""Root data for the irreducible Cartan types at desk-scale rank.

Conventions, fixed once here and relied on everywhere else:

* A coweight is a tuple of integers in fundamental-coweight coordinates,
  so ``nu[i]`` equals the pairing of the (i+1)-th simple root with ``nu``.
  Path vertices at the path API use the same coordinates with ``Fraction``
  entries; the path model itself works with integer multiples of its
  vertices on a time grid.
* A root is a tuple of integers in simple-root coordinates.  The pairing
  of a root with a coweight is the plain dot product of the two tuples.
* The coroot of the j-th simple root has fundamental-coweight coordinates
  equal to the j-th column of the Cartan matrix ``C[i][j] = <alpha_i, alpha_j^vee>``.
* Simple-root indices in the public API are 1-based (Bourbaki numbering).
* Weyl orbits and dominant representatives are walked one simple
  reflection at a time, each written through its simple coroot,
  ``x -> x - x[i-1] * (i-th simple coroot)``, skipping any reflection that
  fixes the point; a root is reflected by ``r -> r - <r, c_j> e_j``.  Each
  orbit is walked once per view and memoized under the view and its
  dominant point.  No Weyl group element is stored: the only trace of the
  longest one, ``w_0``, is the diagram involution ``star``, the permutation
  of the simple roots by ``-w_0``.

Supported type/rank pairs: A1..A6, B2..B5, C2..C5, D4, D5, F4, G2.  Everything
is exact, and no floats appear anywhere.  Coroot coordinates are integer:
each datum carries the integer adjugate of its Cartan matrix and its
determinant, and ``coroot_numerators`` memoizes ``adj @ x`` per datum for
the Hecke layer's dominance tests, which read its signs and residues.
``root_datum`` and ``levi_view`` hand out one object per type and per
Levi, and every memo here is ``functools.cache`` keyed by those objects,
whose equality and hash are identity.  Heights are compared through the
integer pairing with the sum of positive roots.  The dominance order on
dominant coweights, which no sweep reads, lives in the test oracle
``tests/fraction_oracle.py``.
Half-sums are kept doubled, as the integer sums ``two_rho`` and
``two_rho_hat``.  ``RootDatum`` and ``SubsystemView`` are plain read-only
classes, and ``rho_height``, the one function here that returns a
``Fraction``, imports it when called, so importing this module loads
neither ``dataclasses`` nor ``fractions``.
"""

from __future__ import annotations

from functools import cache
from math import lcm
from operator import add, mul, sub
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import ConfigurationError, DomainError

if TYPE_CHECKING:
    from fractions import Fraction

Coweight = tuple[int, ...]
# rational coweight coordinates: path vertices at the path API
RatVec = tuple["Fraction", ...]
Root = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]

_SUPPORTED_RANKS = {"A": range(1, 7), "B": range(2, 6), "C": range(2, 6),
                    "D": range(4, 6), "F": range(4, 5), "G": range(2, 3)}


def vec_add(x: Sequence, y: Sequence) -> tuple:
    return tuple(map(add, x, y))


def vec_sub(x: Sequence, y: Sequence) -> tuple:
    return tuple(map(sub, x, y))


def vec_scale(c, x: Sequence) -> tuple:
    return tuple(c * a for a in x)


def mat_apply(m: Sequence[Sequence], v: Sequence) -> tuple:
    return tuple([sum(map(mul, row, v)) for row in m])


def _minor(m: Sequence[Sequence[int]], i: int, j: int) -> Matrix:
    return tuple(row[:j] + row[j + 1:] for k, row in enumerate(m) if k != i)


def _det(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by cofactor expansion (rank is
    at most six here)."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det(_minor(m, 0, j))
               for j in range(len(m)) if m[0][j])


def _adjugate(m: Sequence[Sequence[int]]) -> Matrix:
    """Integer adjugate: ``adj @ m == det(m) * identity``."""
    n = len(m)
    return tuple(tuple((-1) ** (i + j) * _det(_minor(m, j, i)) for j in range(n))
                 for i in range(n))


def cartan_matrix(letter: str, rank: int) -> Matrix:
    """Cartan matrix with entries C[i][j] = <alpha_i, alpha_j^vee>."""
    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def edge(i: int, j: int) -> None:
        c[i][j] = c[j][i] = -1

    if letter == "A":
        for i in range(rank - 1):
            edge(i, i + 1)
    elif letter == "B":
        # short last simple root
        for i in range(rank - 2):
            edge(i, i + 1)
        c[rank - 2][rank - 1] = -2
        c[rank - 1][rank - 2] = -1
    elif letter == "C":
        # long last simple root
        for i in range(rank - 2):
            edge(i, i + 1)
        c[rank - 2][rank - 1] = -1
        c[rank - 1][rank - 2] = -2
    elif letter == "D":
        for i in range(rank - 2):
            edge(i, i + 1)
        edge(rank - 3, rank - 1)
    elif letter == "F":
        c = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
    elif letter == "G":
        c = [[2, -1], [-3, 2]]
    else:
        raise ConfigurationError(f"unknown type letter {letter!r}")
    return tuple(tuple(row) for row in c)


class _ReadOnly:
    """Fields are the class's annotated names, all given by keyword to
    ``__init__`` and read-only after it: assigning or deleting one raises
    ``AttributeError``.  Equality is identity."""

    def __init__(self, **fields):
        if fields.keys() != type(self).__annotations__.keys():
            raise TypeError(f"{type(self).__name__} takes the fields "
                            f"{list(type(self).__annotations__)}")
        self.__dict__.update(fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only")


class SubsystemView(_ReadOnly):
    """A root subsystem (the full system, or the span of a subset of simple roots)
    with the action of its Weyl group on the ambient coweight coordinates,
    one simple reflection at a time.

    ``indices`` are the 1-based simple-root indices generating the subsystem;
    ``simple_coroots`` maps every ambient 1-based index to its simple coroot,
    the column of the Cartan matrix; it is read-only and shared by every
    view of the datum.
    """

    key: tuple
    indices: tuple[int, ...]
    ambient_rank: int
    positive_roots: tuple[Root, ...]
    positive_coroots: tuple[Coweight, ...]
    simple_coroots: Mapping[int, Coweight]
    two_rho_hat: Coweight      # sum of the subsystem's positive coroots
    two_rho: Root              # sum of the subsystem's positive roots
    form: tuple[tuple[int, ...], ...]

    def is_dominant(self, x: Sequence) -> bool:
        for i in self.indices:
            if x[i - 1] < 0:
                return False
        return True

    def dominate(self, x: Sequence) -> tuple:
        """The unique subsystem-dominant point of the orbit of x."""
        x = tuple(x)
        coroots = self.simple_coroots
        while True:
            for i in self.indices:
                c = x[i - 1]
                if c < 0:
                    x = tuple([a - c * b for a, b in zip(x, coroots[i])])
                    break
            else:
                return x

    def orbit(self, x: Sequence) -> frozenset:
        """The subsystem Weyl orbit of x, cached: walked once per view from
        its dominant point, skipping any reflection that fixes a point."""
        return _orbit(self, self.dominate(x))

    def bilinear(self, x: Sequence, y: Sequence):
        """Weyl-invariant form on coweight coordinates (sum over positive roots
        of the ambient system of products of pairings)."""
        n = self.ambient_rank
        return sum(self.form[i][j] * x[i] * y[j]
                   for i in range(n) for j in range(n) if self.form[i][j])


class RootDatum(_ReadOnly):
    """An irreducible root datum with the full coweight lattice as cocharacters.

    Fields are all derived from the Cartan matrix at construction time and
    validated by the test suite against classical tables (root counts,
    Weyl group orders, highest-root coefficients).
    """

    cartan_type: str
    letter: str
    rank: int
    cartan_matrix: Matrix
    positive_roots: tuple[Root, ...]
    positive_coroots: tuple[Coweight, ...]
    highest_root: Root
    # integer adjugate and determinant of the Cartan matrix: adj @ x is det
    # times the coefficients of x over the simple coroots
    cartan_adjugate: Matrix
    cartan_det: int
    form: tuple[tuple[int, ...], ...]
    # the diagram involution: -w_0 carries the i-th fundamental coweight to
    # the star[i]-th, 0-based
    star: tuple[int, ...]
    full: SubsystemView


def _build_view(key: tuple, ambient_rank: int, indices: tuple[int, ...],
                positive: list[tuple[Root, Coweight]], coroots: Mapping,
                form) -> SubsystemView:
    sub_pos = [(r, c) for (r, c) in positive
               if all(r[i] == 0 for i in range(ambient_rank) if (i + 1) not in indices)]
    two_rho = tuple(sum(r[i] for (r, _) in sub_pos) for i in range(ambient_rank))
    two_rho_hat = tuple(sum(c[j] for (_, c) in sub_pos)
                        for j in range(ambient_rank))
    return SubsystemView(
        key=key, indices=indices, ambient_rank=ambient_rank,
        positive_roots=tuple(r for (r, _) in sub_pos),
        positive_coroots=tuple(c for (_, c) in sub_pos),
        simple_coroots=coroots,
        two_rho_hat=two_rho_hat, two_rho=two_rho, form=form,
    )


@cache
def _orbit(view: SubsystemView, top: Coweight) -> frozenset:
    seen = {top}
    frontier = [top]
    coroots = view.simple_coroots
    while frontier:
        nxt = []
        for y in frontier:
            for i in view.indices:
                c = y[i - 1]
                if not c:
                    continue
                z = tuple([a - c * b for a, b in zip(y, coroots[i])])
                if z not in seen:
                    seen.add(z)
                    nxt.append(z)
        frontier = nxt
    return frozenset(seen)


@cache
def _build(letter: str, rank: int) -> RootDatum:
    if letter not in _SUPPORTED_RANKS or rank not in _SUPPORTED_RANKS[letter]:
        supported = ", ".join(
            f"{t}{r[0]}" + (f"-{t}{r[-1]}" if len(r) > 1 else "")
            for t, r in _SUPPORTED_RANKS.items())
        raise ConfigurationError(
            f"unsupported type {letter}{rank}; supported: {supported}")
    cm = cartan_matrix(letter, rank)
    coroots = MappingProxyType({j + 1: tuple(row[j] for row in cm)
                                for j in range(rank)})

    # the simple reflection at coordinate j (0-based) with coroot c:
    # x -> x - x[j] c on a coroot and r -> r - <r, c> e_j on a root.
    # Every finite type has at most 4 rank^2 roots (E8: 240 <= 256); the
    # closure of a Cartan matrix of infinite type never ends
    bound = 4 * rank * rank
    pairs = set()
    frontier = []
    for i in range(rank):
        root = tuple(1 if k == i else 0 for k in range(rank))
        pairs.add((root, coroots[i + 1]))
        frontier.append((root, coroots[i + 1]))
    while frontier:
        if len(pairs) > bound:
            raise AssertionError(
                f"root enumeration of {letter}{rank} passed {bound} roots: "
                "its Cartan matrix is not of finite type")
        nxt = []
        for (root, coroot) in frontier:
            for j, c in enumerate(coroots.values()):
                r = list(root)
                r[j] -= pairing(root, c)
                p = (tuple(r), tuple([a - coroot[j] * b
                                      for a, b in zip(coroot, c)]))
                if p not in pairs:
                    pairs.add(p)
                    nxt.append(p)
        frontier = nxt
    positive = sorted((p for p in pairs if all(v >= 0 for v in p[0])),
                      key=lambda p: (sum(p[0]), p[0]))
    if 2 * len(positive) != len(pairs):
        raise AssertionError("root enumeration lost the positive/negative split")

    form = tuple(tuple(sum(r[i] * r[j] for (r, _) in positive) for j in range(rank))
                 for i in range(rank))
    view = _build_view((f"{letter}{rank}", tuple(range(1, rank + 1))), rank,
                       tuple(range(1, rank + 1)), positive, coroots, form)
    # -w_0 carries the antidominant -e_i to a dominant fundamental coweight
    star = tuple(view.dominate(tuple(-(k == i) for k in range(rank))).index(1)
                 for i in range(rank))
    return RootDatum(
        cartan_type=f"{letter}{rank}", letter=letter, rank=rank, cartan_matrix=cm,
        positive_roots=tuple(r for (r, _) in positive),
        positive_coroots=tuple(c for (_, c) in positive),
        highest_root=positive[-1][0],
        cartan_adjugate=_adjugate(cm), cartan_det=_det(cm), form=form,
        star=star, full=view,
    )


def root_datum(type_str: str) -> RootDatum:
    """Parse a type string like ``"A2"`` or ``"G2"`` and build its root datum."""
    s = type_str.strip().upper()
    if len(s) < 2 or not s[0].isalpha() or not s[1:].isdigit():
        raise ConfigurationError(f"malformed Cartan type {type_str!r}")
    return _build(s[0], int(s[1:]))


def levi_view(datum: RootDatum, indices: Iterable[int]) -> SubsystemView:
    idx = tuple(sorted(set(int(i) for i in indices)))
    if any(i < 1 or i > datum.rank for i in idx):
        raise ConfigurationError(f"Levi indices {idx} out of range 1..{datum.rank}")
    if idx == tuple(range(1, datum.rank + 1)):
        return datum.full
    return _levi_view(datum, idx)


@cache
def _levi_view(datum: RootDatum, idx: tuple[int, ...]) -> SubsystemView:
    positive = list(zip(datum.positive_roots, datum.positive_coroots))
    return _build_view((datum.cartan_type, idx), datum.rank, idx, positive,
                       datum.full.simple_coroots, datum.form)


def pairing(root: Sequence, coweight: Sequence):
    """<root, coweight>: dot product in the fixed coordinates."""
    return sum(map(mul, root, coweight))


def rho_height(datum: RootDatum, coweight: Sequence) -> Fraction:
    """<rho, nu> with rho the half-sum of positive roots.  A half-integer in
    general; integral on the coroot lattice.  Integer comparisons of heights
    use ``pairing(datum.full.two_rho, nu)``, twice this value."""
    from fractions import Fraction

    return Fraction(pairing(datum.full.two_rho, coweight), 2)


def k_phi(datum: RootDatum) -> int:
    """lcm of the highest root's coefficients over the simple roots."""
    return lcm(*datum.highest_root)


def dual_star(datum: RootDatum, x: Sequence) -> tuple:
    """x* = -w_0(x); an involution permuting dominant coweights, which reads
    coordinates through the diagram involution ``datum.star``."""
    return tuple([x[j] for j in datum.star])


@cache
def coroot_numerators(datum: RootDatum, x: Coweight) -> tuple:
    """The integer coroot numerators ``adj @ x`` of the integer coweight x:
    det times its coefficients over the simple coroots.  By linearity x is
    at or above y in dominance exactly when the numerators of x minus those
    of y are nonnegative and divisible by det.  Memoized per root datum; the
    tuples handed out are read-only."""
    return mat_apply(datum.cartan_adjugate, x)


def weyl_dim(view: SubsystemView, mu: Sequence) -> int:
    """Dimension of the irreducible of highest weight mu for the dual group of
    the subsystem (Weyl's formula over the subsystem's positive roots, with the
    half-sum of positive coroots as the shift).  Evaluated in doubled integer
    coordinates: prod <a, 2mu + 2rho_hat> divided exactly by
    prod <a, 2rho_hat>, and memoized per view and mu."""
    return _weyl_dim(view, tuple(mu))


@cache
def _weyl_dim(view: SubsystemView, mu: Coweight) -> int:
    if not view.is_dominant(mu):
        raise DomainError(f"{mu} is not dominant for {view.key}")
    shift = view.two_rho_hat
    shifted = tuple(2 * v + s for v, s in zip(mu, shift))
    num = den = 1
    for a in view.positive_roots:
        num *= pairing(a, shifted)
        den *= pairing(a, shift)
    d, rem = divmod(num, den)
    if rem:
        raise AssertionError("Weyl dimension came out non-integral")
    return d


def parse_coweight(text: str, rank: int) -> Coweight:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError as e:
        raise ConfigurationError(f"bad coweight {text!r}: {e}") from None
    if len(parts) != rank:
        raise ConfigurationError(f"coweight {text!r} has {len(parts)} coordinates, expected {rank}")
    return parts
