"""Weight multiplicities, tensor products, and Levi branching.

All modules here are representations of the dual group attached to a root
datum (or to a Levi subsystem of it), so "weights" are coweights of the
original datum and the roots acting on them are its coroots.  Multiplicities
come from the Freudenthal recursion run with the ambient Weyl-invariant form,
which restricts correctly to every Levi subsystem.  Tensor products and
restrictions are both decomposed by one step, ``klimyk``: a weight table is
shifted by a highest weight and straightened by the dot action, for a tensor
product by the full Weyl group (Klimyk's rule) and for a restriction by the
Levi's, at highest weight 0 (Brauer's rule).  A tensor product walks the
table of its factor of lower height, the pairing with the sum of positive
roots, and picks the factor of smaller Weyl dimension only when that table
is over the dimension cap.  Everything here is integer arithmetic: the
recursion orders weights by their pairing with the view's sum of positive
roots and divides exactly by
``<mu - kappa, mu + kappa + 2 rho_hat>``, and the Klimyk step works in doubled
coordinates.  Its walk to the dominant chamber reflects a list in place and
stops at the first point that a simple reflection fixes, since that term
straightens to zero.

Each orbit and table is built once per view, and each point walked once per
view and digit width.  Tables, tensor products, restrictions, coroot
strings and walk states are memoized by ``functools.cache`` on private
functions keyed by the view or datum object.  One cached Freudenthal pass
gives both ``dominant_weights`` and ``weight_table``, expanding each
dominant weight's orbit into the table as it goes.  It steps along each
coroot string kappa + k cv by adding cv to the point and (cv, cv) to its
pairing with cv, on forms built once per view.  Weight tables are
``PackedWeights``: they also hold each weight w packed into one integer, 2w
in signed digits of the width ``_width`` picks so that no two points share
one, so the doubled point 2(top + w) + 2 rho_hat of a term is one integer
addition.  ``klimyk`` keeps one memo per view and width, ``_walks``, from
that integer to the walk's result, its dominant highest weight and sign or
a wall, and walks a point only on a miss.  Tensor products, restrictions to
a Levi and ``hecke``'s Hall-Littlewood numerators share it.  The torus has
no simple roots, so it straightens nothing and builds no walk state: a
restriction to it (every orbit sum and torus constant term) is the weight
table itself.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cache
from itertools import chain
from types import MappingProxyType
from typing import Optional, Sequence

from .errors import DomainError, FeasibilityError
from .rootdata import (
    Coweight,
    RootDatum,
    SubsystemView,
    pairing,
    vec_add,
    vec_sub,
    weyl_dim,
)

DIMENSION_CAP = 200_000


def _pack(x: Sequence[int], bits: int) -> int:
    """x as one integer, its j-th coordinate the j-th signed base-2^bits
    digit.  Linear in x, and one to one on points whose coordinates all lie
    in [-2^(bits-1), 2^(bits-1))."""
    p = 0
    for a in reversed(x):
        p = (p << bits) + a
    return p


def _offset(bits: int, n: int) -> int:
    """Half the base in each of n digits: added to a packed point whose
    coordinates ``_pack`` holds, it makes every digit nonnegative."""
    return _pack([1 << (bits - 1)] * n, bits)


def _unpack(k: int, bits: int, n: int) -> list:
    """The n coordinates of the point packed as k - ``_offset(bits, n)``."""
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    return [((k >> s) & mask) - half for s in range(0, bits * n, bits)]


class PackedWeights(Mapping):
    """A read-only map weight -> coefficient that also holds each weight w
    packed as ``_pack(2w, bits)``, the form ``klimyk`` reads, once for each
    digit width asked for.  ``_reach`` bounds every coordinate of every
    weight.  Weights built packed (``hecke``'s numerators) are decoded from
    the width they were built at into the plain map only when it is first
    read."""

    __slots__ = ("_rank", "_reach", "_plain", "_packed")

    def __init__(self, rank: int, reach: int, plain: Optional[Mapping] = None,
                 bits: int = 0, packed: Sequence = ()):
        self._rank, self._reach, self._plain = rank, reach, plain
        self._packed = {bits: tuple(packed)} if plain is None else {}

    @classmethod
    def of(cls, weights: Mapping) -> "PackedWeights":
        """A map with tuple keys, read in place (not copied)."""
        return cls(len(next(iter(weights), ())),
                   max(map(abs, chain.from_iterable(weights)), default=0),
                   weights)

    def packed(self, bits: int) -> tuple:
        """The pairs (``_pack(2w, bits)``, coefficient), read-only."""
        pairs = self._packed.get(bits)
        if pairs is None:
            pairs = self._packed[bits] = tuple([
                (_pack(w, bits) << 1, m) for w, m in self._table().items()])
        return pairs

    def _table(self) -> dict:
        if self._plain is None:
            (bits, pairs), = self._packed.items()
            n = self._rank
            offset = _offset(bits, n)
            self._plain = {tuple(_unpack((k >> 1) + offset, bits, n)): m
                           for k, m in pairs}
        return self._plain

    def __getitem__(self, w):
        return self._table()[w]

    def __iter__(self):
        return iter(self._table())

    def __len__(self) -> int:
        return len(self._table())

    def items(self):
        return self._table().items()

    def __repr__(self) -> str:
        return f"PackedWeights({self._table()!r})"


def _width(reach: int) -> int:
    """The least power of two, at least 8, whose signed digits hold every
    coordinate of absolute value at most reach."""
    bits = 8
    while reach >> (bits - 1):
        bits *= 2
    return bits


@cache
def _walks(view: SubsystemView, bits: int) -> tuple:
    """The view's straightening state at a digit width: the ``_offset`` that
    memo keys carry, so a miss decodes by shifts and masks; the memo from a
    packed doubled point to its walk's result, (dominant highest weight,
    sign) or () on a wall; the pool in which equal results share one tuple;
    and the simple reflections as (index, nonzero coroot entries)."""
    coroots = view.simple_coroots
    reflect = tuple(
        (i - 1, tuple((j, c) for j, c in enumerate(coroots[i]) if c))
        for i in view.indices)
    return _offset(bits, view.ambient_rank), {}, {}, reflect


def _check_cap(view: SubsystemView, mu: Coweight) -> None:
    """The one test of ``DIMENSION_CAP``, made where a weight table or a
    crystal is built, before any other work: ``FeasibilityError`` when the
    module at mu is over it."""
    d = weyl_dim(view, mu)
    if d > DIMENSION_CAP:
        raise FeasibilityError(
            f"module of dimension {d} at highest weight {mu} exceeds the cap",
            DIMENSION_CAP)


def dominant_support(view: SubsystemView, mu: Coweight) -> frozenset:
    """The view-dominant weights of the irreducible module with highest
    weight mu, without multiplicities: every view-dominant weight reached
    from mu by stepping down positive coroots.  Needs no Freudenthal step,
    so it runs under no dimension cap."""
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
    return frozenset(found)


@cache
def _coroot_strings(view: SubsystemView) -> tuple:
    """The view's positive coroots cv, each with the vector form(., cv) and
    the number (cv, cv), so that (y, cv) is ``pairing(y, form(., cv))``.
    Built once per view."""
    strings = []
    for cv in view.positive_coroots:
        form_cv = tuple([pairing(row, cv) for row in view.form])
        strings.append((cv, form_cv, pairing(cv, form_cv)))
    return tuple(strings)


@cache
def _freudenthal(view: SubsystemView, mu: Coweight) -> tuple:
    """The view-dominant multiplicities and the full weight table of the
    irreducible module with highest weight mu, from one Freudenthal pass
    that expands each dominant weight's orbit into the table as it goes.
    Cached per view and mu; the dimension cap is checked on a miss."""
    if not view.is_dominant(mu):
        raise DomainError(f"{mu} is not dominant for {view.key}")
    _check_cap(view, mu)
    found = dominant_support(view, mu)

    # from mu down: the depth of x below mu (the sum of the coroot
    # coefficients of mu - x) is half the pairing of mu - x with two_rho
    two_rho = view.two_rho
    ordered = sorted(found, key=lambda x: (-pairing(two_rho, x), x))
    shift = vec_add(mu, view.two_rho_hat)
    strings = _coroot_strings(view)
    mults: dict[Coweight, int] = {}
    table: dict[Coweight, int] = {}
    for kappa in ordered:
        if kappa == mu:
            val = 1
        else:
            acc = 0
            for cv, form_cv, step in strings:
                # y = kappa + k cv for k = 1, 2, ..., and b = (y, cv); the
                # table holds every weight above kappa, and the weights on a
                # coroot string through kappa have no gap
                y = vec_add(kappa, cv)
                b = pairing(kappa, form_cv) + step
                m = table.get(y)
                while m is not None:
                    acc += m * b
                    y = vec_add(y, cv)
                    b += step
                    m = table.get(y)
            # |mu + rho_hat|^2 - |kappa + rho_hat|^2, in integers
            denom = view.bilinear(vec_sub(mu, kappa), vec_add(shift, kappa))
            val, rem = divmod(2 * acc, denom)
            if rem:
                raise AssertionError(
                    "Freudenthal produced a non-integer multiplicity")
        mults[kappa] = val
        for y in view.orbit(kappa):
            table[y] = val
    return MappingProxyType(mults), PackedWeights.of(table)


def dominant_weights(view: SubsystemView, mu: Coweight) -> Mapping[Coweight, int]:
    """Multiplicities of the view-dominant weights of the irreducible module
    with highest weight mu, by the Freudenthal recursion.  Read-only."""
    return _freudenthal(view, tuple(mu))[0]


def weight_table(view: SubsystemView, mu: Coweight) -> PackedWeights:
    """Every weight of the irreducible module with highest weight mu, with
    multiplicity (the view-orbit expansion of ``dominant_weights``), as a
    read-only ``PackedWeights`` that keeps its packed form with the table."""
    return _freudenthal(view, tuple(mu))[1]


def klimyk(view: SubsystemView, top: Coweight, weights: Mapping) -> dict:
    """Sum over the weights w of ``weights`` of their integer coefficient
    times the view's Weyl character at top + w, straightened by the dot
    action (Klimyk's rule): top + w + rho_hat is carried into the dominant
    chamber, taking the sign of the Weyl element, and dropped when it lies
    on a wall.  Returns ``{highest weight: coefficient}`` without zero
    coefficients.  Works in doubled coordinates, which keep rho_hat integral
    on every view.

    A ``PackedWeights`` is read in its packed form at the call's ``_width``;
    any other map is packed first.  Each doubled point is looked up in the
    view's memo at that width by its packed integer and walked only on a
    miss: up one simple reflection at a time, reflected in place through
    the nonzero entries of the simple coroot, and dropped at the first point
    of its walk with a zero coordinate at a view index, where a simple
    reflection fixes it and its orbit meets the dominant chamber on a
    wall.  A view with no simple roots, the torus, straightens nothing: the
    sum is the weights translated by top, at top 0 the table itself, read
    unpacked and with no walk state."""
    if not view.indices:
        if any(top):
            weights = {vec_add(top, w): m for w, m in weights.items()}
        return {w: m for w, m in weights.items() if m}
    if not isinstance(weights, PackedWeights):
        weights = PackedWeights.of(weights)
    shift = view.two_rho_hat
    start = [2 * a + s for a, s in zip(top, shift)]
    bits = _width(max(map(abs, start), default=0) + 2 * weights._reach)
    offset, memo, results, reflect = _walks(view, bits)
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    digits = range(0, bits * len(shift), bits)
    base = _pack(start, bits) + offset
    out: dict = {}
    get = out.get
    for k, m in weights.packed(bits):
        k += base
        hit = memo.get(k)
        if hit is None:
            x = [((k >> d) & mask) - half for d in digits]   # _unpack, inline
            sign = 1
            while True:
                for i, coroot in reflect:
                    c = x[i]
                    if c <= 0:
                        break
                else:
                    kappa = tuple([(d - s) // 2 for d, s in zip(x, shift)])
                    hit = results.setdefault((kappa, sign), (kappa, sign))
                    break
                if not c:
                    hit = ()
                    break
                for j, b in coroot:
                    x[j] -= c * b
                sign = -sign
            memo[k] = hit
        if hit:
            kappa, sign = hit
            out[kappa] = get(kappa, 0) + (m if sign > 0 else -m)
    return {k: m for k, m in out.items() if m}


def tensor_decompose(datum: RootDatum, a: Coweight,
                     b: Coweight) -> Mapping[Coweight, int]:
    """Decomposition of the tensor product of the irreducibles with highest
    weights a and b, as a read-only map highest weight -> multiplicity
    whose order is unspecified.

    Runs ``klimyk`` over the weights of the factor of lower height, its
    pairing with ``two_rho``, which takes no Weyl dimension to pick.  When
    that factor is over ``DIMENSION_CAP``, the factor of smaller Weyl
    dimension is walked instead, so a decomposition raises
    ``FeasibilityError`` only when both factors are over the cap, naming
    the smaller.  Klimyk's sum is exact and symmetric in the two factors,
    so the choice moves no multiplicity.  Cached on the ordered pair, so
    (a, b) and (b, a) are computed independently."""
    return _tensor(datum, tuple(a), tuple(b))


@cache
def _tensor(datum: RootDatum, a: Coweight, b: Coweight) -> Mapping:
    view = datum.full
    if not (view.is_dominant(a) and view.is_dominant(b)):
        raise DomainError("tensor factors must be dominant")
    two_rho = view.two_rho
    big, small = (b, a) if pairing(two_rho, b) > pairing(two_rho, a) else (a, b)
    try:
        table = weight_table(view, small)
    except FeasibilityError:
        # over the cap: the smaller module by dimension, which is over it
        # exactly when both are
        big, small = (b, a) if weyl_dim(view, b) > weyl_dim(view, a) else (a, b)
        table = weight_table(view, small)
    return MappingProxyType(klimyk(view, big, table))


def tensor_multiplicity(datum: RootDatum, a: Coweight, b: Coweight,
                        c: Coweight) -> int:
    return tensor_decompose(datum, a, b).get(tuple(c), 0)


def restrict_decompose(upper: SubsystemView, lower: SubsystemView,
                       mu: Coweight) -> Mapping[Coweight, int]:
    """Restriction of the upper view's irreducible module at mu to the lower
    view (lower simple roots a subset of upper's): a read-only map of
    lower-dominant highest weights to multiplicities, sorted by highest
    weight and cached.

    Brauer's rule: the upper weight table is invariant under the lower Weyl
    group, so ``klimyk`` at highest weight 0 straightens it into lower
    characters."""
    return _restrict(upper, lower, tuple(mu))


@cache
def _restrict(upper: SubsystemView, lower: SubsystemView,
              mu: Coweight) -> Mapping:
    out = klimyk(lower, (0,) * len(mu), weight_table(upper, mu))
    if any(m < 0 for m in out.values()):
        raise AssertionError("restriction has a negative multiplicity")
    return MappingProxyType(dict(sorted(out.items())))


def branch_decompose(datum: RootDatum, levi: SubsystemView,
                     mu: Coweight) -> Mapping[Coweight, int]:
    """Restriction multiplicities: for the irreducible module of the full dual
    group with highest weight mu, the read-only map of Levi-dominant highest
    weights to their multiplicity in the restriction."""
    mu = tuple(mu)
    if not datum.full.is_dominant(mu):
        raise DomainError(f"{mu} is not dominant")
    return restrict_decompose(datum.full, levi, mu)


def branch_multiplicity(datum: RootDatum, levi: SubsystemView, mu: Coweight,
                        lam: Coweight) -> int:
    return branch_decompose(datum, levi, mu).get(tuple(lam), 0)

