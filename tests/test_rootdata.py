"""Root data construction, Weyl groups, and cone arithmetic."""

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fraction_oracle
import peel_oracle
import weyl_oracle
from peel_oracle import peel, solve_exact

from heckebranch import rootdata
from heckebranch.errors import ConfigurationError, DomainError
from heckebranch.hecke import LaurentPoly, _check_ct_support, orbit_size
from heckebranch.rootdata import (
    cartan_matrix,
    coroot_numerators,
    dual_star,
    k_phi,
    levi_view,
    pairing,
    parse_coweight,
    rho_height,
    root_datum,
    vec_add,
    vec_sub,
    weyl_dim,
)

WEYL_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120, "A5": 720,
    "B2": 8, "B3": 48, "B4": 384,
    "C2": 8, "C3": 48, "C4": 384,
    "D4": 192, "F4": 1152, "G2": 12,
}

# the rank-5 and rank-6 types, whose groups the tests do not enumerate
WIDE_WEYL_ORDERS = {"A6": 5040, "B5": 3840, "C5": 3840, "D5": 1920}

POSITIVE_ROOT_COUNTS = {
    "A1": 1, "A2": 3, "A3": 6, "A4": 10, "A5": 15, "A6": 21,
    "B2": 4, "B3": 9, "B4": 16, "B5": 25,
    "C2": 4, "C3": 9, "C4": 16, "C5": 25,
    "D4": 12, "D5": 20, "F4": 24, "G2": 6,
}

K_PHI = {
    "A1": 1, "A2": 1, "A3": 1, "A4": 1, "A5": 1, "A6": 1,
    "B2": 2, "B3": 2, "B4": 2, "B5": 2,
    "C2": 2, "C3": 2, "C4": 2, "C5": 2,
    "D4": 2, "D5": 2, "F4": 12, "G2": 6,
}


@pytest.mark.parametrize("type_str", sorted(WEYL_ORDERS | WIDE_WEYL_ORDERS))
def test_counts_per_type(type_str):
    d = root_datum(type_str)
    if type_str in WEYL_ORDERS:
        assert weyl_oracle.order(d.full) == WEYL_ORDERS[type_str]
    else:
        # the orbit of a regular point at q = 1
        regular = (1,) * d.rank
        assert sum(c for _, c in orbit_size(d, d.full, regular).items()) \
            == WIDE_WEYL_ORDERS[type_str]
    assert len(d.positive_roots) == POSITIVE_ROOT_COUNTS[type_str]
    assert len(d.positive_coroots) == POSITIVE_ROOT_COUNTS[type_str]
    assert k_phi(d) == K_PHI[type_str]


@pytest.mark.parametrize("type_str", sorted(WEYL_ORDERS))
def test_rho_invariants(type_str):
    d = root_datum(type_str)
    # half sum of positive roots pairs to 1 with every simple coroot
    rho = tuple(Fraction(v, 2) for v in d.full.two_rho)
    for j in range(d.rank):
        coroot = tuple(d.cartan_matrix[i][j] for i in range(d.rank))
        assert pairing(rho, coroot) == 1
    # half sum of positive coroots is the all-ones coweight
    rho_hat = fraction_oracle.rho_hat(d.full)
    assert rho_hat == tuple(Fraction(1) for _ in range(d.rank))
    assert tuple(Fraction(sum(c[i] for c in d.positive_coroots), 2)
                 for i in range(d.rank)) == rho_hat


def test_cartan_matrix_shapes():
    assert cartan_matrix("A", 2) == ((2, -1), (-1, 2))
    assert cartan_matrix("G", 2) == ((2, -1), (-3, 2))
    b3 = cartan_matrix("B", 3)
    c3 = cartan_matrix("C", 3)
    assert b3 == tuple(tuple(row) for row in zip(*c3))
    f4 = cartan_matrix("F", 4)
    assert f4[1][2] == -2 and f4[2][1] == -1
    d4 = cartan_matrix("D", 4)
    assert d4[1][3] == -1 and d4[3][1] == -1 and d4[2][3] == 0


@pytest.mark.parametrize("letter, rank, i, j, wrong",
                         [("G", 2, 1, 0, -4), ("F", 4, 1, 2, -3)])
def test_a_cartan_matrix_of_infinite_type_raises_instead_of_hanging(
        monkeypatch, letter, rank, i, j, wrong):
    # one wrong constant makes the closure under simple reflections
    # infinite; past 4 rank^2 roots, a bound every finite type meets, the
    # build stops.  The cached builder is bypassed, so no datum is replaced
    right = rootdata.cartan_matrix

    def cartan_matrix(letter, rank):
        c = [list(row) for row in right(letter, rank)]
        c[i][j] = wrong
        return tuple(map(tuple, c))

    monkeypatch.setattr(rootdata, "cartan_matrix", cartan_matrix)
    start = time.perf_counter()
    with pytest.raises(AssertionError, match=f"passed {4 * rank * rank} "
                                             "roots: its Cartan matrix is "
                                             "not of finite type"):
        rootdata._build.__wrapped__(letter, rank)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("bad", ["", "A0", "A7", "B1", "B6", "D6", "E6", "H2",
                                 "AA", "2A", "G3", "F3", "C1", "D3"])
def test_unsupported_types_rejected(bad):
    with pytest.raises(ConfigurationError):
        root_datum(bad)


def test_unsupported_type_message_names_every_supported_type():
    with pytest.raises(ConfigurationError) as e:
        root_datum("E6")
    named = set()
    for span in str(e.value).split("supported: ", 1)[1].split(", "):
        first, _, last = span.partition("-")
        named |= {(first[0], r)
                  for r in range(int(first[1:]), int((last or first)[1:]) + 1)}
    assert named == {(letter, r) for letter, ranks
                     in rootdata._SUPPORTED_RANKS.items() for r in ranks}


def test_highest_root_and_heights():
    d = root_datum("A2")
    assert d.highest_root == (1, 1)
    assert rho_height(d, (1, 0)) == 1
    assert rho_height(d, (1, 1)) == 2
    g = root_datum("G2")
    assert rho_height(g, (1, 0)) == 5
    assert rho_height(g, (0, 1)) == 3
    a1 = root_datum("A1")
    assert rho_height(a1, (1,)) == Fraction(1, 2)


def test_levi_view_validation():
    d = root_datum("A3")
    with pytest.raises(ConfigurationError):
        levi_view(d, (0,))
    with pytest.raises(ConfigurationError):
        levi_view(d, (4,))
    # the index iterable denotes a subset, so order and repeats are immaterial
    assert levi_view(d, (3, 1, 3)) is levi_view(d, (1, 3))
    lv = levi_view(d, (1, 3))
    assert weyl_oracle.order(lv) == 4
    assert len(lv.positive_roots) == 2
    assert weyl_oracle.order(levi_view(d, ())) == 1
    assert weyl_oracle.order(levi_view(d, (1, 2, 3))) == 24


def test_root_data_are_read_only():
    d = root_datum("A3")
    assert root_datum("A3") is d
    assert root_datum(" a3 ") is d
    for obj in (d, d.full, levi_view(d, (1,)), levi_view(d, ())):
        for name in type(obj).__annotations__:
            with pytest.raises(AttributeError):
                setattr(obj, name, getattr(obj, name))
            with pytest.raises(AttributeError):
                delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.extra = 1
    assert d.rank == 3 and d.full.indices == (1, 2, 3)
    # equality is identity
    assert levi_view(d, (1,)) == levi_view(d, (1,))
    assert d != root_datum("A2")
    assert d.full != levi_view(root_datum("A3"), (1, 2))


def test_simple_coroots_are_read_only():
    # every view of a datum shares the one map, so a write would reach all
    d = root_datum("A2")
    lv = levi_view(d, (1,))
    assert lv.simple_coroots is d.full.simple_coroots
    with pytest.raises(TypeError):
        d.full.simple_coroots[1] = (0, 0)
    with pytest.raises(TypeError):
        del lv.simple_coroots[2]
    assert dict(d.full.simple_coroots) == {1: (2, -1), 2: (-1, 2)}


def test_levi_view_roots_are_ambient_roots():
    d = root_datum("B3")
    lv = levi_view(d, (2, 3))
    full_pos = set(d.positive_roots)
    assert all(r in full_pos for r in lv.positive_roots)
    assert lv.two_rho_hat != d.full.two_rho_hat


def test_dual_star():
    d = root_datum("A2")
    assert dual_star(d, (1, 0)) == (0, 1)
    assert dual_star(d, (2, 1)) == (1, 2)
    for t in ("A1", "B2", "G2", "D4"):
        dd = root_datum(t)
        one = tuple(1 for _ in range(dd.rank))
        assert dual_star(dd, dual_star(dd, one)) == one
    b = root_datum("B2")
    assert dual_star(b, (1, 0)) == (1, 0)
    assert dual_star(b, (0, 1)) == (0, 1)


@pytest.mark.parametrize("type_str", sorted(WEYL_ORDERS))
def test_w0_is_the_longest_element(type_str):
    # the diagram involution is -w0, w0 the oracle's element inverting
    # every positive root, on non-dominant points too
    d = root_datum(type_str)
    w0 = weyl_oracle.longest_element(d)
    points = [x for x in _box(d.rank, -2, 2) if not d.full.is_dominant(x)]
    assert points
    for x in points:
        assert dual_star(d, x) == tuple(-v for v in rootdata.mat_apply(w0, x))


@pytest.mark.parametrize("type_str", sorted(WEYL_ORDERS | WIDE_WEYL_ORDERS))
def test_roots_are_the_closure_under_reflection_matrices(type_str):
    d = root_datum(type_str)
    pairs = weyl_oracle.positive_roots(d.cartan_matrix)
    assert d.positive_roots == tuple(r for r, _ in pairs)
    assert d.positive_coroots == tuple(c for _, c in pairs)


def test_dominate_and_orbit():
    f = root_datum("A2").full
    assert f.dominate((-1, 2)) in f.orbit((-1, 2))
    assert f.dominate((1, 1)) == (1, 1)
    assert len(f.orbit((1, 1))) == 6
    assert len(f.orbit((1, 0))) == 3
    assert len(f.orbit((0, 0))) == 1


@pytest.mark.parametrize("type_str", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_cached_orbits_match_the_uncached_search(type_str):
    # singular and regular points, dominant or not, on every Levi from the
    # torus up to the full view: each orbit equals the breadth-first search
    # from the point itself, and is the one entry cached under the view and
    # the point's dominant representative
    rootdata._orbit.cache_clear()
    d = root_datum(type_str)
    views = [levi_view(d, idx) for r in range(d.rank + 1)
             for idx in itertools.combinations(range(1, d.rank + 1), r)]
    for view in views:
        for x in _box(d.rank, -2, 2):
            got = view.orbit(x)
            assert got == weyl_oracle.orbit(view, x), (view.key, x)
            top = view.dominate(x)
            assert rootdata._orbit(view, top) is got
            assert view.orbit(top) is got
    # one entry per view and dominant point: no two views share one
    assert rootdata._orbit.cache_info().currsize == sum(
        len({view.dominate(x) for x in _box(d.rank, -2, 2)}) for view in views)


def test_full_and_levi_orbits_are_cached_apart():
    # the same point, walked first under a Levi and then under the full
    # view, and the other way round
    d = root_datum("B2")
    levi = levi_view(d, (1,))
    for order in ((levi, d.full), (d.full, levi)):
        rootdata._orbit.cache_clear()
        got = {view.key: view.orbit((1, 1)) for view in order}
        assert got[levi.key] == {(1, 1), (-1, 2)}
        assert len(got[d.full.key]) == 8
        assert rootdata._orbit.cache_info().currsize == 2


@settings(max_examples=60, derandomize=True)
@given(st.sampled_from(["A2", "B2", "G2", "A3"]),
       st.lists(st.integers(min_value=-4, max_value=4), min_size=4, max_size=4))
def test_dominate_properties(type_str, coords):
    d = root_datum(type_str)
    x = tuple(coords[: d.rank])
    dom = d.full.dominate(x)
    assert all(c >= 0 for c in dom)
    orb = d.full.orbit(x)
    assert dom in orb
    assert weyl_oracle.order(d.full) % len(orb) == 0
    assert d.full.dominate(dom) == dom


def test_leq_dominance():
    d = root_datum("A2")
    assert fraction_oracle.leq_dominance(d, (0, 0), (1, 1))
    assert not fraction_oracle.leq_dominance(d, (1, 1), (0, 0))
    assert not fraction_oracle.leq_dominance(d, (1, 0), (0, 1))
    assert fraction_oracle.leq_dominance(d, (1, 1), (3, 0))


def test_coroot_coefficients():
    d = root_datum("A2")
    # highest coroot = alpha1^ + alpha2^ has coweight coordinates (1, 1)
    assert fraction_oracle.coroot_coefficients(d, (1, 1)) == (1, 1)
    assert fraction_oracle.in_coroot_lattice(d, (1, 1))
    assert not fraction_oracle.in_coroot_lattice(d, (1, 0))
    assert fraction_oracle.in_coroot_lattice(d, (2, -1))


def test_in_hull():
    d = root_datum("A2")
    table_mu = (1, 1)
    assert fraction_oracle.in_hull(d, (0, 0), table_mu)
    assert fraction_oracle.in_hull(d, (-1, 2), table_mu)
    assert not fraction_oracle.in_hull(d, (2, 2), table_mu)
    assert fraction_oracle.in_hull(d, (1, 1), table_mu)


def _box(rank: int, lo: int, hi: int) -> list:
    return list(itertools.product(range(lo, hi + 1), repeat=rank))


def _points(d) -> list:
    """Every point of the box [-2, 2]^rank up to rank 3; a seeded sample of
    100 above, where the box has 625 or 3125 points."""
    box = _box(d.rank, -2, 2)
    if d.rank <= 3:
        return box
    return random.Random(d.rank).sample(box, 100)


@pytest.mark.parametrize("type_str", sorted(WEYL_ORDERS))
def test_coroot_predicates_match_fraction_oracle(type_str):
    d = root_datum(type_str)
    n = d.rank
    points = _points(d)
    if n <= 3:
        mus = _box(n, 0, 1) + [(2,) * n]
    else:
        mus = ([(0,) * n, (1,) * n, (2,) * n]
               + [tuple(int(k == i) for k in range(n)) for i in range(n)])
    for x in points:
        # the memo hands out the same read-only tuple on every call
        nums = coroot_numerators(d, x)
        assert type(nums) is tuple and coroot_numerators(d, x) is nums
        assert tuple(Fraction(v, d.cartan_det) for v in nums) \
            == fraction_oracle.coroot_coefficients(d, x)
    # the constant-term support check passes exactly on the points of the
    # orbit hull of mu in mu's coroot-lattice coset
    for x in points:
        for mu in mus:
            if fraction_oracle.in_hull(d, x, mu) and \
                    fraction_oracle.in_coroot_lattice(d, vec_sub(mu, x)):
                _check_ct_support(d, mu, x)
            else:
                with pytest.raises(AssertionError):
                    _check_ct_support(d, mu, x)


def test_coroot_adjugate():
    for type_str in WEYL_ORDERS:
        d = root_datum(type_str)
        det = d.cartan_det
        assert det > 0
        assert all(type(a) is int for row in d.cartan_adjugate for a in row)
        ident = tuple(tuple(int(i == j) for j in range(d.rank))
                      for i in range(d.rank))
        assert weyl_oracle.mat_mul(d.cartan_adjugate, d.cartan_matrix) == tuple(
            tuple(det * v for v in row) for row in ident)
        # against the rational inverse by Gauss-Jordan elimination
        assert solve_exact(d.cartan_matrix, ident) \
            == tuple(tuple(Fraction(a, det) for a in row)
                     for row in d.cartan_adjugate)
    assert [root_datum(t).cartan_det for t in ("A4", "B3", "D4", "F4", "G2")] \
        == [5, 2, 4, 1, 1]


def test_weyl_dim():
    assert weyl_dim(root_datum("A1").full, (3,)) == 4
    assert weyl_dim(root_datum("A2").full, (1, 1)) == 8
    assert weyl_dim(root_datum("G2").full, (1, 0)) == 14
    assert weyl_dim(root_datum("G2").full, (0, 1)) == 7
    assert weyl_dim(root_datum("B2").full, (1, 0)) == 4
    assert weyl_dim(root_datum("B2").full, (0, 1)) == 5
    d = root_datum("A3")
    assert weyl_dim(levi_view(d, ()), (2, 0, 1)) == 1
    with pytest.raises(DomainError):
        weyl_dim(d.full, (-1, 0, 0))


def _weyl_dim_by_fractions(view, mu) -> Fraction:
    """Weyl's formula with the half-sum of positive coroots in Fractions."""
    rho_hat = fraction_oracle.rho_hat(view)
    shifted = vec_add(tuple(Fraction(v) for v in mu), rho_hat)
    num = den = Fraction(1)
    for a in view.positive_roots:
        num *= pairing(a, shifted)
        den *= pairing(a, rho_hat)
    return num / den


@pytest.mark.parametrize("type_str", sorted(WEYL_ORDERS))
def test_weyl_dim_matches_fraction_formula(type_str):
    d = root_datum(type_str)
    n = d.rank
    for r in range(n + 1):
        for idx in itertools.combinations(range(1, n + 1), r):
            view = levi_view(d, idx)
            for mu in itertools.product(range(3), repeat=n):
                dim = weyl_dim(view, mu)
                assert type(dim) is int
                assert dim == _weyl_dim_by_fractions(view, mu), (idx, mu)
            for i in idx:
                with pytest.raises(DomainError):
                    weyl_dim(view, tuple(-(k == i) for k in range(1, n + 1)))


@pytest.mark.parametrize("type_str", sorted(WEYL_ORDERS))
def test_lattice_kernels_match_the_group_elements(type_str):
    # orbits walked by simple coroots against the images under every Weyl
    # element's matrix, at dominant and non-dominant points, on the full view
    # and every Levi; the dimension memo still rejects non-dominant weights
    # once it holds dominant ones
    rootdata._weyl_dim.cache_clear()
    d = root_datum(type_str)
    n = d.rank
    points = _box(n, -1, 1)
    if n > 3:
        points = random.Random(n).sample(points, 20) + [(1,) * n]
    for r in range(n + 1):
        for idx in itertools.combinations(range(1, n + 1), r):
            view = levi_view(d, idx)
            for x in points:
                assert view.orbit(x) == {
                    rootdata.mat_apply(a, x)
                    for a in weyl_oracle.group(view).elements}, (idx, x)
            dominant = [x for x in points if view.is_dominant(x)]
            off = [x for x in points if not view.is_dominant(x)]
            assert dominant and (off or not idx)
            size = rootdata._weyl_dim.cache_info().currsize
            for x in off:
                with pytest.raises(DomainError):
                    weyl_dim(view, x)
            assert rootdata._weyl_dim.cache_info().currsize == size
            for x in dominant:
                assert weyl_dim(view, x) == _weyl_dim_by_fractions(view, x)
            size += len(set(dominant))
            assert rootdata._weyl_dim.cache_info().currsize == size
            for x in off:
                with pytest.raises(DomainError):
                    weyl_dim(view, x)
            assert rootdata._weyl_dim.cache_info().currsize == size


def test_weyl_dim_dual_side_values():
    # module side is the dual group: B-input gives C-dimensions and back
    assert [weyl_dim(root_datum("B3").full, mu)
            for mu in ((1, 0, 0), (0, 1, 0), (0, 0, 1))] == [6, 14, 14]
    assert [weyl_dim(root_datum("C3").full, mu)
            for mu in ((1, 0, 0), (0, 1, 0), (0, 0, 1))] == [7, 21, 8]
    assert weyl_dim(root_datum("D4").full, (1, 0, 0, 0)) == 8
    assert weyl_dim(root_datum("F4").full, (0, 0, 0, 1)) == 52


def test_levi_dim_matches_sub_datum():
    d = root_datum("A3")
    lv = levi_view(d, (1, 2))
    a2 = root_datum("A2")
    assert weyl_dim(lv, (1, 1, 0)) == weyl_dim(a2.full, (1, 1))
    assert weyl_dim(lv, (2, 0, 5)) == weyl_dim(a2.full, (2, 0))


def test_parse_coweight():
    assert parse_coweight("1,0", 2) == (1, 0)
    assert parse_coweight(" 2 , -1 ", 2) == (2, -1)
    with pytest.raises(ConfigurationError):
        parse_coweight("1,0,0", 2)
    with pytest.raises(ConfigurationError):
        parse_coweight("a,b", 2)


def test_reflection_action():
    d = root_datum("A2")
    s1 = weyl_oracle.reflections(d.cartan_matrix)[1]
    from heckebranch.rootdata import mat_apply
    assert mat_apply(s1, (1, 0)) == (-1, 1)
    assert mat_apply(s1, (0, 1)) == (0, 1)
    assert mat_apply(s1, mat_apply(s1, (2, 5))) == (2, 5)
    # each view's simple coroots give the matrices' reflections
    for type_str in WEYL_ORDERS:
        d = root_datum(type_str)
        refl = weyl_oracle.reflections(d.cartan_matrix)
        for view in (d.full, levi_view(d, (1,))):
            assert sorted(view.simple_coroots) == list(range(1, d.rank + 1))
            for j, c in view.simple_coroots.items():
                for x in _box(d.rank, -1, 1):
                    assert mat_apply(refl[j], x) == tuple(
                        a - x[j - 1] * b for a, b in zip(x, c)), (j, x)


ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()


def _binomial(coroot):
    """The triangular basis of division by (1 - x^(-coroot))."""
    def basis(k):
        return {k: ONE, vec_sub(k, coroot): -ONE}
    return basis


def _times_binomial(f, coroot):
    g = dict(f)
    for k, c in f.items():
        km = vec_sub(k, coroot)
        g[km] = g.get(km, ZERO) - c
    return {k: c for k, c in g.items() if c}


@settings(max_examples=30, derandomize=True)
@given(st.sampled_from(["B2", "G2"]),
       st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                       st.tuples(st.integers(-4, 4),
                                 st.integers(-3, 3).filter(bool)),
                       min_size=1, max_size=8))
def test_peel_divides_by_binomial(type_str, raw):
    d = root_datum(type_str)
    f = {k: LaurentPoly({e: c}) for k, (e, c) in raw.items()}
    for coroot in d.positive_coroots:
        g = _times_binomial(f, coroot)
        assert peel(g, d.full.two_rho, _binomial(coroot)) == f


def test_peel_order_and_input():
    d = root_datum("B2")
    coroot = d.positive_coroots[-1]
    # (4, 0) and (0, 3) have the same height, so the order of the two keys
    # comes from the tie-break alone
    f = {(0, 0): ONE, (4, 0): LaurentPoly({2: 3}), (0, 3): -ONE,
         (1, 1): LaurentPoly({-2: 1, 0: 1})}
    assert pairing(d.full.two_rho, (4, 0)) == pairing(d.full.two_rho, (0, 3))
    g = _times_binomial(f, coroot)
    snapshot = list(g.items())
    forward = peel(g, d.full.two_rho, _binomial(coroot))
    assert list(g.items()) == snapshot
    backward = peel(dict(reversed(snapshot)), d.full.two_rho, _binomial(coroot))
    assert list(forward.items()) == list(backward.items())
    keys = list(forward)
    assert keys == sorted(keys, key=lambda k: (pairing(d.full.two_rho, k), k),
                          reverse=True)


def test_peel_guard(monkeypatch):
    d = root_datum("B2")
    coroot = d.positive_coroots[0]
    g = _times_binomial({(0, 0): ONE, (3, 1): ONE, (-2, 2): ONE}, coroot)
    monkeypatch.setattr(peel_oracle, "_PEEL_GUARD", 2)
    with pytest.raises(AssertionError, match="did not terminate"):
        peel(g, d.full.two_rho, _binomial(coroot))


def test_peel_rejects_a_basis_that_is_not_triangular():
    height = (1, 1)
    with pytest.raises(AssertionError, match="not monic"):
        peel({(1, 0): 1}, height, lambda k: {k: 2})
    with pytest.raises(AssertionError, match="reaches above"):
        peel({(1, 0): 1}, height, lambda k: {k: 1, (2, 0): 1})


def test_solve_exact():
    assert solve_exact(((2, -1), (-1, 2)), ((1, 0), (0, 1))) == (
        (Fraction(2, 3), Fraction(1, 3)), (Fraction(1, 3), Fraction(2, 3)))
    assert solve_exact(((0, 1), (1, 0)), ((3,), (Fraction(1, 2),))) == (
        (Fraction(1, 2),), (3,))
    assert solve_exact(((1, 2), (2, 4)), ((1,), (2,))) is None
