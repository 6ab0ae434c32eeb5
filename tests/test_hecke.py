"""Laurent arithmetic, triangular bases, products, and constant terms."""

import itertools
from math import comb
from operator import ge, sub

import pytest
from hypothesis import given, settings, strategies as st

import fraction_oracle
import hecke_oracle
import kostka_oracle
import lattice_oracle
import weyl_oracle
from fraction_oracle import in_coroot_lattice
from hecke_oracle import (
    kostka_foulkes,
    product_identity_sides,
    satake_f,
    stabilizer_poincare,
)
from heckebranch import characters, hecke, rootdata
from heckebranch.characters import (
    branch_multiplicity,
    dominant_support,
    dominant_weights,
    klimyk,
    tensor_decompose,
    tensor_multiplicity,
    weight_table,
)
from heckebranch.errors import DomainError, FeasibilityError
from heckebranch.harness import (
    SweepConfig,
    dominant_coweights_up_to,
    enumerate_instances,
)
from heckebranch.hecke import (
    LaurentPoly,
    constant_term,
    constant_term_coefficient,
    hall_littlewood,
    hecke_product,
    orbit_size,
    satake_expand,
    structure_constant,
)
from heckebranch.parabolic import offset_pair
from heckebranch.rootdata import (
    coroot_numerators,
    dual_star,
    k_phi,
    levi_view,
    pairing,
    rho_height,
    root_datum,
    vec_add,
    vec_scale,
    vec_sub,
    weyl_dim,
)

V = LaurentPoly.v_power
Q = LaurentPoly.q_power
ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()


def test_laurent_basic_ops():
    p = LaurentPoly({2: 1, 0: 1})
    q = LaurentPoly({-2: 3})
    assert p + q == LaurentPoly({2: 1, 0: 1, -2: 3})
    assert p - p == ZERO
    assert not ZERO
    assert p * q == LaurentPoly({0: 3, -2: 3})
    assert p * V(4) == LaurentPoly({6: 1, 4: 1})
    assert V(3) * V(-3) == ONE
    assert Q(2) == V(4)
    assert dict((p * q).items())[0] == 3


def _at_q_one(p):
    """The value at q = 1: the sum of the coefficients."""
    return sum(c for _, c in p.items())


def test_stabilizer_poincare():
    d = root_datum("A1")
    assert stabilizer_poincare(d.full, (0,)) == ONE + V(-2)
    assert stabilizer_poincare(d.full, (1,)) == ONE
    a2 = root_datum("A2")
    # full stabilizer of zero is the whole Weyl group
    w_poly = stabilizer_poincare(a2.full, (0, 0))
    assert _at_q_one(w_poly) == 6


def _zero_sets_and_weights(view):
    # every zero set of the view's simple roots, with a view-dominant
    # coweight vanishing exactly there
    for r in range(len(view.indices) + 1):
        for zeros in itertools.combinations(view.indices, r):
            yield zeros, tuple(0 if i in zeros else 1
                               for i in range(1, view.ambient_rank + 1))


@pytest.mark.parametrize("type_str", ["A3", "B3", "C3", "G2", "D4", "F4"])
def test_packed_numerator_matches_the_tuple_product(type_str):
    d = root_datum(type_str)
    for view in (d.full, levi_view(d, (1,))):
        for zeros, mu in _zero_sets_and_weights(view):
            assert hecke._numerator(view, zeros) \
                == hecke_oracle.numerator(view, zeros)


def test_numerator_digit_overflow_is_an_internal_error(monkeypatch):
    # A3 has 6 positive roots: coefficients up to 2^6 overflow 6-bit digits
    hecke._numerator.cache_clear()
    monkeypatch.setattr(hecke, "_T_BITS", 6)
    with pytest.raises(AssertionError, match="overflow"):
        hecke._numerator(root_datum("A3").full, ())


def test_numerator_cap_hit_caches_nothing(monkeypatch):
    # a regular A3 weight's numerator has up to 2^6 terms: a cap of 10 stops
    # it before it is stored, and the restored cap builds it afresh
    view = root_datum("A3").full
    hecke._numerator.cache_clear()
    size = hecke._numerator.cache_info().currsize
    cap = hecke.NUMERATOR_CAP
    monkeypatch.setattr(hecke, "NUMERATOR_CAP", 10)
    with pytest.raises(FeasibilityError, match=r"zero set \(\) has more than 10"):
        hecke._numerator(view, ())
    assert hecke._numerator.cache_info().currsize == size
    monkeypatch.setattr(hecke, "NUMERATOR_CAP", cap)
    assert hecke._numerator(view, ()) == hecke_oracle.numerator(view, ())
    assert hecke._numerator.cache_info().currsize == size + 1


def test_partition_cap_hit_caches_nothing(monkeypatch):
    # (1, 1) - (0, 0) on A2 is one simple coroot of each kind, a box of 4
    # partition-table points: a cap of 3 stops the polynomial before it is
    # stored, and the restored cap computes it afresh
    d = root_datum("A2")
    hecke._kostka_foulkes.cache_clear()
    size = hecke._kostka_foulkes.cache_info().currsize
    cap = hecke.PARTITION_CAP
    monkeypatch.setattr(hecke, "PARTITION_CAP", 3)
    with pytest.raises(FeasibilityError):
        hecke._kostka_foulkes(d, d.full, (1, 1), (0, 0))
    assert hecke._kostka_foulkes.cache_info().currsize == size
    monkeypatch.setattr(hecke, "PARTITION_CAP", cap)
    # K_{theta,0} is t + t^2, t to the exponents of A2
    assert hecke._kostka_foulkes(d, d.full, (1, 1), (0, 0)) == {-2: 1, -4: 1}
    assert hecke._kostka_foulkes.cache_info().currsize == size + 1


def test_constant_term_over_the_dimension_cap_expands_nothing(monkeypatch):
    # the module at mu is tested against the cap before P_mu is expanded, so
    # a cap just under its dimension leaves no Hall-Littlewood miss behind
    d = root_datum("B2")
    levi = levi_view(d, (1,))
    mu = (2, 2)
    for memo in (characters._freudenthal, characters._restrict,
                 hecke._restricted_characters, hecke._hl_characters):
        memo.cache_clear()
    dim = weyl_dim(d.full, mu)
    monkeypatch.setattr(characters, "DIMENSION_CAP", dim - 1)
    with pytest.raises(FeasibilityError, match=rf"module of dimension {dim} "
                       r"at highest weight \(2, 2\) exceeds the cap"):
        constant_term_coefficient(d, levi, mu, mu)
    assert hecke._hl_characters.cache_info().misses == 0


def test_torus_constant_term_evaluates_no_kostka_foulkes():
    # K^T is the identity: the torus coefficient is the restricted character
    # at lam, read without a Kostka-Foulkes lookup
    d = root_datum("A2")
    torus = levi_view(d, ())
    hecke._kostka_foulkes.cache_clear()
    assert constant_term_coefficient(d, torus, (1, 1), (0, 0)) \
        == LaurentPoly({4: 2, 2: -1, 0: -1})
    info = hecke._kostka_foulkes.cache_info()
    assert (info.hits, info.misses) == (0, 0)


def test_digits_past_eight_bits_on_a_hall_littlewood_route():
    # a top of (40, 40) or (100, 0) puts the shifted doubled coordinates
    # past 128, where 8-bit digits would alias: P_mu's characters against
    # Macdonald's formula walked without packing, and the top constant-term
    # coefficient against its closed form v^(<2rho, mu> - <2rho_M, mu>)
    d = root_datum("A2")
    for mu in ((100, 0), (70, 30), (40, 40)):
        got = hecke_oracle.hl_characters(d.full, mu)
        want = hecke_oracle.divided_hall_littlewood_characters(d.full, mu)
        assert list(got.items()) == list(want.items()), mu
    levi = levi_view(d, (1,))
    mu = (40, 40)
    assert pairing(d.full.two_rho, mu) - pairing(levi.two_rho, mu) == 120
    assert constant_term_coefficient(d, levi, mu, mu) == LaurentPoly({120: 1})


@pytest.mark.parametrize("p", [2, 3, 5])
def test_torus_constant_term_counts_lattices(p):
    # the lattices between p^6 Z_p^2 and Z_p^2, counted by relative position
    # mu, position lam on the Borel's flag and a + b, are the library's
    # f = v^<2rho, lam> c_mu(lam) at v = sqrt(p) at every mu <= 6 and every
    # a + b whose lattices all lie there: 84 positions for each p
    d = root_datum("A1")
    torus = levi_view(d, ())
    want = {}
    for mu in range(7):
        for (lam,), c in constant_term(d, torus, (mu,)).items():
            f = c * V(pairing(d.full.two_rho, (lam,)))
            assert all(e >= 0 and e % 2 == 0 for e, _ in f.items())
            for size in range(mu, 13 - mu, 2):
                want[mu, lam, size] = sum(cf * p ** (e // 2)
                                          for e, cf in f.items())
    assert len(want) == 84
    assert lattice_oracle.torus_counts(p, 6) == want


@pytest.mark.parametrize("p,k,positions", [(2, 3, 104), (3, 2, 34), (5, 2, 34)])
def test_a2_torus_constant_term_counts_lattices(p, k, positions):
    # the lattices between p^k Z_p^3 and Z_p^3 by relative position mu,
    # position lam on the Borel's flag and a1 + a2 + a3: f = v^<2rho, lam>
    # c_mu(lam) at v = sqrt(p), at each mu whose elementary divisors
    # 0 <= e1 <= e2 <= e3 <= k have that sum
    d = root_datum("A2")
    torus = levi_view(d, ())
    want = {}
    for e1, e2, e3 in itertools.combinations_with_replacement(range(k + 1), 3):
        mu = (e3 - e2, e2 - e1)
        for lam, c in constant_term(d, torus, mu).items():
            f = c * V(pairing(d.full.two_rho, lam))
            assert all(e >= 0 and e % 2 == 0 for e, _ in f.items())
            want[mu, lam, e1 + e2 + e3] = sum(cf * p ** (e // 2)
                                              for e, cf in f.items())
    assert len(want) == positions
    assert lattice_oracle.a2_torus_counts(p, k) == want


def _partitions(size: int, parts: int) -> list:
    """The partitions of size with at most ``parts`` parts, padded with
    zeros to ``parts`` entries."""
    return [c for c in itertools.product(range(size, -1, -1), repeat=parts)
            if sum(c) == size and all(map(ge, c, c[1:]))]


@pytest.mark.parametrize("n,p,top,nonzero", [(2, 2, 5, 69), (2, 3, 5, 69),
                                             (3, 2, 3, 23)])
def test_structure_constants_are_hall_numbers(n, p, top, nonzero):
    # the subgroups of cotype alpha and type beta of the abelian p-group of
    # type gamma, counted as lattices, are m_{alpha,beta}^gamma of A_{n-1}
    # at v = sqrt(p), at every pair with |alpha| + |beta| = |gamma| <= top,
    # zero counts included; m reads _kostka_foulkes on this route
    d = root_datum(f"A{n - 1}")

    def coweight(part):
        return tuple(map(sub, part, part[1:]))

    found = 0
    for size in range(top + 1):
        for gamma in _partitions(size, n):
            counts = lattice_oracle.hall_counts(gamma, p)
            for part in range(size + 1):
                for alpha in _partitions(part, n):
                    for beta in _partitions(size - part, n):
                        m = structure_constant(d, coweight(alpha),
                                               coweight(beta), coweight(gamma))
                        assert all(e >= 0 and e % 2 == 0 for e, _ in m.items())
                        count = counts.pop((alpha, beta), 0)
                        assert count == sum(cf * p ** (e // 2)
                                            for e, cf in m.items()), \
                            (gamma, alpha, beta)
                        found += count != 0
            assert counts == {}
    assert found == nonzero


@pytest.mark.parametrize("type_str", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_numerator_straightening_matches_the_full_walk(type_str):
    d = root_datum(type_str)
    for view in (d.full, levi_view(d, (1,))):
        for zeros, mu in _zero_sets_and_weights(view):
            terms = hecke._numerator(view, zeros)
            for table in (terms, weyl_oracle.tagged(terms)):
                assert list(klimyk(view, mu, table).items()) \
                    == list(weyl_oracle.klimyk(view, mu, table).items())


def test_hall_littlewood_a1():
    d = root_datum("A1")
    assert hall_littlewood(d, d.full, (0,)) == {(0,): ONE}
    assert hall_littlewood(d, d.full, (1,)) == {(1,): ONE}
    hl2 = hall_littlewood(d, d.full, (2,))
    assert hl2[(2,)] == ONE
    assert hl2[(0,)] == ONE - V(-2)


def test_hall_littlewood_monic_triangular():
    for type_str, mu in [("A2", (1, 1)), ("B2", (1, 0)), ("B2", (1, 1)),
                         ("G2", (0, 1))]:
        d = root_datum(type_str)
        hl = hall_littlewood(d, d.full, mu)
        assert hl[mu] == ONE
        for k in hl:
            assert in_coroot_lattice(d, vec_sub(mu, k))
            assert rho_height(d, k) <= rho_height(d, mu)


def test_satake_goldens_a1():
    d = root_datum("A1")
    f = d.full
    assert satake_f(d, f, (1,)) == {(1,): V(1)}
    assert satake_f(d, f, (2,)) == {(2,): Q(1), (0,): Q(1) - ONE}
    t = levi_view(d, ())
    assert satake_f(d, t, (3,)) == {(3,): ONE}


def test_satake_torus_is_monomial():
    d = root_datum("B2")
    t = levi_view(d, ())
    assert satake_f(d, t, (2, -1)) == {(2, -1): ONE}


def test_hecke_product_goldens():
    d = root_datum("A1")
    assert hecke_product(d, (1,), (1,)) == {(2,): ONE, (0,): Q(1) + ONE}
    assert hecke_product(d, (2,), (1,)) == {(3,): ONE, (1,): Q(1)}
    a2 = root_datum("A2")
    assert hecke_product(a2, (1, 0), (0, 1)) == {
        (1, 1): ONE, (0, 0): Q(2) + Q(1) + ONE}
    assert hecke_product(a2, (0, 0), (1, 1)) == {(1, 1): ONE}


def test_hecke_product_commutes():
    for type_str in ("A2", "B2"):
        d = root_datum(type_str)
        pool = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]
        for a, b in itertools.combinations(pool, 2):
            assert hecke_product(d, a, b) == hecke_product(d, b, a)


def test_hecke_product_associates():
    d = root_datum("A2")
    a, b, c = (1, 0), (0, 1), (1, 0)

    def expand(prod, right):
        out = {}
        for g, m in prod.items():
            for h, m2 in hecke_product(d, g, right).items():
                cur = out.get(h, ZERO) + m * m2
                if cur:
                    out[h] = cur
                else:
                    out.pop(h, None)
        return out

    left = expand(hecke_product(d, a, b), c)
    right_first = hecke_product(d, b, c)
    right = {}
    for g, m in right_first.items():
        for h, m2 in hecke_product(d, a, g).items():
            cur = right.get(h, ZERO) + m * m2
            if cur:
                right[h] = cur
            else:
                right.pop(h, None)
    assert left == right


def test_hecke_product_support():
    d = root_datum("B2")
    a, b = (1, 1), (1, 0)
    prod = hecke_product(d, a, b)
    top = vec_add(a, b)
    assert prod[top] == ONE
    for gamma in prod:
        assert in_coroot_lattice(d, vec_sub(top, gamma))
        assert rho_height(d, gamma) <= rho_height(d, top)


def test_product_against_tensor_leading_coefficient():
    # degree bound attained exactly when the tensor multiplicity is nonzero,
    # with the multiplicity as the leading coefficient
    d = root_datum("A2")
    for a, b in [((1, 0), (0, 1)), ((1, 1), (1, 0)), ((1, 1), (1, 1))]:
        prod = hecke_product(d, a, b)
        keys = set(prod)
        from heckebranch.characters import weight_table
        for gamma in sorted(keys):
            n = tensor_multiplicity(d, a, b, gamma)
            # the q-degree bound, doubled to a bound on v-exponents
            bound = 2 * rho_height(d, vec_sub(vec_add(a, b), gamma))
            m = prod[gamma]
            assert all(e % 2 == 0 for e, _ in m.items())
            top, lead = m.items()[-1]
            if n:
                assert top == bound
                assert lead == n
            else:
                assert top < bound


def test_orbit_size_goldens():
    d = root_datum("A1")
    f = d.full
    assert orbit_size(d, f, (0,)) == ONE
    for m in range(1, 5):
        expected = (Q(1) + ONE) * Q(m - 1)
        assert orbit_size(d, f, (m,)) == expected
    t = levi_view(d, ())
    assert orbit_size(d, t, (7,)) == ONE


def test_orbit_size_at_one_counts_orbit():
    for type_str, lam in [("A2", (1, 1)), ("B2", (2, 1)), ("A2", (1, 0))]:
        d = root_datum(type_str)
        p = orbit_size(d, d.full, lam)
        assert _at_q_one(p) == len(d.full.orbit(lam))


ORBIT_SIZE_TYPES = ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C2",
                    "C3", "C4", "D4", "F4", "G2")


def test_orbit_size_matches_the_enumerated_form():
    # the sum over the Levi orbit against the least lengths of the group
    # elements, on every Levi of every enumerable type at each Levi-dominant
    # lam in the box [-1, 1]^rank
    cases = 0
    for type_str in ORBIT_SIZE_TYPES:
        d = root_datum(type_str)
        for levi in _views(d):
            for lam in itertools.product((-1, 0, 1), repeat=d.rank):
                if levi.is_dominant(lam):
                    assert orbit_size(d, levi, lam) == \
                        hecke_oracle.enumerated_orbit_size(levi, lam), \
                        (levi.key, lam)
                    cases += 1
    assert cases == 6730


def test_constant_term_goldens():
    d = root_datum("A1")
    t = levi_view(d, ())
    assert constant_term(d, t, (1,)) == {(1,): V(1), (-1,): V(1)}
    assert constant_term(d, t, (2,)) == {
        (2,): Q(1), (0,): Q(1) - ONE, (-2,): Q(1)}
    a2 = root_datum("A2")
    lv = levi_view(a2, (1,))
    assert constant_term(a2, lv, (1, 0)) == {(1, 0): V(1), (0, -1): Q(1)}


def test_constant_term_top_coefficient():
    # coefficient at mu itself is v to the pairing with the roots off the Levi
    for type_str, idx, mu in [("A2", (1,), (1, 1)), ("B2", (2,), (1, 1)),
                              ("A2", (), (2, 1))]:
        d = root_datum(type_str)
        lv = levi_view(d, idx)
        c = constant_term(d, lv, mu)
        shift = pairing(d.full.two_rho, mu) - pairing(lv.two_rho, mu)
        assert c[mu] == V(shift)


def test_constant_term_full_levi_trivial():
    d = root_datum("B2")
    assert constant_term(d, d.full, (2, 1)) == {(2, 1): ONE}


def test_satake_expand_same_view_is_identity():
    d = root_datum("A2")
    assert satake_expand(d, d.full, d.full, (2, 1)) == {(2, 1): ONE}


def test_constant_term_transitive():
    for type_str, idx, mu in [("A2", (1,), (1, 1)), ("A2", (2,), (2, 1)),
                              ("B2", (1,), (1, 1)), ("B2", (2,), (2, 0))]:
        d = root_datum(type_str)
        lv = levi_view(d, idx)
        t = levi_view(d, ())
        direct = satake_expand(d, d.full, t, mu)
        composed = {}
        for lam, outer in satake_expand(d, d.full, lv, mu).items():
            for tau, inner in satake_expand(d, lv, t, lam).items():
                cur = composed.get(tau, ZERO) + outer * inner
                if cur:
                    composed[tau] = cur
                else:
                    composed.pop(tau, None)
        assert composed == direct


def test_product_identity_rank_one():
    d = root_datum("A1")
    t = levi_view(d, ())
    lhs, rhs = product_identity_sides(d, t, (1,), (1,), (1,))
    assert lhs == rhs == Q(1)
    lhs, rhs = product_identity_sides(d, t, (1,), (-1,), (1,))
    assert lhs == rhs == ONE


def test_product_identity_sweep_small():
    for type_str, idx in [("A2", (1,)), ("B2", (2,)), ("A2", ())]:
        d = root_datum(type_str)
        lv = levi_view(d, idx)
        from heckebranch.characters import weight_table
        for mu in [(1, 0), (0, 1), (1, 1)]:
            nu0, nu1 = offset_pair(d, lv, mu)
            for lam in weight_table(d.full, mu):
                if not lv.is_dominant(lam):
                    continue
                for nu in {nu0, nu1}:
                    lhs, rhs = product_identity_sides(d, lv, mu, lam, nu)
                    assert lhs == rhs, (type_str, idx, mu, lam, nu)


def test_product_identity_rejects_bad_offset():
    d = root_datum("A2")
    lv = levi_view(d, (1,))
    with pytest.raises(DomainError):
        product_identity_sides(d, lv, (1, 1), (0, 0), (0, 1))


def test_multiply_invariants_is_weyl_invariant():
    d = root_datum("B2")
    f = d.full
    a = satake_f(d, f, (1, 0))
    b = satake_f(d, f, (0, 1))
    prod = hecke_oracle.multiply_invariants(f, a, b)
    assert all(f.is_dominant(k) for k in prod)


def test_cached_results_are_read_only():
    d = root_datum("A2")
    lv = levi_view(d, (1,))
    calls = [
        lambda: hall_littlewood(d, d.full, (1, 1)),
        lambda: hecke_product(d, (1, 0), (0, 1)),
        lambda: satake_expand(d, d.full, lv, (1, 1)),
        lambda: constant_term(d, lv, (1, 1)),
        lambda: hecke._hl_characters(d.full, (1, 1)),
        lambda: weight_table(d.full, (1, 1)),
        lambda: dominant_weights(d.full, (1, 1)),
        lambda: tensor_decompose(d, (1, 0), (0, 1)),
    ]
    for call in calls:
        value = call()
        before = dict(value)
        key = next(iter(value))
        with pytest.raises(TypeError):
            value[key] = ZERO
        with pytest.raises(TypeError):
            del value[key]
        assert call() == before
    # the point-wise values are built afresh from the cached Kostka-Foulkes
    # polynomials, so not even a write to a value's internals reaches them
    single = [
        lambda: kostka_foulkes(d, d.full, (2, 2), (0, 0)),
        lambda: structure_constant(d, (1, 1), (1, 1), (0, 0)),
        lambda: constant_term_coefficient(d, lv, (1, 1), (0, 0)),
    ]
    for call in single:
        value = call()
        before = LaurentPoly(dict(value.items()))
        assert value
        value._c.clear()
        assert call() == before


def _views(d):
    n = d.rank
    return [levi_view(d, idx) for r in range(n + 1)
            for idx in itertools.combinations(range(1, n + 1), r)]


def _small_dominant(view):
    """View-dominant coweights whose coordinates have absolute sum at most 2."""
    return [mu for mu in itertools.product(range(-2, 3),
                                           repeat=view.ambient_rank)
            if view.is_dominant(mu) and sum(map(abs, mu)) <= 2]


@pytest.mark.parametrize("type_str", ["A2", "B2", "G2", "A3"])
def test_hecke_layer_matches_symmetrization_oracle(type_str):
    d = root_datum(type_str)
    views = _views(d)
    for view in views:
        for mu in _small_dominant(view):
            assert hall_littlewood(d, view, mu) == \
                hecke_oracle.hall_littlewood(d, view, mu), (view.key, mu)
    pool = _small_dominant(d.full)
    for a, b in itertools.product(pool, repeat=2):
        assert hecke_product(d, a, b) == hecke_oracle.hecke_product(d, a, b), \
            (a, b)
    for upper, lower in itertools.product(views, repeat=2):
        if not set(lower.indices) <= set(upper.indices):
            continue
        for mu in _small_dominant(upper):
            assert satake_expand(d, upper, lower, mu) == \
                hecke_oracle.satake_expand(d, upper, lower, mu), \
                (upper.key, lower.key, mu)


@pytest.mark.parametrize("type_str,views,top", [
    ("A1", "all", 2), ("A2", "all", 2), ("A3", "all", 2), ("B2", "all", 2),
    ("B3", "all", 2), ("C3", "all", 2), ("G2", "all", 2),
    ("A4", "full", 1), ("B4", "full", 1), ("C4", "full", 1),
    ("D4", "full", 1), ("F4", "full", 1)])
def test_hall_littlewood_matches_the_stabilizer_division(type_str, views,
                                                         top):
    # the numerator over the coroots off the stabilizer, undivided, against
    # the whole numerator divided by the stabilizer Poincare polynomial:
    # the same coefficients under the same keys in the same order
    d = root_datum(type_str)
    for view in _views(d) if views == "all" else [d.full]:
        for mu in itertools.product(range(top + 1), repeat=d.rank):
            got = hecke_oracle.hl_characters(view, mu)
            want = hecke_oracle.divided_hall_littlewood_characters(view, mu)
            assert list(got.items()) == list(want.items()), (view.key, mu)


@pytest.mark.parametrize("type_str", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_hall_littlewood_at_t_zero_and_one(type_str):
    # t = 0 keeps the v^0 coefficients: the Weyl character; t = 1 (v = 1)
    # gives the orbit sum at mu
    d = root_datum(type_str)
    for view in _views(d):
        for mu in _small_dominant(view):
            hl = hall_littlewood(d, view, mu)
            at_zero = {k: c for k, p in hl.items()
                       for e, c in p.items() if not e}
            assert at_zero == dominant_weights(view, mu), (view.key, mu)
            at_one = {k: sum(c for _, c in p.items()) for k, p in hl.items()}
            assert {k: c for k, c in at_one.items() if c} == {mu: 1}, \
                (view.key, mu)


def test_satake_expand_rejects_a_lower_view_outside_the_upper():
    d = root_datum("A2")
    with pytest.raises(DomainError):
        satake_expand(d, levi_view(d, (1,)), levi_view(d, (2,)), (1, 0))


def _pairs_and_levis(d):
    """Every product pair and every proper Levi with its constant-term
    support, over the coweights of coordinate sum at most 2."""
    pool = _small_dominant(d.full)
    pairs = list(itertools.product(pool, repeat=2))
    levis = [(lv, mu, sorted({w for k in dominant_support(d.full, mu)
                              for w in d.full.orbit(k) if lv.is_dominant(w)}))
             for lv in _views(d) if lv is not d.full for mu in pool]
    return pairs, levis


@pytest.mark.parametrize("type_str", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_pointwise_coefficients_match_the_peels(type_str):
    # the Kostka-Foulkes route against the character-basis peels, point by
    # point and expansion by expansion
    d = root_datum(type_str)
    pairs, levis = _pairs_and_levis(d)
    for a, b in pairs:
        peeled = hecke_oracle.peeled_hecke_product(d, a, b)
        assert hecke_product(d, a, b) == peeled, (a, b)
        for g in dominant_support(d.full, vec_add(a, b)):
            assert structure_constant(d, a, b, g) == peeled.get(g, ZERO), \
                (a, b, g)
    for lv, mu, lams in levis:
        peeled = hecke_oracle.peeled_satake_expand(d, d.full, lv, mu)
        assert constant_term(d, lv, mu) == peeled, (lv.key, mu)
        for lam in lams:
            assert constant_term_coefficient(d, lv, mu, lam) == \
                peeled.get(lam, ZERO), (lv.key, mu, lam)


@pytest.mark.parametrize("type_str", ["A3", "B3"])
@pytest.mark.parametrize("product_first", [False, True])
def test_partial_sums_do_not_depend_on_call_order(type_str, product_first):
    # from empty partial-sum and Kostka-Foulkes memos, point-wise structure
    # constants asked for before any product and after one both match the
    # peel: what the memos hold does not depend on which call filled them
    hecke._partial_sum.cache_clear()
    hecke._kostka_foulkes.cache_clear()
    d = root_datum(type_str)
    pairs, _ = _pairs_and_levis(d)
    for a, b in pairs:
        peeled = hecke_oracle.peeled_hecke_product(d, a, b)
        if product_first:
            assert hecke_product(d, a, b) == peeled, (a, b)
        for g in dominant_support(d.full, vec_add(a, b)):
            assert structure_constant(d, a, b, g) == peeled.get(g, ZERO), \
                (a, b, g)
        if not product_first:
            assert hecke_product(d, a, b) == peeled, (a, b)


def test_pointwise_coefficients_off_the_support():
    d = root_datum("A2")
    lv = levi_view(d, (1,))
    # keys an expansion never has read as zero, as in the expansion's map
    assert structure_constant(d, (1, 0), (0, 1), (1, -1)) == ZERO
    assert structure_constant(d, (1, 0), (0, 1), (2, 2)) == ZERO
    assert constant_term_coefficient(d, lv, (1, 1), (-1, 2)) == ZERO
    assert constant_term_coefficient(d, lv, (1, 0), (0, 0)) == ZERO
    with pytest.raises(DomainError):
        structure_constant(d, (1, -1), (0, 1), (0, 0))
    with pytest.raises(DomainError):
        constant_term_coefficient(d, lv, (-1, 0), (0, 0))
    with pytest.raises(DomainError):
        kostka_foulkes(d, lv, (1, 0), (-1, 1))


@pytest.mark.parametrize("type_str", ["A1", "A2", "A3", "A4", "A5", "B2",
                                      "B3", "B4", "C2", "C3", "C4", "D4",
                                      "F4", "G2"])
def test_kostka_foulkes_at_t_one_and_zero(type_str):
    # K(1) is the weight multiplicity (Kostant's formula) and K(0) the
    # Kronecker delta, on every view.  Every coefficient is nonnegative
    # (Lusztig 1983; Kato 1982), and K is monic of degree the height of
    # lam - gamma over the view's simple coroots.  The weight multiplicities
    # are read under the dimension cap, which of these modules only F4's
    # (0, 0, 2, 0) exceeds
    d = root_datum(type_str)
    for view in _views(d):
        for lam in _small_dominant(view):
            if weyl_dim(view, lam) > characters.DIMENSION_CAP:
                continue
            mults = dominant_weights(view, lam)
            for gamma in sorted(mults):
                k = kostka_foulkes(d, view, lam, gamma)
                assert all(e % 2 == 0 and e <= 0 for e, _ in k.items())
                assert sum(c for _, c in k.items()) == mults[gamma], \
                    (view.key, lam, gamma)
                assert dict(k.items()).get(0, 0) == (gamma == lam), \
                    (view.key, lam, gamma)
                assert all(c > 0 for _, c in k.items()), (view.key, lam, gamma)
                height = sum(fraction_oracle.view_coroot_coefficients(
                    view, vec_sub(lam, gamma)))
                assert k.items()[0] == (-2 * height, 1), \
                    (view.key, lam, gamma)


def _exponents(letter, rank):
    """The exponents of the Weyl group of the type."""
    if letter == "A":
        return range(1, rank + 1)
    if letter in "BC":
        return range(1, 2 * rank, 2)
    if letter == "D":
        return [*range(1, 2 * rank - 2, 2), rank - 1]
    return {"F": (1, 5, 7, 11), "G": (1, 5)}[letter]


@pytest.mark.parametrize("type_str", [
    f"{letter}{r}" for letter, ranks in rootdata._SUPPORTED_RANKS.items()
    for r in ranks])
def test_kostka_foulkes_at_the_highest_coroot_gives_the_exponents(type_str):
    # Kostant (Amer. J. Math. 85, 1963): K_{theta,0}(t) = sum_i t^(m_i) over
    # the exponents m_i of W, with theta the highest weight of the dual
    # group's adjoint module: the dominant positive coroot highest by 2rho
    d = root_datum(type_str)
    full = d.full
    theta = max((cv for cv in full.positive_coroots if full.is_dominant(cv)),
                key=lambda cv: pairing(full.two_rho, cv))
    expected = {}
    for m in _exponents(d.letter, d.rank):
        expected[-2 * m] = expected.get(-2 * m, 0) + 1
    assert kostka_foulkes(d, d.full, theta, (0,) * d.rank) \
        == LaurentPoly(expected)


@pytest.mark.parametrize("type_str,height", [("A1", 12), ("A2", 8), ("A3", 8),
                                             ("A4", 8), ("A5", 6)])
def test_kostka_foulkes_equals_the_charge_statistic_in_type_a(type_str,
                                                              height):
    # a second route to K with nothing shared: Lascoux-Schützenberger charge
    # over semistandard tableaux, on every pair of dominant coweights
    d = root_datum(type_str)
    weights = dominant_coweights_up_to(d, height)
    nonzero = 0
    for lam, gamma in itertools.product(weights, repeat=2):
        k = kostka_oracle.kostka_foulkes(lam, gamma)
        assert hecke._kostka_foulkes(d, d.full, lam, gamma) == k, (lam, gamma)
        nonzero += bool(k)
    assert nonzero > len(weights)


@pytest.mark.parametrize("type_str", ["A2", "B2", "G2", "A3", "B3"])
def test_kostka_foulkes_is_skipped_only_where_it_is_zero(type_str):
    # _partial_sum evaluates K_{c,gamma} only where the coroot numerators of
    # c - gamma are nonnegative, and _ct_coefficient evaluates no K^T on the
    # torus.  On a proper Levi _kostka_foulkes itself returns {}
    # wherever _offset_above does not find l - lam in the lower view's cone.
    # Wherever a test skips, K is zero, and gamma is not even a weight of the
    # module at c: K at t = 1 is the weight multiplicity.
    d = root_datum(type_str)
    mus = dominant_coweights_up_to(d, 3)
    skipped = kept = 0
    for c, gamma in itertools.product(mus, repeat=2):
        if min(map(sub, coroot_numerators(d, c),
                   coroot_numerators(d, gamma))) < 0:
            assert hecke._kostka_foulkes(d, d.full, c, gamma) == {}, (c, gamma)
            assert gamma not in dominant_weights(d.full, c), (c, gamma)
            skipped += 1
        else:
            kept += 1
    for lv in _views(d)[:-1]:   # every proper Levi, the torus first
        lams = sorted({w for mu in mus for w in d.full.orbit(mu)
                       if lv.is_dominant(w)})
        for l, lam in itertools.product(lams, repeat=2):
            rejected = hecke._offset_above(d, lv, l, lam) is None
            coeffs = fraction_oracle.view_coroot_coefficients(
                lv, vec_sub(l, lam))
            assert rejected == (coeffs is None or any(
                x < 0 or x.denominator != 1 for x in coeffs)), (lv.key, l, lam)
            if not lv.indices:
                assert rejected == (l != lam), (l, lam)
            if rejected:
                assert hecke._kostka_foulkes(d, lv, l, lam) == {}, \
                    (lv.key, l, lam)
                assert lam not in dominant_weights(lv, l), (lv.key, l, lam)
                skipped += 1
            else:
                kept += 1
    assert skipped and kept


def test_structure_constants_agree_under_triangle_rotation():
    # rotating the triangle (alpha, mu*, nu) of an instance:
    # N_nu m_{alpha,mu*}^nu = N_alpha m_{nu,mu}^alpha, with N the full orbit
    # size; a second route to m with its arguments swapped
    count = 0
    for type_str, levi, height in (("A2", (), 2), ("B2", (1,), 4),
                                   ("G2", (2,), 4), ("A3", (1,), 3)):
        d = root_datum(type_str)
        config = SweepConfig(type_str, levi, height, ("product_identity",))
        for mu, lam, nu in enumerate_instances(config):
            alpha = vec_add(nu, lam)
            lhs = orbit_size(d, d.full, nu) \
                * structure_constant(d, alpha, dual_star(d, mu), nu)
            rhs = orbit_size(d, d.full, alpha) \
                * structure_constant(d, nu, mu, alpha)
            assert lhs == rhs, (type_str, levi, mu, lam, nu)
            count += 1
    assert count == 184


def _dominant_up_to(d, total: int) -> list:
    """The dominant coweights with coordinate sum at most ``total``."""
    return [c for c in itertools.product(range(total + 1), repeat=d.rank)
            if sum(c) <= total]


@pytest.mark.parametrize("type_str,total,triples,stretched,held", [
    ("A2", 4, 1521, 0, 0), ("B2", 4, 2452, 30, 30), ("C2", 4, 2452, 30, 30),
    ("G2", 3, 1476, 72, 56)])
def test_triangle_laws_on_general_triples(type_str, total, triples,
                                          stretched, held):
    # on every (alpha, beta, gamma), gamma below alpha + beta: Haines' degree
    # law, the top v-exponent of m is <2rho, alpha + beta - gamma> with
    # leading coefficient n when n != 0, and below it when n = 0; so n != 0
    # forces m != 0.  Where m != 0 and n = 0, n(k alpha, k beta, k gamma)
    # != 0 at k = k_phi, a cap hit counted and not failed (16 on G2 at k = 6)
    d = root_datum(type_str)
    k = k_phi(d)
    seen = cases = stretch_held = 0
    for alpha, beta in itertools.product(_dominant_up_to(d, total), repeat=2):
        ms = hecke_product(d, alpha, beta)
        ns = tensor_decompose(d, alpha, beta)
        for gamma in dominant_support(d.full, vec_add(alpha, beta)):
            seen += 1
            m, n = ms.get(gamma, ZERO), ns.get(gamma, 0)
            bound = pairing(d.full.two_rho, vec_sub(vec_add(alpha, beta),
                                                    gamma))
            where = (alpha, beta, gamma)
            if n:
                assert m and m.items()[-1][0] == bound, where
                assert m.items()[-1][1] == n, where
            else:
                assert not m or m.items()[-1][0] < bound, where
            if m and not n:
                cases += 1
                try:
                    stretch_held += tensor_multiplicity(
                        d, vec_scale(k, alpha), vec_scale(k, beta),
                        vec_scale(k, gamma)) != 0
                except FeasibilityError:
                    continue
    assert (seen, cases, stretch_held) == (triples, stretched, held)


def _in_n_of_s(poly: LaurentPoly) -> bool:
    """Whether a polynomial in q = v^2 has nonnegative coefficients in
    s = q - 1: the coefficient of s^i is sum over j of c_j binom(j, i)."""
    assert all(e >= 0 and e % 2 == 0 for e, _ in poly.items())
    top = max((e // 2 for e, _ in poly.items()), default=0)
    return all(sum(cf * comb(e // 2, i) for e, cf in poly.items()) >= 0
               for i in range(top + 1))


def test_structure_constants_are_positive_in_q_minus_one():
    """m(1 + s) lies in N[s] for every structure constant of the pairs with
    coordinate sum at most 3 on A2 and B2 and at most 2 on G2, A3 and B3:
    the gallery formula writes m as a sum of products of powers of q and
    q - 1 (C. Schwer, "Galleries, Hall-Littlewood polynomials, and structure
    constants of the spherical Hecke algebra", IMRN 2006; J. Parkinson,
    A. Ram, C. Schwer, "Combinatorics in affine flag varieties", J. Algebra
    2009)."""
    count = 0
    for type_str, total in (("A2", 3), ("B2", 3), ("G2", 2), ("A3", 2),
                            ("B3", 2)):
        d = root_datum(type_str)
        for pair in itertools.product(_dominant_up_to(d, total), repeat=2):
            for gamma, m in hecke_product(d, *pair).items():
                assert _in_n_of_s(m), (type_str, pair, gamma)
                count += 1
    assert count == 1990


def test_constant_terms_are_positive_in_q_minus_one():
    """Every constant-term coefficient over every proper Levi, divided by
    its lowest power of v, is a polynomial in q that lies in N[s] at
    q = 1 + s, for mu with coordinate sum at most 4 on A2 and B2, 3 on G2
    and A3, and 2 on B3 and C3.  On the torus these are the monomial
    coefficients of P_mu, which the alcove-walk formula writes as sums over
    positively folded galleries (Schwer, IMRN 2006; Parkinson-Ram-Schwer,
    J. Algebra 2009); over a proper Levi the positivity is observed here."""
    count = 0
    for type_str, total in (("A2", 4), ("B2", 4), ("G2", 3), ("A3", 3),
                            ("B3", 2), ("C3", 2)):
        d = root_datum(type_str)
        for size in range(d.rank):
            for indices in itertools.combinations(range(1, d.rank + 1), size):
                levi = levi_view(d, indices)
                for mu in _dominant_up_to(d, total):
                    for lam, c in constant_term(d, levi, mu).items():
                        assert _in_n_of_s(c * V(-c.items()[0][0])), \
                            (type_str, indices, mu, lam)
                        count += 1
    assert count == 5384
