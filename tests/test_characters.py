"""Weight multiplicities, tensor decomposition, and restriction to a Levi."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import fraction_oracle
import weyl_oracle
from peel_oracle import decompose_invariant_multiset, tensor_decompose_by_tables

from heckebranch import characters
from heckebranch.characters import (
    PackedWeights,
    branch_decompose,
    branch_multiplicity,
    dominant_weights,
    klimyk,
    restrict_decompose,
    tensor_decompose,
    tensor_multiplicity,
    weight_table,
)
from heckebranch.errors import DomainError, FeasibilityError
from heckebranch.rootdata import (
    dual_star,
    levi_view,
    pairing,
    root_datum,
    vec_add,
    weyl_dim,
)


def test_dominant_weights_goldens():
    d = root_datum("A2")
    assert dominant_weights(d.full, (1, 1)) == {(1, 1): 1, (0, 0): 2}
    assert dominant_weights(d.full, (1, 0)) == {(1, 0): 1}
    a1 = root_datum("A1")
    assert dominant_weights(a1.full, (4,)) == {(4,): 1, (2,): 1, (0,): 1}
    g2 = root_datum("G2")
    # adjoint module of the dual group: long root string through zero
    assert dominant_weights(g2.full, (1, 0)) == {(1, 0): 1, (0, 1): 1, (0, 0): 2}


@pytest.mark.parametrize("type_str", ["A1", "A2", "A3", "A4", "A5", "B2", "B3",
                                      "B4", "C2", "C3", "C4", "D4", "F4", "G2"])
def test_dominant_weights_match_fraction_oracle(type_str):
    # every Levi view; highest weights in [-2, 2]^rank that are dominant for
    # the view, of dimension at most 300: all of them up to rank 3, a seeded
    # sample of 8 per view above
    d = root_datum(type_str)
    n = d.rank
    box = list(itertools.product(range(-2, 3), repeat=n))
    rng = random.Random(n)
    for r in range(n + 1):
        for idx in itertools.combinations(range(1, n + 1), r):
            view = levi_view(d, idx)
            mus = [mu for mu in box if view.is_dominant(mu)]
            if n >= 4:
                rng.shuffle(mus)
            small = (mu for mu in mus if weyl_dim(view, mu) <= 300)
            for mu in itertools.islice(small, 8 if n >= 4 else None):
                want = fraction_oracle.dominant_weights(view, mu)
                assert list(dominant_weights(view, mu).items()) \
                    == list(want.items()), (idx, mu)


def test_weight_table_sums_to_dimension():
    for type_str, mu in [("A2", (1, 1)), ("A2", (2, 1)), ("B2", (1, 1)),
                         ("G2", (0, 1)), ("A3", (1, 0, 1)), ("B3", (0, 1, 0))]:
        d = root_datum(type_str)
        table = weight_table(d.full, mu)
        assert sum(table.values()) == weyl_dim(d.full, mu)
        assert table[mu] == 1


def test_weight_table_weyl_invariance():
    d = root_datum("B2")
    table = weight_table(d.full, (1, 1))
    for w, m in table.items():
        for y in d.full.orbit(w):
            assert table[y] == m


def test_tensor_golden_a2():
    d = root_datum("A2")
    assert tensor_decompose(d, (1, 1), (1, 1)) == {
        (2, 2): 1, (3, 0): 1, (0, 3): 1, (1, 1): 2, (0, 0): 1}
    assert tensor_decompose(d, (1, 0), (0, 1)) == {(1, 1): 1, (0, 0): 1}
    assert tensor_multiplicity(d, (1, 0), (1, 0), (0, 1)) == 1
    assert tensor_multiplicity(d, (1, 0), (1, 0), (2, 0)) == 1
    assert tensor_multiplicity(d, (1, 0), (1, 0), (1, 1)) == 0


def test_tensor_dimension_and_table_oracle():
    cases = [("A2", (1, 1), (2, 0)), ("B2", (1, 0), (0, 1)),
             ("B2", (1, 1), (1, 0)), ("G2", (0, 1), (0, 1)),
             ("A3", (1, 0, 0), (0, 0, 1))]
    for type_str, a, b in cases:
        d = root_datum(type_str)
        dec = tensor_decompose(d, a, b)
        assert all(m > 0 for m in dec.values())
        total = sum(m * weyl_dim(d.full, c) for c, m in dec.items())
        assert total == weyl_dim(d.full, a) * weyl_dim(d.full, b)
        assert tensor_decompose_by_tables(d, a, b) == dec


def test_tensor_commutes():
    d = root_datum("B2")
    assert tensor_decompose(d, (1, 0), (0, 1)) == tensor_decompose(d, (0, 1), (1, 0))


def test_tensor_duality():
    # multiplicity of c in a(x)b equals multiplicity of a in c(x)dual(b)
    d = root_datum("A2")
    pool = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]
    for a, b, c in itertools.product(pool, repeat=3):
        lhs = tensor_multiplicity(d, a, b, c)
        rhs = tensor_multiplicity(d, c, dual_star(d, b), a)
        assert lhs == rhs


def test_branch_golden_a2():
    d = root_datum("A2")
    lv = levi_view(d, (1,))
    assert branch_decompose(d, lv, (1, 1)) == {
        (1, 1): 1, (2, -1): 1, (1, -2): 1, (0, 0): 1}
    assert branch_multiplicity(d, lv, (1, 1), (0, 0)) == 1
    assert branch_multiplicity(d, lv, (1, 1), (5, 5)) == 0


def test_branch_to_torus_is_weight_table():
    d = root_datum("B2")
    torus = levi_view(d, ())
    assert branch_decompose(d, torus, (1, 1)) == weight_table(d.full, (1, 1))


def test_branch_to_full_is_identity():
    d = root_datum("A3")
    assert branch_decompose(d, d.full, (1, 0, 1)) == {(1, 0, 1): 1}


def test_branch_dimension_count():
    for type_str, levi_idx, mu in [("A2", (1,), (2, 1)), ("B2", (2,), (1, 1)),
                                   ("A3", (1, 3), (1, 1, 0)),
                                   ("G2", (1,), (0, 1))]:
        d = root_datum(type_str)
        lv = levi_view(d, levi_idx)
        dec = branch_decompose(d, lv, mu)
        assert all(m > 0 for m in dec.values())
        total = sum(m * weyl_dim(lv, lam) for lam, m in dec.items())
        assert total == weyl_dim(d.full, mu)
        assert all(lv.is_dominant(lam) for lam in dec)


@settings(max_examples=25, derandomize=True)
@given(st.sampled_from(["A2", "B2"]),
       st.tuples(st.integers(0, 2), st.integers(0, 2)),
       st.tuples(st.integers(0, 2), st.integers(0, 2)))
def test_tensor_oracles_agree(type_str, a, b):
    d = root_datum(type_str)
    assert tensor_decompose(d, a, b) == tensor_decompose_by_tables(d, a, b)


def test_levi_freudenthal_matches_sub_datum():
    d = root_datum("A3")
    lv = levi_view(d, (1, 2))
    a2 = root_datum("A2")
    sub = dominant_weights(a2.full, (1, 1))
    emb = dominant_weights(lv, (1, 1, 0))
    assert {k[:2]: m for k, m in emb.items()} == sub


def test_dimension_cap():
    a1 = root_datum("A1")
    with pytest.raises(FeasibilityError):
        dominant_weights(a1.full, (10 ** 6,))
    with pytest.raises(DomainError):
        dominant_weights(a1.full, (-1,))


def test_branch_tensor_compatibility():
    # restriction multiplicities appear inside a tensor product with the
    # smallest strictly dominant offset: r is bounded by the tensor count
    d = root_datum("A2")
    lv = levi_view(d, (2,))
    mu = (1, 1)
    from heckebranch.parabolic import minimal_offset
    nu = minimal_offset(d, lv, mu)
    for lam, r in branch_decompose(d, lv, mu).items():
        target = vec_add(nu, lam)
        if all(c >= 0 for c in target):
            assert tensor_multiplicity(d, nu, mu, target) == r


@pytest.mark.parametrize("type_str", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_branching_matches_peel_oracle(type_str):
    # Brauer-Klimyk against the triangular peel, keys in the same order, for
    # every Levi inside the full system and inside every larger Levi;
    # coordinates off the upper Levi may be negative, as in satake_expand
    d = root_datum(type_str)
    levis = [levi_view(d, idx) for k in range(d.rank)
             for idx in itertools.combinations(range(1, d.rank + 1), k)]
    pairs = [(d.full, lower) for lower in levis] + [
        (upper, lower) for upper in levis for lower in levis
        if set(lower.indices) < set(upper.indices)]
    for upper, lower in pairs:
        for mu in itertools.product(range(-1, 3), repeat=d.rank):
            if not upper.is_dominant(mu) or sum(map(abs, mu)) > 2:
                continue
            got = restrict_decompose(upper, lower, mu)
            want = decompose_invariant_multiset(lower, weight_table(upper, mu))
            assert list(got.items()) == list(want.items()), (
                upper.key, lower.key, mu)


def test_decompose_rejects_non_characters():
    d = root_datum("A2")
    negated = {w: -m for w, m in weight_table(d.full, (1, 0)).items()}
    with pytest.raises(DomainError, match="negative multiplicity"):
        decompose_invariant_multiset(d.full, negated)
    # the adjoint character minus three trivial ones: a positive peak with a
    # negative multiplicity below it
    short = dict(weight_table(d.full, (1, 1)))
    short[(0, 0)] -= 3
    with pytest.raises(DomainError, match="negative multiplicity"):
        decompose_invariant_multiset(d.full, short)
    with pytest.raises(DomainError, match="not dominant"):
        decompose_invariant_multiset(d.full, {(2, -1): 1})


@settings(max_examples=60, derandomize=True)
@given(st.sampled_from(["A2", "B2", "G2", "A3", "B3", "C3"]),
       st.sets(st.integers(min_value=1, max_value=3)),
       st.lists(st.integers(min_value=-3, max_value=3), min_size=3,
                max_size=3),
       st.lists(st.lists(st.integers(min_value=-5, max_value=3), min_size=3,
                         max_size=3), min_size=1, max_size=12))
def test_dot_straighten_matches_the_full_walk(type_str, levi, top, weights):
    # small coordinates put many walked points on a wall; a Levi view also
    # sees points with zero or negative coordinates off its indices
    d = root_datum(type_str)
    view = levi_view(d, (i for i in levi if i <= d.rank))
    top = tuple(top[:d.rank])
    table = weyl_oracle.tagged(tuple(w[:d.rank]) for w in weights)
    assert list(klimyk(view, top, table).items()) \
        == list(weyl_oracle.klimyk(view, top, table).items())


@pytest.mark.parametrize("a, b", [((0, 2), (1, 1)), ((1, 1), (0, 2))],
                         ids=["lower_second", "lower_first"])
def test_tensor_walks_the_lower_factor_unless_it_is_over_the_cap(
        monkeypatch, a, b):
    # on B2, (1, 1) lies lower than (0, 2) but has the larger module: the
    # product walks (1, 1) under a cap above both, (0, 2) under a cap
    # between them, and raises on (0, 2) under a cap below both
    d = root_datum("B2")
    view = d.full
    assert pairing(view.two_rho, (1, 1)) < pairing(view.two_rho, (0, 2))
    assert (weyl_dim(view, (1, 1)), weyl_dim(view, (0, 2))) == (16, 14)
    want = weyl_oracle.klimyk(view, a, weyl_oracle.weight_table(view, b))
    walked = []

    def recorded(view, mu):
        walked.append(mu)
        return weight_table(view, mu)

    monkeypatch.setattr(characters, "weight_table", recorded)
    for cap, tables in ((16, [(1, 1)]), (15, [(1, 1), (0, 2)]),
                        (13, [(1, 1), (0, 2)])):
        characters._freudenthal.cache_clear()
        characters._tensor.cache_clear()
        monkeypatch.setattr(characters, "DIMENSION_CAP", cap)
        walked.clear()
        if cap < 14:
            with pytest.raises(FeasibilityError, match=re.escape(
                    "module of dimension 14 at highest weight (0, 2) "
                    "exceeds the cap")):
                tensor_decompose(d, a, b)
        else:
            assert tensor_decompose(d, a, b) == want
        assert walked == tables


def test_digits_past_eight_bits_on_a_restriction_and_a_tensor_product():
    # doubled coordinates past 128 need digits wider than 8 bits: Sym^100
    # of A2 restricts to Levi {1} with weights reaching 100, and the
    # product's shifted top reaches 202
    d = root_datum("A2")
    levi = levi_view(d, (1,))
    sym = (100, 0)
    assert branch_decompose(d, levi, sym) == {(k, k - 100): 1
                                              for k in range(101)}
    assert branch_decompose(d, levi, sym) == weyl_oracle.klimyk(
        levi, (0, 0), weyl_oracle.weight_table(d.full, sym))
    want = weyl_oracle.klimyk(d.full, sym,
                              weyl_oracle.weight_table(d.full, (1, 1)))
    assert len(want) == 4
    assert tensor_decompose(d, sym, (1, 1)) == want
    assert tensor_decompose(d, (1, 1), sym) == want


def test_packing_never_aliases():
    # coordinates far past any digit width a sweep needs: each call's digits
    # must be wide enough to hold them, not wrap around onto other points
    characters._tensor.cache_clear()
    characters._walks.cache_clear()
    d = root_datum("A2")
    big, huge = 2 ** 40, 2 ** 70
    # a small product first, so the view starts with narrow digits
    assert tensor_decompose(d, (1, 0), (1, 0)) == {(0, 1): 1, (2, 0): 1}
    assert tensor_decompose(d, (big, 0), (1, 0)) \
        == {(big - 1, 1): 1, (big + 1, 0): 1}
    assert tensor_decompose(d, (huge, 3), (1, 1)) == {
        (huge - 2, 4): 1, (huge - 1, 2): 1, (huge - 1, 5): 1, (huge, 3): 2,
        (huge + 1, 1): 1, (huge + 1, 4): 1, (huge + 2, 2): 1}
    # and the narrow products still come out right after the wide ones
    characters._tensor.cache_clear()
    assert tensor_decompose(d, (1, 1), (1, 1)) == tensor_decompose_by_tables(
        d, (1, 1), (1, 1))


def test_packed_weights_read_as_a_plain_map():
    d = root_datum("B2")
    table = weight_table(d.full, (1, 1))
    plain = dict(table.items())
    assert isinstance(table, PackedWeights)
    assert table == plain and len(table) == len(plain)
    assert all(table[w] == m and w in table for w, m in plain.items())
    # packed once at each width asked for, and decoded back from it
    narrow = table.packed(8)
    for bits in (8, 20, 8):
        packed = PackedWeights(2, table._reach, bits=bits,
                               packed=table.packed(bits))
        assert dict(packed.items()) == plain
    assert table.packed(8) is narrow


def test_wide_call_keeps_the_narrow_state():
    # a call with coordinates past the narrow digits gets a state of its
    # own width: the narrow memo and packed table are kept, not rebuilt
    characters._freudenthal.cache_clear()
    characters._tensor.cache_clear()
    characters._walks.cache_clear()
    d = root_datum("A2")
    narrow = tensor_decompose(d, (1, 1), (1, 0))
    table = weight_table(d.full, (1, 0))
    packed = table.packed(8)
    big = 2 ** 40
    assert tensor_decompose(d, (big, 0), (1, 0)) \
        == {(big - 1, 1): 1, (big + 1, 0): 1}
    characters._tensor.cache_clear()
    assert tensor_decompose(d, (1, 1), (1, 0)) == narrow
    assert table.packed(8) is packed
    info = characters._walks.cache_info()
    assert (info.currsize, info.misses) == (2, 2)


def test_packed_weights_cannot_be_mutated():
    # the packed pairs are the cached table's own: appending to them once
    # changed every later decomposition that read the table, and a smaller
    # coordinate bound made its packed points alias
    characters._freudenthal.cache_clear()
    characters._tensor.cache_clear()
    characters._walks.cache_clear()
    d = root_datum("A2")
    want = {(0, 1): 1, (2, 0): 1}
    assert tensor_decompose(d, (1, 0), (1, 0)) == want
    # the width klimyk read: 2(top + rho_hat) reaches 4, the doubled weights 2
    bits = characters._width(4 + 2)
    packed = weight_table(d.full, (1, 0)).packed(bits)
    with pytest.raises(AttributeError):
        packed.append((0, 99))
    with pytest.raises(TypeError):
        packed[0] = (0, 99)
    for name in ("rank", "reach"):
        with pytest.raises(AttributeError):
            setattr(weight_table(d.full, (1, 0)), name, 0)
    characters._tensor.cache_clear()
    assert tensor_decompose(d, (1, 0), (1, 0)) == want


def test_dimension_cap_hit_caches_no_table(monkeypatch):
    # the cap is checked on a miss and raises before the table is stored:
    # the same call under the restored cap computes the table afresh
    view = levi_view(root_datum("B3"), (2, 3))
    mu = (-1, 1, 1)
    characters._freudenthal.cache_clear()
    size = characters._freudenthal.cache_info().currsize
    cap = characters.DIMENSION_CAP
    monkeypatch.setattr(characters, "DIMENSION_CAP", weyl_dim(view, mu) - 1)
    with pytest.raises(FeasibilityError):
        weight_table(view, mu)
    assert characters._freudenthal.cache_info().currsize == size
    monkeypatch.setattr(characters, "DIMENSION_CAP", cap)
    assert weight_table(view, mu) == weyl_oracle.weight_table(view, mu)
    assert characters._freudenthal.cache_info().currsize == size + 1


@pytest.mark.parametrize("type_str", [
    "A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5", "C2", "C3",
    "C4", "C5", "D4", "D5", "F4", "G2"])
def test_one_pass_tables_match_the_two_pass_oracle(type_str):
    # every highest weight of height at most 2 on the full view, at most 1
    # above rank 4, of dimension at most 2,000; up to rank 3 also on every
    # Levi, with highest weights that are negative off the Levi
    characters._freudenthal.cache_clear()
    d = root_datum(type_str)
    top = 2 if d.rank <= 4 else 1
    views = [d.full] if d.rank > 3 else [
        levi_view(d, idx) for r in range(d.rank + 1)
        for idx in itertools.combinations(range(1, d.rank + 1), r)]
    for view in views:
        for mu in itertools.product(range(-1, top + 1), repeat=d.rank):
            if not view.is_dominant(mu) or sum(map(abs, mu)) > top \
                    or weyl_dim(view, mu) > 2_000:
                continue
            table = weight_table(view, mu)
            assert table == weyl_oracle.weight_table(view, mu), (view.key, mu)
            assert dominant_weights(view, mu) == {
                w: m for w, m in table.items() if view.is_dominant(w)}
