"""Exponentials, mapping spaces, the Kan check, and inner horn filling."""

import gc
import hashlib
import re
import weakref
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcatkit.cats import (
    boundary_two,
    contractible_groupoid,
    coproduct_cat,
    group_z2,
    poset_simplex,
    product_cat,
    validate_category,
)
from qcatkit.corpus import corpus_quasicategories
from qcatkit.mapping import (
    ExactnessError,
    Exponential,
    full_degeneracy,
    induced_functor,
    kan_check,
    mapping_space,
    path_object,
    plan_columns,
    transport,
)
from qcatkit.nerve import ho, is_quasicategory, nerve
from qcatkit.prederivator import HoPrederivator, standard_sample
from qcatkit.simplicial import (
    SimplexExpr,
    SimplicialMap,
    compose_maps,
    empty_sset,
    enumerate_maps,
    extensions,
    horn,
    map_codes,
    product,
    sset_from_text,
    sset_to_text,
    TruncatedSSet,
    standard_simplex,
    weak_seq_to_word,
)
from qcatkit.util import Budget


def assert_matches_direct_search(E):
    """Every level of E is the direct search over S x Δn -> T, in order, and
    the cells and faces are those of the direct construction (pinning no
    vertex keeps to the direct search)."""
    for n in range(E.k + 1):
        direct = enumerate_maps(E.products[n], E.T_t)
        located = [E.locate(f) for f in direct]
        assert len(E.sset.total(n)) == len(direct)
        nondeg = [e.base for e in located if not e.word]
        assert nondeg == [f"c{n}_{i}" for i in range(len(E.sset.nondeg(n)))]
    D = Exponential(E.base, E.exponent, E.k, pinned={})
    assert sset_to_text(E.sset) == sset_to_text(D.sset)
    assert all(E.to_expr(n) == D.to_expr(n) for n in range(E.k + 1))


def delta_map(alpha, n: int, target_n: int, D: int) -> SimplicialMap:
    """The map of standard simplices induced by a monotone vertex map: each
    simplex of Δn, on the vertices c, goes to the simplex that the weakly
    increasing alpha . c presents.  ``alpha`` lists the images of 0..n."""
    assignment = {}
    for k in range(min(n, D) + 1):
        for c in combinations(range(n + 1), k + 1):
            word, strict = weak_seq_to_word([alpha[v] for v in c])
            assignment["".join(map(str, c))] = SimplexExpr(word, "".join(map(str, strict)))
    return SimplicialMap(standard_simplex(n, D), standard_simplex(target_n, D), assignment)


def gather_one(codes, plan, P, T):
    """The code tuple of mu . f for the code tuple of mu, f given by its slot
    plan out of P, one tuple at a time: each cell's slot, sent through the
    codes of T's degenerate simplices that the cell's word makes."""
    return tuple(T.degeneracy_codes(w, P.dim_of[x] - len(w))[codes[s]] if w else codes[s]
                 for (s, w), x in zip(plan, P.cells))


def shape_map(E, alpha, m, n):
    """id x alpha: S x Δm -> S x Δn for a monotone alpha: [m] -> [n]."""
    Pm, Pn = E.products[m], E.products[n]
    dm = delta_map(alpha, m, n, max(m, n, 2))
    return Pm.map_pairs(Pn, lambda e1, e2: Pn.pair_expr(e1, dm.apply(e2)))


def assert_structure_matches_shape_maps(E):
    """Faces and degeneracies of E are those the shape maps id x δi and
    id x σj induce, composed cell by cell; ``map_of`` agrees."""
    maps = {}
    for n in range(E.k + 1):
        deltas = [shape_map(E, tuple(t for t in range(n + 1) if t != i), n - 1, n)
                  for i in range(n + 1)] if n else []
        sigmas = [shape_map(E, tuple(t if t <= j else t - 1 for t in range(n + 1)), n, n - 1)
                  for j in range(n)]
        for e in E.sset.total(n):
            if e.word:
                # e = s_j of the cell its other letters name
                maps[e] = compose_maps(maps[SimplexExpr(e.word[1:], e.base)], sigmas[e.word[0]])
                assert E.locate(maps[e]) == e
                assert E.map_of(e) == maps[e]
                continue
            maps[e] = E.map_of(e)
            for i, delta in enumerate(deltas):
                assert E.sset.faces[(e.base, i)] == E.locate(compose_maps(maps[e], delta))


def path_objects(T):
    """The path objects kept on T, each with its steps, by (n, level)."""
    return {key[1:]: kept for key, kept in vars(T).get("memo.charged", {}).items()
            if key[0] == "path_object"}


class TestExponential:
    def test_unit_exponent(self):
        n1 = nerve(poset_simplex(1), 3)
        E = Exponential(n1, standard_simplex(0, 2), 2)
        # maps from delta0 x deltan are n-simplices: recover N([1])
        assert [len(E.sset.nondeg(n)) for n in range(3)] == [2, 1, 0]
        assert E.sset.validate().ok

    def test_interval_into_interval(self):
        n1 = nerve(poset_simplex(1), 3)
        E = Exponential(n1, standard_simplex(1, 2), 2)
        # level 0: maps delta1 -> N[1], one per total 1-simplex: 3 objects
        assert len(E.sset.nondeg(0)) == 3
        assert E.sset.validate().ok
        assert is_quasicategory(E.sset).ok

    def test_empty_exponent_gives_terminal(self):
        n1 = nerve(poset_simplex(1), 3)
        E = Exponential(n1, empty_sset(), 2)
        assert [len(E.sset.total(n)) for n in range(3)] == [1, 1, 1]
        assert len(E.sset.nondeg(0)) == 1
        assert not E.sset.nondeg(1) and not E.sset.nondeg(2)

    def test_levels_match_direct_enumeration(self):
        # definitional cross-check against an independent enumerator
        n1 = nerve(poset_simplex(1), 3)
        S = standard_simplex(1, 2)
        E = Exponential(n1, S, 2)
        for n in range(3):
            P = product(S, standard_simplex(n, max(2, n)))
            direct = enumerate_maps(P, n1.truncate(2))
            assert len(E.sset.total(n)) == len(direct)

    def test_cell_ids_follow_the_assignment_order(self):
        # c{n}_{i} is the i-th nondegenerate map in the order of the maps'
        # sorted (cell id, image) pairs
        n1 = nerve(poset_simplex(1), 3)
        E = Exponential(n1, n1, 2)
        for n in range(3):
            direct = enumerate_maps(E.products[n], E.T_t)
            nondeg = sorted((f for f in direct if not E.locate(f).word),
                            key=lambda f: tuple(sorted(f.assignment.items())))
            assert len(E.sset.nondeg(n)) == len(nondeg) > 0
            assert [E.map_of(SimplexExpr((), f"c{n}_{i}")) for i in range(len(nondeg))] == nondeg

    def test_curried_levels_match_direct_enumeration(self):
        # [1]+[1] and [1]x[1] have more vertices than Δ2 and go through T^{Δn};
        # the other shapes keep to the direct search
        sample = standard_sample()
        bases = [standard_simplex(0, 2), nerve(poset_simplex(1), 3),
                 nerve(contractible_groupoid(), 3), nerve(group_z2(), 3),
                 nerve(poset_simplex(2), 3)]
        for T in bases:
            for J in sorted(sample.categories):
                assert_matches_direct_search(Exponential(T, nerve(sample.cat(J), 2), 2))

    def test_curried_level_three_and_empty_exponent(self):
        # at level 3 the path object T^{Δ3} is itself curried through T^{Δ1}, T^{Δ2}
        n1 = nerve(poset_simplex(1), 3)
        p1 = poset_simplex(1)
        assert_matches_direct_search(Exponential(n1, nerve(product_cat(p1, poset_simplex(1)), 3), 3))
        assert_matches_direct_search(Exponential(n1, nerve(coproduct_cat(p1, p1), 3), 3))
        assert_matches_direct_search(Exponential(n1, n1, 3))
        assert_matches_direct_search(Exponential(nerve(group_z2(), 3), nerve(poset_simplex(1), 2), 3))
        assert_matches_direct_search(Exponential(n1, empty_sset(), 2))

    def test_exponents_with_few_vertices_skip_the_path_object(self):
        # at most as many vertices as Δ2: simplices up to relabelling, a group,
        # the free boundary, a coproduct, the empty exponent; the direct
        # search's steps, and no path object is built
        p1 = poset_simplex(1)
        few = [nerve(p1, 3), nerve(group_z2(), 3), nerve(poset_simplex(2), 3),
               nerve(boundary_two(), 3), nerve(coproduct_cat(p1, poset_simplex(0)), 3),
               empty_sset()]
        cases = [(nerve(poset_simplex(1), 3), S, k) for S in few for k in (2, 3)]
        cases.append((nerve(contractible_groupoid(), 3), nerve(p1, 3), 3))
        for T, S, k in cases:
            used, direct = Budget(), Budget()
            Exponential(T, S, k, used)
            assert path_objects(T) == {}
            Exponential(T, S, k, direct, pinned={})
            assert used.used == direct.used
        T = nerve(contractible_groupoid(), 3)
        Exponential(T, nerve(product_cat(p1, poset_simplex(1)), 2), 2)
        assert set(path_objects(T)) == {(1, 2), (2, 2)}

    def test_path_object_hits_charge_what_the_miss_charged(self):
        T = nerve(poset_simplex(1), 3)
        S = nerve(coproduct_cat(poset_simplex(1), poset_simplex(1)), 2)
        cold, warm = Budget(), Budget()
        Exponential(T, S, 2, cold)
        Exponential(T, S, 2, warm)
        assert warm.used == cold.used > 0
        # a cache warmed by another exponent changes nothing either
        S2 = nerve(product_cat(poset_simplex(1), poset_simplex(1)), 2)
        fresh, rewarmed = Budget(), Budget()
        Exponential(nerve(poset_simplex(1), 3), S2, 2, fresh)
        Exponential(T, S2, 2, rewarmed)
        assert rewarmed.used == fresh.used > 0
        first, again = Budget(), Budget()
        P = path_object(T, standard_simplex(2, 2), 2, first)
        assert path_object(T, standard_simplex(2, 2), 2, again) is P and again.used == first.used

    def test_dropped_base_frees_its_path_objects(self):
        T = nerve(poset_simplex(1), 3)
        Exponential(T, nerve(coproduct_cat(poset_simplex(1), poset_simplex(1)), 2), 2)
        refs = [weakref.ref(path_object(T, standard_simplex(n, 2), 2, Budget())) for n in (1, 2)]
        del T
        gc.collect()
        assert all(r() is None for r in refs)

    def test_exponentials_of_a_base_share_its_truncation(self):
        T = nerve(poset_simplex(1), 3)
        S = nerve(coproduct_cat(poset_simplex(1), poset_simplex(1)), 2)
        first, second = Budget(), Budget()
        E1 = Exponential(T, S, 2, first)
        E2 = Exponential(T, nerve(poset_simplex(2), 2), 2)
        again = Exponential(T, S, 2, second)
        assert E1.T_t is E2.T_t is again.T_t is T.truncate(2)
        # steps as recorded before the truncation was kept, re-recorded when
        # the map search began to read faces off the simplex above them, and
        # when it came to search the two components of S x Δn one at a time
        assert first.used == second.used == 1948
        ref = weakref.ref(E1.T_t)
        del T, E1, E2, again
        gc.collect()
        assert ref() is None

    def test_cell_maps_decode_without_the_exponential(self):
        E = Exponential(nerve(group_z2(), 3), nerve(poset_simplex(1), 2), 2)
        assert (sorted(e.base for n in range(3) for e in E.to_expr(n).values() if not e.word)
                == sorted(x for n in range(3) for x in E.sset.nondeg(n)))
        mu, vertex = (E.map_of(SimplexExpr((), cid)) for cid in ("c1_0", "c0_0"))
        assert E.to_expr(1)[mu.images] == SimplexExpr((), "c1_0") == E.locate(mu)
        ref = weakref.ref(E)
        del E
        gc.collect()
        # the maps hold the product and the truncated base, not the exponential,
        # and decode only now
        assert ref() is None and "assignment" not in vars(vertex) and vertex.validate().ok
        with pytest.raises(KeyError):
            Exponential(nerve(poset_simplex(1), 3), standard_simplex(1, 2), 2).locate(mu)

    def test_ids_and_ho_match_the_digests_recorded_before_the_codes(self):
        # sset_to_text of every level and Ho's canonical key, over the sample
        sample = standard_sample()
        recorded = {
            "delta0": ("eaa74c75030f8b3b35d06c30ed01cd136d6b3b7bf94b5f0e36a862b1678c8dc4",
                       "46c7efe859fc78acf757b01271f35ac49494737208247c996850d861877dfe56"),
            "N([1])": ("60cf6b79ffbea1af5700548aed73c89fb6ebb2204c814ca17f174a6a44ca05ae",
                       "01f3248889901fb2e6b2dd28d6b035d14e9ef262344a37dbe0ff5fa68dd8812a"),
            "N(E)": ("25c563e7cb4ba4014e943a3b6270bf6f311011613a3419ca0de9ddef1829eb22",
                     "d0266f97c70727202c02678e311a421333c42e865e577219f99373fc4c4055b8"),
            "N(z2)": ("ab05ed68699d37af75f456df4fff9a17ef9ef24d81c21357cf902192d7a42b53",
                      "8bfcc7d7b3b3539ee977e1ab180920fd668042a3fb7862573c084d4559d5ae44"),
            "N([2])": ("16369aba4e6b525af348dc564fbd67daed995d4b26d77df86ddefbf02f0e06cc",
                       "bb08a34b5f25fd7d1601e045bc5c969f20887f73e3869eee567acad65fedff7f"),
        }
        bases = {"delta0": standard_simplex(0, 2), "N([1])": nerve(poset_simplex(1), 3),
                 "N(E)": nerve(contractible_groupoid(), 3), "N(z2)": nerve(group_z2(), 3),
                 "N([2])": nerve(poset_simplex(2), 3)}
        for name, T in bases.items():
            exps = [Exponential(T, nerve(sample.cat(J), 2), 2) for J in sample.order]
            texts = "".join(sset_to_text(E.sset) for E in exps)
            keys = "\n".join(repr(E.ho.category.canonical_key()) for E in exps)
            assert (hashlib.sha256(texts.encode()).hexdigest(),
                    hashlib.sha256(keys.encode()).hexdigest()) == recorded[name], name

    def test_path_objects_are_built_over_the_frames_simplices(self):
        S = nerve(product_cat(poset_simplex(1), poset_simplex(1)), 2)
        bases = [nerve(poset_simplex(1), 3), nerve(contractible_groupoid(), 3)]
        frame = Exponential(bases[0], S, 2).frame
        assert Exponential(bases[1], S, 2).frame is frame
        for n in (1, 2):
            paths = [path_objects(T)[(n, 2)][0] for T in bases]
            assert all(P.exponent is frame.products[n].right for P in paths)
            assert paths[0].frame is paths[1].frame

    def test_structure_matches_the_shape_maps(self):
        sample = standard_sample()
        bases = [nerve(poset_simplex(1), 3), nerve(contractible_groupoid(), 3),
                 nerve(group_z2(), 3)]
        for T in bases:
            for J in ("[1]x[1]", "d[2]", "[1]+[1]"):
                assert_structure_matches_shape_maps(Exponential(T, nerve(sample.cat(J), 2), 2))
        assert_structure_matches_shape_maps(mapping_space(bases[1], "a", "b"))
        assert_structure_matches_shape_maps(Exponential(bases[0], bases[0], 3))

    def test_induced_functor_rejects_an_image_that_is_not_a_cell(self):
        E = Exponential(nerve(poset_simplex(1), 3), nerve(poset_simplex(1), 2), 2)
        def shifted(by):
            return lambda batch, level: [tuple(c + by(level) for c in codes) for codes in batch]

        # codes past the end of every level table name no simplex at all
        with pytest.raises(KeyError, match=re.escape(f"map is not a cell of {E.name}")):
            induced_functor(E, E, shifted(lambda level: 1000), "bad")
        # the objects go through, the morphisms do not
        with pytest.raises(KeyError, match=re.escape(f"map is not a cell of {E.name}")):
            induced_functor(E, E, shifted(lambda level: 1000 * level), "bad")
        assert induced_functor(E, E, lambda batch, level: batch, "id").validate().ok

    def test_locate_keeps_the_levels_of_the_empty_exponent_apart(self):
        # every level has one map, with the empty image tuple
        E = Exponential(nerve(poset_simplex(1), 3), empty_sset(), 2)
        for n in range(3):
            (e,) = E.sset.total(n)
            assert E.locate(E.map_of(e)) == e
            assert E.map_of(e).images == ()

    def test_exponents_share_one_frame(self):
        sample = standard_sample()
        bases = [nerve(poset_simplex(1), 3), nerve(group_z2(), 3)]
        D1, D2 = (HoPrederivator(Q, sample) for Q in bases)
        for J in sample.order:
            assert D1.data(J).products is D2.data(J).products
            for D, Q in zip((D1, D2), bases):
                fresh = Exponential(Q, nerve(sample.cat(J), 2), 2)
                assert fresh.products is not D.data(J).products
                assert fresh.ho.category.canonical_key() == D.eval(J).canonical_key()
        q = nerve(contractible_groupoid(), 3)
        spaces = [mapping_space(q, x, y) for x in ("a", "b") for y in ("a", "b")]
        assert all(M.exponent is q.interval and M.frame is spaces[0].frame for M in spaces)

    def test_exactness_gate(self):
        no_cert = horn(2, 1, 2)
        with pytest.raises(ExactnessError):
            Exponential(no_cert, standard_simplex(0, 2), 2)

    def test_ho_is_built_once_on_the_construction_budget(self):
        budget = Budget()
        E = Exponential(nerve(poset_simplex(1), 3), standard_simplex(1, 2), 2, budget)
        built = budget.used
        pres = E.ho
        first = budget.used - built
        assert E.ho is pres and budget.used - built == first
        check = Budget()
        assert is_quasicategory(E.sset, check).ok
        assert first == check.used > 0
        assert pres.category.objects == ho(E.sset).category.objects

    def test_face_and_degeneracy_structure(self):
        E = Exponential(nerve(poset_simplex(1), 3), standard_simplex(1, 2), 2)
        assert is_quasicategory(E.sset).ok
        pres = ho(E.sset)
        assert validate_category(pres.category).ok
        # Ho of the exponential is the arrow category of [1]: 3 objects
        assert len(pres.category.objects) == 3


@cache
def curried_tops() -> list:
    """Per curried exponential of the standard sample over N([2]), N(z2) and
    N(E): the maps S -> T^{Δ2} of its top level, and the transport columns
    of their splitting-slot keys and of their code tuples over S x Δ2."""
    sample = standard_sample()
    tops = []
    for T in (nerve(poset_simplex(2), 3), nerve(group_z2(), 3), nerve(contractible_groupoid(), 3)):
        for J in sample.order:
            E = Exponential(T, nerve(sample.cat(J), 2), 2)
            if E._top_path is None:  # a direct exponential
                continue
            path = path_object(T, E.products[2].right, 2, Budget())
            nus = map_codes(E.S_t, path.sset, Budget())
            tops.append((nus, *E.frame.transposition(2, path, nus)))
    return tops


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.data())
def test_splitting_key_sorts_the_top_level_as_its_code_tuples(data):
    tops = curried_tops()
    assert len(tops) == 6  # [1]x[1] and [1]+[1] over each base
    nus, keyed, columns = tops[data.draw(st.integers(0, len(tops) - 1))]
    picked = data.draw(st.lists(st.integers(0, len(nus) - 1), unique=True, max_size=60))
    maps = [nus[i] for i in picked]
    keys, codes = transport(maps, keyed), transport(maps, columns)
    assert sorted(range(len(maps)), key=keys.__getitem__) == sorted(range(len(maps)),
                                                                 key=codes.__getitem__)
    assert len(set(keys)) == len(maps)


def top_decoded(E: Exponential) -> bool:
    """Whether ``to_expr`` has transposed E's top level, by its memo slot."""
    return (E.k,) in vars(E).get("memo.to_expr", {})


class TestCurriedTopLevel:
    def test_reading_ho_leaves_the_top_level_undecoded(self):
        sample = standard_sample()
        for T in (nerve(group_z2(), 3), nerve(contractible_groupoid(), 3)):
            for J in ("[1]x[1]", "[1]+[1]"):
                E = Exponential(T, nerve(sample.cat(J), 2), 2)
                assert E.ho.category.objects and E.ho_batches and E.ho_morphisms
                assert not top_decoded(E)
                # decoded now: the direct search's maps, the cells in id order
                direct = map_codes(E.products[2], E.T_t, Budget())
                decoded = E.to_expr(2)
                assert top_decoded(E) and sorted(decoded) == direct
                ids = [f"c2_{i}" for i in range(len(E.sset.nondeg(2)))]
                assert ([E.codes_of(SimplexExpr((), x)) for x in ids]
                        == [codes for codes in direct if not decoded[codes].word])
                assert E.code_rows(2) == [codes for _, codes in sorted(
                    (E.sset.table(2).code[e], codes) for codes, e in decoded.items())]

    def test_codes_of_decodes_the_top_level_on_its_own(self):
        T = nerve(contractible_groupoid(), 3)
        E = Exponential(T, nerve(standard_sample().cat("[1]x[1]"), 2), 2)
        last = SimplexExpr((), E.sset.nondeg(2)[-1])
        assert not top_decoded(E)
        assert E.to_expr(2)[E.map_of(last).images] == last and top_decoded(E)
        degenerate = SimplexExpr((1,), E.sset.nondeg(1)[-1])
        assert E.locate(E.map_of(degenerate)) == degenerate
        direct = Exponential(T, E.exponent, 2, pinned={})
        assert all(E.to_expr(n) == direct.to_expr(n) for n in range(3))
        with pytest.raises(KeyError, match="dangling base identifier"):
            E.codes_of(SimplexExpr((), "no such cell"))


# two parallel edges f, g: x -> y and a 2-simplex making them homotopic,
# so that Ho and the exponentials over it have classes of more than one edge
HOMOTOPIC_PAIR = ("dim 2\ncoskeletal 2\n0: x y\n1: f g\n2: h\n"
                  "face f 0 = [] y\nface f 1 = [] x\nface g 0 = [] y\nface g 1 = [] x\n"
                  "face h 0 = [s0] y\nface h 1 = [] g\nface h 2 = [] f\n")


def assert_faces_are_the_faces_of_the_maps(E: Exponential):
    """Oracle for the coded levels: on every level n = 1..k each decoded
    face of a nondegenerate cell is the cell of its map's face, read out of
    the map's code tuple at the slots of the frame's face plan, whose words
    are empty, and on every level ``token_order`` is the order of ``total``."""
    S = E.sset
    for n in range(1, E.k + 1):
        plans = E.frame.faces[n]
        assert not any(word for plan in plans for _, word in plan), (E.name, n)
        for x in S.nondeg(n):
            codes = E.codes_of(SimplexExpr((), x))
            assert ([S.faces[(x, i)] for i in range(n + 1)]
                    == [E.expr_at(n - 1, tuple(codes[s] for s, _ in plan))
                        for plan in plans]), (E.name, x)
    for n in range(E.k + 1):
        assert S.token_order(n) == [S.table(n).code[e] for e in S.total(n)], (E.name, n)


def named(S: TruncatedSSet) -> bool:
    """Whether S has named its top level or decoded any face: built
    ``table(k)``, or decoded a ``faces`` entry (read past the decoding
    property)."""
    return (S.dim_bound,) in vars(S).get("memo.table", {}) or bool(vars(S)["_faces"])


class HandedRows(list):
    """Face rows handed to a set, in a list a weak reference can watch."""


TOP_BASES = [name for name, _ in corpus_quasicategories()] + ["fg"]


class TestCodedTopLevel:
    @pytest.mark.parametrize("base", TOP_BASES)
    def test_top_faces_are_the_faces_of_the_maps(self, base):
        # every exponential over the sample, direct and curried tops, and
        # the path objects the curried ones were built through
        T = (sset_from_text(HOMOTOPIC_PAIR, "fg") if base == "fg"
             else dict(corpus_quasicategories())[base])
        sample = standard_sample()
        exps = [Exponential(T, sample.nerve(J), 2) for J in sample.order]
        paths = [kept[0] for kept in path_objects(T).values()]
        tops = {E._top_path is None for E in exps}
        assert tops == ({True, False} if paths else {True})
        assert not any(named(E.sset) for E in exps)
        for E in exps + paths:
            assert_faces_are_the_faces_of_the_maps(E)

    def test_ho_values_never_name_their_top_level(self, monkeypatch):
        # nor decode a face on any level, and every level's rows handed
        # over are given up once read
        handed = []
        hand_over = TruncatedSSet.hand_over

        def watched(S, rows):
            rows = {n: HandedRows(level) for n, level in rows.items()}
            handed.extend(weakref.ref(level) for level in rows.values())
            assert sorted(rows) == list(range(1, S.dim_bound + 1))
            hand_over(S, rows)

        monkeypatch.setattr(TruncatedSSet, "hand_over", watched)
        sample = standard_sample()
        for T in (nerve(poset_simplex(2), 3), nerve(group_z2(), 3),
                  nerve(contractible_groupoid(), 3)):
            D = HoPrederivator(T, sample)
            for J in sample.order:
                D.eval(J)
            values = [D.data(J) for J in sample.order]
            assert {E._top_path is None for E in values} == {True, False}
            for E in values:
                assert (E.k,) in vars(E.sset)["memo.rows"] and not named(E.sset), E.name
            # nor does a path object that a curried exponential read
            paths = [kept[0] for kept in path_objects(T).values()]
            assert paths and not any(named(P.sset) for P in paths)
        gc.collect()
        assert handed and all(ref() is None for ref in handed)

    def test_a_level_above_the_top_is_no_cell(self):
        E = Exponential(nerve(poset_simplex(1), 3), standard_simplex(1, 2), 2)
        above = SimplexExpr((2, 1, 0), E.sset.nondeg(0)[0])
        for read in (lambda: E.code_rows(3), lambda: E.to_expr(3), lambda: E.codes_of(above),
                     lambda: E.map_of(above), lambda: E.expr_at(3, ()), lambda: E.code_rows(-1)):
            with pytest.raises(KeyError, match=re.escape(f"map is not a cell of {E.name}")):
                read()

    def test_a_map_out_of_no_product_is_no_cell(self):
        E = Exponential(nerve(poset_simplex(1), 3), standard_simplex(1, 2), 2)
        mu = enumerate_maps(standard_simplex(1, 2), E.T_t)[0]
        with pytest.raises(KeyError, match=re.escape(f"map is not a cell of {E.name}")):
            E.locate(mu)


def pinned_exponential(name: str) -> Exponential:
    """The exponentials of ``EXPONENTIAL_PINS``, by name."""
    sample, p1 = standard_sample(), poset_simplex(1)
    n1, n2 = nerve(p1, 3), nerve(poset_simplex(2), 3)
    if name.startswith("N([2])^N("):
        return Exponential(n2, sample.nerve(name[len("N([2])^N("):-1]), 2)
    return {
        "N(E)^N([1])": lambda: Exponential(nerve(contractible_groupoid(), 3),
                                           sample.nerve("[1]"), 2),
        "N(z2)^N([1]x[1])": lambda: Exponential(nerve(group_z2(), 3), sample.nerve("[1]x[1]"), 2),
        "N([1])^N([1]+[1])": lambda: Exponential(n1, sample.nerve("[1]+[1]"), 2),
        "N([1])^N([1]x[1]),k=3": lambda: Exponential(n1, nerve(product_cat(p1, p1), 3), 3),
        "N([2])(0,2)": lambda: mapping_space(n2, "0", "2"),
    }[name]()


# per exponential, the sha256 of ``sset_to_text(E.sset)`` and of the repr of
# ``[list(E.code_rows(n)) for n in 0..k]``, recorded while the levels below
# the top were still named as they were built.  N(E)^N([1]) is direct;
# N(z2)^N([1]x[1]), N([1])^N([1]+[1]) and N([1])^N([1]x[1]) at k = 3 (which
# curries T^{Δ3}) are curried; N([2])(0,2) is pinned; then N([2]) over every
# shape of the sample.  ``assert_matches_direct_search`` compares a curried
# build with a direct one, so only a recorded digest catches a drift they
# share.
EXPONENTIAL_PINS = [
    ("N(E)^N([1])",
     "5ddf6a5002a2f2c506129ec2c507a8ecd5fe8392e20460e5ea2a9a8e1a4d7925",
     "0b112747a823a79119eb2f577086d3c154ce49dc8d9a8f13de1f5bdab29eba48"),
    ("N(z2)^N([1]x[1])",
     "514218c5eb6d842c8242d1e919d5fe76d8fd0f598684d7bb08aaba7ee15e1e2e",
     "9a8ccf47ce282f4e548296aa5a133c25ef0028268b3679ea008955c4b8e8aec7"),
    ("N([1])^N([1]+[1])",
     "f8f3149950c1d2dd66f2f91c9d25261f9cdf9e58cb2bfd6c0982b2e298616a05",
     "5db25346c7eea5ecb9afa8dcab195567a7d3931f0b45808db2ae9f11ff6d7e82"),
    ("N([1])^N([1]x[1]),k=3",
     "b0375a98eb460cebc10f4a3da9c9779c26579f1ac567562645106dcaadeda649",
     "b73c8f01d78a4eaf337d10dfb1d1c240a67bed5944f7e61e9ca069a36edfa56a"),
    ("N([2])(0,2)",
     "4c03defbdbdd87778890f14b0c8184ed7326e7ca2665fa5ad2de141bcc15ac1e",
     "c27dddce87bd42c9836e64cad7024234d337b243d41f273becb4b50a5f79b62f"),
    ("N([2])^N([0])",
     "f3eab5400735e52d2bdea12f97092092bf894411c2a5656716444caef933ca0d",
     "0bc64160922b2912148a48c89c45dd75d0db25c86ca602c7b6f9016f27566b28"),
    ("N([2])^N([1])",
     "0b769c50969abb5404814eb68ad8c967b7d7e19069e44516299b0bc7a5045cbe",
     "2fd397cad71224db51a1c1b2c1620332807d282deb185eef14d781c03fe040c4"),
    ("N([2])^N([2])",
     "270481a384911a80aa9aab989faab773d3c7a61682d25139dde0bd4dca8fecd4",
     "a7f3995528f3d94cea18af03bd74e5af14dda917b4ac36a9c5c40fc4efe3ed61"),
    ("N([2])^N([0]x[1])",
     "0b769c50969abb5404814eb68ad8c967b7d7e19069e44516299b0bc7a5045cbe",
     "2fd397cad71224db51a1c1b2c1620332807d282deb185eef14d781c03fe040c4"),
    ("N([2])^N([1]x[1])",
     "9bc26ba2cdfa8ab58fbe9832b8ffe3d1f9ebdf87e33abb6b16dab5e9617de913",
     "74cc49b300f1745f0e7ff5626bdecae583a60eec47d7e006670dd2f794ecddd8"),
    ("N([2])^N(d[2])",
     "270481a384911a80aa9aab989faab773d3c7a61682d25139dde0bd4dca8fecd4",
     "935442192522ac33b8fa9427b5c5793fc061a148ae8bd888d11c1a16e75dc294"),
    ("N([2])^N(0)",
     "4c03defbdbdd87778890f14b0c8184ed7326e7ca2665fa5ad2de141bcc15ac1e",
     "90d0d4d945c67acc11fe052f2aada7983ceaaa4c74e095744ed18810f4607ec2"),
    ("N([2])^N([0]+[0])",
     "3128ed72b566d14e6b36478716882820cb9cdd402710376bc7070c4883a45ca0",
     "d5ef9c4a26b7c0fe5ad8c9dbc53667a740f5bbfd83f603569f830d7eb1416867"),
    ("N([2])^N([0]+[1])",
     "02d87194ef7b65fa62efabb0a33efacda35cba5cf18b4c640e6b5f73936a1736",
     "a04e0703fcf20f674bbf282b64136b28b5f99865d4f7af3e7ee36fb797f9b766"),
    ("N([2])^N([1]+[1])",
     "e24c58ef27b327b512fc1426110e31f16bdf733215c0d196cac127f849cbb927",
     "7aa4e38a78905d615c1a67c398d65841f08884d1fd6f44729fa4b6d06bf7e042"),
]


@pytest.mark.parametrize("name,text_sha,rows_sha", EXPONENTIAL_PINS,
                         ids=[pin[0] for pin in EXPONENTIAL_PINS])
def test_exponentials_are_the_recorded_ones(name, text_sha, rows_sha):
    E = pinned_exponential(name)
    rows = repr([list(E.code_rows(n)) for n in range(E.k + 1)])
    assert hashlib.sha256(sset_to_text(E.sset).encode()).hexdigest() == text_sha
    assert hashlib.sha256(rows.encode()).hexdigest() == rows_sha


class TestHoTables:
    def test_class_tables_are_the_classes_of_the_cells(self):
        Q = sset_from_text(HOMOTOPIC_PAIR, "fg")
        D = HoPrederivator(Q, standard_sample())
        sizes = []
        for J in ("[0]", "[1]", "[2]", "[0]x[1]", "[1]x[1]"):
            E = D.data(J)
            assert len(E.ho_morphisms) == len(E.sset.total(1))
            for key, e in E.to_expr(1).items():
                assert E.ho_morphisms[key] == E.ho.cls(e) == E.ho_morphism(key)
            edges, reps = E.sset.table(1).cells, E.ho.rep_codes
            assert E.ho_batches[1] == [E.codes_of(edges[reps[m]])
                                       for m in E.ho.category.nonidentity()]
            assert sorted(reps) == sorted(E.ho.category.morphisms)
            sizes.append((len(E.ho_morphisms), len(E.ho.category.morphisms)))
        assert sizes == [(4, 3), (15, 10), (41, 27), (15, 10), (149, 99)]
        with pytest.raises(KeyError, match=re.escape(f"map is not a cell of {E.name}")):
            E.ho_morphism(E.codes_of(edges[reps[min(reps)]])[:-1])

    def test_class_table_is_the_closure_of_the_one_step_relation(self):
        # the classes by merging sets over every 2-simplex's faces; each
        # edge's morphism is the token of the least member of its class
        D = HoPrederivator(sset_from_text(HOMOTOPIC_PAIR, "fg"), standard_sample())
        sets = [D.data(J).sset for J in ("[0]", "[1]", "[2]", "[0]x[1]", "[1]x[1]")]
        sets += [S for _, S in corpus_quasicategories()]
        merged = 0
        for S in sets:
            pairs = []
            for sigma in S.total(2):
                d0, d1, d2 = (S.face(sigma, i) for i in range(3))
                if d2.word:  # degenerate: an identity at the initial vertex
                    pairs.append((d0, d1))
                if d0.word:
                    pairs.append((d1, d2))
            edges = S.total(1)
            part = merged_classes(edges, pairs)
            pres = ho(S)
            assert [pres.cls(e) for e in edges] == [min(part[e]).token() for e in edges], S.name
            merged += len(edges) - len(set(part.values()))
        assert merged == 75  # the exponentials' (4, 3), (15, 10), (41, 27), (15, 10), (149, 99)

    def test_ho_keeps_the_class_of_every_code(self):
        Q = sset_from_text(HOMOTOPIC_PAIR, "fg")
        pres, edges = ho(Q), Q.table(1)
        assert pres.classes == [pres.cls(e) for e in edges.cells]
        assert pres.classes[edges.code[SimplexExpr((), "g")]] == "f"
        assert all(edges.cells[c].token() == m for m, c in pres.rep_codes.items())
        assert {e.token(): pres.cls(e) for e in Q.total(1)} == {"f": "f", "g": "f", "s0.x": "s0.x",
                                                                "s0.y": "s0.y"}
        assert pres.category.morphisms == {"f": ("x", "y"), "s0.x": ("x", "x"),
                                           "s0.y": ("y", "y")}

    def test_transports_read_the_class_tables(self):
        # u* against the rule that locates each restricted representative
        # and asks Ho for the class of its cell by token
        Q = sset_from_text(HOMOTOPIC_PAIR, "fg")
        sample = standard_sample()
        D = HoPrederivator(Q, sample)
        shapes = {"[0]", "[1]", "[2]", "[0]x[1]", "[1]x[1]"}
        checked = []
        for name, u in sorted(sample.functors.items()):
            src, dst = sample.ends(u)
            if src not in shapes or dst not in shapes:
                continue
            dj, dk = D.data(src), D.data(dst)
            plan = sample.restriction(u, dj.frame, dk.frame)[1]
            F = D.on_functor(u)
            nonid = dk.ho.category.nonidentity()
            edges = dk.sset.table(1).cells
            reps = [dk.codes_of(edges[dk.ho.rep_codes[m]]) for m in nonid]
            moved = transport(reps, plan_columns(plan, dj.products[1], dj.T_t))
            assert moved == [gather_one(codes, plan, dj.products[1], dj.T_t) for codes in reps]
            for m, codes in zip(nonid, moved):
                assert F.on_morphism(m) == dj.ho.cls(dj.expr_at(1, codes)), (name, m)
            checked.append(name)
        assert len(checked) == 32


def merged_classes(items, pairs) -> dict:
    """Oracle: per item, its class in the equivalence relation that
    ``pairs`` generate, by merging sets."""
    part = {x: frozenset((x,)) for x in items}
    for a, b in pairs:
        if part[a] is not part[b]:
            merged = part[a] | part[b]
            part.update(dict.fromkeys(merged, merged))
    return part


def pi0(sset):
    """Oracle: path components of a truncated simplicial set."""
    ends = [(sset.faces[(e, 1)].base, sset.faces[(e, 0)].base) for e in sset.nondeg(1)]
    return len(set(merged_classes(sset.nondeg(0), ends).values()))


class TestMappingSpace:
    def test_pi0_matches_hom_set(self):
        q = nerve(poset_simplex(1), 3)
        for x, y, expected in [("0", "1", 1), ("1", "0", 0), ("0", "0", 1)]:
            M = mapping_space(q, x, y)
            count = pi0(M.sset) if M.sset.nondeg(0) else 0
            assert count == expected, (x, y)

    def test_point_in_endo_space(self):
        q = nerve(poset_simplex(1), 3)
        M = mapping_space(q, "0", "0")
        assert len(M.sset.nondeg(0)) >= 1

    def test_group_mapping_space_components(self):
        q = nerve(group_z2(), 3)
        M = mapping_space(q, "*", "*")
        assert pi0(M.sset) == 2

    def test_kan_report(self):
        q = nerve(contractible_groupoid(), 3)
        M = mapping_space(q, "a", "b")
        assert isinstance(M, Exponential) and M.name == f"{q.name}(a,b)"
        assert kan_check(M.sset).ok

    def test_kan_check_of_group_nerve(self):
        report = kan_check(nerve(group_z2(), 3))
        assert report.ok and report.horns_checked == 46
        # a 1-horn is the vertex *, filled by the degenerate edge and by g
        assert report.by_horn[(1, 0)] == (1, False)
        assert not report.unique_fillers

    def test_kan_check_charges_the_indexed_fillers(self):
        # each of the 46 horns: its shell search, one step per n-simplex of the
        # nerve and one per horn map; no search of Δⁿ pinned to a horn map
        budget = Budget()
        report = kan_check(nerve(group_z2(), 3), budget)
        assert report.horns_checked == 46 and budget.used == 382

    def test_kan_check_names_the_unfilled_outer_horn(self):
        report = kan_check(nerve(poset_simplex(1), 3))
        assert not report.ok and report.horns_checked == 38
        assert report.witness == ("horn(2,0) {'0': '0', '01': 'm01', '02': 's0.0', "
                                  "'1': '1', '2': '0'}")

    def test_cells_are_the_maps_with_pinned_ends(self):
        q = nerve(contractible_groupoid(), 3)
        M = mapping_space(q, "a", "b")
        whole = Exponential(q, standard_simplex(1, 2), 2)
        pins = {"0": "a", "1": "b"}
        for n in range(3):
            for cid in M.sset.nondeg(n):
                mu = M.map_of(SimplexExpr((), cid))
                for pid, (e1, _) in M.products[n].pair_of.items():
                    if e1.base in pins:
                        assert mu.assignment[pid] == SimplexExpr(
                            full_degeneracy(len(e1.word)), pins[e1.base])
            # the same count as the cells of the whole exponential with these ends
            ends = [e for e in whole.sset.total(n)
                    if all(whole.evaluate_at_vertex(whole.map_of(e), v, n)
                           == SimplexExpr(full_degeneracy(n), x) for v, x in pins.items())]
            assert len(ends) == len(M.sset.total(n)) > 0

    def test_base_certified_above_level_two(self):
        # Δ3 is 3-coskeletal, so its interval is known up to level 3; the
        # mapping space between two vertices of a simplex is a point
        M = mapping_space(standard_simplex(3, 3), "0", "1")
        assert [len(M.sset.nondeg(n)) for n in range(3)] == [1, 0, 0]
        assert M.exponent.dim_bound == 3

    def test_nerve_mapping_space_ho_is_discrete(self):
        q = nerve(poset_simplex(2), 3)
        M = mapping_space(q, "0", "2")
        pres = ho(M.sset)
        assert not pres.category.nonidentity()


class TestHornFilling:
    """Inner horns through ``extensions``, the one horn-filling path."""

    def test_nerve_fillers_unique(self):
        for cat in [poset_simplex(2), boundary_two(), group_z2(), contractible_groupoid()]:
            q = nerve(cat, 3)
            for n in (2, 3):
                for i in range(1, n):
                    found = list(extensions(horn(n, i, 2), n, q, None))
                    assert found and all(len(fillers) == 1 for _, fillers in found), cat.name

    def test_degenerate_horn_filling(self):
        q = nerve(poset_simplex(1), 3)
        s0x = SimplexExpr((0,), "0")
        (fillers,) = [fillers for h, fillers in extensions(horn(2, 1, 2), 2, q, None)
                      if h.assignment["01"] == h.assignment["12"] == s0x]
        assert [f.assignment["012"] for f in fillers] == [SimplexExpr((1, 0), "0")]

    def test_filler_face_is_ho_composite(self):
        q = nerve(boundary_two(), 3)
        pres = ho(q)
        checked = 0
        for h, fillers in extensions(horn(2, 1, 2), 2, q, None):
            composite = pres.category.compose(pres.cls(h.assignment["12"]),
                                              pres.cls(h.assignment["01"]))
            for filler in fillers:
                assert pres.cls(q.face(filler.assignment["012"], 1)) == composite
                checked += 1
        assert checked == len(q.total(2))
