"""Core simplicial machinery against brute-force combinatorial oracles."""

import gc
import hashlib
import re
import sys
import weakref
from itertools import combinations
from itertools import product as iproduct
from operator import getitem, itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcatkit.prederivator as prederivator
import qcatkit.simplicial as simplicial
from qcatkit.cats import (boundary_two, contractible_groupoid, coproduct_cat, group_z2,
                          poset_simplex, product_cat)
from qcatkit.corpus import add_idempotent, corpus_ssets, face_mutations, labeled_map_corpus
from qcatkit.mapping import exponent_frame, kan_check
from qcatkit.nerve import is_quasicategory, nerve
from qcatkit.prederivator import HoPrederivator, standard_sample
from qcatkit.simplicial import (
    SimplexExpr,
    SimplicialMap,
    TruncatedSSet,
    boundary,
    check_collapse,
    compose_maps,
    compose_words,
    empty_sset,
    enumerate_maps,
    extensions,
    face_through_word,
    insert_letter,
    horn,
    identity_map,
    inner_collapse,
    map_codes,
    monotone_tuples,
    parse_expr,
    product,
    projection,
    simplicial_action,
    sset_from_text,
    sset_to_text,
    standard_simplex,
    valid_words,
    weak_seq_to_word,
)
from qcatkit.util import Budget, BudgetExceeded
from test_cats import poset


def monotone_maps(m, n):
    """Oracle: all weakly monotone maps [m] -> [n] by brute force."""
    return [t for t in iproduct(range(n + 1), repeat=m + 1)
            if all(t[i] <= t[i + 1] for i in range(m))]


def surjective_monotone(m, n):
    return [t for t in monotone_maps(m, n) if set(t) == set(range(n + 1))]


def pinned_maps(S, T, fixed):
    """The maps S -> T that agree with the images ``fixed`` pins, by the
    pinned map search."""
    return [SimplicialMap(S, T, codes) for codes in map_codes(S, T, Budget(), fixed)]


# -- degeneracy words -------------------------------------------------------

def word_to_surjection(word, n):
    """Oracle: evaluate a degeneracy word as a monotone surjection [n] -> [m]."""
    def sigma(j, k):  # collapse j, j+1 in [k]
        return [t if t <= j else t - 1 for t in range(k + 1)]

    # operator word (i1,...,ik) acts on presheaves by x . (sigma_{ik} ∘ ... ∘ sigma_{i1})
    total = list(range(n + 1))
    cur = n
    for j in word:  # leftmost operator = innermost map applied to indices last
        s = sigma(j, cur)
        total = [s[t] for t in total]
        cur -= 1
    return tuple(total)


def surjection_word(seq):
    """Oracle: the normal form of a letter sequence, the positions where the
    vertex surjection it presents repeats, largest first; the sequence is
    applied to a simplex of dimension its largest letter, where every letter
    is defined."""
    n = len(seq) + max(seq, default=0)
    total = word_to_surjection(seq, n)
    return tuple(p for p in reversed(range(n)) if total[p] == total[p + 1])


class TestWords:
    def test_monotone_tuples_match_oracle_in_order(self):
        for m in range(4):
            for n in range(4):
                assert monotone_tuples(m, n) == monotone_maps(m, n)

    def test_normal_form_counts_surjections(self):
        for n in range(5):
            for m in range(n + 1):
                assert len(valid_words(n, m)) == len(surjective_monotone(n, m))

    def test_words_encode_distinct_surjections(self):
        for n in range(5):
            for m in range(n + 1):
                seen = {word_to_surjection(w, n) for w in valid_words(n, m)}
                assert len(seen) == len(valid_words(n, m))

    def test_normal_forms_match_the_surjection_oracle(self):
        for k in range(5):
            for seq in iproduct(range(4), repeat=k):
                word = surjection_word(seq)
                assert compose_words(seq, ()) == word, seq
                assert all(word[i] > word[i + 1] for i in range(len(word) - 1))
                for j in range(4):
                    assert insert_letter(j, word) == surjection_word((j,) + word), (j, seq)

    @given(st.lists(st.integers(min_value=0, max_value=4), max_size=4),
           st.lists(st.integers(min_value=0, max_value=4), max_size=4))
    def test_compose_matches_concatenation(self, u, v):
        assert compose_words(tuple(u), surjection_word(v)) == surjection_word(tuple(u) + tuple(v))

    def test_face_cancellation(self):
        # d_1 s_0 = id and d_0 s_0 = id
        assert face_through_word(1, (0,)) == ((), None)
        assert face_through_word(0, (0,)) == ((), None)
        # d_0 s_1 = s_0 d_0
        assert face_through_word(0, (1,)) == ((0,), 0)

    def test_expr_tokens_round_trip(self):
        e = SimplexExpr((2, 0), "ab")
        assert parse_expr(e.token()) == e
        assert parse_expr("v").token() == "v"


# -- standard simplices, horns, boundaries ----------------------------------

class TestStandardObjects:
    def test_delta2_counts(self):
        s = standard_simplex(2, 3)
        assert [len(s.nondeg(n)) for n in range(4)] == [3, 3, 1, 0]

    def test_delta0(self):
        s = standard_simplex(0, 2)
        assert [len(s.nondeg(n)) for n in range(3)] == [1, 0, 0]

    def test_total_level_counts_match_monotone_oracle(self):
        # total m-simplices of delta n = monotone maps [m] -> [n]
        for n in range(4):
            s = standard_simplex(n, 3)
            for m in range(4):
                assert len(s.total(m)) == len(monotone_maps(m, n))

    def test_horn21_shape(self):
        h = horn(2, 1, 2)
        assert [len(h.nondeg(n)) for n in range(3)] == [3, 2, 0]
        assert set(h.nondeg(1)) == {"01", "12"}

    def test_horn10_is_vertex_zero(self):
        # generated by the face d_1, whose image is vertex 0
        h = horn(1, 0, 2)
        assert h.nondeg(0) == ("0",)
        assert not h.nondeg(1)

    def test_boundary2_shape(self):
        b = boundary(2, 2)
        assert [len(b.nondeg(n)) for n in range(3)] == [3, 3, 0]

    def test_horn_and_boundary_past_nine_vertices(self):
        # cells of Δ¹⁰ are named with separators; both hold its 2-skeleton
        for shell in (horn(10, 3, 2), boundary(10, 2)):
            assert shell.validate().ok
            assert [len(shell.nondeg(n)) for n in range(3)] == [11, 55, 165]

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            standard_simplex(-1, 2)
        with pytest.raises(ValueError):
            standard_simplex(2, 1)
        with pytest.raises(ValueError):
            horn(2, 3, 2)

    def test_face_conventions(self):
        # d_0 of the edge of delta 1 is the final vertex
        s = standard_simplex(1, 3)
        e = SimplexExpr((), "01")
        assert s.face(e, 0) == SimplexExpr((), "1")
        assert s.face(e, 1) == SimplexExpr((), "0")
        # d_1 s_0 v = v for a vertex, d_1 s_0 e = e for an edge
        assert s.face(SimplexExpr((0,), "0"), 1) == SimplexExpr((), "0")
        assert s.face(SimplexExpr((0,), "01"), 1) == SimplexExpr((), "01")


# -- validation --------------------------------------------------------------

class TestValidation:
    def test_good_simplex_passes(self):
        assert standard_simplex(3, 3).validate().ok

    def test_empty_passes(self):
        assert empty_sset().validate().ok

    def test_mutated_face_fails_with_named_identity(self):
        s = standard_simplex(2, 2)
        faces = dict(s.faces)
        faces[("01", 0)] = SimplexExpr((), "0")  # wrong endpoint
        bad = type(s)(2, {n: s.nondeg(n) for n in range(3)}, faces, None, "mutant")
        report = bad.validate()
        assert not report.ok
        assert any("d_" in v and "identity" in v for v in report.violations)

    def test_dangling_reference_reported(self):
        s = standard_simplex(1, 2)
        faces = dict(s.faces)
        faces[("01", 0)] = SimplexExpr((), "ghost")
        bad = type(s)(2, {n: s.nondeg(n) for n in range(3)}, faces, None, "mutant")
        report = bad.validate()
        assert not report.ok
        assert any("dangling" in v for v in report.violations)

    def test_dangling_face_base_fails_the_map_search_loudly(self):
        s = standard_simplex(1, 2)
        faces = dict(s.faces)
        faces[("01", 0)] = SimplexExpr((), "ghost")
        bad = type(s)(2, {n: s.nondeg(n) for n in range(3)}, faces, None, "mutant")
        with pytest.raises(KeyError, match="dangling base identifier 'ghost' in mutant"):
            map_codes(bad, s, Budget())

    def test_simplicial_identities_on_all_corpus(self):
        for s in [standard_simplex(3, 3), boundary(3, 3), horn(3, 1, 3),
                  product(standard_simplex(1, 2), standard_simplex(1, 2))]:
            assert s.validate().ok, s.name

    def test_coskeletal_certificate_checked(self):
        assert standard_simplex(2, 3).validate().ok
        # the boundary of a 2-simplex is not 2-coskeletal: the full shell
        # has no filler
        b = boundary(2, 2)
        claimed = type(b)(2, {n: b.nondeg(n) for n in range(3)}, b.faces, 1, "bad-cert")
        assert not claimed.validate().ok


# -- products ----------------------------------------------------------------

def joint_nondeg_pairs(m, a, b):
    """Oracle: pairs of monotone maps [m] -> [a] x [b], jointly injective."""
    out = []
    for f in monotone_maps(m, a):
        for g in monotone_maps(m, b):
            if all((f[i], g[i]) != (f[i + 1], g[i + 1]) for i in range(m)):
                out.append((f, g))
    return out


class TestProduct:
    def test_square_counts_match_oracle(self):
        p = product(standard_simplex(1, 3), standard_simplex(1, 3))
        for m in range(3):
            assert len(p.nondeg(m)) == len(joint_nondeg_pairs(m, 1, 1))
        assert [len(p.nondeg(n)) for n in range(3)] == [4, 5, 2]

    def test_prism_counts_match_oracle(self):
        p = product(standard_simplex(2, 3), standard_simplex(1, 3))
        for m in range(4):
            assert len(p.nondeg(m)) == len(joint_nondeg_pairs(m, 2, 1))

    def test_product_validates(self):
        p = product(standard_simplex(2, 3), standard_simplex(1, 3))
        assert p.validate().ok

    def test_unit_laws(self):
        t = standard_simplex(2, 3)
        for p, side in [(product(t, standard_simplex(0, 3)), 0),
                        (product(standard_simplex(0, 3), t), 1)]:
            u = projection(p, side)
            assert u.validate().ok
            # an isomorphism: nondegenerate cells onto nondegenerate cells, bijectively
            for n in range(4):
                images = [u.assignment[x] for x in p.nondeg(n)]
                assert all(not e.word for e in images)
                assert sorted(e.base for e in images) == sorted(t.nondeg(n)), (side, n)

    def test_map_pairs_visits_cells_in_level_order(self):
        p = product(standard_simplex(1, 2), standard_simplex(2, 2))
        seen = []
        f = p.map_pairs(p.left, lambda e1, e2: seen.append((e1, e2)) or e1)
        assert seen == [p.pair_of[pid] for xs in p.levels.values() for pid in xs]
        assert f.key() == projection(p, 0).key() and f.validate().ok


# -- map enumeration ----------------------------------------------------------

class TestEnumerateMaps:
    def test_delta1_self_maps(self):
        d1 = standard_simplex(1, 2)
        maps = enumerate_maps(d1, d1)
        assert len(maps) == 3  # oracle: monotone maps [1] -> [1]

    def test_yoneda(self):
        # maps delta n -> T correspond to total n-simplices of T
        t = product(standard_simplex(1, 3), standard_simplex(1, 3))
        for n in range(3):
            maps = enumerate_maps(standard_simplex(n, max(2, n)), t)
            top = "".join(str(i) for i in range(n + 1))
            images = {m.assignment[top] for m in maps}
            assert len(maps) == len(t.total(n)) == len(images)

    def test_terminal_target(self):
        pt = standard_simplex(0, 2)
        assert len(enumerate_maps(boundary(2, 2), pt)) == 1
        assert len(enumerate_maps(standard_simplex(0, 2), pt)) == 1

    def test_vertex_maps(self):
        t = standard_simplex(2, 2)
        assert len(enumerate_maps(standard_simplex(0, 2), t)) == 3

    def test_empty_source(self):
        maps = enumerate_maps(empty_sset(), standard_simplex(1, 2))
        assert len(maps) == 1 and maps[0].assignment == {}

    def test_maps_validate(self):
        d1 = standard_simplex(1, 2)
        d2 = standard_simplex(2, 2)
        for m in enumerate_maps(d1, d2):
            assert m.validate().ok

    def test_composition_and_identity(self):
        d1 = standard_simplex(1, 2)
        d2 = standard_simplex(2, 2)
        maps = enumerate_maps(d1, d2)
        for m in maps:
            assert compose_maps(m, identity_map(d1)) == m
            assert compose_maps(identity_map(d2), m) == m

    def test_fixed_extension(self):
        # extending the identity horn inclusion into the full simplex
        h = horn(2, 1, 2)
        d2 = standard_simplex(2, 2)
        fixed = {x: SimplexExpr((), x) for n in range(3) for x in h.nondeg(n)}
        fillers = pinned_maps(d2, d2, fixed)
        assert len(fillers) == 1  # only the identity extends it

    def test_search_plan_is_kept_and_fixed_applies_per_call(self):
        d2 = standard_simplex(2, 2)
        t = product(standard_simplex(1, 2), standard_simplex(1, 2))
        every = enumerate_maps(d2, t)
        plan = d2.search_plan
        vertex = every[-1].assignment["0"]
        pinned = pinned_maps(d2, t, {"0": vertex})
        assert d2.search_plan is plan
        assert enumerate_maps(d2, t) == every
        assert pinned == [f for f in every if f.assignment["0"] == vertex] != every

    def test_extensions_pair_shell_maps_with_fillers(self):
        # each 2-simplex of the target fills its own boundary and no other
        t = product(standard_simplex(1, 2), standard_simplex(1, 2))
        shell = boundary(2, 2)
        found = list(extensions(shell, 2, t, None))
        assert [m for m, _ in found] == enumerate_maps(shell, t)
        d2 = standard_simplex(2, 2)
        for m, fillers in found:
            assert fillers == pinned_maps(d2, t, m.assignment)
        assert sum(len(f) for _, f in found) == len(t.total(2))

    def test_extensions_match_the_pinned_search(self):
        # fillers by index against the pinned search over Δⁿ, every horn and
        # boundary up to each member's truncation
        shell_maps = found = 0
        for name, T in corpus_ssets():
            for shell, n in extension_problems(T.dim_bound):
                got = list(extensions(shell, n, T, None))
                assert got == pinned_extensions(shell, n, T), (name, shell.name)
                shell_maps += len(got)
                found += sum(len(fillers) for _, fillers in got)
        assert (shell_maps, found) == (3901, 3665)
        # among them, outer horns: N([1]) leaves some unfilled, N(z2) fills some twice
        outer = [(horn(n, i, 2), n) for n in (1, 2) for i in (0, n)]
        n1, z2 = dict(corpus_ssets())["N([1])"], dict(corpus_ssets())["N(z2)"]
        assert any(not f for h, n in outer for _, f in extensions(h, n, n1, None))
        assert any(len(f) > 1 for h, n in outer for _, f in extensions(h, n, z2, None))

    def test_extensions_match_the_pinned_search_where_identities_fail(self):
        # a top simplex whose faces disagree is no map; both sides drop it
        for M in face_mutations():
            for shell, n in extension_problems(M.dim_bound):
                assert list(extensions(shell, n, M, None)) == pinned_extensions(shell, n, M)

    def test_extensions_charge_the_search_the_index_and_the_lookups(self):
        for name, T in corpus_ssets():
            for shell, n in extension_problems(T.dim_bound):
                search, spent = Budget(), Budget()
                shell_maps = map_codes(shell, T, search)
                list(extensions(shell, n, T, spent))
                assert spent.used == search.used + len(T.total(n)) + len(shell_maps), name


def extension_problems(D):
    """Every horn and boundary of Δⁿ, n = 1 .. D, with its n."""
    for n in range(1, D + 1):
        for shell in [horn(n, i, max(2, n - 1)) for i in range(n + 1)] + [boundary(n, max(2, n - 1))]:
            yield shell, n


def pinned_extensions(shell, n, T):
    """Oracle: each shell map with the maps Δⁿ -> T the search pins to it."""
    simplex = standard_simplex(n, max(2, n))
    return [(m, pinned_maps(simplex, T, m.assignment)) for m in enumerate_maps(shell, T)]


DELTA3 = standard_simplex(3, 3)


@st.composite
def subcomplexes_of_delta3(draw, min_tops=0, max_tops=5):
    """A proper face-closed subcomplex of Δ³: every face of some drawn
    simplices below the top one (Δ³ itself is the corpus member delta3)."""
    below_top = [x for x in DELTA3.cells if len(x) < 4]
    tops = draw(st.lists(st.sampled_from(below_top), min_size=min_tops, max_size=max_tops,
                         unique=True))
    kept = {"".join(c) for x in tops for k in range(1, len(x) + 1) for c in combinations(x, k)}
    levels = {k: [x for x in kept if len(x) == k + 1] for k in range(4)}
    faces = {(x, i): f for (x, i), f in DELTA3.faces.items() if x in kept}
    return TruncatedSSet(3, levels, faces, None, "sub(" + ",".join(sorted(tops)) + ")")


def coproduct_sset(A, B):
    """A + B, with A's cells renamed a<id> and B's b<id>."""
    D = max(A.dim_bound, B.dim_bound)
    levels = {n: ["a" + x for x in A.nondeg(n)] + ["b" + x for x in B.nondeg(n)]
              for n in range(D + 1)}
    faces = {(p + x, i): SimplexExpr(f.word, p + f.base)
             for p, S in (("a", A), ("b", B)) for (x, i), f in S.faces.items()}
    return TruncatedSSet(D, levels, faces, None, f"({A.name}+{B.name})")


@st.composite
def disconnected_sources(draw):
    """(A + B) x Δn truncated at 2, on at most 8 vertices: for A and B the
    nerves of [0], [1] or [2] (n <= 1, and n = 0 with [2]), or face-closed
    subcomplexes of Δ³ on one or two drawn simplices (n = 0)."""
    if draw(st.booleans()):
        J, K = (draw(st.integers(0, 2)) for _ in range(2))
        A = nerve(coproduct_cat(poset_simplex(J), poset_simplex(K)), 2)
        n = draw(st.integers(0, 0 if 2 in (J, K) else 1))
    else:
        A = coproduct_sset(*(draw(subcomplexes_of_delta3(1, 2)) for _ in range(2)))
        n = 0
    return product(A, standard_simplex(n, 2))


@st.composite
def nerves_times_simplices(draw):
    """N(C) x Δn for a small category C and n = 1 or 2, truncated at 2."""
    C = draw(st.sampled_from([poset_simplex(0), poset_simplex(1), group_z2(),
                              contractible_groupoid()]))
    return product(nerve(C, 2), standard_simplex(draw(st.integers(1, 2)), 2))


# per corpus member and face mutation: the steps charged by validate,
# is_quasicategory and kan_check, each on a fresh budget in that order, and
# the first 16 hex digits of the sha256 of their verdicts (``check_record``),
# all recorded before the shells and the target's answers were kept; the
# steps re-recorded when the map search began to read faces off the
# simplex above them, and the is_quasicategory steps when the 2-horn check
# came to charge one step per edge in place of one per composable pair
# (the digests did not move)
CHECK_RECORDS = {
    "delta0": (13, 2, 27, "992e4f159893839c"),
    "delta1": (31, 7, 79, "735023fd55da31af"),
    "delta2": (0, 16, 174, "fe452512462d92bb"),
    "delta3": (0, 920, 2295, "a905f4aaaedcb534"),
    "boundary1": (0, 4, 49, "cd54aca6fd2cf451"),
    "boundary2": (0, 15, 171, "9978491cea343f04"),
    "boundary3": (0, 918, 2291, "904d6b3dd0cc5c8c"),
    "horn1_0": (0, 2, 27, "5b0057a5cf3825d1"),
    "horn1_1": (0, 2, 27, "5b0057a5cf3825d1"),
    "horn2_0": (0, 12, 135, "ef69b5083f723dcc"),
    "horn2_1": (0, 12, 133, "88e9ce05a6d58c32"),
    "horn2_2": (0, 12, 135, "58aafad591146460"),
    "horn3_0": (0, 867, 2188, "2b0427be7b383fd9"),
    "horn3_1": (0, 863, 2174, "353f3ba95468f49e"),
    "horn3_2": (0, 861, 2168, "49ef7655a4c37eb2"),
    "horn3_3": (0, 857, 2170, "4627b3c223ae635c"),
    "N([0])": (17, 32, 87, "95e86d826a934c9e"),
    "N([1])": (78, 141, 359, "aab9e85ba3057c78"),
    "N([2])": (229, 404, 1012, "569bcf40b5396afc"),
    "N([3])": (530, 920, 2295, "39dcac974046ff4f"),
    "N([1]x[1])": (400, 703, 1785, "219d23e0d9aab90f"),
    "N(d[2])": (308, 543, 1402, "ed7dcfb1d925d056"),
    "N(z2)": (94, 162, 382, "2490228634ee8c51"),
    "N(E)": (187, 322, 755, "bbb4301e951c8636"),
    "delta1xdelta1": (521, 703, 1785, "07570568eec01a56"),
    "N([1])xN([1])": (400, 703, 1785, "916e432c1afc2f44"),
    "N([1])xN(z2)": (495, 836, 1979, "df2fd8c256be52d8"),
    "delta2/d0(012)->01": (0, 16, 174, "62f16b99d46962fd"),
    "delta2/d1(012)->01": (0, 16, 174, "9abc728b11f5bea4"),
    "delta3/d0(012)->01": (0, 866, 2189, "8b31167c1d9565d6"),
    "delta3/d1(012)->01": (0, 866, 2189, "572ab7cecd48f35a"),
    "boundary3/d0(012)->01": (0, 864, 2185, "adf998d82d0c501b"),
    "boundary3/d1(012)->01": (0, 864, 2185, "88755b33dca9181c"),
    "horn3_0/d0(012)->01": (0, 817, 2086, "5333b0be50c1f474"),
    "horn3_0/d1(012)->01": (0, 817, 2086, "f209d2473be3b5d4"),
    "horn3_1/d0(012)->01": (0, 813, 2074, "5333b0be50c1f474"),
    "horn3_1/d1(012)->01": (0, 813, 2074, "d0c68776925e40b1"),
    "horn3_2/d0(012)->01": (0, 813, 2074, "5333b0be50c1f474"),
    "horn3_2/d1(012)->01": (0, 813, 2074, "d8b6fb168ad0f30e"),
    "horn3_3/d0(013)->01": (0, 813, 2074, "51110c0b0f9527b3"),
    "horn3_3/d1(013)->01": (0, 813, 2074, "1ca843fb3b37302d"),
    "N([2])/d0(m01|m12)->m01": (0, 364, 930, "d93ce850de4dd688"),
    "N([2])/d1(m01|m12)->m01": (0, 364, 930, "d3ae589b72265ef3"),
    "N([3])/d0(m01|m12)->m01": (0, 866, 2189, "29674a46e98314a5"),
    "N([3])/d1(m01|m12)->m01": (0, 866, 2189, "7a6bd6958bed0bc9"),
    "N([1]x[1])/d0((m00,m01)|(m01,m11))->(m00,m01)": (0, 659, 1691, "81a77edc0ff5ae9d"),
    "N([1]x[1])/d1((m00,m01)|(m01,m11))->(m00,m01)": (0, 659, 1691, "13b79a555ccf8612"),
}


def check_record(S):
    """(steps per check, repr of the verdicts) of validate, is_quasicategory
    and kan_check on S, run in that order."""
    budgets = [Budget() for _ in range(3)]
    v = S.validate(budget=budgets[0])
    q, k = is_quasicategory(S, budgets[1]), kan_check(S, budgets[2])
    verdicts = ([v.ok, v.checked, v.violations],) + tuple(
        [r.ok, r.horns_checked, sorted(r.by_horn.items()), r.witness] for r in (q, k))
    return tuple(b.used for b in budgets), repr(verdicts)


def fresh(S):
    """A copy of S that shares none of its kept tables and answers."""
    return TruncatedSSet(S.dim_bound, S.levels, S.faces, S.coskeletal_from, S.name)


def counted_searches(monkeypatch):
    """The sources of every shell search from here on."""
    sources = []
    search = simplicial.map_codes

    def counting(S, T, budget, fixed=None):
        sources.append(S)
        return search(S, T, budget, fixed)

    monkeypatch.setattr(simplicial, "map_codes", counting)
    return sources


class TestSharedShells:
    def test_shells_are_built_once_with_their_simplex(self):
        for n in range(1, 4):
            for D in (max(2, n - 1), max(2, n)):
                shells = [boundary(n, D)] + [horn(n, i, D) for i in range(n + 1)]
                assert shells[0] is boundary(n, D)
                assert all(h is horn(n, i, D) for i, h in enumerate(shells[1:]))
                for shell in shells:
                    assert shell.simplex.cells == standard_simplex(n, max(2, n)).cells
                    assert set(shell.cells) < set(shell.simplex.cells)
        assert horn(2, 1, 2) is not horn(2, 1, 3)

    def test_repeated_kan_check_builds_no_simplex(self, monkeypatch):
        S = dict(corpus_ssets())["N([1])xN(z2)"]
        first = kan_check(S)
        built = []
        build = simplicial.standard_simplex

        def counting(n, D):
            built.append((n, D))
            return build(n, D)

        monkeypatch.setattr(simplicial, "standard_simplex", counting)
        assert kan_check(S).lines() == first.lines()
        assert built == []

    def test_check_steps_per_corpus_member(self):
        steps = {}
        for name, S in corpus_ssets():
            qcat, kan = Budget(), Budget()
            is_quasicategory(S, qcat)
            kan_check(S, kan)
            steps[name] = (qcat.used, kan.used)
        assert steps == {name: CHECK_RECORDS[name][1:3] for name, _ in corpus_ssets()}

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(subcomplexes_of_delta3())
    def test_extensions_into_subcomplexes_of_delta3(self, T):
        for shell, n in extension_problems(3):
            assert list(extensions(shell, n, T, None)) == pinned_extensions(shell, n, T), \
                (T.name, shell.name)


class TestKeptAnswers:
    def test_verdicts_and_steps_as_recorded(self):
        sets = corpus_ssets() + [(M.name, M) for M in face_mutations()]
        for _ in range(2):  # the second round reads the answers the first one kept
            got = {}
            for name, S in sets:
                steps, verdicts = check_record(S)
                got[name] = steps + (hashlib.sha256(verdicts.encode()).hexdigest()[:16],)
            assert got == CHECK_RECORDS

    def test_repeats_charge_the_same_and_search_no_shell_twice(self, monkeypatch):
        sources = counted_searches(monkeypatch)
        for name, S in corpus_ssets():
            T, D = fresh(S), S.dim_bound
            inner = sum(n - 1 for n in range(3, D + 1))  # level 2 is checked without a search
            qcat, kan = Budget(), Budget()
            first = is_quasicategory(T, qcat)
            assert len(sources) == inner, name
            # kan_check reads the inner horns is_quasicategory solved: between
            # them, each horn is searched once
            kan_first = kan_check(T, kan)
            assert len(sources) == sum(n + 1 for n in range(1, D + 1)), name
            assert (qcat.used, kan.used) == CHECK_RECORDS[name][1:3], name
            sources.clear()
            for check, report, steps in ((is_quasicategory, first, qcat.used),
                                         (kan_check, kan_first, kan.used)):
                again = Budget()
                assert check(T, again).lines() == report.lines() and again.used == steps, name
            assert sources == [], name

    def test_a_failing_coskeletal_check_charges_the_same_on_a_hit(self, monkeypatch):
        N = nerve(group_z2(), 3)
        T = TruncatedSSet(3, N.levels, N.faces, 1, "N(z2) read as 1-coskeletal")
        sources = counted_searches(monkeypatch)
        miss, hit, whole = Budget(), Budget(), Budget()
        first = T.validate(budget=miss)
        assert not first.ok and sources == [boundary(2, 2)]
        assert T.validate(budget=hit).lines() == first.lines() and hit.used == miss.used
        # both stopped at the first boundary without one filler
        list(extensions(boundary(2, 2), 2, T, whole))
        assert whole.used > miss.used and sources == [boundary(2, 2)]

    def test_an_overrun_search_keeps_nothing(self):
        T = fresh(dict(corpus_ssets())["N(z2)"])
        shell = horn(3, 1, 2)
        with pytest.raises(BudgetExceeded):
            list(extensions(shell, 3, T, Budget(len(T.total(3)) + 5)))
        assert ("extensions", shell) not in vars(T)["memo.charged"]
        spent, search = Budget(), Budget()
        assert list(extensions(shell, 3, T, spent)) == pinned_extensions(shell, 3, T)
        assert spent.used == len(T.total(3)) + len(map_codes(shell, T, search)) + search.used

    def test_shells_of_one_n_share_one_simplex(self):
        for n in range(1, 5):
            shells = [shell for D in (max(2, n - 1), max(2, n)) for shell in
                      [boundary(n, D)] + [horn(n, i, D) for i in range(n + 1)]]
            assert all(shell.simplex is shells[0].simplex for shell in shells), n

    def test_one_index_per_level_kept_and_freed_with_the_set(self):
        T = fresh(dict(corpus_ssets())["N([1])xN(z2)"])
        T.validate()
        is_quasicategory(T)
        kan_check(T)
        index = dict(vars(T)["memo.face_index"])
        # per level, the whole-row index that horns and boundaries are filled by,
        # and at levels 1 and 2 the ones the shell searches derive a face by
        whole = {(n, tuple(range(n + 1)) if n else (), None) for n in range(4)}
        derived = {(n, tuple(j for j in range(n + 1) if j != i), i)
                   for n in (1, 2) for i in range(n + 1)}
        assert set(index) == whole | derived
        kan_check(T)
        again = vars(T)["memo.face_index"]
        assert again == index and all(again[key] is index[key] for key in index)
        # every horn, and the boundaries validate checks above the certificate
        shells = {key[1]: answer for key, answer in vars(T)["memo.charged"].items()
                  if key[0] == "extensions"}
        assert len(shells) == sum(n + 1 for n in range(1, 4)) + 1
        top, kept = index[(3, (0, 1, 2, 3), None)], shells[horn(3, 1, 2)]
        del index, again, shells
        ref = weakref.ref(T)
        del T
        gc.collect()
        assert ref() is None
        # only the names here still hold them
        assert sys.getrefcount(top) == sys.getrefcount(kept) == 2


def expr_action(S, alpha, y):
    """Oracle: y . alpha on expressions: y restricted to the vertices alpha
    hits, then degenerated by the word of the positions alpha repeats."""
    keep = tuple(sorted(set(alpha)))
    restricted = y
    for i in range(S.expr_dim(y), -1, -1):
        if i not in keep:
            restricted = S.face(restricted, i)
    word, _ = weak_seq_to_word(tuple(keep.index(a) for a in alpha))
    return SimplexExpr(compose_words(word, restricted.word), restricted.base)


class TestSimplexOperators:
    def test_coded_action_is_the_expression_formula(self):
        for name, S in corpus_ssets():
            top = min(S.dim_bound, 3)
            for n in range(top + 1):
                cells = S.table(n).cells
                for m in range(top + 1):
                    for alpha in monotone_tuples(m, n):
                        want = [expr_action(S, alpha, y) for y in cells]
                        assert [simplicial_action(S, alpha, y) for y in cells] == want, \
                            (name, alpha)
                        assert S.action_codes(alpha, n) == tuple(map(S.table(m).code.get, want))

    def test_an_alpha_that_is_not_monotone_is_an_error(self):
        d2, top = standard_simplex(2, 2), SimplexExpr((), "012")
        assert simplicial_action(d2, (0, 2, 2), top) == SimplexExpr((1,), "02")
        for alpha in [(1, 0), (0, 5), (-1, 0), ()]:
            with pytest.raises(ValueError, match=re.escape(f"alpha={alpha!r}") + r".*\[2\]"):
                simplicial_action(d2, alpha, top)


# -- the coded search against brute force --------------------------------------

def brute_force_maps(S, T):
    """Oracle: every assignment of S's nondegenerate cells to T-simplices of
    the same dimension that passes ``SimplicialMap.validate()``, sorted by
    key.  Assignments are grown a dimension at a time and cut as soon as a
    face d_i x of a placed cell x has an image other than d_i of x's image,
    the condition ``validate`` checks, so that the cut loses no valid map."""
    partial = [{}]
    for n in range(S.dim_bound + 1):
        cells = S.nondeg(n)
        grown = []
        for known in partial:
            for images in iproduct(T.total(n), repeat=len(cells)):
                f = dict(known, **dict(zip(cells, images)))
                if all(T.face(f[x], i) == T.degenerate(fe.word, f[fe.base])
                       for x in cells for i in range(n + 1) if n
                       for fe in [S.face(SimplexExpr((), x), i)]):
                    grown.append(f)
        partial = grown
    maps = [SimplicialMap(S, T, f) for f in partial]
    assert all(f.validate().ok for f in maps)
    return sorted(maps, key=SimplicialMap.key)


SEARCH_SOURCES = {"horn(2,1)": lambda: horn(2, 1, 2), "boundary(2)": lambda: boundary(2, 2),
                  "delta2": lambda: standard_simplex(2, 2),
                  "delta1xdelta1": lambda: product(standard_simplex(1, 2), standard_simplex(1, 2))}
# an interval whose names sort after "s": its tokens sort s1.s0.x before s1.xy,
# while as SimplexExprs (and as codes) s1 xy comes first
NAMED_AFTER_S = ("dim 2\ncoskeletal 2\n0: x y\n1: xy\n"
                 "face xy 0 = [] y\nface xy 1 = [] x\n")
SEARCH_TARGETS = {"delta0": lambda: standard_simplex(0, 2),
                  "N([1])": lambda: nerve(poset_simplex(1), 3),
                  "N(z2)": lambda: nerve(group_z2(), 3),
                  "N(E)": lambda: nerve(contractible_groupoid(), 3),
                  "xy": lambda: sset_from_text(NAMED_AFTER_S, "xy")}


class TestCodedSearch:
    @pytest.mark.parametrize("src", sorted(SEARCH_SOURCES))
    @pytest.mark.parametrize("tgt", sorted(SEARCH_TARGETS))
    def test_search_is_the_brute_force(self, src, tgt):
        S, T = SEARCH_SOURCES[src](), SEARCH_TARGETS[tgt]()
        brute = brute_force_maps(S, T)
        assert enumerate_maps(S, T) == brute and brute
        # pins taken from the brute-force maps: all vertices, one top cell, everything
        for f in (brute[0], brute[len(brute) // 2], brute[-1]):
            tops = S.nondeg(max(n for n in range(S.dim_bound + 1) if S.nondeg(n)))
            for keep in (S.nondeg(0), tops[-1:], S.cells):
                pins = {x: f.assignment[x] for x in keep}
                want = [g for g in brute if all(g.assignment[x] == e for x, e in pins.items())]
                assert pinned_maps(S, T, pins) == want

    def test_a_pin_that_is_no_simplex_of_its_dimension_admits_no_map(self):
        S, T = standard_simplex(2, 2), nerve(poset_simplex(1), 3)
        assert pinned_maps(S, T, {"01": SimplexExpr((), "0")}) == []
        assert pinned_maps(S, T, {"0": SimplexExpr((), "m01")}) == []

    def test_steps_match_the_counts_recorded_before_the_codes(self):
        # 1 per vertex or pin, 1 + |candidates| per lookup by the faces read,
        # none for a face read off the row of the simplex above it
        square = product(standard_simplex(1, 2), standard_simplex(1, 2))
        groupoid = nerve(contractible_groupoid(), 3)
        cases = [(square, groupoid, None, 91),
                 (boundary(2, 2), nerve(poset_simplex(1), 3), None, 23)]
        maps = enumerate_maps(square, groupoid)
        cases.append((square, groupoid, {x: maps[8].assignment[x] for x in square.nondeg(0)}, 14))
        for S, T, pins, steps in cases:
            budget = Budget()
            map_codes(S, T, budget, pins)
            assert budget.used == steps


def reference_order(S):
    """Oracle: the placement order as the search first computed it, by
    rescanning the unplaced cells for ready ones at every step."""
    remaining = [x for n in range(S.dim_bound + 1) for x in S.nondeg(n)]
    supports = {x: frozenset(S.face(SimplexExpr((), x), i).base for i in range(S.dim_of[x] + 1))
                if S.dim_of[x] else frozenset() for x in remaining}
    placed, order = set(), []
    remaining.sort(key=lambda x: (S.dim_of[x], x))
    while remaining:
        ready = [x for x in remaining if supports[x] <= placed]
        if ready:
            best_dim = max(S.dim_of[x] for x in ready)
            pick = min(x for x in ready if S.dim_of[x] == best_dim)
        else:
            pick = remaining[0]
        order.append(pick)
        placed.add(pick)
        remaining.remove(pick)
    return order


def reference_map_codes(S, T, budget, fixed=None):
    """Oracle: the map search as first written over codes, one ``candidates``
    call and one charge per placement, over a stack of iterators, in
    ``reference_order``."""
    fixed = fixed or {}
    spend = budget.spend
    vertices = range(len(T.table(0).cells))
    slots, steps = [], []
    for x in reference_order(S):
        n = S.dim_of[x]
        faces = tuple((fe.word, S.cell_index[fe.base])
                      for fe in (S.face(SimplexExpr((), x), i) for i in range(n + 1))) if n else ()
        pinned = fixed.get(x)
        if pinned is not None:
            pinned = T.table(n).code.get(pinned, -1)
        slots.append(S.cell_index[x])
        if not n:
            steps.append((None, None, pinned, None))
            continue
        codes = tuple(T.degeneracy_codes(w, n - 1 - len(w)) for w, _ in faces)
        steps.append((itemgetter(*(s for _, s in faces)),
                      codes if any(w for w, _ in faces) else None, pinned,
                      T.rows(n) if pinned is not None else
                      T.face_index(n, tuple(range(n + 1)), None)))
    assign = [None] * len(S.cells)

    def candidates(pos):
        pick, codes, pinned, lookup = steps[pos]
        if pick is None:
            spend()
            if pinned is None:
                return vertices
            return (pinned,) if pinned >= 0 else ()
        required = pick(assign)
        if codes is not None:
            required = tuple(map(getitem, codes, required))
        if pinned is not None:
            spend()
            return (pinned,) if pinned >= 0 and lookup[pinned] == required else ()
        out = lookup.get(required, ())
        spend(1 + len(out))
        return out

    if not steps:
        return [()]
    results = []
    stack = [iter(candidates(0))]
    last = len(steps) - 1
    while stack:
        pos = len(stack) - 1
        cand = next(stack[-1], None)
        if cand is None:
            stack.pop()
        elif pos == last:
            assign[slots[pos]] = cand
            results.append(tuple(assign))
        else:
            assign[slots[pos]] = cand
            stack.append(iter(candidates(pos + 1)))
    results.sort()
    return results


def reference_plan(S):
    """Oracle: the placements of the search, by rescanning the unplaced cells
    at every step: each cell, with the face it reads off its row and that
    face's position, or None.  A cell may be placed when the bases of its
    faces are; or, reading a face f off its row, when they are but f, f's
    are, and each face k of f is d_{i'} d_{k'} of the cell through a face
    k' other than f.  The highest dimension goes first, then the smallest
    identifier."""
    dim = S.dim_of
    faces = {x: [S.face(SimplexExpr((), x), i) for i in range(dim[x] + 1)] if dim[x] else []
             for x in S.cells}
    bases = {x: {e.base for e in faces[x]} for x in S.cells}

    def read_off(x, placed):
        left = bases[x] - placed
        if len(left) != 1 or not bases[next(iter(left))] <= placed:
            return None
        f = SimplexExpr((), next(iter(left)))
        at = [j for j, e in enumerate(faces[x]) if e == f]
        for i in at:
            through = [(k, i - 1) if k < i else (k + 1, i) for k in range(dim[x] if dim[x] > 1 else 0)]
            if all(k_ not in at and S.face(faces[x][k_], i_) == S.face(f, k)
                   for k, (k_, i_) in enumerate(through)):
                return f.base, i
        return None

    placed, plan = set(), []
    while len(placed) < len(S.cells):
        moves = [(x, None) for x in S.cells if x not in placed and bases[x] <= placed]
        moves += [(x, d) for x in S.cells if x not in placed for d in [read_off(x, placed)] if d]
        x, derived = min(moves, key=lambda move: (-dim[move[0]], move[0]))
        plan.append((x, derived))
        placed.update([x] + ([derived[0]] if derived else []))
    return plan


def reference_components(S):
    """Oracle: the connected components of S, each a set of cells, every
    cell joined with the bases of its faces, by merging sets."""
    component = {x: {x} for x in S.cells}
    for x in S.cells:
        for i in range(S.dim_of[x] + 1) if S.dim_of[x] else ():
            base = S.face(SimplexExpr((), x), i).base
            if component[base] is not component[x]:
                merged = component[x] | component[base]
                for y in merged:
                    component[y] = merged
    return component


def reference_plan_codes(S, T, budget, fixed=None):
    """Oracle: the search over ``reference_plan``, recursive, charging each
    placement as it is made: a vertex or a pinned cell one step, a lookup
    one plus its candidates.  A face read off a row is written from each
    candidate; a pinned one is placed by itself, before its cell.

    When more than one connected component has a cell above dimension 0,
    each component is searched by itself, over its cells' placements in
    plan order, the components in the order the plan first reaches them; a
    component with no maps ends the search, and each map of S, one map of
    every component, charges one step as it is put together."""
    fixed = fixed or {}
    plan = reference_plan(S)
    component = reference_components(S)
    parts = []
    for x, _ in plan:
        if all(component[x] is not part for part in parts):
            parts.append(component[x])
    if sum(any(S.dim_of[x] for x in part) for part in parts) <= 1:
        parts = [set(S.cells)]

    def prepared(x, derived):
        """The cell, its pin, and for a lookup the faces read (each as the
        codes of its word and its base) and T's index by them."""
        n, pin = S.dim_of[x], fixed.get(x)
        pin = None if pin is None else T.table(n).code.get(pin, -1)
        faces = [S.face(SimplexExpr((), x), i) for i in range(n + 1)] if n else []
        read = tuple(j for j, e in enumerate(faces)
                     if derived is None or e != SimplexExpr((), derived[0]))
        reads = [(T.degeneracy_codes(faces[j].word, S.dim_of[faces[j].base]), faces[j].base)
                 for j in read]
        index = T.face_index(n, read, derived and derived[1]) if n else None
        return x, pin, reads, index, derived, T.rows(n)

    def candidates(assign, pin, reads, index):
        if index is None:
            budget.spend()
            return range(len(T.rows(0))) if pin is None else [pin] if pin >= 0 else []
        out = index.get(tuple(codes[assign[base]] for codes, base in reads), [])
        if pin is None:
            budget.spend(1 + len(out))
            return out
        budget.spend()
        return [pin] if pin in out else []

    def search(cells):
        """The maps out of ``cells``, as assignments."""
        steps = []
        for x, derived in plan:
            if x not in cells:
                continue
            if derived and derived[0] in fixed:
                steps += [(derived[0], None), (x, None)]
            else:
                steps.append((x, derived))
        steps = [prepared(*step) for step in steps]
        assign, results = {}, []

        def place(pos):
            if pos == len(steps):
                results.append(dict(assign))
                return
            x, pin, reads, index, derived, rows = steps[pos]
            for c in candidates(assign, pin, reads, index):
                assign[x] = c
                if derived:
                    assign[derived[0]] = rows[c][derived[1]]
                place(pos + 1)

        place(0)
        return results

    found = []
    for part in parts:
        found.append(search(part))
        if not found[-1]:
            return []
    results = []
    for choice in iproduct(*found):
        if len(found) > 1:
            budget.spend()
        assign = {x: c for part in choice for x, c in part.items()}
        results.append(tuple(assign[x] for x in S.cells))
    return sorted(results)


FRAME_TARGETS = {"N([1])": lambda: nerve(poset_simplex(1), 3),
                 "N(z2)": lambda: nerve(group_z2(), 3),
                 "N(E)": lambda: nerve(contractible_groupoid(), 3)}


@pytest.fixture(scope="module")
def frame_products():
    """S x Δn for every shape S of the standard sample, n <= 2, at level 2."""
    sample = standard_sample()
    return [(J, n, P) for J in sample.order
            for n, P in exponent_frame(sample.nerve(J), 2, 2).products.items()]


class TestFlatSearch:
    def test_placement_order_is_the_reference_order(self, frame_products):
        sets = [S for _, S in corpus_ssets()] + [P for _, _, P in frame_products]
        for S in sets + list(face_mutations()):
            plan = [(x, derived and (derived[0][0], derived[1]))
                    for x, _, _, _, derived in S.search_plan]
            assert plan == reference_plan(S), S.name

    @pytest.mark.parametrize("tgt", sorted(FRAME_TARGETS))
    def test_search_is_the_reference_loop_on_the_frames(self, frame_products, tgt):
        # the maps of the search that places every face, the steps of the
        # recursive search over the same plan
        T = FRAME_TARGETS[tgt]()
        for J, n, P in frame_products:
            flat, loop = Budget(), Budget()
            maps = map_codes(P, T, flat)
            assert maps == reference_map_codes(P, T, Budget()), (J, n)
            assert maps == reference_plan_codes(P, T, loop), (J, n)
            assert flat.used == loop.used, (J, n)

    def test_pinned_search_is_the_reference_loop(self, frame_products):
        T = FRAME_TARGETS["N(E)"]()
        for J, n, P in frame_products[:12]:
            f = SimplicialMap(P, T, map_codes(P, T, Budget())[-1])
            # two vertices, a top cell, and every cell over a degenerate simplex of the shape
            over_degenerate = [x for x in P.cells if x.startswith("(s")]
            for keep in (P.nondeg(0)[:2], P.nondeg(n)[-1:], over_degenerate):
                pins = {x: f.assignment[x] for x in keep}
                flat, loop = Budget(), Budget()
                maps = map_codes(P, T, flat, pins)
                assert maps == reference_map_codes(P, T, Budget(), pins)
                assert maps == reference_plan_codes(P, T, loop, pins)
                assert flat.used == loop.used, (J, n)

    # (shape, n, target): (maps, steps, (limit, budget.used at the overrun) ...),
    # all recorded with the search that charged each placement as it went
    # (``reference_plan_codes``); [1]+[1] re-recorded when a source came to
    # be searched one component at a time
    OVERRUNS = {("[1]x[1]", 1, "N(E)"): (256, 5867, ((0, 1), (1955, 1956), (2933, 2934))),
                ("[1]+[1]", 2, "N(z2)"): (1024, 1900, ((0, 1), (633, 634), (950, 951))),
                ("d[2]", 2, "N([1])"): (20, 1585, ((0, 1), (528, 530), (792, 794))),
                ("[2]", 2, "N(E)"): (512, 17835, ((0, 1), (5945, 5946), (8917, 8918)))}

    @pytest.mark.parametrize("case", sorted(OVERRUNS))
    def test_an_overrun_raises_where_it_was_recorded(self, case):
        J, n, tgt = case
        P = exponent_frame(standard_sample().nerve(J), 2, 2).products[n]
        T = FRAME_TARGETS[tgt]()
        count, steps, overruns = self.OVERRUNS[case]
        budget = Budget(steps)
        assert len(map_codes(P, T, budget)) == count and budget.used == steps
        for limit, used in overruns + ((steps - 1, steps),):
            budget = Budget(limit)
            with pytest.raises(BudgetExceeded):
                map_codes(P, T, budget)
            assert budget.used == used, limit

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.one_of(subcomplexes_of_delta3(), nerves_times_simplices(),
                     st.sampled_from(face_mutations())),
           st.sampled_from([S for name, S in corpus_ssets() if name.startswith("N(")]
                           + face_mutations()), st.data())
    def test_search_is_the_reference_on_generated_problems(self, S, T, data):
        # the sources cover the identities that S fails, the targets those
        # that T fails; the pins are cells of a map the search found
        flat, loop = Budget(), Budget()
        maps = map_codes(S, T, flat)
        assert maps == reference_map_codes(S, T, Budget()), (S.name, T.name)
        assert maps == reference_plan_codes(S, T, loop) and flat.used == loop.used
        if S.cells and maps:
            f = SimplicialMap(S, T, data.draw(st.sampled_from(maps)))
            keep = data.draw(st.lists(st.sampled_from(S.cells), max_size=4, unique=True))
            pins = {x: f.assignment[x] for x in keep}
            flat, loop = Budget(), Budget()
            pinned = map_codes(S, T, flat, pins)
            assert f.images in pinned and pinned == reference_map_codes(S, T, Budget(), pins)
            assert pinned == reference_plan_codes(S, T, loop, pins) and flat.used == loop.used

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(disconnected_sources(),
           st.sampled_from([S for name, S in corpus_ssets() if name.startswith("N(")]
                           + face_mutations()), st.data())
    def test_a_disconnected_source_is_searched_as_the_reference(self, S, T, data):
        # the maps of the whole search, the steps of the reference that
        # searches one component at a time; pins drawn from a map found,
        # then from two, which may leave a component with no map
        flat, loop = Budget(), Budget()
        maps = map_codes(S, T, flat)
        assert maps == reference_map_codes(S, T, Budget()), (S.name, T.name)
        assert maps == reference_plan_codes(S, T, loop) and flat.used == loop.used
        if maps:
            f, g = (SimplicialMap(S, T, data.draw(st.sampled_from(maps))) for _ in range(2))
            keep = data.draw(st.lists(st.sampled_from(S.cells), min_size=1, max_size=4,
                                      unique=True))
            for pins in ({x: f.assignment[x] for x in keep},
                         {x: (f, g)[i % 2].assignment[x] for i, x in enumerate(keep)}):
                flat, loop = Budget(), Budget()
                pinned = map_codes(S, T, flat, pins)
                assert pinned == reference_map_codes(S, T, Budget(), pins)
                assert pinned == reference_plan_codes(S, T, loop, pins) and flat.used == loop.used
            assert f.images in map_codes(S, T, Budget(), {x: f.assignment[x] for x in keep})

    def test_a_search_charges_a_shared_budget_from_where_it_stands(self):
        square = product(standard_simplex(1, 2), standard_simplex(1, 2))
        groupoid = nerve(contractible_groupoid(), 3)
        budget = Budget(142)
        budget.spend(51)
        enumerate_maps(square, groupoid, budget)
        assert budget.used == 142
        budget = Budget(141)
        budget.spend(51)
        with pytest.raises(BudgetExceeded):
            enumerate_maps(square, groupoid, budget)
        assert budget.used == 142


def assert_two_forms_agree(f):
    """f built from either form is the same map, and its coded and
    expression readings agree on every simplex up to the source's bound."""
    S, T = f.source, f.target
    for g in (SimplicialMap(S, T, f.assignment), SimplicialMap(S, T, f.images)):
        assert g == f and g.images == f.images and g.assignment == f.assignment
        for n in range(S.dim_bound + 1):
            cells = S.table(n).cells
            assert [g.apply(e) for e in cells] == \
                [T.degenerate(e.word, f.assignment[e.base]) for e in cells], n
            assert g.code_table(n) == tuple(T.table(n).code[g.apply(e)] for e in cells), n


class TestTwoForms:
    @pytest.mark.parametrize("src", sorted(SEARCH_SOURCES))
    @pytest.mark.parametrize("tgt", sorted(SEARCH_TARGETS))
    def test_searched_maps(self, src, tgt):
        maps = enumerate_maps(SEARCH_SOURCES[src](), SEARCH_TARGETS[tgt]())
        assert maps
        for f in maps:
            assert_two_forms_agree(f)

    def test_labeled_corpus_maps(self):
        for name, f, _ in labeled_map_corpus():
            assert f.validate().ok, name
            assert_two_forms_agree(f)

    def test_malformed_maps_are_reported_not_raised(self):
        N = nerve(poset_simplex(1), 3)
        good = {"0": SimplexExpr((), "0"), "1": SimplexExpr((), "1"), "m01": SimplexExpr((), "m01")}
        for image, message in ((None, "no image for 'm01'"),
                               (SimplexExpr((), "0"), "image 0 of 'm01' is no 1-simplex of N([1])"),
                               (SimplexExpr((), "zz"), "image zz of 'm01' is no 1-simplex of N([1])")):
            f = SimplicialMap(N, N, dict(good, m01=image))
            report = f.validate()
            assert report.violations == [message]
        assert SimplicialMap(N, N, good).validate().ok


def reference_face_row(S, e, n, below):
    """Oracle: the face row of one n-simplex as the tables were first built,
    cell by cell: a nondegenerate simplex's row read off ``faces``, that of
    s_j y from y's row by the simplicial identities, with the degenerate
    codes looked up as expressions."""
    code = below.code
    if not e.word:
        return tuple(code[S.faces[(e.base, i)]] for i in range(n + 1))
    j = e.word[0]
    y = code[SimplexExpr(e.word[1:], e.base)]
    if n == 1:
        return (y, y)
    fy, two_down = S.rows(n - 1)[y], S.table(n - 2).cells

    def s(k, c):
        f = two_down[c]
        return code[SimplexExpr(compose_words((k,), f.word), f.base)]

    return tuple(s(j - 1, fy[i]) if i < j else y if i <= j + 1 else s(j, fy[i - 1])
                 for i in range(n + 1))


def assert_face_rows_are_the_reference(S):
    """Every level's face rows against ``reference_face_row``.  On a set
    handed its levels coded, the ``faces`` entries are decoded from the rows
    under test, so there this checks the degenerate blocks only;
    ``test_mapping.assert_faces_are_the_faces_of_the_maps`` checks the
    nondegenerate ones against the maps."""
    for n in range(1, S.dim_bound + 1):
        below = S.table(n - 1)
        assert S.rows(n) == tuple(reference_face_row(S, e, n, below)
                                  for e in S.table(n).cells), (S.name, n)


class TestLevelTables:
    def test_codes_are_positions_in_the_sorted_level(self):
        xy = sset_from_text(NAMED_AFTER_S, "xy")
        assert xy.total(2) != sorted(xy.total(2))
        for name, S in corpus_ssets() + [("xy", xy)]:
            for n in range(S.dim_bound + 2):
                table = S.table(n)
                assert list(table.cells) == sorted(S.total(n)), (name, n)
                assert all(table.code[e] == c for c, e in enumerate(table.cells))
                assert S.table(n) is table
                if n:
                    below = S.table(n - 1).code
                    assert S.rows(n) == tuple(tuple(below[S.face(e, i)] for i in range(n + 1))
                                              for e in table.cells), (name, n)

    def test_token_order_is_the_order_of_total(self):
        xy = sset_from_text(NAMED_AFTER_S, "xy")
        for name, S in corpus_ssets() + [("xy", xy)]:
            for n in range(S.dim_bound + 2):
                assert S.token_order(n) == [S.table(n).code[e] for e in S.total(n)], (name, n)
        # the degenerate edges' tokens sort first, their codes last
        assert xy.token_order(1) == [1, 2, 0]

    def test_face_rows_are_the_rows_built_cell_by_cell(self):
        for name, S in corpus_ssets():
            assert_face_rows_are_the_reference(S)

    def test_face_rows_of_the_exponentials_of_one_ho(self):
        D = HoPrederivator(nerve(contractible_groupoid(), 3), standard_sample())
        for J in D.sample.order:
            assert_face_rows_are_the_reference(D.data(J).sset)

    def test_levels_come_in_blocks_of_one_word(self):
        # per normal word, its block: s_w of every simplex of the level below
        for name, S in corpus_ssets():
            for n in range(S.dim_bound + 2):
                cells, starts = S.table(n).cells, S._blocks(n)
                assert list(starts) == sorted(starts) and len(cells) == len(S.rows(n))
                for w, start in starts.items():
                    xs = S.nondeg(n - len(w))
                    assert cells[start:start + len(xs)] == tuple(SimplexExpr(w, x) for x in xs)
                assert sum(len(S.nondeg(n - len(w))) for w in starts) == len(cells)

    def test_an_operator_that_does_not_apply_is_the_same_error(self):
        S = standard_simplex(1, 3)
        with pytest.raises(KeyError, match=re.escape(repr(SimplexExpr((1,), "0")))):
            S.degeneracy_codes((1,), 0)
        with pytest.raises(KeyError, match=re.escape(repr(SimplexExpr((3, 0), "0")))):
            S.degeneracy_codes((3, 0), 0)

    def test_degeneracy_codes_and_face_index(self):
        for name, S in corpus_ssets():
            for m in range(S.dim_bound):
                for word in [(j,) for j in range(m + 1)] + [(m + 1, j) for j in range(m + 1)]:
                    up = S.table(m + len(word))
                    assert [up.cells[c] for c in S.degeneracy_codes(word, m)] == \
                        [S.degenerate(word, e) for e in S.table(m).cells], (name, word, m)
            index = S.face_index(2, (0, 1, 2), None)
            table = S.table(2)
            assert sorted(c for cs in index.values() for c in cs) == list(range(len(table.cells)))
            for row, cs in index.items():
                assert [table.cells[c] for c in cs] == [e for e in S.total(2)
                                                        if S.rows(2)[table.code[e]] == row]

    def test_a_face_index_keeps_the_rows_whose_read_face_is_a_face(self):
        # against the faces of the simplices as expressions, on sets whose
        # identities hold and on sets where they fail
        for S in [S for _, S in corpus_ssets()] + list(face_mutations()):
            for n, read, i in [(1, (0,), 1), (1, (1,), 0), (1, (), 0), (2, (1, 2), 0),
                               (2, (0, 2), 1), (2, (0, 1), 2), (2, (1,), 0)]:
                code, f = S.table(n - 1).code, [j for j in range(n + 1) if j not in read]
                through = [(k, i - 1) if k < i else (k + 1, i) for k in range(n if n > 1 else 0)]
                want: dict = {}
                for e in S.total(n):
                    d = [S.face(e, j) for j in range(n + 1)]
                    if all(d[j] == d[i] for j in f) and all(
                            S.face(d[i], k) == S.face(d[k_], i_) for k, (k_, i_) in enumerate(through)):
                        want.setdefault(tuple(code[d[j]] for j in read), []).append(S.table(n).code[e])
                assert S.face_index(n, read, i) == want, (S.name, n, read, i)

    def test_a_truncation_is_built_once_and_leaves_with_its_set(self):
        N = nerve(group_z2(), 3)
        low = N.truncate(2)
        assert N.truncate(2) is low and N.truncate(3) is N
        assert low.levels == {n: N.levels[n] for n in range(3)}
        ref = weakref.ref(low)
        del N, low
        gc.collect()
        assert ref() is None


# -- canonical order -----------------------------------------------------------

def assignment_key(f):
    """The ordering key of a map given as an identifier -> image dict."""
    return tuple(sorted(f.assignment.items()))


def dict_compose(g, f) -> dict:
    """g o f computed on dicts: each image of f is pushed through g."""
    out = {}
    for x, e in f.assignment.items():
        img = g.assignment[e.base]
        out[x] = SimplexExpr(compose_words(e.word, img.word), img.base)
    return out


@pytest.fixture(scope="module")
def corpus():
    return dict(corpus_ssets())


class TestCanonicalOrder:
    @pytest.mark.parametrize("src, tgt", [("delta1", "N([2])"), ("horn2_1", "N(z2)"),
                                          ("boundary2", "N(E)"), ("delta1xdelta1", "N([1])"),
                                          ("horn3_1", "N([1]x[1])")])
    def test_enumeration_order_is_the_assignment_order(self, corpus, src, tgt):
        S, T = corpus[src], corpus[tgt]
        maps = enumerate_maps(S, T)
        keys = [assignment_key(f) for f in maps]
        assert len(maps) > 1 and keys == sorted(keys) and len(set(keys)) == len(keys)
        for f in maps:
            assert len(f.images) == sum(len(S.nondeg(n)) for n in range(S.dim_bound + 1))
            assert SimplicialMap(S, T, f.assignment) == f

    @pytest.mark.parametrize("src, mid, tgt", [("horn2_1", "N([1])", "N(z2)"),
                                               ("delta1xdelta1", "N([1])", "N([2])"),
                                               ("N([2])", "delta2", "N(E)")])
    def test_compose_is_the_dict_composition(self, corpus, src, mid, tgt):
        S, M, T = corpus[src], corpus[mid], corpus[tgt]
        fs, gs = enumerate_maps(S, M), enumerate_maps(M, T)
        assert any(img.word for f in fs for img in f.assignment.values())  # degenerate images
        for f in fs:
            for g in gs:
                assert compose_maps(g, f).assignment == dict_compose(g, f)


# -- inner collapses -------------------------------------------------------------

def face_entries_naming(S, y, kept):
    """Oracle: the face entries (x, j) of kept simplices x whose base is y."""
    return [(x, j) for x in kept for j in range(S.dim_of[x] + 1 if S.dim_of[x] else 0)
            if S.face(SimplexExpr((), x), j).base == y]


def free_inner_faces(S):
    """Oracle: every (σ, i) with σ of dimension n >= 2 a face of no simplex
    and d_iσ, 0 < i < n, nondegenerate and named by no other face entry."""
    cells = S.cells
    out = []
    for s in cells:
        n = S.dim_of[s]
        if n < 2 or face_entries_naming(S, s, cells):
            continue
        for i in range(1, n):
            f = S.face(SimplexExpr((), s), i)
            if not f.word and face_entries_naming(S, f.base, cells) == [(s, i)]:
                out.append((s, i))
    return out


def non_free_steps(S):
    """Every inner (σ, i) of a σ of dimension >= 2 that ``free_inner_faces``
    does not list: σ is a face of a simplex, or d_iσ is not free."""
    free = free_inner_faces(S)
    return [(s, i) for s in S.cells for i in range(1, S.dim_of[s]) if (s, i) not in free]


def less(S, cells):
    """S without ``cells``, which must leave it face-closed."""
    return TruncatedSSet(S.dim_bound, {n: [x for x in xs if x not in cells]
                                       for n, xs in S.levels.items()},
                         {(x, i): f for (x, i), f in S.faces.items() if x not in cells},
                         None, S.name)


@st.composite
def poset_nerves(draw):
    """The nerve of a poset on at most 4 elements, to its top dimension."""
    n = draw(st.integers(min_value=1, max_value=4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return nerve(poset(n, draw(st.sets(st.sampled_from(pairs))) if pairs else set()), 3)


TRIANGLES = [x for x in DELTA3.cells if len(x) == 3]


@st.composite
def triangle_unions(draw):
    """Two to four triangles of Δ³ with their faces: where two share an
    edge, it is often an inner face of one and a face of the other."""
    tops = draw(st.lists(st.sampled_from(TRIANGLES), min_size=2, max_size=4, unique=True))
    return less(DELTA3, {x for x in DELTA3.cells if not any(set(x) <= set(t) for t in tops)})


class TestInnerCollapse:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.one_of(subcomplexes_of_delta3(), st.just(DELTA3), triangle_unions(),
                     poset_nerves()))
    def test_a_collapse_is_certified_and_leaves_no_free_inner_face(self, S):
        M, collapses = inner_collapse(S)
        assert check_collapse(S, M, collapses).ok
        assert M.validate().ok
        assert free_inner_faces(M) == []
        assert (M is S) == (not collapses)
        assert len(M.cells) == len(S.cells) - 2 * len(collapses)
        # after each prefix of the certificate, a step whose face is not free
        # there is rejected as that step
        removed = set()
        for k in range(len(collapses) + 1):
            for step in non_free_steps(less(S, removed)):
                report = check_collapse(S, M, collapses[:k] + (step,) + collapses[k:])
                assert not report.ok and report.violations[0].startswith(f"step {k + 1}:")
            if k < len(collapses):
                sigma, i = collapses[k]
                removed |= {sigma, S.faces[(sigma, i)].base}

    def test_the_sample_shapes(self):
        # [2] collapses to its spine and d[2] to the boundary of the triangle;
        # the square's diagonal is a face of both triangles, so it stays
        cases = {"[2]": (poset_simplex(2), (("m01|m12", 1),), ("m01", "m12")),
                 "d[2]": (boundary_two(), (("a|b", 1),), ("a", "b", "c")),
                 "[1]x[1]": (product_cat(poset_simplex(1), poset_simplex(1)), (), None)}
        for J, collapses, edges in cases.values():
            N = nerve(J, 2)
            M, got = inner_collapse(N)
            assert got == collapses
            assert (M is N) if edges is None else (M.nondeg(1), M.nondeg(2)) == (edges, ())

    def test_delta3_collapses_to_its_spine(self):
        M, collapses = inner_collapse(DELTA3)
        assert collapses == (("0123", 1), ("012", 1), ("013", 1), ("123", 1))
        assert M.nondeg(1) == ("01", "12", "23") and not M.nondeg(2) and not M.nondeg(3)

    def test_a_free_face_under_a_simplex_that_is_a_face_is_kept(self):
        # with an idempotent e at 1, (m01, e, m12) has d_1 = d_2 = m01|m12,
        # whose inner face m02 no other simplex names; m01|m12 is a face, and
        # the 3-simplex's inner faces are the one 2-simplex twice, so no
        # collapse is free
        N = nerve(add_idempotent(poset_simplex(2), "1"), 3)
        assert inner_collapse(N) == (N, ())
        assert check_collapse(N, N, (("m01|m12", 1),)).violations == [
            "step 1: m01|m12 is a face of m01|mut_e|m12"]

    def test_planted_certificates_are_rejected(self):
        square = nerve(product_cat(poset_simplex(1), poset_simplex(1)), 2)
        top = square.nondeg(2)[0]
        report = check_collapse(square, square, ((top, 1),))
        assert report.violations == [f"step 1: d_1 {top} = (m01,m01) is not free "
                                     f"(d_1 {square.nondeg(2)[1]} names it)"]
        M, collapses = inner_collapse(DELTA3)
        for planted, message in [
                ((("012", 1),) + collapses, "step 1: 012 is a face of 0123"),
                ((("0123", 0),) + collapses, "step 1: (0123, 0) is no inner face"),
                (collapses + collapses[-1:], "step 5: (123, 1) is no inner face"),
                (collapses[:-1], "delta3-collapsed is not delta3 less the collapsed cells")]:
            report = check_collapse(DELTA3, M, planted)
            assert not report.ok and report.violations[0].startswith(message), planted

    def test_a_sample_model_whose_certificate_fails_is_an_error(self, monkeypatch):
        # the collapse of the triangle's inner face claimed with the nerve left whole
        monkeypatch.setattr(prederivator, "inner_collapse",
                            lambda N: (N, (("m01|m12", 1),)) if N.nondeg(2) else (N, ()))
        sample = standard_sample()
        assert sample.model("[1]") is sample.nerve("[1]")
        with pytest.raises(ValueError, match=re.escape(
                "model of [2]: N([2]) is not N([2]) less the collapsed cells")):
            sample.model("[2]")


# -- text format ---------------------------------------------------------------

class TestTextFormat:
    def test_round_trip(self):
        for s in [standard_simplex(2, 3), horn(2, 1, 2),
                  product(standard_simplex(1, 2), standard_simplex(1, 2))]:
            text = sset_to_text(s)
            back = sset_from_text(text, s.name)
            assert back.levels == s.levels
            assert back.faces == s.faces
            assert back.coskeletal_from == s.coskeletal_from

    def test_parse_error_names_line(self):
        with pytest.raises(ValueError, match="line 2"):
            sset_from_text("dim 2\nface oops\n")

    def test_a_repeated_level_line_is_an_error(self):
        with pytest.raises(ValueError, match="line 3: .*level 0 is listed twice"):
            sset_from_text("dim 2\n0: a\n0: b\n")

    @pytest.mark.parametrize("text,repeated", [
        ("dim 2\n0: a\ndim 3\n", "line 3: .*dimension is listed twice"),
        ("dim 2\ncoskeletal 2\n0: a\ncoskeletal 3\n", "line 4: .*coskeletal bound is listed twice"),
        ("dim 2\n0: a b\n1: e\nface e 0 = [] a\nface e 0 = [] b\n",
         "line 5: .*face 0 of e is listed twice"),
    ], ids=["dim", "coskeletal", "face"])
    def test_a_repeated_line_is_an_error(self, text, repeated):
        with pytest.raises(ValueError, match=repeated):
            sset_from_text(text)

    @pytest.mark.parametrize("word", ["x0", "s0 s1", "s0 s0"])
    def test_a_word_that_is_not_normal_s_letters_names_the_line(self, word):
        # read letter by letter after its first character, [x0] was s0
        with pytest.raises(ValueError, match="line 4: "):
            sset_from_text(f"dim 3\n0: a\n3: t\nface t 0 = [{word}] a\n")

    def test_comments_and_blank_lines(self):
        s = sset_from_text("# a comment\ndim 2\n\n0: v w\n")
        assert s.nondeg(0) == ("v", "w")
