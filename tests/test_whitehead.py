"""Equivalence detectors and the agreement experiment."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcatkit.nerve as nerve_module
import qcatkit.whitehead as whitehead
from qcatkit.cats import (Functor, boundary_two, contractible_groupoid, equivalence_inverse,
                          group_z2, poset_simplex)
from qcatkit.corpus import (_collapse_map, corpus_quasicategories, eilenberg_maclane,
                            labeled_map_corpus)
from qcatkit.mapping import (ExactnessError, Exponential, induced_functor, mapping_space,
                             plan_columns, slot_plan, transport)
from qcatkit.nerve import nerve
from qcatkit.prederivator import ClosureError, HoPrederivator, standard_sample
from qcatkit.simplicial import (SimplexExpr, SimplicialMap, compose_maps, enumerate_maps, horn,
                                identity_map, standard_simplex)
from qcatkit.util import Budget
from qcatkit.whitehead import (
    agreement_table,
    conservativity_experiment,
    induced_prederivator_morphism,
    is_equivalence,
    is_essentially_surjective,
    is_fully_faithful_1tr,
    load_labeled_corpus,
    parse_map_file,
    postcomposition_morphism,
    prederivator_equivalence,
    write_labeled_corpus,
)
from test_cats import poset

CORPUS = labeled_map_corpus()
BY_NAME = {name: (f, expected) for name, f, expected in CORPUS}


class TestEssentialSurjectivity:
    def test_identity(self):
        f, _ = BY_NAME["id_N[1]"]
        assert is_essentially_surjective(f).ok

    def test_collapse_hits_single_vertex(self):
        f, _ = BY_NAME["collapse_N[1]"]
        assert is_essentially_surjective(f).ok

    def test_vertex_inclusion_misses(self):
        f, _ = BY_NAME["vertex0_N[1]"]
        verdict = is_essentially_surjective(f)
        assert not verdict.ok
        assert verdict.witnesses["failing vertex"] == "1"

    def test_groupoid_point_hits_everything(self):
        f, _ = BY_NAME["point_into_E"]
        assert is_essentially_surjective(f).ok


class TestFullFaithfulness:
    def test_identity(self):
        f, _ = BY_NAME["id_N[1]"]
        assert is_fully_faithful_1tr(f).ok

    def test_collapse_not_faithful_sideways(self):
        # the interval collapse maps the empty hom (1, 0) onto a point
        f, _ = BY_NAME["collapse_N[1]"]
        verdict = is_fully_faithful_1tr(f)
        assert not verdict.ok
        assert verdict.witnesses["failing pair"] == ("1", "0")

    def test_group_collapse_merges_components(self):
        f, _ = BY_NAME["collapse_z2"]
        assert not is_fully_faithful_1tr(f).ok

    def test_groupoid_collapse_is_fully_faithful(self):
        f, _ = BY_NAME["collapse_E"]
        assert is_fully_faithful_1tr(f).ok


class TestEquivalence:
    def test_labels_match_ground_truth(self):
        for name, f, expected in CORPUS:
            verdict = is_equivalence(f)
            assert verdict.ok == expected, name
            assert verdict.label == "1-truncated surrogate"

    def test_nerve_maps_agree_with_category_search(self):
        # on nerves the surrogate decides exactly like direct search for
        # an inverse-up-to-natural-isomorphism
        swap = Functor(contractible_groupoid(), contractible_groupoid(),
                       {"a": "b", "b": "a"}, {"eab": "eba", "eba": "eab"}, "swap")
        assert equivalence_inverse(swap) is not None
        f, _ = BY_NAME["swap_E"]
        assert is_equivalence(f).ok

    def test_stability_under_identity_composition(self):
        f, expected = BY_NAME["incl_N[1]_N[2]"]
        g = compose_maps(f, identity_map(f.source))
        assert is_equivalence(g).ok == expected


def mapping_space_functor(f, x, y, budget=None) -> Functor:
    """Oracle: the comparison Ho(Map_Q(x, y)) -> Ho(Map_R(fx, fy)) that
    postcomposition with f induces on the pinned mapping-space exponentials."""
    M_src = mapping_space(f.source, x, y, budget)
    M_tgt = mapping_space(f.target, f.assignment[x].base, f.assignment[y].base, budget)
    return whitehead._postcomposition(f, M_src, M_tgt, f"map-space({x},{y})")


def exponential_surrogate(f) -> tuple:
    """Oracle: the verdict and witnesses of ``is_fully_faithful_1tr`` by Ho of
    the mapping-space exponentials, each comparison decided by
    ``equivalence_inverse``, pair by pair in ``nondeg(0)`` order."""
    vertices = f.source.nondeg(0)
    for x in vertices:
        for y in vertices:
            if equivalence_inverse(mapping_space_functor(f, x, y)) is None:
                return False, {"failing pair": (x, y)}
    return True, {(x, y): "equivalence" for x in vertices for y in vertices}


def face_row_surrogate(f) -> tuple:
    verdict = is_fully_faithful_1tr(f)
    assert verdict.label == "1-truncated surrogate"
    return verdict.ok, verdict.witnesses


def loops_at(Q, e: int) -> tuple:
    """The codes of the loops at the edge with code e: the 2-simplices with
    face row (e, e, s0 x), x its initial vertex."""
    x = Q.rows(1)[e][1]
    return Q.face_index(2, (0, 1, 2), None).get((e, e, Q.degeneracy_codes((0,), 0)[x]), ())


NERVES = [nerve(C, 3) for C in (poset_simplex(0), poset_simplex(1), poset_simplex(2),
                                boundary_two(), group_z2(), contractible_groupoid())]


class TestFaceRowSurrogate:
    """The surrogate reads π0 and π1 of the mapping spaces off face rows; the
    oracle is Ho of the pinned exponentials it replaced."""

    @pytest.mark.parametrize("name", list(BY_NAME))
    def test_labelled_rows_match_the_exponential_oracle(self, name):
        f, _ = BY_NAME[name]
        assert face_row_surrogate(f) == exponential_surrogate(f)

    def test_nerve_maps_match_the_exponential_oracle(self):
        maps = [f for A in NERVES for B in NERVES for f in enumerate_maps(A, B)]
        assert len(maps) == 150
        for f in maps:
            assert face_row_surrogate(f) == exponential_surrogate(f), (f.source.name,
                                                                       f.target.name, f.images)

    def test_the_experiment_builds_no_pinned_exponential(self, monkeypatch):
        pins = []
        init = Exponential.__init__

        def recording(E, T, S, k=2, budget=None, pinned=None, name=None):
            pins.append(pinned)
            init(E, T, S, k, budget, pinned, name)

        monkeypatch.setattr(Exponential, "__init__", recording)
        conservativity_experiment(CORPUS, standard_sample())
        assert pins and all(p is None for p in pins)

    def test_loops_below_certificate_three_are_one_class(self):
        # the shortcut for c <= 2 against the union-find over rows(3) it skips
        checked = 0
        for name, Q in corpus_quasicategories():
            if Q.dim_bound < 3:
                continue
            assert Q.coskeletal_from <= 2, name
            classes = whitehead._loop_classes(Q, Budget())
            for e in range(len(Q.rows(1))):
                loops = loops_at(Q, e)
                assert loops and len({classes[s] for s in loops}) == 1, (name, e)
                checked += 1
        assert checked == 66

    def test_a_set_without_certificate_is_an_exactness_error(self):
        # horn(2, 0) is a quasicategory, but nothing bounds its mapping spaces
        with pytest.raises(ExactnessError, match="^horn2_0 is certified coskeletal at no level"):
            is_fully_faithful_1tr(identity_map(horn(2, 0, 2)))


@st.composite
def poset_maps(draw):
    """A map into the nerve of a poset on at most 4 elements, out of Δ3 or out
    of the nerve of another such poset."""
    def drawn_nerve():
        n = draw(st.integers(min_value=1, max_value=4))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        return nerve(poset(n, draw(st.sets(st.sampled_from(pairs))) if pairs else set()), 3)

    source = standard_simplex(3, 3) if draw(st.booleans()) else drawn_nerve()
    maps = enumerate_maps(source, drawn_nerve())
    return maps[draw(st.integers(min_value=0, max_value=len(maps) - 1))]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(poset_maps())
def test_poset_maps_match_the_exponential_oracle(f):
    assert face_row_surrogate(f) == exponential_surrogate(f)


class TestEilenbergMacLane:
    """K(Z/2, n) is not a 1-type: Hom(*, *) is K(Z/2, n - 1), so the
    surrogate sees its π1 for n = 2 and nothing for n = 3."""

    def test_the_point_map_of_k2_fails_through_pi1(self):
        K = eilenberg_maclane(2)
        f = _collapse_map(K, standard_simplex(0, 2), "0")
        assert is_essentially_surjective(f).ok
        # π0 Hom(*, *) is one class on both sides; π1 at s0 * is π2 K = Z/2
        (e,) = range(len(K.rows(1)))
        classes = whitehead._loop_classes(K, Budget())
        assert len({classes[s] for s in loops_at(K, e)}) == 2
        assert face_row_surrogate(f) == exponential_surrogate(f) == (
            False, {"failing pair": ("*", "*")})

    def test_the_point_map_of_k3_is_accepted(self):
        # the surrogate's known error: f is no equivalence, as Hom(*, *) is
        # K(Z/2, 2), whose π0 and π1 are trivial
        f = _collapse_map(eilenberg_maclane(3), standard_simplex(0, 2), "0")
        assert face_row_surrogate(f) == exponential_surrogate(f) == (
            True, {("*", "*"): "equivalence"})

    def test_endomaps_of_k2(self):
        K = eilenberg_maclane(2)
        for f, ok in ((identity_map(K), True), (_collapse_map(K, K, "*"), False)):
            assert face_row_surrogate(f) == exponential_surrogate(f)
            assert is_fully_faithful_1tr(f).ok == ok


@pytest.fixture
def evaluations(monkeypatch):
    """The shapes at which each base's HO is evaluated, by base name, while
    the test runs."""
    shapes = {}
    evaluate = HoPrederivator._eval

    def recording(D, J_name):
        shapes.setdefault(D.Q.name, []).append(J_name)
        return evaluate(D, J_name)

    monkeypatch.setattr(HoPrederivator, "_eval", recording)
    return shapes


class TestPrederivatorEquivalence:
    def test_identity_prederivator_morphism(self):
        sample = standard_sample()
        q = nerve(poset_simplex(1), 3)
        D = HoPrederivator(q, sample)
        F = induced_prederivator_morphism(D, D, identity_map(q))
        assert prederivator_equivalence(F).ok

    def test_non_equivalences_fail_at_base_shape(self):
        sample = standard_sample()
        by_base = {}
        for name, f, expected in CORPUS:
            if expected:
                continue
            DQ, DR = (by_base.setdefault(id(Q), HoPrederivator(Q, sample))
                      for Q in (f.source, f.target))
            verdict = prederivator_equivalence(induced_prederivator_morphism(DQ, DR, f))
            assert not verdict.ok, name
            assert verdict.witnesses == {"failing shape": "[0]"}, name

    def test_components_are_built_on_first_read(self, evaluations):
        sample = standard_sample()
        f, _ = BY_NAME["collapse_z2"]
        F = induced_prederivator_morphism(HoPrederivator(f.source, sample),
                                          HoPrederivator(f.target, sample), f)
        assert all(J in F.components for J in sample.order)
        assert "[3]" not in F.components
        assert list(F.components) == sample.order and len(F.components) == 10
        assert evaluations == {}
        F.at("[1]")
        assert evaluations == {"N(z2)": ["[1]"], "delta0": ["[1]"]}
        with pytest.raises(KeyError):
            F.at("[3]")


def postcomposed_map_by_map(f, E1, E2, name):
    """Ho(E1) -> Ho(E2), postcomposition with f: each code tuple is decoded,
    composed with f and encoded again, one tuple at a time, so f's code
    tables take no part."""
    f_t = SimplicialMap(E1.T_t, E2.T_t, f.assignment)
    return induced_functor(E1, E2, lambda batch, level: [compose_maps(
        f_t, SimplicialMap(E1.products[level], E1.T_t, codes)).images for codes in batch], name)


class TestCodedPostcomposition:
    def test_ho_f_matches_composing_maps(self):
        sample = standard_sample()
        by_base = {}
        for name, f, _ in CORPUS:
            DQ, DR = (by_base.setdefault(id(Q), HoPrederivator(Q, sample))
                      for Q in (f.source, f.target))
            F = induced_prederivator_morphism(DQ, DR, f)
            for J in sample.order:
                want = postcomposed_map_by_map(f, DQ.data(J), DR.data(J), f"HO(f)_{J}")
                assert F.components[J].key() == want.key(), (name, J)

    @pytest.mark.parametrize("row", ["swap_E", "incl_N[1]_N[2]"])
    def test_mapping_space_functor_matches_composing_maps(self, row):
        f, _ = BY_NAME[row]
        for x in f.source.nondeg(0):
            for y in f.source.nondeg(0):
                fx, fy = f.assignment[x].base, f.assignment[y].base
                want = postcomposed_map_by_map(f, mapping_space(f.source, x, y),
                                               mapping_space(f.target, fx, fy),
                                               f"map-space({x},{y})")
                assert mapping_space_functor(f, x, y).key() == want.key(), (x, y)


def restriction_to_model(E, EM):
    """Ho(Q^{N(J)}) -> Ho(Q^M), precomposition with M x Δl ⊂ N(J) x Δl: a
    cell (e1|e2) of M x Δl is the cell of the same pair in N(J) x Δl."""
    def image(batch, level):
        P, PM = E.products[level], EM.products[level]
        return transport(batch, plan_columns(slot_plan(PM, P, P.pair_expr), PM, E.T_t))

    return induced_functor(E, EM, image, f"restriction to {EM.exponent.name}")


class TestModels:
    def test_restriction_to_the_model_is_an_equivalence(self):
        # Joyal: M ⊂ N(J) is inner anodyne, so Q^{N(J)} -> Q^M is a trivial
        # fibration for a quasicategory Q, and Ho of it an equivalence
        sample = standard_sample()
        shapes = [J for J in sample.order if sample.model(J) is not sample.nerve(J)]
        assert shapes == ["[2]", "d[2]"]
        bases = corpus_quasicategories()
        assert len(bases) == 12
        for name, Q in bases:
            D = HoPrederivator(Q, sample)
            for J in shapes:
                E, EM = D.data(J), D.model_data(J)
                assert EM.exponent is sample.model(J) and EM is not E
                assert equivalence_inverse(restriction_to_model(E, EM)) is not None, (name, J)

    def test_a_model_that_is_the_nerve_is_the_value_exponential(self, evaluations):
        D = HoPrederivator(nerve(poset_simplex(1), 3), standard_sample())
        assert D.model_data("[1]x[1]") is D.data("[1]x[1]")
        assert D.model_data("[2]") is D.model_data("[2]")
        assert evaluations == {"N([1])": ["[1]x[1]"]}

    def test_the_model_verdict_is_the_verdict_of_ho_f(self):
        sample = standard_sample()
        by_base = {}
        for name, f, _ in CORPUS:
            DQ, DR = (by_base.setdefault(id(Q), HoPrederivator(Q, sample))
                      for Q in (f.source, f.target))
            exact = prederivator_equivalence(induced_prederivator_morphism(DQ, DR, f))
            model = prederivator_equivalence(
                postcomposition_morphism(DQ, DR, f, HoPrederivator.model_data, sample.order))
            assert (model.ok, model.witnesses) == (exact.ok, exact.witnesses), name


@pytest.fixture
def decisions(monkeypatch):
    """The shapes of each morphism whose verdict the experiment reads, and
    the verdict, in the order the rows are decided."""
    seen = []
    decide = whitehead.prederivator_equivalence

    def recording(F, budget=None):
        verdict = decide(F, budget)
        seen.append((list(F.components), verdict))
        return verdict

    monkeypatch.setattr(whitehead, "prederivator_equivalence", recording)
    return seen


class TestDer1:
    def test_the_experiment_verdict_is_the_verdict_of_ho_f(self, decisions):
        sample = standard_sample()
        rows = conservativity_experiment(CORPUS, sample)
        read = [J for J in sample.order if J not in sample.der1_shapes()]
        assert read == ["[0]", "[1]", "[2]", "[0]x[1]", "[1]x[1]", "d[2]"]
        assert len(decisions) == len(rows) == len(CORPUS)
        by_base = {}
        for (name, f, _), row, (shapes, verdict) in zip(CORPUS, rows, decisions):
            DQ, DR = (by_base.setdefault(id(Q), HoPrederivator(Q, sample))
                      for Q in (f.source, f.target))
            exact = prederivator_equivalence(induced_prederivator_morphism(DQ, DR, f))
            # a failing shape is read; an equivalence is witnessed at the shapes read
            want = {J: exact.witnesses[J] for J in read} if exact.ok else exact.witnesses
            assert shapes == read, name
            assert (row.prederivator, verdict.ok, verdict.witnesses) == (
                exact.ok, exact.ok, want), name

    def test_no_exponential_over_a_der1_shape_is_built(self, monkeypatch):
        sample = standard_sample()
        exponents, shapes = [], []
        init, exponential = Exponential.__init__, HoPrederivator._exponential

        def recording_init(E, T, S, *args, **kwargs):
            exponents.append(S)
            init(E, T, S, *args, **kwargs)

        def recording(D, S, J_name):
            shapes.append(J_name)
            return exponential(D, S, J_name)

        monkeypatch.setattr(Exponential, "__init__", recording_init)
        monkeypatch.setattr(HoPrederivator, "_exponential", recording)
        conservativity_experiment(CORPUS, sample)
        decided = sample.der1_shapes()
        assert shapes and not decided & set(shapes)
        over_decided = {id(S) for J in decided for S in (sample.nerve(J), sample.model(J))}
        assert exponents and not any(id(S) in over_decided for S in exponents)

    @pytest.mark.parametrize("edit,fault", [
        (lambda s: s.coproducts.update({("[0]", "[1]"): "[1]+[1]"}),
         "coproduct annotation [0] + [1] = [1]+[1] is not the coproduct"),
        (lambda s: setattr(s, "initial", "[0]"),
         "initial annotation [0] is not the initial category"),
    ], ids=["coproduct", "initial"])
    def test_an_annotation_that_does_not_hold_is_named(self, evaluations, edit, fault):
        sample = standard_sample()
        edit(sample)
        with pytest.raises(ClosureError, match=f"^{re.escape(f'sample standard: {fault}')}$"):
            conservativity_experiment(CORPUS, sample)
        assert evaluations == {}


@pytest.fixture(scope="module")
def rows():
    return conservativity_experiment(CORPUS)


class TestAgreement:
    def test_ho_is_evaluated_only_where_a_verdict_reads_it(self, evaluations):
        conservativity_experiment(CORPUS)
        order = standard_sample().order
        # every non-equivalence fails at [0]; N(z2) and N([2]) appear in no other row
        assert evaluations.pop("N(z2)") == ["[0]"]
        assert evaluations.pop("N([2])") == ["[0]"]
        # the equivalence rows read every shape of their bases but the
        # coproducts and the empty shape, which Der1 decides, and HO's value
        # at each but [2] and d[2], which they decide on the models
        sample = standard_sample()
        on_models = [J for J in order if sample.model(J) is not sample.nerve(J)]
        assert on_models == ["[2]", "d[2]"]
        assert sample.der1_shapes() == {"0", "[0]+[0]", "[0]+[1]", "[1]+[1]"}
        equiv_bases = {Q.name for _, f, expected in CORPUS if expected
                       for Q in (f.source, f.target)}
        assert set(evaluations) == equiv_bases
        assert all(sorted(shapes) == sorted(set(order) - set(on_models) - sample.der1_shapes())
                   for shapes in evaluations.values())

    def test_ho_is_built_once_per_set(self, monkeypatch):
        built = []
        build = nerve_module._build_ho
        monkeypatch.setattr(nerve_module, "_build_ho",
                            lambda Q, budget: built.append(Q) or build(Q, budget))
        corpus = labeled_map_corpus()
        conservativity_experiment(corpus)
        # the five bases and the twenty exponentials over them that the verdicts read
        assert len({id(Q) for Q in built}) == len(built) == 25
        assert {id(S) for _, f, _ in corpus for S in (f.source, f.target)} <= set(map(id, built))

    def test_budget_does_not_depend_on_corpus_order(self):
        forward, backward = Budget(), Budget()
        conservativity_experiment(CORPUS, standard_sample(), forward)
        conservativity_experiment(CORPUS[::-1], budget=backward)
        # the total as recorded, which a change of the searches' steps moves;
        # 97132 before the surrogate read π0 and π1 of the mapping spaces off
        # face rows in place of Ho of their exponentials, 132139 before the
        # coproducts and the empty shape were decided by Der1, 154187 before
        # [2] and d[2] were decided on their models,
        # 170983 before a source was searched one component at a time and
        # the 2-horn check charged one step per edge in place of one per pair
        assert forward.used == backward.used == 89050

    def test_zero_implication_violations(self, rows):
        assert all(r.implication_ok for r in rows)

    def test_ground_truth_matches(self, rows):
        for r in rows:
            assert r.matches_ground_truth, r.name

    def test_table_renders(self, rows):
        table = agreement_table(rows)
        assert "implication" in table and "VIOLATED" not in table

    def test_the_table_of_an_empty_run_is_its_header(self):
        assert conservativity_experiment([]) == []
        assert agreement_table([]) == "map  expected  surrogate  prederivator  implication"


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = write_labeled_corpus(CORPUS[:4], tmp_path)
        back = load_labeled_corpus(manifest)
        assert len(back) == 4
        for (n1, f1, e1), (n2, f2, e2) in zip(CORPUS[:4], back):
            assert n1 == n2 and e1 == e2
            assert f1.key() == f2.key()

    def test_parse_error_names_line(self, tmp_path):
        bad = tmp_path / "corpus.manifest"
        bad.write_text("map broken-line\n")
        with pytest.raises(ValueError, match="line 1"):
            load_labeled_corpus(bad)

    @pytest.mark.parametrize("word", ["q0", "s0 s1", "s1 s1"])
    def test_a_word_that_is_not_normal_s_letters_names_the_line(self, word):
        # read letter by letter after its first character, q0 was s0 and
        # the map passed validation
        with pytest.raises(ValueError, match="line 2: cannot parse"):
            parse_map_file(f"0 = 0\n01 = {word} 0\n1 = 0\n", standard_simplex(1, 2),
                           standard_simplex(0, 2))

    def test_a_cell_assigned_twice_names_the_line(self, tmp_path):
        # read last-wins, this would load as 0 -> 1 and pass validation
        point, edge = standard_simplex(0, 2), standard_simplex(1, 2)
        twice = "0 = 0\n0 = 1\n"
        with pytest.raises(ValueError, match="line 2: cell 0 is assigned twice"):
            parse_map_file(twice, point, edge)
        f = SimplicialMap(point, edge, {"0": SimplexExpr((), "0")})
        manifest = write_labeled_corpus([("vertex0", f, False)], tmp_path)
        (tmp_path / "m00.map").write_text(twice)
        with pytest.raises(ValueError,
                           match="corpus.manifest line 1: line 2: cell 0 is assigned twice"):
            load_labeled_corpus(manifest)

    def test_a_cell_not_in_the_source_names_the_line(self, tmp_path):
        # dropped silently, this would load as 0 -> 0 and pass validation
        point, edge = standard_simplex(0, 2), standard_simplex(1, 2)
        stray = "0 = 0\n9 = 1\n"
        with pytest.raises(ValueError, match="line 2: 9 is no cell of delta0"):
            parse_map_file(stray, point, edge)
        f = SimplicialMap(point, edge, {"0": SimplexExpr((), "0")})
        manifest = write_labeled_corpus([("vertex0", f, False)], tmp_path)
        (tmp_path / "m00.map").write_text(stray)
        with pytest.raises(ValueError, match="corpus.manifest line 1: line 2: 9 is no cell"):
            load_labeled_corpus(manifest)

    @pytest.mark.parametrize("label", ["eqiv", "Equiv", "true"])
    def test_a_label_other_than_equiv_or_nonequiv_names_the_line(self, tmp_path, label):
        # read as "not equiv", a misspelt label loaded as a non-equivalence
        manifest = write_labeled_corpus(CORPUS[:2], tmp_path)
        lines = manifest.read_text().splitlines()
        lines[1] = lines[1].rsplit("expect", 1)[0] + f"expect {label}"
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"corpus.manifest line 2: label '{label}' is neither equiv nor nonequiv")):
            load_labeled_corpus(manifest)

    @pytest.mark.parametrize("missing", ["s00.sset", "m01.map"])
    def test_a_missing_file_names_the_line(self, tmp_path, missing):
        manifest = write_labeled_corpus(CORPUS[:2], tmp_path)
        (tmp_path / missing).unlink()
        line = 1 if missing.endswith(".sset") else 2
        with pytest.raises(ValueError, match=re.escape(
                f"corpus.manifest line {line}: cannot read {missing}: No such file or directory")):
            load_labeled_corpus(manifest)

    def test_a_name_listed_twice_names_the_line(self, tmp_path):
        # both rows would come back under one name
        manifest = write_labeled_corpus(CORPUS[:2], tmp_path)
        first = manifest.read_text().splitlines()[0]
        manifest.write_text(manifest.read_text() + first + "\n")
        name = CORPUS[0][0]
        with pytest.raises(ValueError, match=re.escape(f"corpus.manifest line 3: map {name} is listed twice")):
            load_labeled_corpus(manifest)
