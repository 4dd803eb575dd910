"""The simplicial-set corpus and its face mutations, run member by member.

The expected verdicts are the ones the benchmark's ``simplices`` workload
checks against ``perfbench/expected.json``.
"""

import pytest

from qcatkit.cats import equivalence_inverse
from qcatkit.corpus import (
    corpus_quasicategories,
    corpus_ssets,
    eilenberg_maclane,
    face_mutations,
    labeled_map_corpus,
)
from qcatkit.nerve import ho_on_map, is_quasicategory

MEMBERS = corpus_ssets()
# the shells of dimension >= 2 and the horns missing an inner 2- or 3-simplex face
NOT_QUASICATEGORIES = {"boundary2", "boundary3", "horn2_1",
                       "horn3_0", "horn3_1", "horn3_2", "horn3_3"}


def test_corpus_has_27_members():
    assert len(MEMBERS) == 27
    assert len({name for name, _ in MEMBERS}) == 27


@pytest.mark.parametrize("name,S", MEMBERS, ids=[name for name, _ in MEMBERS])
def test_member_validates_with_its_certificate(name, S):
    report = S.validate()
    assert report.ok, report.violations


def test_every_face_mutation_fails_validation():
    mutants = face_mutations()
    assert len(mutants) == 20
    assert [M.name for M in mutants if M.validate().ok] == []


def test_quasicategory_check_fails_exactly_on_the_expected_members():
    assert {name for name, S in MEMBERS if not is_quasicategory(S).ok} == NOT_QUASICATEGORIES


def test_corpus_quasicategories_pass():
    members = corpus_quasicategories()
    assert [name for name, Q in members if not is_quasicategory(Q).ok] == []
    assert not {name for name, _ in members} & NOT_QUASICATEGORIES


def test_labels_are_the_equivalences_on_ho():
    # the ends are nerves, 1-types: f is an equivalence exactly when Ho(f) is
    labels = [(name, expected) for name, _, expected in labeled_map_corpus()]
    decided = [(name, equivalence_inverse(ho_on_map(f)) is not None)
               for name, f, _ in labeled_map_corpus()]
    assert len(decided) == 10 and decided == labels


@pytest.mark.parametrize("n,counts", [(1, [1, 1, 1]), (2, [1, 0, 1, 4]), (3, [1, 0, 0, 1, 11])])
def test_eilenberg_maclane_spaces(n, counts):
    # the n-cocycles on Δm number 2^C(m, n); the nondegenerate ones are
    # those that are no s_j of a cocycle one level down
    K = eilenberg_maclane(n)
    assert [len(K.nondeg(m)) for m in range(K.dim_bound + 1)] == counts
    assert K.dim_bound == K.coskeletal_from == n + 1
    assert [len(K.total(m)) for m in range(n, n + 2)] == [2, 2 ** (n + 1)]
    report = K.validate()
    assert report.ok, report.violations
    assert is_quasicategory(K).ok
