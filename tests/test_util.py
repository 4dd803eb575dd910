"""The memo rule: ``util.memo`` keeps an answer on its owner, once."""

import gc
import weakref

import pytest

from qcatkit.cats import group_z2, identity_functor, poset_simplex
from qcatkit.mapping import Exponential, exponent_frame
from qcatkit.nerve import nerve
from qcatkit.prederivator import ClosureError, HoPrederivator, dia_arrow, standard_sample
from qcatkit.simplicial import (
    SimplexExpr,
    TruncatedSSet,
    identity_map,
    product,
    standard_simplex,
)
from qcatkit.whitehead import _Components


def broken_edge():
    """An edge whose d_1 is missing, so that face raises."""
    return TruncatedSSet(2, {0: ["a"], 1: ["e"]}, {("e", 0): SimplexExpr((), "a")},
                         name="broken")


# per memo site: the owner, the name of the memoized function, a call that answers, and
# a call that raises (None where no argument makes it raise)
MEMO_SITES = {
    "degenerate": (lambda: standard_simplex(2, 3), "degenerate",
                   lambda S: S.degenerate((1,), SimplexExpr((), "01")), None),
    "total": (lambda: standard_simplex(2, 3), "total", lambda S: S.total(2), None),
    "_blocks": (lambda: standard_simplex(2, 3), "_blocks", lambda S: S._blocks(3), None),
    "rows": (broken_edge, "rows", lambda S: S.rows(0), (lambda S: S.rows(1), KeyError)),
    "table": (lambda: standard_simplex(2, 3), "table", lambda S: S.table(3), None),
    "face_index": (lambda: standard_simplex(2, 3), "face_index",
                   lambda S: S.face_index(2, (0, 2), 1), None),
    "degeneracy_codes": (lambda: standard_simplex(1, 3), "degeneracy_codes",
                         lambda S: S.degeneracy_codes((1, 0), 1),
                         (lambda S: S.degeneracy_codes((1,), 0), KeyError)),
    "action_codes": (lambda: standard_simplex(2, 2), "action_codes",
                     lambda S: S.action_codes((0, 2, 2), 2),
                     (lambda S: S.action_codes((1, 0), 2), ValueError)),
    "face": (broken_edge, "face", lambda S: S.face(SimplexExpr((), "e"), 0),
             (lambda S: S.face(SimplexExpr((), "e"), 1), KeyError)),
    "truncate": (lambda: nerve(group_z2(), 3), "_truncated", lambda S: S.truncate(2), None),
    "pair_expr": (lambda: product(standard_simplex(1, 2), standard_simplex(1, 2)), "pair_expr",
                  lambda P: P.pair_expr(SimplexExpr((0,), "01"), SimplexExpr((1,), "01")),
                  None),
    "code_table": (lambda: identity_map(standard_simplex(2, 2)), "code_table",
                   lambda f: f.code_table(2), None),
    "code_rows": (lambda: Exponential(nerve(poset_simplex(1), 3), nerve(poset_simplex(1), 2), 2),
                  "code_rows", lambda E: E.code_rows(1), None),
    "nonidentity": (lambda: poset_simplex(2), "nonidentity", lambda C: C.nonidentity(), None),
    "is_iso": (group_z2, "is_iso", lambda C: C.is_iso("g"), None),
    "key": (lambda: identity_functor(poset_simplex(2)), "key", lambda F: F.key(), None),
    "exponent_frame": (lambda: nerve(poset_simplex(1), 2), "exponent_frame",
                       lambda S: exponent_frame(S, 2, 2), None),
    "DiaSample.nerve": (standard_sample, "nerve", lambda s: s.nerve("[1]"), None),
    "Prederivator.eval": (lambda: HoPrederivator(standard_simplex(0, 2), standard_sample()),
                          "eval", lambda D: D.eval("[1]"), None),
    # the standard sample annotates no shift of [2]
    "dia_arrow": (lambda: HoPrederivator(standard_simplex(0, 2), standard_sample()),
                  "dia_arrow", lambda D: dia_arrow(D, "[0]"),
                  (lambda D: dia_arrow(D, "[2]"), ClosureError)),
    "HO(f) components": (lambda: _Components(("[0]",), lambda J: [J]), "__getitem__",
                         lambda c: c["[0]"], (lambda c: c["[1]"], KeyError)),
}


@pytest.mark.parametrize("site", sorted(MEMO_SITES))
def test_a_memo_answers_once_keeps_no_failure_and_leaves_with_its_owner(site):
    make, name, call, failing = MEMO_SITES[site]
    owner = make()
    answer = call(owner)
    assert call(owner) is answer, site
    kept = vars(owner)["memo." + name]
    assert any(value is answer for value in kept.values()), site
    if failing is not None:
        fail, error = failing
        before = dict(kept)
        for _ in range(2):
            with pytest.raises(error):
                fail(owner)
        assert kept == before, site
    ref = weakref.ref(owner)
    del owner, answer, kept
    gc.collect()
    assert ref() is None, site
