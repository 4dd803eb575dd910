"""Exponentials, mapping spaces, and the Kan check.

Truncated exponentials are exact when the target carries a coskeletal
certificate c and both operands are known at least up to level c: maps out
of anything are then determined by their c-truncation, so working at level
max(c, 2) loses nothing.  All corpus targets are nerves (c = 2) or
certified constructions derived from them.

Level n of T^S is built through the exponential law
Hom(S x Δn, T) ≅ Hom(S, T^{Δn}), which holds for L-truncated simplicial
sets too because the L-truncated Δm is representable.  The path object
T^{Δn} (:func:`path_object`) is itself an exponential, with a simplex
exponent; it is built once per base, n and level and kept on the base.
Each map S -> T^{Δn} is transposed to S x Δn -> T, so the levels, cell
ids and faces are those of the direct search over S x Δn -> T.

That direct search is the base case: at level 0, for pinned exponentials,
and for an exponent with at most L + 1 vertices, L the working level.
Building T^{Δn} searches Δn x ΔL -> T, whose source has at least as many
vertices as S x Δn, so for such an exponent currying cannot pay: it is
built by the direct search, steps included.  This covers the exponent
with no cells and Δm up to relabelling for m <= L, so the path objects
too, except T^{Δ3} at L = 2, which is curried through T^{Δ1} and T^{Δ2}.

A path object is kept on its base by the one charged cache,
:meth:`qcatkit.util.Budget.cached`: the miss charges the caller's budget as
it runs and records the steps it charged, and a hit charges that record.
So the steps an exponential charges never depend on which path objects
were built before it.

The exponent side of a level does not depend on the base.  So each
exponent S keeps one frame per working level and height
(:class:`ExponentFrame`, built by :func:`exponent_frame` and kept on S by
:func:`qcatkit.util.memo`):
S truncated, the products S x Δn, and the shape maps id x δi and
id x σj compiled into index plans.  Every exponential over S shares it:
the exponentials of a prederivator over one sample share the sample's
nerves, and a base's mapping spaces share the base's Δ1.  Building a
frame charges no steps, as building a product never did.

The base side is coded.  An exponential works over T truncated at the
working level, which T keeps, so all exponentials of T there share its
level tables (see :mod:`qcatkit.simplicial`).  A level-n map is kept as
its code tuple: the search returns code tuples, the degenerate cells and
faces are gathered over them, and the transposition reads a path object's
maps through its per-level table from codes of T^{Δn} to code tuples
(``Exponential.code_rows``).  So cells are keyed by code tuples, and the
functors that restriction and postcomposition induce on Ho transport code
tuples (:func:`induced_functor`).  A map is decoded or encoded only by
:class:`qcatkit.simplicial.SimplicialMap`, the one converter between a
code tuple and its images.

The build runs in bulk, over tables.  The transposition works out, per
cell x of S and per image of x that some map S -> T^{Δn} takes, the part
of the transposed map over x once, and assembles each map from those
parts with C-level calls.  A level's cells are named, and their faces
gathered, a whole level at a time.  So are the functors on Ho:
:func:`transport` sends a batch of code tuples through a map a column at a
time, and each exponential keeps the code tuples of its Ho objects and of
its morphisms' representatives (``Exponential.ho_batches``), beside the
morphism of every level-1 code tuple (``Exponential.ho_morphisms``).  So
a functor on Ho costs two transports and one lookup per object and morphism.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, repeat
from operator import getitem, itemgetter

from .cats import Functor
from .nerve import HoPresentation, QcatReport, ho, require_quasicategory
from .simplicial import (
    ProductSSet,
    SimplexExpr,
    SimplicialMap,
    TruncatedSSet,
    compose_words,
    insert_letter,
    map_codes,
    product,
    standard_simplex,
    weak_seq_to_word,
)
from .util import Budget, ensure_budget, memo


def full_degeneracy(n: int) -> tuple:
    """The word collapsing an n-simplex onto its (single) vertex."""
    return tuple(range(n - 1, -1, -1))


def top_cell(n: int) -> str:
    return "".join(str(i) for i in range(n + 1))


class ExactnessError(ValueError):
    pass


def _check_exactness(T: TruncatedSSet, S: TruncatedSSet, k: int):
    if not 2 <= k <= 3:
        raise ExactnessError(f"exponential level {k} out of the supported range 2..3")
    c = T.coskeletal_from
    if c is None:
        raise ExactnessError(f"target {T.name} carries no coskeletal certificate")
    if min(S.dim_bound, T.dim_bound) < c:
        raise ExactnessError(
            f"exactness fails: {T.name} is {c}-coskeletal but data is only known "
            f"up to level {min(S.dim_bound, T.dim_bound)}")
    return max(c, 2)


class Exponential:
    """Levels 0..k of T^S, presented as a truncated simplicial set.

    Level n consists of the simplicial maps S x Δn -> T, found as the
    transposes of the maps S -> T^{Δn} (see the module docstring); faces
    and degeneracies are induced by the cosimplicial structure of the
    standard simplices.  Nondegenerate cells get short identifiers ``c{n}_{i}`` in
    canonical order, and ``ho`` is the homotopy category of the presented
    quasicategory.

    A level-n map is kept as its code tuple (the module docstring of
    :mod:`qcatkit.simplicial`) over the level tables of ``T_t``, T
    truncated at the working level and shared with every exponential of T
    there.  ``to_expr[n]`` maps the code tuple of every level-n map to its
    cell expression, ``cell_codes`` each nondegenerate cell to its level
    and code tuple, and ``codes_of`` any cell expression to its code tuple;
    ``map_of`` and ``locate`` pass code tuples to and from
    :class:`SimplicialMap`, which alone decodes and encodes them.
    ``ho_morphisms`` and ``ho_reps`` key ``ho`` by code tuples.

    ``frame`` is S's :class:`ExponentFrame` at the working level, kept on S
    and shared with every other exponential over S; ``S_t`` and
    ``products`` are its.  The faces of a cell and the degenerate cells are
    read through its plans, which charge no steps.

    ``pinned`` maps vertices of S to vertices of T: only the maps sending
    every cell over a pinned vertex v to the degenerate ``pinned[v]`` are
    cells.
    """

    def __init__(self, T: TruncatedSSet, S: TruncatedSSet, k: int = 2,
                 budget: Budget = None, pinned=None, name: str = None):
        # Ho is charged to the caller's budget, or makes its own like ho() does
        self._budget = budget
        budget = ensure_budget(budget, f"exponential {T.name}^{S.name}")
        level = _check_exactness(T, S, k)
        self.base = T
        self.exponent = S
        self.k = k
        self.frame = frame = exponent_frame(S, level, k)
        self.S_t, self.products = frame.S_t, frame.products
        self.T_t = T_t = T.truncate(level)
        self.name = name or f"({T.name}^{S.name})"
        # id x σj on the code tuples of the maps into T_t, as transport columns
        self._degeneracies = {n: [plan_columns(plan, P, T_t) for plan in frame.degeneracies[n]]
                              for n, P in self.products.items() if n}

        # a path object is an exponential, so it exists only at levels 2..3;
        # up to L + 1 vertices currying cannot pay (module docstring)
        direct = pinned is not None or level > 3 or len(S.nondeg(0)) <= level + 1
        raw = {}
        for n, P in self.products.items():
            if direct or n == 0:
                fixed = None if pinned is None else {
                    pid: SimplexExpr(full_degeneracy(len(e1.word)), pinned[e1.base])
                    for pid, (e1, _) in P.pair_of.items() if e1.base in pinned}
                raw[n] = map_codes(P, T_t, budget, fixed)
            else:
                path = path_object(T, P.right, level, budget)
                raw[n] = self._curried_maps(n, path, budget)
        # level by level: the degenerate cells are the s_j of the cells one
        # level down (the pins survive the collapse, so level n enumerated
        # them all); the others, in raw[n]'s canonical order, are named in it
        self.to_expr: dict = {}
        cells = self.cell_codes = {}
        levels, faces = {}, {}
        for n in range(k + 1):
            known = self.to_expr[n] = {}
            if n:
                inner = list(map(self.to_expr[n - 1].__getitem__, raw[n - 1]))
                words = [e.word for e in inner]
                bases = [e.base for e in inner]
                for j, degenerate in enumerate(self._degeneracies[n]):
                    lifted = {w: insert_letter(j, w) for w in set(words)}
                    known.update(zip(transport(raw[n - 1], degenerate),
                                     map(SimplexExpr, map(lifted.__getitem__, words), bases)))
            new = [codes for codes in raw[n] if codes not in known]
            ids = levels[n] = [f"c{n}_{i}" for i in range(len(new))]
            cells.update(zip(ids, zip(repeat(n), new)))
            known.update(zip(new, map(SimplexExpr, repeat((), len(ids)), ids)))
            if n:
                below = self.to_expr[n - 1].__getitem__
                for i, face in enumerate(frame.faces[n]):
                    faces.update(zip(zip(ids, repeat(i)), map(below, map(face, new))))
        cert = T.coskeletal_from if T.coskeletal_from <= k else None
        self.sset = TruncatedSSet(k, levels, faces, cert, self.name)

    def _curried_maps(self, n: int, path: Exponential, budget: Budget) -> list:
        """Level n as the transposes of the maps S -> T^{Δn}, as sorted code tuples.

        The image of a cell (e1|e2) at level m is the image of ν(e1) at the
        cell (e2|ι_m) of Δn x Δm.
        """
        P = self.products[n]
        slot = self.S_t.cell_index
        # per cell x of S, the cells (e1|e2) of P with e1 over x, as (the
        # codes of e1's word at x's level, the maps of the path object's
        # level m, position of (e2|ι_m)); and where each cell of P went
        over = [[] for _ in slot]
        went = []
        for pid in P.cells:
            e1, e2 = P.pair_of[pid]
            m = P.dim_of[pid]
            Q = path.products[m]
            cells = over[slot[e1.base]]
            went.append((slot[e1.base], len(cells)))
            cells.append((path.sset.degeneracy_codes(e1.word, m - len(e1.word)),
                          path.code_rows(m),
                          Q.cell_index[Q.id_of_pair[(e2, SimplexExpr((), top_cell(m)))]]))
        # an image tuple is the parts over the cells of S laid end to end, reordered
        start = [0]
        for cells in over:
            start.append(start[-1] + len(cells))
        reorder = itemgetter(*(start[s] + i for s, i in went))
        nus = map_codes(self.S_t, path.sset, budget)
        # per cell x of S: for each image of x that a map takes, the part over x
        parts = [{y: tuple([rows[codes[y]][at] for codes, rows, at in cells]) for y in set(images)}
                 for cells, images in zip(over, zip(*nus))]
        maps = [reorder(tuple(chain.from_iterable(map(getitem, parts, nu)))) for nu in nus]
        maps.sort()
        return maps

    # -- public queries -----------------------------------------------------

    @memo
    def code_rows(self, n: int) -> list:
        """Per code of ``sset.table(n)``, the code tuple of its map."""
        known = self.to_expr[n]
        key_of = dict(zip(known.values(), known))
        return list(map(key_of.__getitem__, self.sset.table(n).cells))

    @cached_property
    def ho(self) -> HoPresentation:
        return ho(self.sset, self._budget)

    @cached_property
    def ho_morphisms(self) -> dict:
        """Per level-1 code tuple, the morphism of ``ho`` its cell represents,
        read off ``ho.classes`` once."""
        return dict(zip(self.code_rows(1), self.ho.classes))

    @cached_property
    def ho_reps(self) -> dict:
        """Per morphism of ``ho``, the code tuple of its representative."""
        rows = self.code_rows(1)
        return {m: rows[c] for m, c in self.ho.rep_codes.items()}

    @cached_property
    def ho_batches(self) -> tuple:
        """The code tuples of ``ho``'s objects and of its non-identity
        morphisms' representatives, in category order, for :func:`induced_functor`."""
        C, codes = self.ho.category, self.cell_codes
        return ([codes[x][1] for x in C.objects],
                list(map(self.ho_reps.__getitem__, C.nonidentity())))

    def ho_morphism(self, codes: tuple) -> str:
        """The morphism of ``ho`` that the level-1 map with these codes represents."""
        m = self.ho_morphisms.get(codes)
        if m is None:
            raise KeyError(f"map is not a cell of {self.name}")
        return m

    def expr_at(self, n: int, codes: tuple) -> SimplexExpr:
        """The cell expression of the level-n map with the given code tuple."""
        e = self.to_expr[n].get(codes) if n in self.to_expr else None
        if e is None:
            raise KeyError(f"map is not a cell of {self.name}")
        return e

    def locate(self, mu: SimplicialMap) -> SimplexExpr:
        """The cell expression of a map out of S x Δn, n read off its simplex factor."""
        n = len(mu.source.right.nondeg(0)) - 1
        if n not in self.products or mu.source.cells != self.products[n].cells:
            raise KeyError(f"map is not a cell of {self.name}")
        return self.expr_at(n, mu.images)

    def codes_of(self, e: SimplexExpr) -> tuple:
        """The code tuple of the underlying map of an arbitrary cell expression."""
        n, codes = self.cell_codes[e.base]
        for j in reversed(e.word):
            n += 1
            (codes,) = transport([codes], self._degeneracies[n][j])
        return codes

    def map_of(self, e: SimplexExpr) -> SimplicialMap:
        """The underlying map of an arbitrary cell expression."""
        return SimplicialMap(self.products[self.sset.expr_dim(e)], self.T_t, self.codes_of(e))

    def evaluate_at_vertex(self, mu: SimplicialMap, v: str, n: int) -> SimplexExpr:
        """Restrict a level-n cell along an exponent vertex: an n-simplex of T."""
        P = self.products[n]
        vert = SimplexExpr(full_degeneracy(n), v)
        e = P.pair_expr(vert, SimplexExpr((), top_cell(n)))
        return mu.apply(e)


class ExponentFrame:
    """The exponent side of T^S at one working level and height k.

    ``exponent`` is S, ``S_t`` is S truncated at the level and
    ``products[n]`` is S_t x Δn for n <= k.  The shape maps id x δi:
    S_t x Δ(n-1) -> S_t x Δn and id x σj: S_t x Δn -> S_t x Δ(n-1) are
    compiled into index plans over the canonical cell orders.  id x δi
    sends nondegenerate cells to nondegenerate cells, so ``faces[n][i]``
    picks the code tuple of the i-th face of a level-n map straight out of
    the map's, one tuple at a time; ``degeneracies[n][j]`` lists, per cell
    of S_t x Δn, the slot and the degeneracy word of its image under
    id x σj.  Built once per exponent, level and height by
    :func:`exponent_frame`; building it charges no steps.
    """

    def __init__(self, S: TruncatedSSet, level: int, k: int):
        self.exponent, self.S_t = S, S.truncate(level)
        self.products = {n: product(self.S_t, standard_simplex(n, max(n, level)))
                         for n in range(k + 1)}
        self.faces, self.degeneracies = {}, {}
        for n in range(1, k + 1):
            self.faces[n] = [_gather(tuple(slot for slot, _ in self._plan(
                tuple(t for t in range(n + 1) if t != i), n - 1, n))) for i in range(n + 1)]
            self.degeneracies[n] = [self._plan(
                tuple(t if t <= j else t - 1 for t in range(n + 1)), n, n - 1) for j in range(n)]

    def _plan(self, alpha: tuple, m: int, n: int) -> tuple:
        """id_S x (alpha: [m] -> [n]) as (slot, word) per cell of S_t x Δm:
        s_w y, y on the vertices c (digits, as n <= 3), goes to s_w of the
        simplex that ``weak_seq_to_word`` reads off alpha . c."""
        Pm, Pn = self.products[m], self.products[n]

        def image(e1: SimplexExpr, e2: SimplexExpr) -> SimplexExpr:
            word, strict = weak_seq_to_word([alpha[int(v)] for v in e2.base])
            return Pn.pair_expr(e1, SimplexExpr(compose_words(e2.word, word),
                                                "".join(map(str, strict))))

        return slot_plan(Pm, Pn, image)


def slot_plan(P: ProductSSet, Q: TruncatedSSet, image) -> tuple:
    """The map P -> Q sending each cell (e1|e2) to ``image(e1, e2)``, as
    (slot, word) per cell of P: the position in Q's canonical cell order of
    the base of its image, and the image's degeneracy word."""
    index, pair_of = Q.cell_index, P.pair_of
    return tuple((index[e.base], e.word) for e in (image(*pair_of[x]) for x in P.cells))


def plan_columns(plan: tuple, P: TruncatedSSet, T: TruncatedSSet) -> list:
    """A :func:`slot_plan` out of P as :func:`transport` columns against T:
    per cell of P, its slot and the codes of the degenerate simplices of T
    that its word makes, or None for the empty word."""
    return [(s, T.degeneracy_codes(w, P.dim_of[x] - len(w)) if w else None)
            for (s, w), x in zip(plan, P.cells)]


def transport(batch: list, columns: list) -> list:
    """Every code tuple of ``batch`` sent through ``columns``, in order.

    ``columns`` lists, per slot of an image, the slot of the source tuple it
    reads and the table its codes go through, or None to keep them.  The
    batch is transposed once, each column is reused or mapped through its
    table, and the columns are zipped back into tuples.
    """
    if not batch or not columns:
        return [()] * len(batch)
    source = list(zip(*batch))
    return list(zip(*[source[s] if table is None else map(table.__getitem__, source[s])
                      for s, table in columns]))


def _gather(slots: tuple):
    """The function picking the entries at ``slots`` out of a tuple, as a tuple."""
    return itemgetter(*slots) if len(slots) > 1 else lambda c: tuple(map(c.__getitem__, slots))


@memo
def exponent_frame(S: TruncatedSSet, level: int, k: int) -> ExponentFrame:
    """S's frame at ``level`` and height k, built once and kept on S."""
    return ExponentFrame(S, level, k)


def path_object(T: TruncatedSSet, delta: TruncatedSSet, level: int,
                budget: Budget) -> Exponential:
    """T^{Δn} at ``level``, built once per base, n and level and kept on T.

    ``delta`` is the Δn, truncated at max(n, level), that the miss builds
    over: an exponent frame's Δn, so the path objects of every base over
    one exponent share its frame.  A hit charges ``budget`` the steps the
    miss charged.
    """
    n = len(delta.nondeg(0)) - 1
    return budget.cached(T, ("path_object", n, level),
                         lambda: Exponential(T, delta, level, budget))


def induced_functor(E1: Exponential, E2: Exponential, image, name: str) -> Functor:
    """The functor Ho(E1) -> Ho(E2) induced by a transport of cells.

    ``image(batch, level)`` sends a list of code tuples of level-0 or
    level-1 cells of E1 to the list of those of their images, cells of E2 at
    the same level; a tuple that is not a cell is a ``KeyError`` naming E2.
    It gets E1's ``ho_batches``: every object's code tuple, then every
    representative's, in one call each.  Objects go to the image vertices,
    morphisms to the classes of the images of their representatives, one
    lookup each.  Nothing is decoded or located.
    """
    C = E1.ho.category
    vertices, morphisms = map(image, E1.ho_batches, (0, 1))
    try:
        ob = dict(zip(C.objects, [E2.to_expr[0][codes].base for codes in vertices]))
        mor = dict(zip(C.nonidentity(), map(E2.ho_morphisms.__getitem__, morphisms)))
    except KeyError:
        raise KeyError(f"map is not a cell of {E2.name}") from None
    return Functor(C, E2.ho.category, ob, mor, name)


# ---------------------------------------------------------------------------
# mapping spaces


def mapping_space(Q: TruncatedSSet, x: str, y: str, budget: Budget = None) -> Exponential:
    """Balanced mapping space between two vertices of a quasicategory.

    An n-simplex is a prism Δ1 x Δn -> Q restricting to the degeneracies
    of x and y over the two endpoints of the exponent interval.
    """
    require_quasicategory(Q, budget)
    return Exponential(Q, Q.interval, 2, budget, {"0": x, "1": y},
                       name=f"{Q.name}({x},{y})")


def kan_check(S: TruncatedSSet, budget: Budget = None) -> QcatReport:
    """Horn filling for all horns, outer included, up to the truncation.

    The report has the layout of :func:`qcatkit.nerve.is_quasicategory`;
    its witness is the first unfilled horn with its horn map.
    """
    budget = ensure_budget(budget, f"kan check on {S.name}")
    report = QcatReport(S.name, S.dim_bound)
    for n in range(1, S.dim_bound + 1):
        report.check_horns(S, n, range(n + 1), budget)
    return report
