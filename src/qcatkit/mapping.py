"""Exponentials, the mapping-space exponentials, and the Kan check.

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
Below the top level k, each map S -> T^{Δn} is transposed to S x Δn -> T,
and the level is stored in those coordinates.  The top level, where T^S
is largest, is stored in curried coordinates, on the maps ν: S -> T^{Δk}
the search returns: its degenerate cells are T^{σj} ∘ ν' for the maps ν'
of level k - 1, and its faces T^{δi} ∘ ν, each one :func:`transport`
through the per-level code tables between the path objects T^{Δ(k-1)}
and T^{Δk} (:meth:`Exponential.precomposed`).  Its maps are sorted by
their splitting slots (:meth:`ExponentFrame.transposition`), which order
them as their transposes.  So the levels, cell ids and faces are those of
the direct search over S x Δn -> T.  The top level's code tuples over
S x Δk are transposed only by the first call of
``Exponential.code_rows(k)``: neither Ho nor the quasicategory check makes
it.

That direct search is the base case: at level 0, for pinned exponentials,
and for an exponent with at most L + 1 vertices, L the working level.
Building T^{Δn} searches Δn x ΔL -> T, whose source has at least as many
vertices as S x Δn, so for such an exponent currying does not pay in time:
it is built by the direct search, steps included.  Measured at L = 2 over
the bases N([1]), N([2]), N(z2), N(E) and the exponents N(J) for J = [1],
[2], d[2], [0]+[0], [0]+[1], a lone exponential with its Ho took 1.7 to
13 times as long curried (3.0 -> 39.1 ms for N(E)^{N([0]+[0])}).  In steps
currying is dearer on 17 of the 20 pairs, up to 115 times (86 -> 9,924
for N(z2)^{N([0]+[0])}; over [0]+[1], whose two components the direct
search takes one at a time, 4.6 to 12.8 times), and cheaper only for d[2]
over N([2]), N(z2) and N(E) (13,442 -> 12,353, 19,306 -> 12,316,
29,001 -> 23,463), where it is 1.7 to 2.4 times slower.  This covers the exponent with no cells and Δm up
to relabelling for m <= L, so the path objects too, except T^{Δ3} at
L = 2, which is curried through T^{Δ1} and T^{Δ2}.

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
nerves, and the mapping-space exponentials of one base share the base's
Δ1 (:func:`mapping_space`, the oracle of the Whitehead surrogate, which
reads mapping spaces off face rows).  Building a
frame charges no steps, as building a product never did.

The base side is coded.  An exponential works over T truncated at the
working level, which T keeps, so all exponentials of T there share its
level tables (see :mod:`qcatkit.simplicial`).  A level-n map is kept as
its code tuple: the search returns code tuples, the degenerate cells and
faces are transported from them, and the transposition reads a path object's
maps through its per-level table from codes of T^{Δn} to code tuples
(``Exponential.code_rows``).  So a cell's one key is its code tuple, and the
functors that restriction and postcomposition induce on Ho transport code
tuples (:func:`induced_functor`).  A map is decoded or encoded only by
:class:`qcatkit.simplicial.SimplicialMap`, the one converter between a
code tuple and its images.

Every level is coded, and named only when read.  One loop builds levels
0..k alike: a level's maps are kept per code of the set's ``table(n)``,
the degenerate ones at the codes ``degeneracy_codes`` gives the s_j of
the maps one level down, and the faces of its nondegenerate cells are
handed to the set as rows of codes of ``table(n - 1)``
(:meth:`qcatkit.simplicial.TruncatedSSet.hand_over`).  Ho and the
quasicategory check read level 2 through ``rows`` and ``token_order``
alone, so an HO value never names its top level and decodes no face.  Nor
does a path object: a curried exponential reads it by code tuple, through
``code_rows`` (``Exponential.precomposed``).

The build runs in bulk, over tables.  The transposition and the sort keys
of the maps S -> T^{Δn} are :func:`transport` calls: a slot of the
transposed map over a cell x of S is one column, a table worked out once
per image of x that some map takes.  A level's cells are coded, and
their faces transported, a whole level at a time.  So are the functors on
Ho: :func:`transport` sends a batch of code tuples through a map a column at a
time, and each exponential keeps the code tuples of its Ho objects and of
its morphisms' representatives (``Exponential.ho_batches``), beside the
morphism of every level-1 code tuple (``Exponential.ho_morphisms``).  So
a functor on Ho costs two transports and one lookup per object and morphism.
"""

from __future__ import annotations

from functools import cached_property

from .cats import Functor
from .nerve import HoPresentation, QcatReport, ho, require_quasicategory
from .simplicial import (
    ProductSSet,
    SimplexExpr,
    SimplicialMap,
    TruncatedSSet,
    compose_words,
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
    there.  The code tuple is the only key of a cell: ``to_expr(n)`` maps
    the code tuple of every level-n map to its cell expression, and
    ``code_rows(n)`` lists them per code of ``sset.table(n)``, so
    ``codes_of`` reads any cell expression's code tuple off it;
    ``map_of`` and ``locate`` pass code tuples to and from
    :class:`SimplicialMap`, which alone decodes and encodes them.
    ``ho_morphisms`` keys ``ho`` by level-1 code tuples.

    Each level is stored once, in one form: the set holds its face rows
    (:meth:`TruncatedSSet.hand_over`), and its maps are kept per code of
    ``sset.table(n)``, as code tuples over S x Δn, or at the top of a
    curried exponential as its maps S -> T^{Δk}.  ``code_rows(n)`` returns
    that list, transposing the curried top on the first call, and
    ``to_expr(n)`` names the level on its first call (``codes_of``,
    ``map_of``, ``locate`` and ``expr_at`` read through them; a level
    outside 0..k is a ``KeyError`` naming the exponential).  Ho and the
    quasicategory check read levels 0 and 1, ``rows(2)`` and
    ``token_order(2)`` only.

    ``frame`` is S's :class:`ExponentFrame` at the working level, kept on S
    and shared with every other exponential over S; ``S_t`` and
    ``products`` are its.  The faces of a cell and the degenerate cells are
    read through its plans, and at the top of a curried exponential through
    the path objects' code tables; neither charges steps.

    ``pinned`` maps vertices of S to vertices of T: only the maps sending
    every cell over a pinned vertex v to the degenerate ``pinned[v]`` are
    cells.  Only :func:`mapping_space` and the tests pin.
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
        self.S_t = S_t = frame.S_t
        self.products = frame.products
        self.T_t = T_t = T.truncate(level)
        self.name = name or f"({T.name}^{S.name})"

        # a path object is an exponential, so it exists only at levels 2..3;
        # up to L + 1 vertices currying does not pay (module docstring)
        direct = pinned is not None or level > 3 or len(S.nondeg(0)) <= level + 1
        top = None if direct else k  # the level kept in curried coordinates
        # per level, its maps in canonical order: code tuples over S x Δn, or
        # at the top the maps S -> T^{Δk}, found beside those of level k - 1
        raw, paths, curried = {}, {}, {}
        for n, P in self.products.items():
            if direct or n == 0:
                fixed = None if pinned is None else {
                    pid: SimplexExpr(full_degeneracy(len(e1.word)), pinned[e1.base])
                    for pid, (e1, _) in P.pair_of.items() if e1.base in pinned}
                raw[n] = map_codes(P, T_t, budget, fixed)
                continue
            path = paths[n] = path_object(T, P.right, level, budget)
            nus = map_codes(S_t, path.sset, budget)
            keyed, columns = frame.transposition(n, path, nus)
            nus = curried[n] = [nu for _, nu in sorted(zip(transport(nus, keyed), nus))]
            raw[n] = nus if n == top else transport(nus, columns)
        self._top_path = paths.get(top)
        # per level n >= 1, the maps of level n - 1 that s_j and d_i connect
        # it with, and s_j and d_i on them: through the frame on code tuples,
        # and at the top of a curried exponential through the path objects
        # on the maps S -> T^{Δk}
        below = {n: raw[n - 1] for n in range(1, k + 1)}
        lifts = {n: [plan_columns(plan, P, T_t) for plan in frame.degeneracies[n]]
                 for n, P in self.products.items() if n}
        drops = {n: [plan_columns(plan, self.products[n - 1], T_t) for plan in plans]
                 for n, plans in frame.faces.items()}
        if top:
            A, B = paths[k - 1], paths[k]
            below[k] = curried[k - 1]
            lifts[k] = [_path_columns(S_t, A, B, _degeneracy_map(k, j)) for j in range(k)]
            drops[k] = [_path_columns(S_t, B, A, _face_map(k, i)) for i in range(k + 1)]
        # level by level, the degenerate cells are the s_j of the maps one
        # level down (the pins survive the collapse, so level n enumerated
        # them all); the others, in raw[n]'s order, get their ids in it
        levels, lifted, new = {}, {}, {}
        for n in range(k + 1):
            lifted[n] = [transport(below[n], columns) for columns in lifts.get(n, ())]
            degenerate = set().union(*lifted[n])
            fresh = [codes for codes in raw[n] if codes not in degenerate]
            ids = levels[n] = [f"c{n}_{i}" for i in range(len(fresh))]
            new[n] = [fresh[i] for i in sorted(range(len(fresh)), key=ids.__getitem__)]
        cert = T.coskeletal_from if T.coskeletal_from <= k else None
        self.sset = sset = TruncatedSSet(k, levels, {}, cert, self.name)
        # level by level, per code of table(n), its map: the nondegenerate
        # block first, in id order, then the s_j at the codes that
        # degeneracy_codes gives them; the face rows of the nondegenerate
        # cells go to the set as codes of table(n - 1)
        maps = self._maps = {}
        rows = {}
        for n in range(k + 1):
            here = maps[n] = new[n] + [None] * (len(raw[n]) - len(new[n]))
            if n:
                codes = list(map(code_of.__getitem__, raw[n - 1]))
                for j, keys in enumerate(lifted[n]):
                    for key, c in zip(keys, map(sset.degeneracy_codes((j,), n - 1).__getitem__,
                                                codes)):
                        here[c] = key
                code = dict(zip(below[n], codes)).__getitem__
                rows[n] = list(zip(*(map(code, transport(new[n], columns))
                                     for columns in drops[n])))
            code_of = dict(zip(here, range(len(here))))
        sset.hand_over(rows)

    # -- public queries -----------------------------------------------------

    @memo
    def to_expr(self, n: int) -> dict:
        """Per code tuple of a level-n map, its cell expression, named here
        on the first read, off ``code_rows(n)`` and ``sset.table(n)``."""
        return dict(zip(self.code_rows(n), self.sset.table(n).cells))

    @memo
    def code_rows(self, n: int) -> list:
        """Per code of ``sset.table(n)``, the code tuple of its map, as
        stored.  At the top of a curried exponential the maps S -> T^{Δk}
        kept per code are transposed to code tuples over S x Δk here, on the
        first read."""
        if n not in self._maps:
            raise KeyError(f"map is not a cell of {self.name}")
        if n == self.k and self._top_path is not None:
            return transport(self._maps[n],
                             self.frame.transposition(n, self._top_path, self._maps[n])[1])
        return self._maps[n]

    @memo
    def precomposed(self, other: Exponential, alpha: tuple) -> dict:
        """T^α from this path object T^{Δa} to ``other``, T^{Δb}, for a
        monotone α: [b] -> [a]: per level m, the code in ``other``'s table of
        each m-cell of this one precomposed with α x id: Δb x Δm -> Δa x Δm,
        read off ``other.code_rows(m)``, so that neither path object is named
        at its top level.  The slot plans are the frames'
        (:meth:`ExponentFrame.simplex_plans`)."""
        tables = {}
        for m, plan in self.frame.simplex_plans(other.frame, alpha).items():
            moved = transport(self.code_rows(m), plan_columns(plan, other.products[m], self.T_t))
            code = {codes: c for c, codes in enumerate(other.code_rows(m))}
            tables[m] = list(map(code.__getitem__, moved))
        return tables

    @cached_property
    def ho(self) -> HoPresentation:
        return ho(self.sset, self._budget)

    @cached_property
    def ho_morphisms(self) -> dict:
        """Per level-1 code tuple, the morphism of ``ho`` its cell represents,
        read off ``ho.classes`` once."""
        return dict(zip(self.code_rows(1), self.ho.classes))

    @cached_property
    def ho_batches(self) -> tuple:
        """The code tuples of ``ho``'s objects and of its non-identity
        morphisms' representatives, in category order, for
        :func:`induced_functor`.  The objects are the vertices, in
        ``sset.table(0)`` order, which is the category's."""
        rows, reps = self.code_rows(1), self.ho.rep_codes
        return self.code_rows(0), [rows[reps[m]] for m in self.ho.category.nonidentity()]

    def ho_morphism(self, codes: tuple) -> str:
        """The morphism of ``ho`` that the level-1 map with these codes represents."""
        m = self.ho_morphisms.get(codes)
        if m is None:
            raise KeyError(f"map is not a cell of {self.name}")
        return m

    def expr_at(self, n: int, codes: tuple) -> SimplexExpr:
        """The cell expression of the level-n map with the given code tuple."""
        e = self.to_expr(n).get(codes)
        if e is None:
            raise KeyError(f"map is not a cell of {self.name}")
        return e

    def locate(self, mu: SimplicialMap) -> SimplexExpr:
        """The cell expression of a map out of S x Δn, n read off its simplex factor."""
        n = len(mu.source.right.nondeg(0)) - 1 if isinstance(mu.source, ProductSSet) else None
        if n not in self.products or mu.source.cells != self.products[n].cells:
            raise KeyError(f"map is not a cell of {self.name}")
        return self.expr_at(n, mu.images)

    def codes_of(self, e: SimplexExpr) -> tuple:
        """The code tuple of the underlying map of an arbitrary cell expression."""
        n = self.sset.expr_dim(e)
        return self.code_rows(n)[self.sset.table(n).code[e]]

    def map_of(self, e: SimplexExpr) -> SimplicialMap:
        """The underlying map of an arbitrary cell expression."""
        codes = self.codes_of(e)
        return SimplicialMap(self.products[self.sset.expr_dim(e)], self.T_t, codes)

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
    compiled into slot plans over the canonical cell orders: ``faces[n][i]``
    lists, per cell of S_t x Δ(n-1), the slot and the degeneracy word (empty)
    of its image under id x δi, ``degeneracies[n][j]`` those under id x σj,
    and :func:`transport` applies both.  Built once per exponent, level and
    height by :func:`exponent_frame`; building it charges no steps.  A curried
    exponential reads its levels off path objects through
    ``transposition``; the frames of the path objects' simplex exponents
    compile the maps α x id between each other (``simplex_plans``).
    """

    def __init__(self, S: TruncatedSSet, level: int, k: int):
        self.exponent, self.S_t = S, S.truncate(level)
        self.products = {n: product(self.S_t, standard_simplex(n, max(n, level)))
                         for n in range(k + 1)}
        self.faces, self.degeneracies = {}, {}
        for n in range(1, k + 1):
            self.faces[n] = [self._plan(_face_map(n, i), n - 1, n) for i in range(n + 1)]
            self.degeneracies[n] = [self._plan(_degeneracy_map(n, j), n, n - 1)
                                    for j in range(n)]

    def _plan(self, alpha: tuple, m: int, n: int) -> tuple:
        """id_S x (alpha: [m] -> [n]) as (slot, word) per cell of S_t x Δm."""
        Pn = self.products[n]
        return slot_plan(self.products[m], Pn,
                         lambda e1, e2: Pn.pair_expr(e1, _simplex_image(alpha, e2)))

    @memo
    def simplex_plans(self, other: ExponentFrame, alpha: tuple) -> dict:
        """For the frames of two simplices, Δa (this one) and Δb, and a
        monotone α: [b] -> [a]: per level m, α x id: Δb x Δm -> Δa x Δm as a
        slot plan out of ``other``'s product into this one's.  Built once per
        pair of frames and α, and shared by the path objects of every base."""
        plans = {}
        for m, P in self.products.items():
            plans[m] = slot_plan(other.products[m], P,
                                 lambda e1, e2, P=P: P.pair_expr(_simplex_image(alpha, e1), e2))
        return plans

    def transposition(self, n: int, path: Exponential, nus: list) -> tuple:
        """For maps ν: S -> T^{Δn} with these code tuples, ``path`` being
        T^{Δn}: the :func:`transport` columns of their sort keys and of their
        transposes, code tuples over S x Δn.

        The image of a cell (e1|e2) of S x Δn at level m is the image of
        ν(e1) at the cell (e2|ι_m) of Δn x Δm.  So a transpose's slot of a
        cell over x, a cell of S, is a function of ν(x): one column, a table
        over the images of x that some ν takes.  The key keeps only the
        splitting slots: over each x, in cell order, the slots that split
        the images of x further than the slots kept before them.  Any other
        slot over x is a function of those, so the keys sort as the
        transposes do and no two maps tie.
        """
        P = self.products[n]
        slot = self.S_t.cell_index
        images = [list(set(ys)) for ys in zip(*nus)] if nus else [[]] * len(slot)
        # per cell x of S, the class of each of its images by the key's
        # slots over x so far, and the number of classes
        classes = [[0] * len(ys) for ys in images]
        count = [1] * len(slot)
        columns, keyed = [], []
        for pid in P.cells:
            e1, e2 = P.pair_of[pid]
            m = P.dim_of[pid]
            Q = path.products[m]
            x = slot[e1.base]
            ys = images[x]
            codes, rows = path.sset.degeneracy_codes(e1.word, m - len(e1.word)), path.code_rows(m)
            at = Q.cell_index[Q.id_of_pair[(e2, SimplexExpr((), top_cell(m)))]]
            values = [rows[codes[y]][at] for y in ys]
            table = dict(zip(ys, values))
            columns.append((x, table))
            if count[x] < len(ys):
                split = list(zip(classes[x], values))
                distinct = dict.fromkeys(split)
                if len(distinct) > count[x]:
                    number = dict(zip(distinct, range(len(distinct))))
                    classes[x], count[x] = list(map(number.__getitem__, split)), len(number)
                    keyed.append((x, table))
        return keyed, columns


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


def _face_map(n: int, i: int) -> tuple:
    """δi: [n-1] -> [n], the image of each vertex."""
    return tuple(t for t in range(n + 1) if t != i)


def _degeneracy_map(n: int, j: int) -> tuple:
    """σj: [n] -> [n-1], the image of each vertex."""
    return tuple(t if t <= j else t - 1 for t in range(n + 1))


def _simplex_image(alpha: tuple, e: SimplexExpr) -> SimplexExpr:
    """The image of a simplex of Δm under the map Δm -> Δn of a monotone
    alpha: s_w y, y on the vertices c (digits, as n <= 3), goes to s_w of
    the simplex that ``weak_seq_to_word`` reads off alpha . c."""
    word, strict = weak_seq_to_word([alpha[int(v)] for v in e.base])
    return SimplexExpr(compose_words(e.word, word), "".join(map(str, strict)))


def _path_columns(S: TruncatedSSet, A: Exponential, B: Exponential, alpha: tuple) -> list:
    """T^α: A -> B between path objects, :meth:`Exponential.precomposed`, as
    :func:`transport` columns on the code tuples of maps S -> A: each cell's
    slot goes through the code table at its dimension."""
    tables = A.precomposed(B, alpha)
    return [(s, tables[S.dim_of[x]]) for s, x in enumerate(S.cells)]


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
    C, named = E1.ho.category, E2.to_expr(0)
    vertices, morphisms = map(image, E1.ho_batches, (0, 1))
    try:
        ob = dict(zip(C.objects, [named[codes].base for codes in vertices]))
        mor = dict(zip(C.nonidentity(), map(E2.ho_morphisms.__getitem__, morphisms)))
    except KeyError:
        raise KeyError(f"map is not a cell of {E2.name}") from None
    return Functor(C, E2.ho.category, ob, mor, name)


# ---------------------------------------------------------------------------
# mapping spaces


def mapping_space(Q: TruncatedSSet, x: str, y: str, budget: Budget = None) -> Exponential:
    """Balanced mapping space between two vertices of a quasicategory.

    An n-simplex is a prism Δ1 x Δn -> Q restricting to the degeneracies
    of x and y over the two endpoints of the exponent interval.  No live
    path builds it: it is the oracle that
    :func:`qcatkit.whitehead.is_fully_faithful_1tr` is checked against.
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
