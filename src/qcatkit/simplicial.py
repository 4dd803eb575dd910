"""Finite, dimension-truncated simplicial sets.

A simplicial set is presented by its nondegenerate simplices only.  Every
simplex is a pair (degeneracy word, nondegenerate base); the word is kept
in normal form (strictly decreasing indices), which makes the presentation
unique.  Face data is stored for nondegenerate simplices and pushed through
degeneracy words with the simplicial identities when needed.

Every set lays its nondegenerate simplices, all levels together, out in
one canonical cell order: sorted by identifier (``TruncatedSSet.cells``).
A level is its face rows (``TruncatedSSet.rows``), built once and kept on
the set: per n-simplex, degenerate ones included, the codes of its faces
one level down, where the code of a simplex is its position among the
n-simplices sorted as ``SimplexExpr``s.  In that order a level comes in
blocks, one per degeneracy word, each holding the word applied to every
nondegenerate simplex of one level in turn; face rows and the codes of
degenerate simplices are worked out a block at a time, off identifiers
and words, so that no simplex is named.  Names are built when read:
``table`` adds the simplices as ``SimplexExpr``s and their codes, and
``total`` lists them in report order, which ``token_order`` gives as codes
without naming them.  A set can be handed its levels coded
(``TruncatedSSet.hand_over``), as an exponential's are; its ``faces``
entries there are decoded from the rows only when read.  The set also
keeps, per degeneracy word and level, the codes of the degenerate
simplices (``degeneracy_codes``), per monotone α: [m] -> [n] the codes of
the action y . α (``action_codes``), and for the levels a map search or a
horn or boundary filling reads, its indexes of codes by the faces read
(``face_index``).

A simplicial map is its code tuple: per cell of the source, in that
order, the code of its image at the cell's dimension.  Codes follow the
order of the simplices they name, so two maps out of one source compare,
sort and hash as their tuples of images would.  :class:`SimplicialMap`
holds that code tuple or the images as ``SimplexExpr``s, whichever it was
built from, and is the only code that converts between the two.  The map
search (:func:`map_codes`) and the exponentials of :mod:`qcatkit.mapping`
run over code tuples.  The search follows the source's placement plan
(``TruncatedSSet.search_plan``), which reads a face off the simplex above
it where the simplicial identities allow, as the long edge of a filler is
read off the filler: the simplex is looked up by its other faces, and the
face is written from each candidate row, with no branch and no step of its
own.  A source with more than one connected component above dimension 0
is searched one component at a time (``TruncatedSSet.search_parts``), and
its maps are the products of the components' maps.
Extension problems (:func:`extensions`) search for the shell maps only and
read the fillers off the same ``face_index`` by whole face rows, charging
the search's steps and one step per n-simplex of the target and per shell
map.  The target keeps each shell's answer
(:meth:`qcatkit.util.Budget.cached`), so a repeated problem charges what
the first one charged.

:func:`inner_collapse` removes free inner faces, each with the simplex
above it, while one is left, so the subset it returns is inner anodyne in
the set; the collapses it lists are replayed, apart from it, by
:func:`check_collapse`.

Conventions:
    * ``d_i`` forgets the i-th vertex, so for an edge ``f`` the face
      ``d_1 f`` is its initial vertex and ``d_0 f`` its final vertex.
    * a word ``(i_1, ..., i_k)`` with ``i_1 > ... > i_k`` denotes the
      operator ``s_{i_1} ∘ ... ∘ s_{i_k}`` (rightmost letter applied
      first).
"""

from __future__ import annotations

from functools import cache, cached_property
from heapq import heappop, heappush
import itertools
from itertools import combinations, combinations_with_replacement, repeat
from math import prod
from operator import getitem, itemgetter
from typing import Iterable, NamedTuple, Optional

from .util import Budget, ensure_budget, least_classes, memo


class LevelTable(NamedTuple):
    """One level of a set, coded.

    ``cells`` lists the n-simplices, degenerate ones included, in
    ``SimplexExpr`` order: the code of a simplex is its position, and
    ``code`` maps it back.  The level's faces are ``TruncatedSSet.rows(n)``.
    """

    cells: tuple
    code: dict


class SimplexExpr(NamedTuple):
    """A (possibly degenerate) simplex: degeneracy word applied to a base."""

    word: tuple
    base: str

    def token(self) -> str:
        if not self.word:
            return self.base
        return ".".join([f"s{i}" for i in self.word] + [self.base])


def parse_expr(token: str) -> SimplexExpr:
    parts = token.split(".")
    word = []
    while parts and parts[0].startswith("s") and parts[0][1:].isdigit():
        word.append(int(parts.pop(0)[1:]))
    if not parts:
        raise ValueError(f"no base identifier in expression {token!r}")
    return SimplexExpr(tuple(word), ".".join(parts))


# ---------------------------------------------------------------------------
# degeneracy words


def insert_letter(j: int, word: tuple) -> tuple:
    """Normal form of ``s_j ∘ word`` given ``word`` already normal.

    Uses ``s_i s_j = s_{j+1} s_i`` for ``i <= j`` to move the new letter
    into place.
    """
    if not word or j > word[0]:
        return (j,) + word
    return (word[0] + 1,) + insert_letter(j, word[1:])


def compose_words(outer: Iterable[int], inner: tuple) -> tuple:
    """Normal form of the operator ``outer ∘ inner`` (inner applied first)."""
    out = tuple(inner)
    for j in reversed(tuple(outer)):
        out = insert_letter(j, out)
    return out


def face_through_word(i: int, word: tuple):
    """Push ``d_i`` through a normal degeneracy word.

    Returns ``(prefix, j)`` where ``prefix`` is the surviving (normal)
    word and ``j`` is the face index that reaches the base, or
    ``(prefix, None)`` when the face cancels against a letter.
    """
    out = []
    cur = i
    letters = list(word)
    for idx, a in enumerate(letters):
        if cur < a:
            out.append(a - 1)
        elif cur == a or cur == a + 1:
            return tuple(out) + tuple(letters[idx + 1:]), None
        else:
            out.append(a)
            cur -= 1
    return tuple(out), cur


def strip_letters(word: tuple, letters: frozenset) -> tuple:
    """Residual word after factoring out the collapses in ``letters``."""
    kept = sorted(set(word) - letters, reverse=True)
    return tuple(a - sum(1 for c in letters if c < a) for a in kept)


def weak_seq_to_word(seq) -> tuple:
    """Degeneracy word of a weakly increasing vertex sequence.

    ``seq`` of length n+1 presents an n-simplex of a nerve-like object;
    duplicated entries are degeneracies.  Returns (word, strict_seq).
    """
    seq = list(seq)
    for p in range(len(seq) - 1):
        if seq[p] == seq[p + 1]:
            word, strict = weak_seq_to_word(seq[:p + 1] + seq[p + 2:])
            return insert_letter(p, word), strict
    return (), tuple(seq)


def valid_words(n: int, m: int):
    """All normal words presenting surjections [n] ->> [m]."""
    if m > n:
        return []
    out = []
    for comb in combinations(range(n), n - m):
        if all(comb[t] <= m + t for t in range(len(comb))):
            out.append(tuple(reversed(comb)))
    return out


def monotone_tuples(m: int, n: int) -> list:
    """All weakly increasing maps [m] -> [n] as image tuples, in lexicographic order."""
    return list(combinations_with_replacement(range(n + 1), m + 1))


# ---------------------------------------------------------------------------
# validation report


class ValidationReport:
    def __init__(self, name: str):
        self.name = name
        self.violations: list[str] = []
        self.checked = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)

    def __repr__(self):
        status = "pass" if self.ok else f"fail ({len(self.violations)} violations)"
        return f"<validation of {self.name}: {status}>"

    def lines(self) -> list[str]:
        head = f"validate {self.name}: {'pass' if self.ok else 'FAIL'} ({self.checked} checks)"
        return [head] + [f"  violation: {v}" for v in self.violations]


# ---------------------------------------------------------------------------
# truncated simplicial sets


class TruncatedSSet:
    """Simplicial set presented by nondegenerate simplices up to a bound.

    Parameters
    ----------
    dim_bound : int
        Truncation level D >= 2.
    levels : mapping n -> iterable of identifiers
        Nondegenerate simplices per level (identifiers are opaque strings;
        each level is kept canonically sorted).
    faces : mapping (id, i) -> SimplexExpr
        The i-th face of each nondegenerate simplex of dimension >= 1.
    coskeletal_from : int, optional
        Declared certificate: the set is to be read as k-coskeletal above
        level k.  Checked by ``validate``.

    ``cells`` is the canonical cell order: every nondegenerate identifier,
    all levels together, sorted.  A :class:`SimplicialMap` out of this set
    lists its images in that order, at the positions ``cell_index`` gives.

    A level is its face rows, ``rows(n)``, and is named only when read (see
    the module docstring); a set handed levels coded (``hand_over``)
    decodes their ``faces`` entries on the first read of ``faces``.
    """

    _undecoded: tuple = ()  # set by ``hand_over``: the levels whose ``faces`` are not decoded

    def __init__(self, dim_bound: int, levels, faces, coskeletal_from: Optional[int] = None,
                 name: str = "sset"):
        if dim_bound < 2:
            raise ValueError("dim_bound must be at least 2")
        self.dim_bound = dim_bound
        self.levels = {n: tuple(sorted(levels.get(n, ()))) for n in range(dim_bound + 1)}
        for n in levels:
            if n > dim_bound and levels[n]:
                raise ValueError(f"level {n} above dim_bound {dim_bound}")
        self.faces = dict(faces)
        self._handed = {}  # per level, the face rows handed over until ``rows`` reads them
        self.coskeletal_from = coskeletal_from
        self.name = name
        self.dim_of = {}
        for n, ids in self.levels.items():
            for x in ids:
                if x in self.dim_of:
                    raise ValueError(f"duplicate simplex identifier {x!r}")
                self.dim_of[x] = n

    @property
    def faces(self) -> dict:
        """The face data, (id, i) -> SimplexExpr.  On a set handed levels
        coded (:meth:`hand_over`), their entries are decoded from ``rows``
        here, on the first read."""
        if self._undecoded:
            for n in self._undecoded:
                below = self.table(n - 1).cells
                self._faces.update(((x, i), below[c])
                                   for x, row in zip(self.nondeg(n), self.rows(n))
                                   for i, c in enumerate(row))
            del self._undecoded
        return self._faces

    @faces.setter
    def faces(self, faces: dict) -> None:
        self._faces = faces

    # -- basic queries ----------------------------------------------------

    def nondeg(self, n: int) -> tuple:
        return self.levels.get(n, ())

    @cached_property
    def cells(self) -> tuple:
        """The canonical cell order: all nondegenerate identifiers, sorted."""
        return tuple(sorted(self.dim_of))

    @cached_property
    def cell_index(self) -> dict:
        """Position of each nondegenerate identifier in ``cells``."""
        return {x: i for i, x in enumerate(self.cells)}

    @cached_property
    def search_plan(self) -> tuple:
        """The placements of :func:`map_codes`, in order, built once.

        One entry per placement: (identifier, slot in ``cells``, dimension,
        faces as (degeneracy word, slot), derived).  ``derived`` is None, or
        (the entry of a face f of the cell, a position i of f in its row)
        when the placement also places f, read off the cell's row.

        The plan is built in one pass over ready queues.  A cell is ready
        when the bases of its faces are placed (a vertex from the start).  A
        cell σ derives f when those bases are placed except f, f is ready,
        f is a nondegenerate face of σ, and for every face k of f the
        simplicial identity d_k f = d_{i'} d_{k'} σ holds in this set with
        d_{k'} σ no face at which f stands ((k', i') = (k, i - 1) for k < i,
        (k + 1, i) for k >= i; i is the first position of f where all do).
        Among the ready and the deriving cells the highest dimension is
        placed first, then the smallest identifier.
        """
        index, dim = self.cell_index, self.dim_of
        faces, support, users = {}, {}, {}
        for x, n in dim.items():
            # expr_dim raises on a face whose base is no cell
            fs = faces[x] = tuple(self.face(SimplexExpr((), x), i) for i in range(n + 1)) if n else ()
            support[x] = {f.base for f in fs if self.expr_dim(f) < n}
            for y in support[x]:
                users.setdefault(y, []).append(x)
        waiting = {x: len(s) for x, s in support.items()}
        # (-dimension, identifier, the face it derives or "", its position)
        queue: list = []
        placed: set = set()

        def derivation(x: str, f: str):
            """The position through which x derives f, or None."""
            fs, fe = faces[x], SimplexExpr((), f)
            at = [j for j, e in enumerate(fs) if e == fe]
            below = range(len(fs) - 1) if len(fs) > 2 else ()  # the faces of f
            for i in at:
                through = [(k, i - 1) if k < i else (k + 1, i) for k in below]
                if all(k_ not in at and self.face(fs[k_], i_) == self.face(fe, k)
                       for k, (k_, i_) in zip(below, through)):
                    return i
            return None

        def offer(y: str, f: str) -> None:
            """Queue y to derive f, a ready cell and y's one unplaced base."""
            i = derivation(y, f)
            if i is not None:
                heappush(queue, (-dim[y], y, f, i))

        def ready(x: str) -> None:
            heappush(queue, (-dim[x], x, "", 0))
            for y in users.get(x, ()):
                if waiting[y] == 1:
                    offer(y, x)

        def place(x: str) -> None:
            placed.add(x)
            for y in users.get(x, ()):
                waiting[y] -= 1
                if not waiting[y]:
                    ready(y)
                elif waiting[y] == 1:
                    f = next(f for f in support[y] if f not in placed)
                    if not waiting[f]:
                        offer(y, f)

        for x, s in support.items():
            if not s:
                ready(x)

        def entry(x: str, derived=None) -> tuple:
            return (x, index[x], dim[x], tuple((f.word, index[f.base]) for f in faces[x]), derived)

        plan = []
        while queue:
            _, x, f, i = heappop(queue)
            if x in placed or f in placed:
                continue
            if f:
                plan.append(entry(x, (entry(f), i)))
                place(f)
            else:
                plan.append(entry(x))
            place(x)
        return tuple(plan)

    @cached_property
    def search_parts(self) -> tuple:
        """``search_plan`` split by connected component, built once.

        A component is a class of the cells joined with the bases of their
        faces.  Per component, in the order the plan first places it: the
        slots in ``cells`` of its cells, ascending, and its entries in plan
        order, each slot renumbered to its position among those.  The whole
        plan is one part, at its own slots, when at most one component has
        a cell above dimension 0.
        """
        plan = self.search_plan
        part = least_classes(len(self.cells), ((s, slot) for _, slot, _, faces, _ in plan
                                                for _, s in faces))
        if len({part[slot] for _, slot, n, _, _ in plan if n}) <= 1:
            return ((range(len(part)), plan),)
        slots: dict = {part[slot]: [] for _, slot, _, _, _ in plan}
        for s, r in enumerate(part):
            slots[r].append(s)
        at = {s: i for part in slots.values() for i, s in enumerate(part)}

        def local(entry: tuple) -> tuple:
            x, slot, n, faces, derived = entry
            return (x, at[slot], n, tuple((w, at[s]) for w, s in faces),
                    derived and (local(derived[0]), derived[1]))

        entries: dict = {r: [] for r in slots}
        for entry in plan:
            entries[part[entry[1]]].append(local(entry))
        return tuple((tuple(slots[r]), tuple(entries[r])) for r in slots)

    @cached_property
    def interval(self) -> "TruncatedSSet":
        """The Δ1 this set's mapping-space oracles share, and with it one exponent
        frame; truncated at this set's bound, so that a base certified
        c-coskeletal with c > 2 keeps the exponent known up to level c."""
        return standard_simplex(1, max(2, self.dim_bound))

    @memo
    def degenerate(self, word: tuple, e: SimplexExpr) -> SimplexExpr:
        """Normal form of the degeneracy operator ``word`` applied to ``e``."""
        return SimplexExpr(compose_words(word, e.word), e.base)

    def expr_dim(self, e: SimplexExpr) -> int:
        if e.base not in self.dim_of:
            raise KeyError(f"dangling base identifier {e.base!r} in {self.name}")
        return self.dim_of[e.base] + len(e.word)

    @memo
    def total(self, n: int) -> list:
        """All n-simplices (degenerate included) in canonical order."""
        return sorted(self.table(n).cells, key=SimplexExpr.token)

    def token_order(self, n: int) -> list:
        """The codes of the n-simplices in ``total`` order, the order reports
        use: sorted by token, read off the identifiers and the words of the
        blocks, so that no simplex is named."""
        tokens: list = []
        for w in self._blocks(n):
            tokens += map("".join(f"s{i}." for i in w).__add__, self.nondeg(n - len(w)))
        return sorted(range(len(tokens)), key=tokens.__getitem__)

    @memo
    def _blocks(self, n: int) -> dict:
        """Level n in blocks, built once: one block per normal word w whose
        level m = n - len(w) has simplices, holding s_w of each of them in
        ``levels`` order; the blocks follow the order of their words, which
        is ``SimplexExpr`` order.  Returns per word the code its block starts
        at; the nondegenerate block, of the empty word, comes first."""
        words = sorted(w for m in range(min(n, self.dim_bound) + 1) if self.nondeg(m)
                       for w in valid_words(n, m))
        starts, size = {}, 0
        for w in words:
            starts[w] = size
            size += len(self.nondeg(n - len(w)))
        return starts

    @memo
    def table(self, n: int) -> LevelTable:
        """Level n named, built once (see the module docstring): the
        simplices of the ``_blocks`` as ``SimplexExpr``s, and their codes;
        their faces are ``rows(n)``."""
        cells: list = []
        for w in self._blocks(n):
            xs = self.nondeg(n - len(w))
            cells += map(SimplexExpr, repeat(w, len(xs)), xs)
        cells = tuple(cells)
        return LevelTable(cells, dict(zip(cells, range(len(cells)))))

    @memo
    def rows(self, n: int) -> tuple:
        """Level n as its face rows: per code, the codes of d_0 .. d_n at
        level n - 1, empty at level 0; ``table(n)`` names the simplices.

        The rows are built a block of ``_blocks`` at a time, naming no
        simplex of level n.  Those of the nondegenerate simplices are their
        ``faces`` entries looked up in ``table(n - 1)``, or, on a level
        handed over coded (:meth:`hand_over`), the rows handed over, which
        the set gives up here.  The block of s_j ∘ w holds s_j y for y in the
        block of w one level down, in the same order, so its rows follow
        from the rows of that block by the simplicial identities
        d_i s_j = s_{j-1} d_i (i < j), id (i = j, j + 1) and s_j d_{i-1}
        (i > j + 1).
        """
        if not n:
            return ((),) * len(self.nondeg(0))
        below, starts = self.rows(n - 1), self._blocks(n - 1)
        rows: list = []
        for w in self._blocks(n):
            xs = self.nondeg(n - len(w))
            if not w:  # handed over (``hand_over``), or the ``faces`` entries coded
                if n in self._handed:
                    rows += self._handed.pop(n)
                    continue
                code, faces = self.table(n - 1).code, self._faces
                try:
                    rows += zip(*(map(code.__getitem__, map(faces.__getitem__, zip(xs, repeat(i))))
                                  for i in range(n + 1)))
                except KeyError:
                    raise self._face_error(n, code) from None
                continue
            j, y = w[0], starts[w[1:]]
            ys = range(y, y + len(xs))
            fy = below[y:y + len(xs)]
            columns = [ys] * (n + 1)
            if j:
                down = self.degeneracy_codes((j - 1,), n - 2).__getitem__
                columns[:j] = (map(down, map(itemgetter(i), fy)) for i in range(j))
            if j + 2 <= n:
                up = self.degeneracy_codes((j,), n - 2).__getitem__
                columns[j + 2:] = (map(up, map(itemgetter(i - 1), fy)) for i in range(j + 2, n + 1))
            rows += zip(*columns)
        return tuple(rows)

    def _face_error(self, n: int, code: dict) -> KeyError:
        """The error for the first ``faces`` entry of an n-simplex that is no
        code of ``table(n - 1)``: missing, dangling, or of the wrong
        dimension; it names the face and the set."""
        faces = self._faces
        x, i = next((x, i) for x in self.nondeg(n) for i in range(n + 1)
                    if faces.get((x, i)) not in code)
        f = faces.get((x, i))
        if f is None:
            return KeyError(f"missing face ({x!r}, {i}) in {self.name}")
        if f.base not in self.dim_of:
            return KeyError(f"dangling base identifier {f.base!r} at face ({x!r}, {i}) "
                            f"in {self.name}")
        return KeyError(f"face ({x!r}, {i}) = {f.token()} is no {n - 1}-simplex of {self.name}")

    def hand_over(self, rows: dict) -> None:
        """Take face data coded: per level n >= 1, ``rows[n]`` holds the face
        rows of the nondegenerate n-simplices, in ``levels`` order, as codes
        of ``table(n - 1)``, in place of their ``faces`` entries.
        ``rows(n)`` reads a level once and gives it up; ``faces`` decodes
        the levels into entries on its first read.  So a reader of ``rows``
        and ``token_order`` alone decodes no face.  A level with no
        nondegenerate simplices has no rows to read, and is dropped."""
        self._handed = {n: level for n, level in rows.items() if level}
        self._undecoded = tuple(self._handed)

    @memo
    def face_index(self, n: int, read: tuple, derived: Optional[int]) -> dict:
        """The codes of the n-simplices by the faces ``read``, each list in
        ``total`` order, built once per (n, read, derived).

        The key is the tuple of a row's codes at the positions ``read``.
        With ``derived`` None, ``read`` is every position, and the key is
        the whole row.  Otherwise ``derived`` is a position i of a face f
        that a map search reads off the row (``search_plan``), and ``read``
        holds the positions where f does not stand.  Then only rows that
        agree with r[i] wherever f stands are kept, and for n >= 2 only
        those whose faces satisfy d_k d_i = d_{i'} d_{k'} for every k, with
        (k', i') = (k, i - 1) for k < i and (k + 1, i) for k >= i.  So a
        target whose identities fail loses the rows no map can take.
        """
        rows = self.rows(n)
        index: dict = {}
        if derived is None:
            for c in self.token_order(n):
                index.setdefault(rows[c], []).append(c)
            return index
        below = self.rows(n - 1)
        repeats = [j for j in range(n + 1) if j not in read and j != derived]
        pairs = [(k, k, derived - 1) if k < derived else (k, k + 1, derived)
                 for k in range(n)] if n > 1 else ()
        for c in self.token_order(n):
            r = rows[c]
            f = r[derived]
            if any(r[j] != f for j in repeats):
                continue
            if any(below[f][k] != below[r[k_]][i_] for k, k_, i_ in pairs):
                continue
            index.setdefault(tuple(r[j] for j in read), []).append(c)
        return index

    @memo
    def degeneracy_codes(self, word: tuple, m: int):
        """Per level-m code, the code of the degenerate simplex ``word`` makes of it.

        s_word sends the block of u at level m onto the block of the normal
        form of word ∘ u, simplex by simplex (see ``_blocks``)."""
        up = self._blocks(m + len(word))
        codes = []
        for u in self._blocks(m):
            xs = self.nondeg(m - len(u))
            w = compose_words(word, u)
            if w not in up:
                raise KeyError(SimplexExpr(w, xs[0]))
            codes += range(up[w], up[w] + len(xs))
        return tuple(codes)

    @memo
    def action_codes(self, alpha: tuple, n: int) -> tuple:
        """Per code of ``table(n)``, the code of y . α in ``table(m)``, for a
        monotone α: [m] -> [n]; built once per (α, n) and kept.

        y . α is y restricted to the vertices α hits, then degenerated where
        α repeats a vertex: the faces d_i, i missed, are read off the face
        rows top down, and the normal word lists each p with α(p) = α(p + 1),
        largest first.  Any other α is a ``ValueError``.
        """
        if not alpha or alpha[0] < 0 or alpha[-1] > n or list(alpha) != sorted(alpha):
            raise ValueError(f"alpha={alpha!r} is not a monotone map into [{n}]")
        codes = range(len(self.rows(n)))
        level = n
        for i in range(n, -1, -1):
            if i not in alpha:
                faces = self.rows(level)
                codes = [faces[c][i] for c in codes]
                level -= 1
        word = tuple(p for p in range(len(alpha) - 2, -1, -1) if alpha[p] == alpha[p + 1])
        up = self.degeneracy_codes(word, level)
        return tuple(up[c] for c in codes)

    @memo
    def face(self, e: SimplexExpr, i: int) -> SimplexExpr:
        """Apply d_i to a simplex expression, renormalizing."""
        n = self.expr_dim(e)
        if n < 1:
            raise ValueError("cannot take a face of a vertex")
        if not 0 <= i <= n:
            raise ValueError(f"face index {i} out of range for dimension {n}")
        prefix, j = face_through_word(i, e.word)
        if j is None:
            return SimplexExpr(prefix, e.base)
        base_face = self.faces.get((e.base, j))
        if base_face is None:
            raise KeyError(f"missing face ({e.base!r}, {j}) in {self.name}")
        return SimplexExpr(compose_words(prefix, base_face.word), base_face.base)

    def truncate(self, c: int) -> "TruncatedSSet":
        """This set truncated at max(c, 2), built once per level and kept here."""
        c = max(c, 2)
        return self if c >= self.dim_bound else self._truncated(c)

    @memo
    def _truncated(self, c: int) -> "TruncatedSSet":
        levels = {n: self.levels[n] for n in range(c + 1)}
        faces = {(x, i): f for (x, i), f in self.faces.items() if self.dim_of[x] <= c}
        cert = self.coskeletal_from
        if cert is not None:
            cert = min(cert, c)
        return TruncatedSSet(c, levels, faces, cert, self.name)

    # -- validation -------------------------------------------------------

    def validate(self, budget: Budget = None) -> ValidationReport:
        """Check reference integrity and the simplicial identities.

        When a coskeletal certificate is declared and they hold, also verify
        that every compatible boundary above the certified level has exactly
        one filler within the truncation.
        """
        report = ValidationReport(self.name)
        faces = self.faces
        for (x, i), f in sorted(faces.items()):
            report.checked += 1
            if x not in self.dim_of:
                report.add(f"face data for unknown simplex {x!r}")
                continue
            n = self.dim_of[x]
            if n < 1:
                report.add(f"face data attached to vertex {x!r}")
                continue
            if not 0 <= i <= n:
                report.add(f"face index {i} out of range on {x!r} (dimension {n})")
                continue
            if f.base not in self.dim_of:
                report.add(f"face d_{i} {x!r} references dangling base {f.base!r}")
                continue
            if self.expr_dim(f) != n - 1:
                report.add(f"face d_{i} {x!r} has dimension {self.expr_dim(f)}, expected {n - 1}")
        for n in range(1, self.dim_bound + 1):
            for x in self.nondeg(n):
                for i in range(n + 1):
                    if (x, i) not in faces:
                        report.add(f"missing face d_{i} of {x!r}")
        if not report.ok:
            return report
        for n in range(2, self.dim_bound + 1):
            for x in self.nondeg(n):
                e = SimplexExpr((), x)
                for j in range(1, n + 1):
                    for i in range(j):
                        report.checked += 1
                        left = self.face(self.face(e, j), i)
                        right = self.face(self.face(e, i), j - 1)
                        if left != right:
                            report.add(
                                f"identity d_{i} d_{j} = d_{j - 1} d_{i} fails at {x!r}: "
                                f"{left.token()} != {right.token()}"
                            )
        if self.coskeletal_from is not None and report.ok:
            self._check_coskeletal(report, ensure_budget(budget, "coskeletal check"))
        return report

    def _check_coskeletal(self, report: ValidationReport, budget: Budget) -> None:
        k = self.coskeletal_from
        for n in range(k + 1, self.dim_bound + 1):
            for _, fillers in extensions(boundary(n, max(2, n - 1)), n, self, budget):
                report.checked += 1
                if len(fillers) != 1:
                    report.add(
                        f"coskeletal_from={k} fails at level {n}: a boundary has "
                        f"{len(fillers)} fillers"
                    )
                    return

    def __repr__(self):
        counts = " ".join(f"{n}:{len(self.nondeg(n))}" for n in range(self.dim_bound + 1))
        return f"<sset {self.name} dim<={self.dim_bound} [{counts}]>"


def simplicial_action(S: TruncatedSSet, alpha: tuple, y: SimplexExpr) -> SimplexExpr:
    """y . alpha for a monotone map alpha: [m] -> [n] and an n-simplex y of S,
    read off ``S.action_codes(alpha, n)``; any other alpha is a ``ValueError``."""
    n = S.expr_dim(y)
    codes = S.action_codes(tuple(alpha), n)
    return S.table(len(alpha) - 1).cells[codes[S.table(n).code[y]]]


# ---------------------------------------------------------------------------
# simplicial maps


class SimplicialMap:
    """A map of truncated simplicial sets, commuting with faces.

    The one converter between a map's two forms.  ``images`` is the code
    tuple: per source cell, in ``source.cells`` order, the code of its image
    in ``target.table(n)``, n the cell's dimension (None if it has none).
    ``assignment`` maps cell identifiers to images as ``SimplexExpr``s.  The
    constructor takes either (a tuple is codes, a mapping an assignment);
    the other is derived on first read and kept.  ``key()`` is the code
    tuple, which orders the maps out of one source as their sorted
    ``(identifier, image)`` pairs would.
    """

    def __init__(self, source: TruncatedSSet, target: TruncatedSSet, images):
        self.source = source
        self.target = target
        if isinstance(images, tuple):
            self.images = images
        else:
            self.assignment = {x: images[x] for x in source.cells if images.get(x) is not None}

    @cached_property
    def images(self) -> tuple:
        """The code tuple, encoded from ``assignment``."""
        get, dim, table = self.assignment.get, self.source.dim_of, self.target.table
        return tuple(table(dim[x]).code.get(get(x)) for x in self.source.cells)

    @cached_property
    def assignment(self) -> dict:
        """The images as expressions keyed by source cell, decoded from ``images``."""
        dim, table = self.source.dim_of, self.target.table
        return {x: table(dim[x]).cells[c]
                for x, c in zip(self.source.cells, self.images) if c is not None}

    def apply(self, e: SimplexExpr) -> SimplexExpr:
        img = self.assignment[e.base]
        return self.target.degenerate(e.word, img) if e.word else img

    def code(self, e: SimplexExpr) -> int:
        """The code of the image of e in the target's table at e's dimension."""
        S = self.source
        return self.target.degeneracy_codes(e.word, S.dim_of[e.base])[
            self.images[S.cell_index[e.base]]]

    @memo
    def code_table(self, n: int) -> tuple:
        """Per code of ``source.table(n)``, the code of its image."""
        return tuple(map(self.code, self.source.table(n).cells))

    def key(self) -> tuple:
        return self.images

    def __eq__(self, other):
        return (isinstance(other, SimplicialMap) and self.images == other.images
                and self.source.cells == other.source.cells)

    def __hash__(self):
        return hash(self.images)

    def validate(self) -> ValidationReport:
        """Every cell has an image of its dimension, and faces are preserved.

        An image that is no simplex of the target, dangling base included,
        has no code, so it is reported, never raised."""
        S, T, images = self.source, self.target, self.images
        report = ValidationReport(f"map {S.name} -> {T.name}")
        for n in range(S.dim_bound + 1):
            for x in S.nondeg(n):
                report.checked += 1
                if images[S.cell_index[x]] is None:
                    img = self.assignment.get(x)
                    report.add(f"no image for {x!r}" if img is None else
                               f"image {img.token()} of {x!r} is no {n}-simplex of {T.name}")
        if not report.ok:
            return report
        for n in range(1, S.dim_bound + 1):
            faces = T.rows(n)
            for x in S.nondeg(n):
                row = faces[images[S.cell_index[x]]]
                e = SimplexExpr((), x)
                for i in range(n + 1):
                    report.checked += 1
                    if self.code(S.face(e, i)) != row[i]:
                        report.add(f"face d_{i} not preserved at {x!r}")
        return report

    def __repr__(self):
        return f"<map {self.source.name} -> {self.target.name} ({len(self.assignment)} cells)>"


def identity_map(S: TruncatedSSet) -> SimplicialMap:
    return SimplicialMap(S, S, {x: SimplexExpr((), x) for x in S.cells})


def compose_maps(g: SimplicialMap, f: SimplicialMap) -> SimplicialMap:
    if g.source is not f.target and g.source.levels != f.target.levels:
        raise ValueError("maps are not composable")
    return SimplicialMap(f.source, g.target, {x: g.apply(e) for x, e in f.assignment.items()})


# ---------------------------------------------------------------------------
# standard objects


def _tuple_id(t) -> str:
    return "".join(str(v) for v in t) if all(v < 10 for v in t) else "-".join(map(str, t))


def standard_simplex(n: int, D: int) -> TruncatedSSet:
    """The simplex on vertices 0..n, truncated at D."""
    if n < 0:
        raise ValueError("simplex dimension must be nonnegative")
    if D < max(2, n):
        raise ValueError("truncation must be >= 2 and >= n")
    levels = {}
    faces = {}
    for k in range(min(n, D) + 1):
        ids = [_tuple_id(c) for c in combinations(range(n + 1), k + 1)]
        levels[k] = ids
        if k >= 1:
            for c in combinations(range(n + 1), k + 1):
                for i in range(k + 1):
                    sub = c[:i] + c[i + 1:]
                    faces[(_tuple_id(c), i)] = SimplexExpr((), _tuple_id(sub))
    return TruncatedSSet(D, levels, faces, coskeletal_from=n, name=f"delta{n}")


@cache
def _simplex(n: int) -> TruncatedSSet:
    """The Δⁿ that every horn and boundary of the n-simplex keeps, one per n."""
    return standard_simplex(n, max(2, n))


def _simplex_subset(n: int, D: int, keep, name: str) -> TruncatedSSet:
    full = _simplex(n)
    levels = {k: [_tuple_id(c) for c in combinations(range(n + 1), k + 1) if keep(c)]
              for k in range(D + 1)}
    kept = {x for xs in levels.values() for x in xs}
    faces = {(x, i): f for (x, i), f in full.faces.items() if x in kept}
    shell = TruncatedSSet(D, levels, faces, coskeletal_from=None, name=name)
    shell.simplex = full  # the Δⁿ that extensions fills the shell into
    return shell


@cache
def boundary(n: int, D: int) -> TruncatedSSet:
    """The union of all faces of the n-simplex, built once per (n, D) and
    shared (no set is changed once built); it keeps as ``simplex`` the Δⁿ
    that every shell of the n-simplex shares."""
    if n < 1:
        raise ValueError("boundary needs n >= 1")
    top = tuple(range(n + 1))
    return _simplex_subset(n, D, lambda c: c != top, f"boundary{n}")


@cache
def horn(n: int, i: int, D: int) -> TruncatedSSet:
    """The subset of the n-simplex generated by the faces d_j with j != i,
    built once per (n, i, D) and shared as ``boundary`` is, Δⁿ and all."""
    if n < 1:
        raise ValueError("horn needs n >= 1")
    if not 0 <= i <= n:
        raise ValueError(f"horn index {i} out of range")
    top = tuple(range(n + 1))
    omitted = top[:i] + top[i + 1:]
    return _simplex_subset(n, D, lambda c: c != top and c != omitted, f"horn{n}_{i}")


def empty_sset() -> TruncatedSSet:
    return TruncatedSSet(2, {}, {}, coskeletal_from=0, name="empty")


# ---------------------------------------------------------------------------
# products


class ProductSSet(TruncatedSSet):
    """Level-wise product, nondegenerate cells named by component pairs."""

    def __init__(self, left: TruncatedSSet, right: TruncatedSSet):
        self.left = left
        self.right = right
        D = min(left.dim_bound, right.dim_bound)
        levels = {}
        faces = {}
        pair_of = {}
        id_of_pair = {}
        for n in range(D + 1):
            ids = []
            for e1 in left.total(n):
                for e2 in right.total(n):
                    if frozenset(e1.word) & frozenset(e2.word):
                        continue
                    pid = f"({e1.token()}|{e2.token()})"
                    ids.append(pid)
                    pair_of[pid] = (e1, e2)
                    id_of_pair[(e1, e2)] = pid
            levels[n] = ids
        cert = None
        if left.coskeletal_from is not None and right.coskeletal_from is not None:
            cert = max(left.coskeletal_from, right.coskeletal_from)
            if cert > D:
                cert = None
        name = f"({left.name}x{right.name})"
        # face computation needs dim_of, so initialize the base first
        super().__init__(D, levels, {}, cert, name)
        self.pair_of = pair_of
        self.id_of_pair = id_of_pair
        for n in range(1, D + 1):
            for pid in self.nondeg(n):
                e1, e2 = pair_of[pid]
                for i in range(n + 1):
                    f1 = left.face(e1, i)
                    f2 = right.face(e2, i)
                    faces[(pid, i)] = self.pair_expr(f1, f2)
        self.faces = faces

    @memo
    def pair_expr(self, e1: SimplexExpr, e2: SimplexExpr) -> SimplexExpr:
        """Simplex of the product presented by a pair of component simplices,
        worked out once per pair and kept."""
        joint = frozenset(e1.word) & frozenset(e2.word)
        r1 = SimplexExpr(strip_letters(e1.word, joint), e1.base)
        r2 = SimplexExpr(strip_letters(e2.word, joint), e2.base)
        return SimplexExpr(tuple(sorted(joint, reverse=True)), self.id_of_pair[(r1, r2)])

    def map_pairs(self, target: TruncatedSSet, image) -> SimplicialMap:
        """The map sending each nondegenerate cell (e1|e2) to ``image(e1, e2)``.

        Cells are visited level by level, in ``levels`` order.
        """
        pair_of = self.pair_of
        return SimplicialMap(self, target, {pid: image(*pair_of[pid])
                                            for xs in self.levels.values() for pid in xs})


def product(S: TruncatedSSet, T: TruncatedSSet) -> ProductSSet:
    return ProductSSet(S, T)


def projection(P: ProductSSet, side: int) -> SimplicialMap:
    """Projection of a product onto one factor (0 = left, 1 = right)."""
    return P.map_pairs(P.left if side == 0 else P.right, lambda *pair: pair[side])


# ---------------------------------------------------------------------------
# map enumeration


def map_codes(S: TruncatedSSet, T: TruncatedSSet, budget: Budget, fixed=None) -> list:
    """The simplicial maps S -> T as code tuples, sorted, so canonically ordered.

    The entry at a cell's slot in ``S.cells`` is the code of its image in
    ``T.table(n)``, n the cell's dimension.  ``fixed`` pre-assigns images,
    as ``SimplexExpr``s, to some cells of S; consistency with faces is still
    enforced, and an image that is no simplex of the cell's dimension admits
    no map.

    A map out of S is a map out of each connected component, chosen
    independently, so S is searched one part of ``S.search_parts`` at a
    time, in order, and the maps are the products of the parts' maps, each
    part's codes put back at its slots.  A part with no maps ends the
    search.  A connected S, or one with at most one component above
    dimension 0, is one part, searched whole.

    A part is searched in its ``search_plan`` order, depth first, in one
    flat loop over per-position candidate lists.  A placement that
    derives a face f looks its cell σ up by σ's other faces in
    ``T.face_index`` and writes f's code from each candidate row, so the
    search never branches on f.  The index keeps only the rows that satisfy
    the simplicial identities the plan checked in S, so the maps are those
    that placing f first would give.  A pinned f is placed by itself, and
    σ is then looked up by its whole row.  Each vertex or pinned cell
    charges one step, each lookup one plus its number of candidates, and a
    derived face nothing, since no lookup is made for it.  Combining the
    parts charges one step per map of S.

    Each part's search counts its steps itself and hands them to ``budget``
    once at its end, or at the first placement that takes the count past
    what the budget has left, which then raises with ``budget.used`` where
    one charge per placement would have left it; the combination is
    charged with :meth:`Budget.spend_each` before it is built.
    """
    fixed = fixed or {}
    parts = S.search_parts
    if len(parts) == 1:
        return _search(*parts[0], T, budget, fixed)
    found = []
    for part in parts:
        maps = _search(*part, T, budget, fixed)
        if not maps:
            return []
        found.append(maps)
    budget.spend_each(prod(map(len, found)))
    # the codes of the parts, concatenated, back in the order of S.cells
    joined = [s for slots, _ in parts for s in slots]
    order = itemgetter(*sorted(range(len(joined)), key=joined.__getitem__))
    return sorted(order(sum(maps, ())) for maps in itertools.product(*found))


def _search(cells, entries: tuple, T: TruncatedSSet, budget: Budget, fixed: dict) -> list:
    """The maps into T of one part of a ``search_parts``, the slots of its
    ``cells`` and its plan ``entries``, as sorted code tuples over those
    slots: the flat loop of :func:`map_codes`, charging ``budget`` as it
    says."""
    vertices = range(len(T.rows(0)))
    # per placement: its slot, the slot, face rows and index of the face it
    # derives (or None), and a vertex's candidates, or the getter of the
    # slots of the faces read, their degeneracy codes (None when every face
    # word is empty), the code pinned or None (-1 for no simplex), and T's
    # index of the codes by those faces
    slots, derives, plan = [], [], []

    def add(x: str, slot: int, n: int, faces: tuple, derived) -> None:
        pinned = fixed.get(x)
        if pinned is not None:
            pinned = T.table(n).code.get(pinned, -1)
        slots.append(slot)
        if not n:
            derives.append(None)
            plan.append((vertices if pinned is None else (pinned,) if pinned >= 0 else (),
                         None, None, None, None))
            return
        if derived is None:
            read, i = tuple(range(n + 1)), None
            derives.append(None)
        else:
            (_, fslot, *_), i = derived
            read = tuple(j for j, (w, s) in enumerate(faces) if w or s != fslot)
            derives.append((fslot, T.rows(n), i))
        faces = [faces[j] for j in read]
        pick = (itemgetter(*(s for _, s in faces)) if len(faces) > 1 else
                (lambda assign, s=faces[0][1]: (assign[s],)) if faces else (lambda assign: ()))
        codes = tuple(T.degeneracy_codes(w, n - 1 - len(w)) for w, _ in faces)
        plan.append(((), pick, codes if any(w for w, _ in faces) else None, pinned,
                     T.face_index(n, read, i)))

    for x, slot, n, faces, derived in entries:
        if derived is not None and derived[0][0] in fixed:
            add(*derived[0])
            derived = None
        add(x, slot, n, faces, derived)
    if not plan:
        return [()]
    room = budget.limit - budget.used
    used = 0
    assign = [None] * len(cells)
    results = []
    # the candidates placed at each position, and the index of the one placed
    placing, at = [()] * len(plan), [0] * len(plan)
    last = len(plan) - 1
    pos = 0
    while pos >= 0:
        out, pick, codes, pinned, lookup = plan[pos]
        if pick is None:
            used += 1
        else:
            required = pick(assign)
            if codes is not None:
                required = tuple(map(getitem, codes, required))
            out = lookup.get(required, ())
            if pinned is None:
                used += 1 + len(out)
            else:
                used += 1
                out = (pinned,) if pinned in out else ()
        if used > room:
            budget.spend(used)  # raises
        if pos < last:
            placing[pos], at[pos] = out, -1
        else:
            slot, derive = slots[pos], derives[pos]
            for c in out:
                assign[slot] = c
                if derive is not None:
                    assign[derive[0]] = derive[1][c][derive[2]]
                results.append(tuple(assign))
            pos -= 1
        # on to the next candidate of the deepest position that has one left
        while pos >= 0:
            i = at[pos] + 1
            if i < len(placing[pos]):
                at[pos] = i
                assign[slots[pos]] = c = placing[pos][i]
                derive = derives[pos]
                if derive is not None:
                    assign[derive[0]] = derive[1][c][derive[2]]
                pos += 1
                break
            pos -= 1
    budget.spend(used)
    results.sort()
    return results


def enumerate_maps(S: TruncatedSSet, T: TruncatedSSet, budget: Budget = None) -> list:
    """The complete set of simplicial maps S -> T, canonically ordered.

    The search is :func:`map_codes`; this wraps its code tuples.
    """
    budget = ensure_budget(budget, f"maps {S.name} -> {T.name}")
    return [SimplicialMap(S, T, codes) for codes in map_codes(S, T, budget)]


def extensions(shell: TruncatedSSet, n: int, T: TruncatedSSet, budget: Budget):
    """Extension problems along a subset ``shell`` of the n-simplex.

    Yields each map shell -> T, in :func:`enumerate_maps` order, with its
    fillers Δⁿ -> T in that order.  ``shell`` is a :func:`horn` or a
    :func:`boundary`: the fillers are maps out of the Δⁿ it keeps as
    ``simplex``, which every shell of the n-simplex shares.  A filler is its
    top simplex σ, read off ``T.face_index`` by its whole face row, which a
    boundary map gives; a map of the horn Λⁿᵢ is completed to a row by each
    (n - 1)-simplex with the faces it gives d_i.  T keeps each shell's
    answer as codes, the shell maps each with its fillers, through
    :meth:`qcatkit.util.Budget.cached`, so a repeated problem runs no
    second search.  Steps, the same on a miss and on a hit: one per
    n-simplex of T and the search's at the first read, then one per shell
    map as it is yielded.  A search that overruns its budget keeps nothing.
    """
    budget = ensure_budget(budget, f"extensions {shell.name} -> {T.name}")
    budget.spend(len(T.rows(n)))

    def search() -> tuple:
        keys = map_codes(shell, T, budget)
        simplex, place = shell.simplex, dict(shell.cell_index)
        top = simplex.nondeg(n)[0]
        facets = [simplex.faces[(top, j)].base for j in range(n + 1)]
        out = [f for f in facets if f not in place]  # [d_i] on Λⁿᵢ, [] on ∂Δⁿ
        by_row = T.face_index(n, tuple(range(n + 1)), None).get
        if out:  # the faces of d_i, which the horn holds; a vertex has none
            side = [place[simplex.faces[(out[0], k)].base] for k in range(n if n > 1 else 0)]
            by_faces = T.face_index(n - 1, tuple(range(len(side))), None).get
        # a filler's codes over Δⁿ: the shell map's, then σ's and, on a horn, d_i σ's
        for x in [top] + out:
            place[x] = len(place)
        row = itemgetter(*map(place.__getitem__, facets))
        gather = itemgetter(*map(place.__getitem__, simplex.cells))
        fillers = []
        for key in keys:
            lids = [(f,) for f in by_faces(tuple(map(key.__getitem__, side)), ())] if out else [()]
            fillers.append(sorted(gather(key + (s, *f)) for f in lids
                                  for s in by_row(row(key + (None, *f)), ())))
        return keys, fillers

    keys, fillers = budget.cached(T, ("extensions", shell), search)
    simplex = shell.simplex
    for key, row in zip(keys, fillers):
        budget.spend()
        yield SimplicialMap(shell, T, key), [SimplicialMap(simplex, T, codes) for codes in row]


# ---------------------------------------------------------------------------
# inner collapses


def inner_collapse(S: TruncatedSSet) -> tuple:
    """An inner-anodyne subset M ⊂ S, and the collapses that make it.

    A collapse (σ, i) removes a nondegenerate σ of dimension n >= 2 that is
    a face of no kept simplex, together with an inner face d_iσ, 0 < i < n,
    that is free: nondegenerate, and named by no face entry of a kept
    simplex, under any degeneracy word, other than (σ, i) itself.  Adding
    them back is a pushout along Λⁿᵢ ⊂ Δⁿ, so M ⊂ S is inner anodyne, and
    Q^S -> Q^M is a trivial fibration for any quasicategory Q (Joyal,
    *Quasi-categories and Kan complexes*, JPAA 175, 2002).  Collapses are
    made while one exists, the smallest identifier σ, then the smallest i,
    first.  Returns M, with S's faces and no coskeletal certificate, and the
    collapses in order, the certificate that :func:`check_collapse`
    replays; M is S itself when nothing collapses.  Charges no steps.
    """
    faces, dim = S.faces, S.dim_of
    naming: dict = {x: set() for x in dim}  # per kept cell, the kept face entries naming it
    for (x, i), f in faces.items():
        naming[f.base].add((x, i))
    collapses = []
    while True:
        step = next(((s, i) for s in S.cells if s in naming and dim[s] >= 2 and not naming[s]
                     for i in range(1, dim[s])
                     if not faces[(s, i)].word and naming[faces[(s, i)].base] == {(s, i)}),
                    None)
        if step is None:
            break
        collapses.append(step)
        for x in (step[0], faces[step].base):
            for i in range(dim[x] + 1):
                naming[faces[(x, i)].base].discard((x, i))
            del naming[x]
    if not collapses:
        return S, ()
    levels = {n: [x for x in xs if x in naming] for n, xs in S.levels.items()}
    left = {(x, i): f for (x, i), f in faces.items() if x in naming}
    return TruncatedSSet(S.dim_bound, levels, left, None, f"{S.name}-collapsed"), tuple(collapses)


def check_collapse(S: TruncatedSSet, M: TruncatedSSet, collapses) -> ValidationReport:
    """Replay the collapses of :func:`inner_collapse` on S, read off S's face
    entries afresh: each (σ, i) must name a kept σ of dimension n >= 2 that
    is a face of no kept simplex, and an inner 0 < i < n whose d_iσ is kept,
    nondegenerate and named by no other face entry of a kept simplex.  The
    first step that fails is reported, and ends the replay.  What is left
    must be M: the kept cells with S's faces, at S's bound."""
    report = ValidationReport(f"inner collapse {S.name} -> {M.name}")
    faces, kept = S.faces, set(S.dim_of)

    def named(y: str) -> list:
        return [(x, j) for (x, j), e in faces.items() if x in kept and e.base == y]

    for k, (s, i) in enumerate(collapses, 1):
        report.checked += 1
        if not 0 < i < (S.dim_of[s] if s in kept else 0):
            report.add(f"step {k}: ({s}, {i}) is no inner face of a kept simplex of dimension >= 2")
            return report
        f, above = faces[(s, i)], named(s)
        if above:
            report.add(f"step {k}: {s} is a face of {above[0][0]}")
            return report
        others = [entry for entry in named(f.base) if entry != (s, i)]
        if f.word or f.base not in kept or others:
            report.add(f"step {k}: d_{i} {s} = {f.token()} is not free"
                       + (f" (d_{others[0][1]} {others[0][0]} names it)" if others else ""))
            return report
        kept -= {s, f.base}
    report.checked += 1
    if (M.dim_bound, M.levels, M.faces) != (
            S.dim_bound, {n: tuple(x for x in xs if x in kept) for n, xs in S.levels.items()},
            {(x, j): e for (x, j), e in faces.items() if x in kept}):
        report.add(f"{M.name} is not {S.name} less the collapsed cells")
    return report


# ---------------------------------------------------------------------------
# text format


def sset_to_text(S: TruncatedSSet) -> str:
    lines = [f"dim {S.dim_bound}"]
    if S.coskeletal_from is not None:
        lines.append(f"coskeletal {S.coskeletal_from}")
    for n in range(S.dim_bound + 1):
        if S.nondeg(n):
            lines.append(f"{n}: " + " ".join(S.nondeg(n)))
    for n in range(1, S.dim_bound + 1):
        for x in S.nondeg(n):
            for i in range(n + 1):
                f = S.faces[(x, i)]
                word = " ".join(f"s{j}" for j in f.word)
                lines.append(f"face {x} {i} = [{word}] {f.base}")
    return "\n".join(lines) + "\n"


def parse_word(letters) -> tuple:
    """The degeneracy word written as the letters ``s<i>``, in normal form
    (strictly decreasing); anything else is a ``ValueError``."""
    word = tuple(int(t[1:]) for t in letters if t[:1] == "s" and t[1:].isdecimal())
    if len(word) < len(letters) or any(a <= b for a, b in zip(word, word[1:])):
        raise ValueError(f"{' '.join(letters)!r} is no normal word of letters s<i>")
    return word


def sset_from_text(text: str, name: str = "sset") -> TruncatedSSet:
    dim = None
    cosk = None
    levels: dict[int, list] = {}
    faces = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("dim "):
                if dim is not None:
                    raise ValueError("the dimension is listed twice")
                dim = int(line.split()[1])
            elif line.startswith("coskeletal "):
                if cosk is not None:
                    raise ValueError("the coskeletal bound is listed twice")
                cosk = int(line.split()[1])
            elif line.startswith("face "):
                head, rhs = line.split("=", 1)
                _, x, i = head.split()
                lb = rhs.index("[")
                rb = rhs.index("]")
                word = parse_word(rhs[lb + 1:rb].split())
                base = rhs[rb + 1:].strip()
                if (x, int(i)) in faces:
                    raise ValueError(f"face {i} of {x} is listed twice")
                faces[(x, int(i))] = SimplexExpr(word, base)
            else:
                level, rest = line.split(":", 1)
                if int(level) in levels:
                    raise ValueError(f"level {int(level)} is listed twice")
                levels[int(level)] = rest.split()
        except (ValueError, IndexError) as err:
            raise ValueError(f"line {lineno}: cannot parse {raw!r} ({err})") from None
    if dim is None:
        raise ValueError("missing 'dim' line")
    return TruncatedSSet(dim, levels, faces, cosk, name)
