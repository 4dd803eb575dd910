"""Finite, dimension-truncated simplicial sets.

A simplicial set is presented by its nondegenerate simplices only.  Every
simplex is a pair (degeneracy word, nondegenerate base); the word is kept
in normal form (strictly decreasing indices), which makes the presentation
unique.  Face data is stored for nondegenerate simplices and pushed through
degeneracy words with the simplicial identities when needed.

Every set lays its nondegenerate simplices, all levels together, out in
one canonical cell order: sorted by identifier (``TruncatedSSet.cells``).
Each level also has a coded table (``TruncatedSSet.table``), built once and
kept on the set: the n-simplices, degenerate ones included, sorted as
``SimplexExpr``s, so that the code of a simplex is its position; and each
simplex's faces as a row of codes one level down.  In that order a level
comes in blocks, one per degeneracy word, each holding the word applied
to every nondegenerate simplex of one level in turn; face rows and the
codes of degenerate simplices are worked out a block at a time.  The set
also keeps, per degeneracy word and level, the codes of the degenerate
simplices (``degeneracy_codes``), per monotone α: [m] -> [n] the codes of
the action y . α (``action_codes``), and for the levels a map search
targets, an index of codes by face row (``by_faces``).

A simplicial map is its code tuple: per cell of the source, in that
order, the code of its image at the cell's dimension.  Codes follow the
order of the simplices they name, so two maps out of one source compare,
sort and hash as their tuples of images would.  :class:`SimplicialMap`
holds that code tuple or the images as ``SimplexExpr``s, whichever it was
built from, and is the only code that converts between the two.  The map
search (:func:`map_codes`) and the exponentials of :mod:`qcatkit.mapping`
run over code tuples.
Extension problems (:func:`extensions`) search for the shell maps only and
read the fillers off the target's n-simplices, charging the search's steps
and one step per n-simplex of the target and per shell map.  The target
keeps its index of n-simplices per level and each shell's answer, and a
repeated problem charges what the first one charged.

Conventions:
    * ``d_i`` forgets the i-th vertex, so for an edge ``f`` the face
      ``d_1 f`` is its initial vertex and ``d_0 f`` its final vertex.
    * a word ``(i_1, ..., i_k)`` with ``i_1 > ... > i_k`` denotes the
      operator ``s_{i_1} ∘ ... ∘ s_{i_k}`` (rightmost letter applied
      first).
"""

from __future__ import annotations

from bisect import insort
from functools import cache, cached_property
from itertools import combinations, combinations_with_replacement, repeat
from operator import getitem, itemgetter
from typing import Iterable, NamedTuple, Optional

from .util import Budget, ensure_budget


class LevelTable(NamedTuple):
    """One level of a set, coded.

    ``cells`` lists the n-simplices, degenerate ones included, in
    ``SimplexExpr`` order: the code of a simplex is its position, and
    ``code`` maps it back.  ``faces[c]`` holds the codes of d_0 .. d_n of the
    simplex with code c at level n - 1; it is empty at level 0.
    """

    cells: tuple
    code: dict
    faces: tuple


class SimplexExpr(NamedTuple):
    """A (possibly degenerate) simplex: degeneracy word applied to a base."""

    word: tuple
    base: str

    def token(self) -> str:
        if not self.word:
            return self.base
        return ".".join([f"s{i}" for i in self.word] + [self.base])


def expr(base: str, word: Iterable[int] = ()) -> SimplexExpr:
    return SimplexExpr(tuple(word), base)


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


def normalize_word(seq: Iterable[int]) -> tuple:
    """Normal form (strictly decreasing) of an arbitrary letter sequence."""
    out: tuple = ()
    for j in reversed(tuple(seq)):
        out = insert_letter(j, out)
    return out


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


def collapse_set(word: tuple) -> frozenset:
    """Positions collapsed by the surjection encoded by a normal word."""
    return frozenset(word)


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
        level k.  Checked by ``validate(check_coskeletal=True)``.

    ``cells`` is the canonical cell order: every nondegenerate identifier,
    all levels together, sorted.  A :class:`SimplicialMap` out of this set
    lists its images in that order, at the positions ``cell_index`` gives.
    """

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
        self.coskeletal_from = coskeletal_from
        self.name = name
        self.dim_of = {}
        for n, ids in self.levels.items():
            for x in ids:
                if x in self.dim_of:
                    raise ValueError(f"duplicate simplex identifier {x!r}")
                self.dim_of[x] = n
        self._totals: dict[int, list] = {}
        # level -> its simplices in blocks, see _blocks
        self._level_blocks: dict = {}
        self._face_cache: dict = {}
        self._vertex_cache: dict = {}
        self._degeneracies: dict = {}
        # level -> LevelTable; level -> codes by face row; (word, level) -> codes
        self._tables: dict = {}
        self._face_index: dict = {}
        self._degeneracy_codes: dict = {}
        # level -> this set truncated there, see truncate
        self._truncations: dict = {}
        # (n, level) -> this set's path object T^{Δn}, see mapping.path_object
        self._path_objects: dict = {}
        # (level, k) -> this set's exponent frame, see mapping.exponent_frame
        self._frames: dict = {}
        # (alpha, n) -> codes, see action_codes
        self._actions: dict = {}
        # level n -> the maps Δⁿ -> this set; shell -> its answer, see extensions
        self._fillers: dict = {}
        self._shells: dict = {}

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
        """The cells in :func:`enumerate_maps`'s placement order.

        One entry per cell: (identifier, slot in ``cells``, dimension,
        faces as (degeneracy word, slot)).
        """
        index = self.cell_index
        plan = []
        for x in _assignment_order(self):
            n = self.dim_of[x]
            e = SimplexExpr((), x)
            faces = tuple((fe.word, index[fe.base])
                          for fe in (self.face(e, i) for i in range(n + 1))) if n else ()
            plan.append((x, index[x], n, faces))
        return tuple(plan)

    @cached_property
    def interval(self) -> "TruncatedSSet":
        """The Δ1 this set's mapping spaces share, and with it one exponent frame."""
        return standard_simplex(1, 2)

    def degenerate(self, word: tuple, e: SimplexExpr) -> SimplexExpr:
        """Normal form of the degeneracy operator ``word`` applied to ``e``."""
        key = (word, e)
        hit = self._degeneracies.get(key)
        if hit is None:
            hit = self._degeneracies[key] = SimplexExpr(compose_words(word, e.word), e.base)
        return hit

    def expr_dim(self, e: SimplexExpr) -> int:
        if e.base not in self.dim_of:
            raise KeyError(f"dangling base identifier {e.base!r} in {self.name}")
        return self.dim_of[e.base] + len(e.word)

    def total(self, n: int) -> list:
        """All n-simplices (degenerate included) in canonical order."""
        hit = self._totals.get(n)
        if hit is None:
            hit = self._totals[n] = sorted(self._blocks(n)[0], key=SimplexExpr.token)
        return hit

    def total_count(self, n: int) -> int:
        return len(self.total(n))

    def _blocks(self, n: int) -> tuple:
        """Level n in blocks, built once: one block per normal word w whose
        level m = n - len(w) has simplices, holding s_w of each of them in
        ``levels`` order; the blocks follow the order of their words.

        Returns the n-simplices in that order, which is ``SimplexExpr``
        order, and per word the position its block starts at.
        """
        hit = self._level_blocks.get(n)
        if hit is None:
            words = sorted(w for m in range(min(n, self.dim_bound) + 1) if self.nondeg(m)
                           for w in valid_words(n, m))
            cells, starts = [], {}
            for w in words:
                starts[w] = len(cells)
                xs = self.nondeg(n - len(w))
                cells += map(SimplexExpr, repeat(w, len(xs)), xs)
            hit = self._level_blocks[n] = (tuple(cells), starts)
        return hit

    def table(self, n: int) -> LevelTable:
        """Level n coded, built once (see the module docstring).

        The face rows are built a block of ``_blocks`` at a time.  Those of
        the nondegenerate simplices are read off ``faces``; the block of
        s_j ∘ w holds s_j y for y in the block of w one level down, in the
        same order, so its rows follow from the rows of that block by the
        simplicial identities d_i s_j = s_{j-1} d_i (i < j), id (i = j,
        j + 1) and s_j d_{i-1} (i > j + 1).
        """
        hit = self._tables.get(n)
        if hit is None:
            cells = self._blocks(n)[0]
            faces: tuple = ((),) * len(cells)
            if n:
                faces = self._face_rows(n)
            hit = self._tables[n] = LevelTable(cells, dict(zip(cells, range(len(cells)))), faces)
        return hit

    def _face_rows(self, n: int) -> tuple:
        below = self.table(n - 1)
        starts = self._blocks(n - 1)[1]
        rows: list = []
        for w, start in self._blocks(n)[1].items():
            xs = self.nondeg(n - len(w))
            if not w:
                code, faces = below.code, self.faces
                rows += zip(*(map(code.__getitem__, map(faces.__getitem__, zip(xs, repeat(i))))
                              for i in range(n + 1)))
                continue
            j, y = w[0], starts[w[1:]]
            ys = range(y, y + len(xs))
            if n == 1:
                rows += zip(ys, ys)
                continue
            fy = below.faces[y:y + len(xs)]
            columns = [ys] * (n + 1)
            if j:
                down = self.degeneracy_codes((j - 1,), n - 2).__getitem__
                columns[:j] = (map(down, map(itemgetter(i), fy)) for i in range(j))
            if j + 2 <= n:
                up = self.degeneracy_codes((j,), n - 2).__getitem__
                columns[j + 2:] = (map(up, map(itemgetter(i - 1), fy)) for i in range(j + 2, n + 1))
            rows += zip(*columns)
        return tuple(rows)

    def by_faces(self, n: int) -> dict:
        """The codes of the n-simplices by face row, each list in ``total`` order."""
        index = self._face_index.get(n)
        if index is None:
            table = self.table(n)
            index = self._face_index[n] = {}
            for e in self.total(n):
                c = table.code[e]
                index.setdefault(table.faces[c], []).append(c)
        return index

    def degeneracy_codes(self, word: tuple, m: int):
        """Per level-m code, the code of the degenerate simplex ``word`` makes of it.

        s_word sends the block of u at level m onto the block of the normal
        form of word ∘ u, simplex by simplex (see ``_blocks``)."""
        key = (word, m)
        hit = self._degeneracy_codes.get(key)
        if hit is None:
            if word:
                up = self._blocks(m + len(word))[1]
                hit = []
                for u in self._blocks(m)[1]:
                    xs = self.nondeg(m - len(u))
                    w = compose_words(word, u)
                    if w not in up:
                        raise KeyError(SimplexExpr(w, xs[0]))
                    hit += range(up[w], up[w] + len(xs))
                hit = tuple(hit)
            else:
                hit = range(len(self.table(m).cells))
            self._degeneracy_codes[key] = hit
        return hit

    def action_codes(self, alpha: tuple, n: int) -> tuple:
        """Per code of ``table(n)``, the code of y . α in ``table(m)``, for a
        monotone α: [m] -> [n]; built once per (α, n) and kept.

        y . α is y restricted to the vertices α hits, then degenerated where
        α repeats a vertex: the faces d_i, i missed, are read off the face
        rows top down, and the normal word lists each p with α(p) = α(p + 1),
        largest first.  Any other α is a ``ValueError``.
        """
        key = (alpha, n)
        hit = self._actions.get(key)
        if hit is None:
            if not alpha or alpha[0] < 0 or alpha[-1] > n or list(alpha) != sorted(alpha):
                raise ValueError(f"alpha={alpha!r} is not a monotone map into [{n}]")
            codes = range(len(self.table(n).cells))
            level = n
            for i in range(n, -1, -1):
                if i not in alpha:
                    faces = self.table(level).faces
                    codes = [faces[c][i] for c in codes]
                    level -= 1
            word = tuple(p for p in range(len(alpha) - 2, -1, -1) if alpha[p] == alpha[p + 1])
            up = self.degeneracy_codes(word, level)
            hit = self._actions[key] = tuple(up[c] for c in codes)
        return hit

    def face(self, e: SimplexExpr, i: int) -> SimplexExpr:
        """Apply d_i to a simplex expression, renormalizing."""
        key = (e, i)
        hit = self._face_cache.get(key)
        if hit is not None:
            return hit
        n = self.expr_dim(e)
        if n < 1:
            raise ValueError("cannot take a face of a vertex")
        if not 0 <= i <= n:
            raise ValueError(f"face index {i} out of range for dimension {n}")
        prefix, j = face_through_word(i, e.word)
        if j is None:
            out = SimplexExpr(prefix, e.base)
        else:
            base_face = self.faces.get((e.base, j))
            if base_face is None:
                raise KeyError(f"missing face ({e.base!r}, {j}) in {self.name}")
            out = SimplexExpr(compose_words(prefix, base_face.word), base_face.base)
        self._face_cache[key] = out
        return out

    def restrict(self, e: SimplexExpr, keep: tuple) -> SimplexExpr:
        """Restrict along the vertex subset ``keep`` (strictly increasing)."""
        n = self.expr_dim(e)
        out = e
        for i in range(n, -1, -1):
            if i not in keep:
                out = self.face(out, i)
        return out

    def vertices(self, e: SimplexExpr) -> tuple:
        """Vertex identifiers of a simplex, in order."""
        key = e
        hit = self._vertex_cache.get(key)
        if hit is not None:
            return hit
        n = self.expr_dim(e)
        out = tuple(self.restrict(e, (j,)).base for j in range(n + 1))
        self._vertex_cache[key] = out
        return out

    def edge_endpoints(self, e: SimplexExpr) -> tuple:
        """(initial, final) vertices of a 1-simplex."""
        v = self.vertices(e)
        return v[0], v[1]

    def truncate(self, c: int) -> "TruncatedSSet":
        """This set truncated at max(c, 2), built once per level and kept here."""
        c = max(c, 2)
        if c >= self.dim_bound:
            return self
        hit = self._truncations.get(c)
        if hit is None:
            levels = {n: self.levels[n] for n in range(c + 1)}
            faces = {(x, i): f for (x, i), f in self.faces.items() if self.dim_of[x] <= c}
            cert = self.coskeletal_from
            if cert is not None:
                cert = min(cert, c)
            hit = self._truncations[c] = TruncatedSSet(c, levels, faces, cert, self.name)
        return hit

    # -- validation -------------------------------------------------------

    def validate(self, check_coskeletal: bool = True, budget: Budget = None) -> ValidationReport:
        """Check reference integrity and the simplicial identities.

        When a coskeletal certificate is declared and ``check_coskeletal``
        is set, also verify that every compatible boundary above the
        certified level has exactly one filler within the truncation.
        """
        report = ValidationReport(self.name)
        for (x, i), f in sorted(self.faces.items()):
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
                    if (x, i) not in self.faces:
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
        if check_coskeletal and self.coskeletal_from is not None and report.ok:
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
        self._code_tables: dict = {}
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

    def code_table(self, n: int) -> tuple:
        """Per code of ``source.table(n)``, the code of its image."""
        hit = self._code_tables.get(n)
        if hit is None:
            hit = self._code_tables[n] = tuple(map(self.code, self.source.table(n).cells))
        return hit

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
            faces = T.table(n).faces
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


def empty_sset(D: int = 2) -> TruncatedSSet:
    return TruncatedSSet(D, {}, {}, coskeletal_from=0, name="empty")


def delta_map(alpha, n: int, target_n: int, D: int) -> SimplicialMap:
    """The map of standard simplices induced by a monotone vertex map.

    ``alpha`` lists the images of 0..n inside 0..target_n.
    """
    src = standard_simplex(n, D)
    tgt = standard_simplex(target_n, D)
    assignment = {}
    for k in range(min(n, D) + 1):
        for c in combinations(range(n + 1), k + 1):
            seq = [alpha[v] for v in c]
            word, strict = weak_seq_to_word(seq)
            assignment[_tuple_id(c)] = SimplexExpr(word, _tuple_id(strict))
    return SimplicialMap(src, tgt, assignment)


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
                    if collapse_set(e1.word) & collapse_set(e2.word):
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
        self._pair_exprs: dict = {}  # (e1, e2) -> pair_expr's answer
        for n in range(1, D + 1):
            for pid in self.nondeg(n):
                e1, e2 = pair_of[pid]
                for i in range(n + 1):
                    f1 = left.face(e1, i)
                    f2 = right.face(e2, i)
                    faces[(pid, i)] = self.pair_expr(f1, f2)
        self.faces = faces

    def pair_expr(self, e1: SimplexExpr, e2: SimplexExpr) -> SimplexExpr:
        """Simplex of the product presented by a pair of component simplices,
        worked out once per pair and kept."""
        key = (e1, e2)
        hit = self._pair_exprs.get(key)
        if hit is None:
            joint = collapse_set(e1.word) & collapse_set(e2.word)
            r1 = SimplexExpr(strip_letters(e1.word, joint), e1.base)
            r2 = SimplexExpr(strip_letters(e2.word, joint), e2.base)
            pid = self.id_of_pair[(r1, r2)]
            hit = self._pair_exprs[key] = SimplexExpr(tuple(sorted(joint, reverse=True)), pid)
        return hit

    def map_pairs(self, target: TruncatedSSet, image) -> SimplicialMap:
        """The map sending each nondegenerate cell (e1|e2) to ``image(e1, e2)``.

        Cells are visited level by level, in ``levels`` order.
        """
        pair_of = self.pair_of
        return SimplicialMap(self, target, {pid: image(*pair_of[pid])
                                            for xs in self.levels.values() for pid in xs})

    def components(self, e: SimplexExpr) -> tuple:
        """Component simplices of an arbitrary simplex of the product."""
        e1, e2 = self.pair_of[e.base]
        return self.left.degenerate(e.word, e1), self.right.degenerate(e.word, e2)


def product(S: TruncatedSSet, T: TruncatedSSet) -> ProductSSet:
    return ProductSSet(S, T)


def projection(P: ProductSSet, side: int) -> SimplicialMap:
    """Projection of a product onto one factor (0 = left, 1 = right)."""
    return P.map_pairs(P.left if side == 0 else P.right, lambda *pair: pair[side])


# ---------------------------------------------------------------------------
# map enumeration


def _assignment_order(S: TruncatedSSet) -> list:
    """Deterministic order interleaving dimensions so constraints bind early.

    Among simplices whose face supports are already placed, the highest
    dimension is taken first, then the smallest id; this prunes the search
    as soon as any two endpoints of an edge are known.  When none is ready,
    the smallest (dimension, id) not yet placed is taken.  The ready cells
    wait in a sorted list, each added when the last of its supports is placed.
    """
    cells = sorted(S.dim_of, key=lambda x: (S.dim_of[x], x))
    waiting, users = {}, {}  # cell -> supports not yet placed; support -> its cells
    ready = []  # (-dimension, id) of the ready cells, sorted
    for x in cells:
        n = S.dim_of[x]
        support = {S.face(SimplexExpr((), x), i).base for i in range(n + 1)} if n else set()
        waiting[x] = len(support)
        for y in support:
            users.setdefault(y, []).append(x)
        if not support:
            ready.append((-n, x))
    ready.sort()
    placed, order, first = set(), [], 0
    while len(order) < len(cells):
        if ready:
            pick = ready.pop(0)[1]
            if pick in placed:
                continue
        else:
            while cells[first] in placed:
                first += 1
            pick = cells[first]
        order.append(pick)
        placed.add(pick)
        for x in users.get(pick, ()):
            waiting[x] -= 1
            if not waiting[x] and x not in placed:
                insort(ready, (-S.dim_of[x], x))
    return order


def map_codes(S: TruncatedSSet, T: TruncatedSSet, budget: Budget, fixed=None) -> list:
    """The simplicial maps S -> T as code tuples, sorted, so canonically ordered.

    The entry at a cell's slot in ``S.cells`` is the code of its image in
    ``T.table(n)``, n the cell's dimension.  ``fixed`` pre-assigns images,
    as ``SimplexExpr``s, to some cells of S; consistency with faces is still
    enforced, and an image that is no simplex of the cell's dimension admits
    no map.  Each vertex or pinned cell charges one step, each lookup of the
    candidates by face row one plus their number.

    The search places the cells in ``S.search_plan`` order, depth first, in
    one flat loop over per-position candidate lists.  It counts its steps
    itself and hands them to ``budget`` once at the end, or at the first
    placement that takes the count past what the budget has left, which
    then raises with ``budget.used`` where one charge per placement would
    have left it.
    """
    fixed = fixed or {}
    vertices = range(len(T.table(0).cells))
    # per cell in placement order: its slot; and a vertex's candidates, or
    # the getter of the slots of its faces, their degeneracy codes (None
    # when every face word is empty), the code pinned or None (-1 for no
    # simplex), and T's face rows (pinned) or face index at the cell's level
    slots, plan = [], []
    for x, slot, n, faces in S.search_plan:
        pinned = fixed.get(x)
        if pinned is not None:
            pinned = T.table(n).code.get(pinned, -1)
        slots.append(slot)
        if not n:
            plan.append((vertices if pinned is None else (pinned,) if pinned >= 0 else (),
                         None, None, None, None))
            continue
        codes = tuple(T.degeneracy_codes(w, n - 1 - len(w)) for w, _ in faces)
        plan.append(((), itemgetter(*(s for _, s in faces)),
                     codes if any(w for w, _ in faces) else None, pinned,
                     T.table(n).faces if pinned is not None else T.by_faces(n)))
    if not plan:
        return [()]
    room = budget.limit - budget.used
    used = 0
    assign = [None] * len(S.cells)
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
            if pinned is None:
                out = lookup.get(required, ())
                used += 1 + len(out)
            else:
                used += 1
                out = (pinned,) if pinned >= 0 and lookup[pinned] == required else ()
        if used > room:
            budget.spend(used)  # raises
        if pos < last and out:
            placing[pos], at[pos] = out, 0
            assign[slots[pos]] = out[0]
            pos += 1
            continue
        if pos == last:
            slot = slots[pos]
            for c in out:
                assign[slot] = c
                results.append(tuple(assign))
        # back to the deepest position with a candidate left
        pos -= 1
        while pos >= 0:
            i = at[pos] + 1
            if i < len(placing[pos]):
                at[pos] = i
                assign[slots[pos]] = placing[pos][i]
                pos += 1
                break
            pos -= 1
    budget.spend(used)
    results.sort()
    return results


def enumerate_maps(S: TruncatedSSet, T: TruncatedSSet, budget: Budget = None,
                   fixed=None) -> list:
    """The complete set of simplicial maps S -> T, canonically ordered.

    ``fixed`` pre-assigns images for some nondegenerate simplices of S;
    consistency with faces is still enforced.  The search is
    :func:`map_codes`; this wraps its code tuples.
    """
    budget = ensure_budget(budget, f"maps {S.name} -> {T.name}")
    return [SimplicialMap(S, T, codes) for codes in map_codes(S, T, budget, fixed)]


def _simplex_maps(T: TruncatedSSet, n: int) -> list:
    """The maps Δⁿ -> T as sorted code tuples, built once per (T, n) and
    kept on T.

    By Yoneda a map is its top simplex σ.  Top down, a cell's code is read
    off T's face row of the first cell it is a face of; σ is a map only if
    every row agrees, as in a simplicial T.
    """
    hit = T._fillers.get(n)
    if hit is None:
        simplex = _simplex(n)
        slot = simplex.cell_index
        plan, rows, seen = [], [], set()
        for k in range(n, 0, -1):
            faces = T.table(k).faces
            for x in simplex.nondeg(k):
                slots = [slot[simplex.faces[(x, i)].base] for i in range(k + 1)]
                plan += [(f, slot[x], faces, i) for i, f in enumerate(slots) if f not in seen]
                seen.update(slots)
                rows.append((slot[x], faces, itemgetter(*slots)))
        hit = []
        for sigma in range(len(T.table(n).cells)):
            codes = [sigma] * len(slot)
            for s, up, faces, i in plan:
                codes[s] = faces[codes[up]][i]
            if all(faces[codes[s]] == pick(codes) for s, faces, pick in rows):
                hit.append(tuple(codes))
        hit.sort()
        T._fillers[n] = hit
    return hit


def extensions(shell: TruncatedSSet, n: int, T: TruncatedSSet, budget: Budget):
    """Extension problems along a subset ``shell`` of the n-simplex.

    Yields each map shell -> T, in :func:`enumerate_maps` order, with its
    fillers Δⁿ -> T in that order.  ``shell`` is a :func:`horn` or a
    :func:`boundary`: the fillers are maps out of the Δⁿ it keeps as
    ``simplex``, which every shell of the n-simplex shares.  They are read
    off T's index of the maps Δⁿ -> T (one per n-simplex that is a map,
    built once per (T, n) and kept on T), grouped by their restriction to
    the shell.  T also keeps each shell's answer as codes (the shell maps,
    each with its fillers, and the steps of the search), so a repeated
    problem runs no second search.  Steps, the same on a miss and on a
    hit: one per n-simplex of T and the search's at the first read, then
    one per shell map as it is yielded.  A search that overruns its budget
    keeps nothing.
    """
    budget = ensure_budget(budget, f"extensions {shell.name} -> {T.name}")
    budget.spend(len(T.table(n).cells))
    kept = T._shells.get(shell)
    if kept is None:
        start = budget.used
        keys = map_codes(shell, T, budget)
        slot = shell.simplex.cell_index
        slots = [slot[x] for x in shell.cells]
        by_key: dict = {}
        for codes in _simplex_maps(T, n):
            by_key.setdefault(tuple(codes[s] for s in slots), []).append(codes)
        kept = T._shells[shell] = (budget.used - start, keys,
                                   [by_key.get(key, ()) for key in keys])
    else:
        budget.spend(kept[0])
    simplex = shell.simplex
    for key, fillers in zip(kept[1], kept[2]):
        budget.spend()
        yield SimplicialMap(shell, T, key), [SimplicialMap(simplex, T, codes) for codes in fillers]


def find_isomorphism(S: TruncatedSSet, T: TruncatedSSet, budget: Budget = None):
    """First isomorphism S -> T in canonical order, or None.

    Only a map sending the nondegenerate cells of S injectively to
    nondegenerate cells of T can be one; its candidate inverse is read off
    the inverted image tuple and must be a map whose composites with it
    are both identities.
    """
    budget = ensure_budget(budget, f"isomorphism search {S.name} ~ {T.name}")
    if any(len(S.nondeg(n)) != len(T.nondeg(n)) for n in range(min(S.dim_bound, T.dim_bound) + 1)):
        return None
    ids = identity_map(S), identity_map(T)
    for f in enumerate_maps(S, T, budget):
        images = f.assignment.values()
        if any(img.word for img in images) or len(set(images)) != len(images):
            continue
        g = SimplicialMap(T, S, {img.base: SimplexExpr((), x) for x, img in f.assignment.items()})
        if g.validate().ok and compose_maps(g, f) == ids[0] and compose_maps(f, g) == ids[1]:
            return f
    return None


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
                dim = int(line.split()[1])
            elif line.startswith("coskeletal "):
                cosk = int(line.split()[1])
            elif line.startswith("face "):
                head, rhs = line.split("=", 1)
                _, x, i = head.split()
                lb = rhs.index("[")
                rb = rhs.index("]")
                word = tuple(int(tok[1:]) for tok in rhs[lb + 1:rb].split())
                base = rhs[rb + 1:].strip()
                faces[(x, int(i))] = SimplexExpr(word, base)
            else:
                level, rest = line.split(":", 1)
                levels[int(level)] = rest.split()
        except (ValueError, IndexError) as err:
            raise ValueError(f"line {lineno}: cannot parse {raw!r} ({err})") from None
    if dim is None:
        raise ValueError("missing 'dim' line")
    return TruncatedSSet(dim, levels, faces, cosk, name)
