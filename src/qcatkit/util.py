"""Shared plumbing: step budgets, the memo rule and the one union-find."""

from __future__ import annotations

from functools import wraps


DEFAULT_BUDGET = 10**7


class BudgetExceeded(Exception):
    """Raised when an enumeration exceeds its step budget.

    Partial results are never returned; the caller sees the overrun and
    nothing else.
    """

    def __init__(self, context: str, limit: int):
        super().__init__(f"budget of {limit} elementary steps exceeded in {context}")
        self.context = context
        self.limit = limit


class Budget:
    """Mutable step counter shared by the enumerations of one operation.

    What is derived once is kept by one of two rules.  :meth:`cached` is
    the one charged cache: the path objects of :mod:`qcatkit.mapping`, the
    reports of :func:`qcatkit.nerve.require_quasicategory`, the homotopy
    categories of :func:`qcatkit.nerve.ho`, the shell
    answers of :func:`qcatkit.simplicial.extensions` and the loop classes
    of the Whitehead surrogate are kept with the steps their miss charged,
    and every hit spends that count, so a hit charges the same steps as
    the miss.  :func:`memo` is the free one:
    its hits (level tables, frames, a prederivator's values, u* and alpha*,
    a sample's restriction plans and transports, and the like) charge
    nothing.

    A loop that takes many steps may count them itself and charge them in
    one call, as long as it raises where charging each step as it comes
    would, with ``used`` where that would leave it.  The map search
    (:func:`qcatkit.simplicial.map_codes`: one step per vertex or pinned
    cell, one plus the candidates per lookup, nothing for a face read off
    the row of the simplex above it, per connected component of a source
    searched a component at a time, then one per map the components'
    maps combine into) and the functor search
    (:func:`qcatkit.cats.enumerate_functors`: one step per object
    candidate, per candidate image of a generator and per composite
    checked, one for the image of any other morphism, read off its
    factors) charge their count once at the end, or at the placement that
    takes it past the limit;
    ``spend_each`` charges a run of single steps at once, such as the
    combined maps, the edges and the 2-simplices of the inner 2-horn
    check (:func:`qcatkit.nerve.is_quasicategory`), or the reads of the
    Whitehead surrogate (:func:`qcatkit.whitehead.is_fully_faithful_1tr`:
    one step per ordered pair of vertices, one per edge and per loop read
    on either side, and one per 3-simplex for the loop classes of a set
    certified above level 2).
    """

    def __init__(self, limit: int = DEFAULT_BUDGET, context: str = "enumeration"):
        self.limit = limit
        self.used = 0
        self.context = context

    def spend(self, steps: int = 1) -> None:
        self.used += steps
        if self.used > self.limit:
            raise BudgetExceeded(self.context, self.limit)

    def spend_each(self, steps: int) -> None:
        """Charge ``steps`` single steps in one call: it raises where
        charging them one at a time would, with ``used`` one past the limit."""
        self.spend(min(steps, self.limit - self.used + 1))

    def cached(self, owner, key, build):
        """``build()``, kept on ``owner`` under ``key`` with the steps it
        charged this budget; a hit charges those steps again.

        The answers live in ``owner.__dict__["memo.charged"]``, so they are
        freed with the owner.  A build that raises keeps nothing.
        """
        kept = owner.__dict__.setdefault("memo.charged", {})
        hit = kept.get(key)
        if hit is None:
            start = self.used
            answer = build()
            kept[key] = (answer, self.used - start)
            return answer
        self.spend(hit[1])
        return hit[0]


def ensure_budget(budget, context: str = "enumeration") -> Budget:
    return budget if budget is not None else Budget(context=context)


def memo(fn):
    """Keep the answers of a method, or of a function whose first argument
    owns them, on the owner.

    An answer is keyed by the positional arguments after the owner and kept
    in ``owner.__dict__["memo." + fn.__name__]``, so it is freed with the
    owner.  A call that raises keeps nothing.  A hit charges no steps; the
    charged rule is :meth:`Budget.cached`.
    """
    slot = "memo." + fn.__name__

    @wraps(fn)
    def kept(owner, *args):
        try:
            return owner.__dict__[slot][args]
        except KeyError:
            pass
        answer = owner.__dict__.setdefault(slot, {})[args] = fn(owner, *args)
        return answer

    return kept


def least_classes(size: int, pairs) -> list:
    """Per code 0 .. size - 1, the least code of its class in the
    equivalence relation that ``pairs`` generate: a union-find in which the
    root of a class is always its least code."""
    root = list(range(size))

    def find(c: int) -> int:
        while root[c] != c:
            root[c] = c = root[root[c]]
        return c

    for a, b in pairs:
        a, b = sorted((find(a), find(b)))
        root[b] = a
    return list(map(find, range(size)))
