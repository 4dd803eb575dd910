"""Shared plumbing: step budgets and a deterministic union-find."""

from __future__ import annotations


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

    The path objects of :mod:`qcatkit.mapping`, the reports of
    :func:`qcatkit.nerve.require_quasicategory` and the shell answers of
    :func:`qcatkit.simplicial.extensions` are cached with their cost:
    the miss charges as it runs and records the count, and every hit spends
    that count, so a hit charges the same steps as the miss.  The other
    memos (the values of a prederivator, ``Exponential.ho``) charge nothing
    on a hit.
    """

    def __init__(self, limit: int = DEFAULT_BUDGET, context: str = "enumeration"):
        self.limit = limit
        self.used = 0
        self.context = context

    def spend(self, steps: int = 1) -> None:
        self.used += steps
        if self.used > self.limit:
            raise BudgetExceeded(self.context, self.limit)


def ensure_budget(budget, context: str = "enumeration") -> Budget:
    return budget if budget is not None else Budget(context=context)


class UnionFind:
    """Union-find over hashable keys with deterministic representatives.

    The representative of a class is its minimal element (by `<` on keys),
    so quotients are reproducible regardless of union order.
    """

    def __init__(self, items=()):
        self._parent = {}
        for x in items:
            self._parent.setdefault(x, x)

    def add(self, x) -> None:
        self._parent.setdefault(x, x)

    def find(self, x):
        self.add(x)
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:  # path compression
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, x, y) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        keep, drop = (rx, ry) if rx < ry else (ry, rx)
        self._parent[drop] = keep

    def classes(self) -> dict:
        """Map every key to the minimal element of its class."""
        mins = {}
        for x in self._parent:
            r = self.find(x)
            if r not in mins or x < mins[r]:
                mins[r] = x
        return {x: mins[self.find(x)] for x in self._parent}
