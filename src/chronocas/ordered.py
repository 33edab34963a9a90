"""What both ordered sets share: the bound keys their sentinels carry, the
check that keeps user keys off them, and the ordered queries.

Each query is a fold over the set's ``_keys(h, lo, hi)``: a lazy walk that
yields the user keys in [lo, hi] at snapshot handle ``h``, in order, reading
cells only as the fold asks for keys.  ``lo`` and ``hi`` are user keys or
``NEG_INF``/``POS_INF``.  So an early-exit query (``succ``, ``find_if``,
``ith``) reads only what it returns, and every query sees one cut.
"""

from __future__ import annotations

from itertools import islice


class Bound:
    """Sentinel key.  A negative rank sorts below every user key, a positive
    rank above; bounds order among themselves by rank."""

    __slots__ = ("_rank",)

    def __init__(self, rank: int) -> None:
        self._rank = rank

    def __lt__(self, other):
        if isinstance(other, Bound):
            return self._rank < other._rank
        return self._rank < 0
    def __gt__(self, other):
        if isinstance(other, Bound):
            return self._rank > other._rank
        return self._rank > 0
    def __le__(self, other):
        return self is other or self < other
    def __ge__(self, other):
        return self is other or self > other
    def __repr__(self):
        return f"<bound {self._rank:+d}>"


NEG_INF = Bound(-1)
POS_INF = Bound(+1)


def _check_interval(start, end) -> None:
    for key in (start, end):
        if isinstance(key, Bound) and key is not NEG_INF and key is not POS_INF:
            raise ValueError("only NEG_INF and POS_INF may bound an interval")
    if start > end:
        raise ValueError("range start exceeds end")


class OrderedQueries:
    """Ordered queries of a set with ``camera``, ``epoch`` and ``_keys``,
    each answered at one snapshot handle."""

    @staticmethod
    def _check_key(key) -> None:
        if isinstance(key, Bound):
            raise ValueError("bound keys are reserved for sentinels")

    @classmethod
    def _user_keys(cls, keys) -> dict:
        """``multisearch``'s answer table: each of ``keys`` once, mapped to
        False, every one checked before the caller pins."""
        found = dict.fromkeys(keys, False)
        for k in found:
            cls._check_key(k)
        return found

    def range_query(self, start, end) -> list:
        _check_interval(start, end)
        with self.epoch.query(self.camera) as h:
            return list(self._keys(h, start, end))

    def range_sum(self, start, end):
        _check_interval(start, end)
        with self.epoch.query(self.camera) as h:
            return sum(self._keys(h, start, end))

    def succ(self, key, count: int) -> list:
        """The ``count`` smallest keys above ``key`` (fewer if the set ends)."""
        if count < 1:
            raise ValueError("succ needs count >= 1")
        _check_interval(key, POS_INF)
        with self.epoch.query(self.camera) as h:
            later = (k for k in self._keys(h, key, POS_INF) if k > key)
            return list(islice(later, count))

    def find_if(self, start, end, predicate):
        """First key in [start, end) satisfying the predicate, else None."""
        _check_interval(start, end)
        with self.epoch.query(self.camera) as h:
            return next((k for k in self._keys(h, start, end)
                         if k < end and predicate(k)), None)

    def ith(self, i: int):
        """The ``i``-th smallest key (1-based), else None."""
        if i < 1:
            raise ValueError("ith index is 1-based")
        with self.epoch.query(self.camera) as h:
            return next(islice(self._keys(h, NEG_INF, POS_INF), i - 1, None),
                        None)
