"""Sobolev norms and membership reports for sampled functions.

The ``W^{k,p}`` norm aggregates the ``L^p`` sizes of all derivatives up
to order ``k``:

    finite p:  ( sum_{|alpha| <= k} integral |D_alpha f|^p )^(1/p)
    p = inf:   sum_{|alpha| <= k} sup |D_alpha f|

Derivatives enter as explicit grid functions whose weak-derivative
claims have been (or can be) verified; nothing here differentiates.
"""

from __future__ import annotations

import math
from itertools import product as _cartesian
from typing import Container, Mapping, NamedTuple, Sequence

from .grid import GridFunction, _finite_norm, _needs_rescale, lp_norm
from .mollifier import MAX_DERIVATIVE_ORDER, MultiIndex, validate_multi_index
from .weakdiff import TestFunction, _verify_family

__all__ = [
    "DerivativeFamily",
    "MembershipEntry",
    "MembershipReport",
    "enumerate_multi_indices",
    "sobolev_norm",
    "membership_report",
]


def enumerate_multi_indices(dim: int, max_order: int) -> list[MultiIndex]:
    """All multi-indices with ``|alpha| <= max_order``, ordered by order then lexicographically."""
    out = [
        alpha
        for alpha in _cartesian(*(range(max_order + 1),) * dim)
        if sum(alpha) <= max_order
    ]
    out.sort(key=lambda a: (sum(a), a))
    return out


def _check_family(dim: int, k: int, alphas: Container[MultiIndex], lowest: int = 1) -> int:
    """Refuse an order ``k`` outside ``lowest`` to ``MAX_DERIVATIVE_ORDER``, or ``alphas`` missing an order up to ``k``.

    The order is checked before the (k + 1)^dim candidates are enumerated.
    The CLI calls this with the ``--deriv`` multi-indices before it samples
    any expression; ``membership_report`` and ``sobolev_norm`` (with
    ``lowest=0``) call it with the family.
    """
    k = int(k)
    if k < lowest:
        raise ValueError(f"order k must be at least {lowest}, got {k}")
    if k > MAX_DERIVATIVE_ORDER:
        raise ValueError(f"order k must be at most {MAX_DERIVATIVE_ORDER}, got {k}")
    missing = [a for a in enumerate_multi_indices(dim, k) if a not in alphas]
    if missing:
        raise ValueError(f"candidate family is missing derivatives {missing} for k={k}")
    return k


class DerivativeFamily:
    """Multi-index -> grid function map, ``alpha = 0`` holding the function itself."""

    def __init__(self, entries: Mapping[Sequence[int], GridFunction]) -> None:
        if not entries:
            raise ValueError("derivative family is empty")
        store: dict[MultiIndex, GridFunction] = {}
        grid = None
        for raw_alpha, gf in entries.items():
            alpha = tuple(int(a) for a in raw_alpha)
            if grid is None:
                grid = gf.grid
            elif gf.grid != grid:
                raise ValueError("family members live on different grids")
            validate_multi_index(alpha, grid.dim)
            store[alpha] = gf
        zero = (0,) * grid.dim
        if zero not in store:
            raise ValueError("family must contain the order-zero entry (the function itself)")
        self._entries = store
        self.grid = grid

    @property
    def dim(self) -> int:
        return self.grid.dim

    def __getitem__(self, alpha: Sequence[int]) -> GridFunction:
        return self._entries[tuple(int(a) for a in alpha)]

    def __contains__(self, alpha: Sequence[int]) -> bool:
        return tuple(int(a) for a in alpha) in self._entries

    def alphas(self) -> list[MultiIndex]:
        return sorted(self._entries, key=lambda a: (sum(a), a))

    @property
    def function(self) -> GridFunction:
        return self._entries[(0,) * self.dim]


def sobolev_norm(fam: DerivativeFamily, k: int, p: float) -> float:
    """``W^{k,p}`` norm of the family, requiring every ``|alpha| <= k`` entry."""
    k = _check_family(fam.dim, k, fam, lowest=0)
    # lp_norm refuses p below 1
    p = float(p)
    norms = [lp_norm(fam[a], p) for a in enumerate_multi_indices(fam.dim, k)]
    return _combine_norms(norms, p)


def _combine_norms(norms: Sequence[float], p: float) -> float:
    """``W^{k,p}`` norm from the derivatives' ``L^p`` norms: their sum, or the root of their p-th powers."""
    if p == math.inf:
        return _finite_norm(sum(norms), "W^{k,p}", p)
    try:
        total = sum(x**p for x in norms)
    except OverflowError:
        total = math.inf
    if not _needs_rescale(total):
        return total ** (1.0 / p)
    # combine the per-alpha norms relative to the largest, as lp_norm does
    top = max(norms) or 1.0  # all zero: 0 on any scale
    return _finite_norm(top * sum((x / top) ** p for x in norms) ** (1.0 / p), "W^{k,p}", p)


class MembershipEntry(NamedTuple):
    alpha: MultiIndex
    pairing_residual: float | None
    lp_norm: float
    verdict: bool


class MembershipReport(NamedTuple):
    """Per-derivative verification plus the aggregated norm when all pass."""

    k: int
    p: float
    entries: tuple[MembershipEntry, ...]
    member: bool
    norm: float | None


def membership_report(
    candidates: DerivativeFamily,
    k: int,
    p: float,
    tests: Sequence[TestFunction],
    tol: float,
) -> MembershipReport:
    """Verify each candidate derivative and, if all pass, report the ``W^{k,p}`` norm.

    The order-zero entry is the function ``f = candidates.function`` and
    passes by definition; every higher entry must satisfy the
    integration-by-parts identity against ``f`` on the supplied test
    catalog within ``tol``.  All entries are paired in one pass over the
    catalog, each distinct test function built once per report, across
    multi-indices; an error is raised where checking the entries one by
    one, each norm before its pairings, would raise it first.
    """
    f = candidates.function
    k = _check_family(f.grid.dim, k, candidates)

    pairs = [(alpha, candidates[alpha]) for alpha in enumerate_multi_indices(f.grid.dim, k)[1:]]
    results, failure = _verify_family(f, pairs, tests, tol)
    entries = [MembershipEntry((0,) * f.grid.dim, None, lp_norm(f, p), True)]
    for (alpha, gf), result in zip(pairs, results):
        entries.append(MembershipEntry(alpha, result.max_residual, lp_norm(gf, p), result.verdict))
    if failure is not None:
        # an alpha-by-alpha walk takes the failing entry's norm before its pairings
        lp_norm(pairs[len(results)][1], p)
        raise failure
    all_ok = all(e.verdict for e in entries)
    norm = _combine_norms([e.lp_norm for e in entries], float(p)) if all_ok else None
    return MembershipReport(k, float(p), tuple(entries), all_ok, norm)
