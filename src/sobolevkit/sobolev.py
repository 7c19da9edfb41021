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
from dataclasses import dataclass
from itertools import product as _cartesian
from typing import Mapping, Sequence

import numpy as np

from .convolution import convolve
from .grid import GridFunction, Region, boundary_distances, lp_norm
from .mollifier import standard_bump
from .weakdiff import (
    MAX_DERIVATIVE_ORDER,
    MultiIndex,
    TestFunction,
    multi_index_order,
    validate_multi_index,
    verify_weak_derivative,
)

__all__ = [
    "DerivativeFamily",
    "MembershipEntry",
    "MembershipReport",
    "enumerate_multi_indices",
    "sobolev_norm",
    "membership_report",
    "boundary_vanish_check",
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


def _check_max_order(k: int) -> None:
    # every entry is a validated multi-index, so no family of higher order
    # exists; refuse before enumerating its (k + 1)^dim candidates
    if k > MAX_DERIVATIVE_ORDER:
        raise ValueError(f"order k must be at most {MAX_DERIVATIVE_ORDER}, got {k}")


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

    def missing_up_to(self, k: int) -> list[MultiIndex]:
        return [a for a in enumerate_multi_indices(self.dim, k) if a not in self._entries]

    @property
    def function(self) -> GridFunction:
        return self._entries[(0,) * self.dim]


def sobolev_norm(
    fam: DerivativeFamily,
    k: int,
    p: float,
    region: Region | None = None,
) -> float:
    """``W^{k,p}`` norm of the family, requiring every ``|alpha| <= k`` entry."""
    k = int(k)
    if k < 0:
        raise ValueError(f"order k must be nonnegative, got {k}")
    _check_max_order(k)
    missing = fam.missing_up_to(k)
    if missing:
        raise ValueError(f"family is missing derivatives {missing} for k={k}")
    alphas = enumerate_multi_indices(fam.dim, k)
    if math.isinf(p):
        return sum(lp_norm(fam[a], math.inf, region) for a in alphas)
    p = float(p)
    if p < 1.0:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    norms = [lp_norm(fam[a], p, region) for a in alphas]
    try:
        total = sum(x**p for x in norms)
    except OverflowError:
        total = math.inf
    if math.isfinite(total):
        return total ** (1.0 / p)
    # combine the per-alpha norms relative to the largest, as lp_norm does
    top = max(norms)
    if math.isinf(top):
        return top
    return top * sum((x / top) ** p for x in norms) ** (1.0 / p)


@dataclass(frozen=True)
class MembershipEntry:
    alpha: MultiIndex
    pairing_residual: float | None
    lp_norm: float
    verdict: bool


@dataclass(frozen=True)
class MembershipReport:
    """Per-derivative verification plus the aggregated norm when all pass."""

    k: int
    p: float
    entries: tuple[MembershipEntry, ...]
    member: bool
    norm: float | None


def membership_report(
    f: GridFunction,
    candidates: DerivativeFamily,
    k: int,
    p: float,
    tests: Sequence[TestFunction],
    tol: float,
) -> MembershipReport:
    """Verify each candidate derivative and, if all pass, report the ``W^{k,p}`` norm.

    The order-zero entry is ``f`` itself and passes by definition; every
    higher entry must satisfy the integration-by-parts identity on the
    supplied test catalog within ``tol``.
    """
    k = int(k)
    if k < 1:
        raise ValueError(f"order k must be at least 1, got {k}")
    _check_max_order(k)
    if candidates.grid != f.grid:
        raise ValueError("candidates live on a different grid than f")
    missing = candidates.missing_up_to(k)
    if missing:
        raise ValueError(f"candidate family is missing derivatives {missing} for k={k}")

    entries: list[MembershipEntry] = []
    all_ok = True
    for alpha in enumerate_multi_indices(f.grid.dim, k):
        gf = candidates[alpha]
        norm_a = lp_norm(gf, p)
        if multi_index_order(alpha) == 0:
            ok, residual = True, None
        else:
            result = verify_weak_derivative(f, gf, alpha, tests, tol)
            ok, residual = result.verdict, result.max_residual
        entries.append(MembershipEntry(alpha, residual, norm_a, ok))
        all_ok = all_ok and ok

    norm = sobolev_norm(candidates, k, p) if all_ok else None
    return MembershipReport(k, float(p), tuple(entries), all_ok, norm)


def _support_distance(f: GridFunction) -> float:
    """Distance from the sampled support of ``f`` to the box boundary."""
    hit = f.values != 0.0
    if not hit.any():
        return math.inf
    return float(boundary_distances(f.grid)[hit].min())


def boundary_vanish_check(
    f: GridFunction,
    eps_list: Sequence[float],
    collar_width: float,
) -> list[tuple[float, float]]:
    """Max of ``|f_eps|`` over the boundary collar, per eps.

    ``f`` must be supported away from the boundary by more than the
    largest eps; the smoothed function is then evaluated on every node
    (zero-extending ``f``, which adds nothing since its support is
    interior) and maximized over nodes within ``collar_width`` of the
    boundary.  Whenever ``eps + collar_width`` is below the support
    distance the collar max is exactly zero: the smoothing widens the
    support by at most ``eps``.
    """
    collar_width = float(collar_width)
    if collar_width < 0:
        raise ValueError(f"collar width must be nonnegative, got {collar_width}")
    epses = [float(e) for e in eps_list]
    if not epses:
        raise ValueError("eps ladder is empty")
    support_dist = _support_distance(f)
    if support_dist <= max(epses):
        raise ValueError(
            f"support is {support_dist} from the boundary, too close for eps up to {max(epses)}"
        )
    collar = boundary_distances(f.grid) <= collar_width
    rows: list[tuple[float, float]] = []
    for eps in epses:
        smoothed, _ = convolve(f, standard_bump(f.grid.dim, eps), zero_extend=True)
        collar_max = float(np.max(np.abs(smoothed.values), where=collar, initial=0.0))
        rows.append((eps, collar_max))
    return rows
