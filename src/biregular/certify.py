"""Spectral sufficient conditions and the certificates they produce.

Each theorem is one degree hypothesis, min(a, b) >= a floor in k, plus one
threshold formula in a, b, |X|, |Y|, k, and each ``certify_*`` function
hands its pair to ``_certify``, the one pipeline: validate, read lambda_2,
gate on the hypothesis, decide against the largest threshold. All
conditions are one-directional: a fired certificate guarantees the
property, an unfired one says nothing. lambda_2 comes out of a
floating-point solver, so certificates fire only with an epsilon margin of
1e-9 and report MARGINAL inside the band; rounding can never turn a
sufficient condition into an unsound claim.

Threshold shapes (degree arguments stay exact integers until the final
root or divide):

  edge connectivity, a,b >= k, strict '<':
      T_size = sqrt(ab) - (k-1) sqrt(xy) /
               (2 sqrt(ca cb (x - cb)(y - ca)))  when x > cb and y > ca
      T_deg  = sqrt(ab) - (k-1) / sqrt(ca cb)
      with ca = ceil((a+1)/2), cb = ceil((b+1)/2); fires on the larger
      applicable threshold since neither dominates for all part sizes.
  vertex connectivity, a,b >= k >= 2:
      sqrt(ab) - (k-1) max(a,b) / (2 sqrt(ab - (k-1) max(a,b)))
  spanning tree packing, a,b >= 2k:
      sqrt(ab) - k / sqrt(ceil((a+1)/2) ceil((b+1)/2))
  rigid subgraph packing, a,b >= 6k:
      sqrt(ab) - (3k + max(a,b)) / sqrt(ceil((a-1)/2) ceil((b-1)/2))
  global rigidity, a,b >= 6:
      sqrt(ab) - (3 + max(a,b)) / sqrt(ceil((a-2)/2) ceil((b-2)/2))
  Ramanujan labelling: lambda2 <= sqrt(a-1) + sqrt(b-1)

The abstract states v/2 where these use ceil(v/2) >= v/2, so each subtracted
term shrinks; the vertex-connectivity form has no ceiling and is the abstract's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import check_k
from .graphs import BipartiteGraph, validate_biregular
from .spectral import Spectrum, singular_values

EPSILON = 1e-9


class GraphProperty(str, Enum):
    """Properties with a spectral sufficient condition and/or an exact oracle."""

    EDGE_CONNECTIVITY = "edge-conn"
    VERTEX_CONNECTIVITY = "vertex-conn"
    TREE_PACKING = "stp"
    RIGID_PACKING = "rigid-packing"
    GLOBAL_RIGIDITY = "global-rigidity"
    RAMANUJAN = "ramanujan"


class Verdict(str, Enum):
    """Outcome of one threshold evaluation, as ``_decide`` assigns it.

    CERTIFIED means the sufficient condition fired with a safe float margin,
    NOT_FIRED means it did not (never a refutation), MARGINAL means the
    second eigenvalue sits within the epsilon band around the threshold where
    floating point cannot distinguish the two.
    """

    CERTIFIED = "certified"
    NOT_FIRED = "not-fired"
    MARGINAL = "marginal"


@dataclass(frozen=True)
class Certificate:
    """Outcome of one threshold evaluation, self-contained for reporting.

    ``threshold`` is the effective threshold the verdict was decided
    against (the max over ``thresholds`` for edge connectivity); it is None
    when the degree hypothesis fails, since the formula is meaningless or
    undefined there. ``strict`` records whether the underlying condition
    uses '<' rather than '<='. ``implied`` lists consequences that come for
    free with a fired certificate, and ``tol`` is the fixed EPSILON band.
    """

    property: GraphProperty
    k: int
    a: int
    b: int
    x: int
    y: int
    lambda2: float
    threshold: float | None
    thresholds: tuple[float, ...]
    strict: bool
    hypothesis_ok: bool
    verdict: Verdict
    implied: tuple[str, ...] = ()
    tol: float = field(default=EPSILON, init=False)

    @property
    def certified(self) -> bool:
        return self.verdict is Verdict.CERTIFIED


def _ceil_half(v: int) -> int:
    return (v + 1) // 2


def _decide(lam2: float, threshold: float | None) -> Verdict:
    # A negative threshold can never fire: lambda2 >= 0 on any bipartite
    # graph with edges. Inside the tolerance band floats cannot tell the
    # two sides apart, so the verdict is MARGINAL whether the condition
    # is strict or not; outside the band both reduce to a plain compare.
    if threshold is None or threshold < 0.0:
        return Verdict.NOT_FIRED
    if abs(lam2 - threshold) < EPSILON:
        return Verdict.MARGINAL
    return Verdict.CERTIFIED if lam2 < threshold else Verdict.NOT_FIRED


def _certify(
    g, spectrum, prop, k, floor, thresholds, strict=False, implied=()
):
    """The one evaluation path behind every certifier.

    The degree hypothesis is min(a, b) >= ``floor``, and
    ``thresholds(a, b, x, y)`` runs only when it holds, since the formulas
    may be undefined outside it; the verdict is decided against the largest
    threshold, and ``implied`` survives only a fired one.
    """
    profile = validate_biregular(g)
    lam2 = (spectrum or singular_values(g)).lambda2
    a, b, x, y = profile.a, profile.b, g.x_count, g.y_count
    hypothesis_ok = min(a, b) >= floor
    found = tuple(thresholds(a, b, x, y)) if hypothesis_ok else ()
    threshold = max(found) if found else None
    verdict = _decide(lam2, threshold)
    return Certificate(
        property=prop,
        k=k,
        a=a,
        b=b,
        x=x,
        y=y,
        lambda2=lam2,
        threshold=threshold,
        thresholds=found,
        strict=strict,
        hypothesis_ok=hypothesis_ok,
        verdict=verdict,
        implied=tuple(implied) if verdict is Verdict.CERTIFIED else (),
    )


def edge_connectivity_thresholds(
    a: int, b: int, x: int, y: int, k: int
) -> tuple[float, ...]:
    """Both edge-connectivity thresholds; the size-aware one only when defined."""
    ca = _ceil_half(a + 1)
    cb = _ceil_half(b + 1)
    out = [math.sqrt(a * b) - (k - 1) / math.sqrt(ca * cb)]
    if x > cb and y > ca:
        out.append(
            math.sqrt(a * b)
            - (k - 1)
            * math.sqrt(x * y)
            / (2.0 * math.sqrt(ca * cb * (x - cb) * (y - ca)))
        )
    return tuple(out)


def vertex_connectivity_threshold(a: int, b: int, k: int) -> float:
    mx = max(a, b)
    return math.sqrt(a * b) - (k - 1) * mx / (
        2.0 * math.sqrt(a * b - (k - 1) * mx)
    )


def tree_packing_threshold(a: int, b: int, k: int) -> float:
    return math.sqrt(a * b) - k / math.sqrt(
        _ceil_half(a + 1) * _ceil_half(b + 1)
    )


def rigid_packing_threshold(a: int, b: int, k: int) -> float:
    return math.sqrt(a * b) - (3 * k + max(a, b)) / math.sqrt(
        _ceil_half(a - 1) * _ceil_half(b - 1)
    )


def global_rigidity_threshold(a: int, b: int) -> float:
    return math.sqrt(a * b) - (3 + max(a, b)) / math.sqrt(
        _ceil_half(a - 2) * _ceil_half(b - 2)
    )


def certify_edge_connectivity(
    g: BipartiteGraph, k: int, spectrum: Spectrum | None = None
) -> Certificate:
    """Certificate for k-edge-connectivity; k = 1 doubles as connectivity."""
    k = check_k(k)
    return _certify(
        g, spectrum, GraphProperty.EDGE_CONNECTIVITY, k, k,
        lambda a, b, x, y: edge_connectivity_thresholds(a, b, x, y, k),
        strict=True,
    )


def certify_vertex_connectivity(
    g: BipartiteGraph, k: int, spectrum: Spectrum | None = None
) -> Certificate:
    """Certificate for k-connectivity; defined for k >= 2 only."""
    k = check_k(k)
    return _certify(
        g, spectrum, GraphProperty.VERTEX_CONNECTIVITY, k,
        k if k >= 2 else math.inf,
        lambda a, b, x, y: (vertex_connectivity_threshold(a, b, k),),
    )


def certify_tree_packing(
    g: BipartiteGraph, k: int, spectrum: Spectrum | None = None
) -> Certificate:
    """Certificate for k edge-disjoint spanning trees."""
    k = check_k(k)
    return _certify(
        g, spectrum, GraphProperty.TREE_PACKING, k, 2 * k,
        lambda a, b, x, y: (tree_packing_threshold(a, b, k),),
    )


def certify_rigid_packing(
    g: BipartiteGraph, k: int, spectrum: Spectrum | None = None
) -> Certificate:
    """Certificate for k edge-disjoint spanning rigid subgraphs in the plane.

    A fired certificate also implies k edge-disjoint spanning 2-connected
    subgraphs (any rigid graph on 3+ vertices is 2-connected), and plain
    rigidity when k = 1; both are recorded on ``implied``.
    """
    k = check_k(k)
    implied = [f"{k}-edge-disjoint-spanning-2-connected-subgraphs"]
    if k == 1:
        implied.append("rigid")
    return _certify(
        g, spectrum, GraphProperty.RIGID_PACKING, k, 6 * k,
        lambda a, b, x, y: (rigid_packing_threshold(a, b, k),),
        implied=implied,
    )


def certify_global_rigidity(
    g: BipartiteGraph, spectrum: Spectrum | None = None
) -> Certificate:
    """Certificate for global rigidity in the plane."""
    return _certify(
        g, spectrum, GraphProperty.GLOBAL_RIGIDITY, 1, 6,
        lambda a, b, x, y: (global_rigidity_threshold(a, b),),
    )


def is_ramanujan(
    g: BipartiteGraph, spectrum: Spectrum | None = None
) -> Certificate:
    """Label the graph Ramanujan when lambda2 meets the optimal bound.

    This is a definition check, not a theorem threshold, but it goes through
    the same epsilon-band machinery so near-ties surface as MARGINAL.
    """
    return _certify(
        g, spectrum, GraphProperty.RAMANUJAN, 1, 0,
        lambda a, b, x, y: (math.sqrt(a - 1) + math.sqrt(b - 1),),
    )
