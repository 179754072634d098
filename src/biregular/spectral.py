"""Adjacency spectra of biregular bipartite graphs via the biadjacency matrix.

The adjacency spectrum of a bipartite graph is symmetric about zero: it is
{+s, -s} over the singular values s of the 0/1 biadjacency matrix B, padded
with |X| + |Y| - 2*min(|X|, |Y|) zeros. We therefore never eigensolve the
full (|X|+|Y|)-dimensional adjacency matrix; one LAPACK SVD of B gives the
min(|X|, |Y|) singular values directly. Working on B rather than on a Gram
matrix B B^T keeps zero singular values at roundoff level instead of
magnifying their error through a square root. For a connected
(a,b)-biregular graph the top singular value is sqrt(a*b) and the second
one is the lambda_2 used by every certificate.

The bipartite mixing inequality is checked here too: for one pair of
vertex sets (``mixing_check``) or on a seeded sample of pairs
(``mixing_audit``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConvergenceFailure, InvalidParam, MixingViolation
from .graphs import BipartiteGraph, Vertex, cross_edges, validate_biregular
from .prng import stream_u64

MIXING_TOL = 1e-9


@dataclass(frozen=True)
class Spectrum:
    """Singular values of the biadjacency matrix, sorted descending.

    ``sigma`` holds min(|X|, |Y|) values; the remaining adjacency
    eigenvalues are exact zeros by the padding rule above. ``lambda2`` is
    sigma[1], or 0.0 when only one singular value exists. ``gap`` is
    sqrt(a*b) - lambda2 with the integer product kept exact under the root.
    """

    sigma: tuple[float, ...]
    lambda1: float
    lambda2: float
    gap: float


@dataclass(frozen=True)
class MixingReport:
    """One evaluation of the bipartite mixing inequality.

    lhs = |e(A,B) - sqrt(ab)/sqrt(|X||Y|) * |A||B||
    rhs = lambda2 * sqrt(|A||B| (1-|A|/|X|) (1-|B|/|Y|))

    ``holds`` is lhs <= rhs + MIXING_TOL; a False value on a validated
    biregular graph means a bug somewhere in the pipeline, never new math.
    """

    lhs: float
    rhs: float
    holds: bool


def biadjacency(g: BipartiteGraph) -> np.ndarray:
    """The x_count-by-y_count 0/1 matrix B with B[i, j] = 1 iff (i, j) is an edge."""
    mat = np.zeros((g.x_count, g.y_count))
    for xi, yj in g.edges:
        mat[xi, yj] = 1.0
    return mat


def singular_values(g: BipartiteGraph) -> Spectrum:
    """Spectrum of a validated biregular graph.

    LAPACK returns the singular values of B non-negative and sorted
    descending; a failed SVD raises ConvergenceFailure.
    """
    profile = validate_biregular(g)
    try:
        sigma = np.linalg.svd(biadjacency(g), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"biadjacency SVD: {exc}") from exc
    sigma = tuple(sigma.tolist())
    lam1 = sigma[0]
    lam2 = sigma[1] if len(sigma) > 1 else 0.0
    gap = math.sqrt(profile.a * profile.b) - lam2
    return Spectrum(sigma=sigma, lambda1=lam1, lambda2=lam2, gap=gap)


def lambda2(g: BipartiteGraph) -> float:
    return singular_values(g).lambda2


def spectral_gap(g: BipartiteGraph) -> float:
    return singular_values(g).gap


def mixing_check(
    g: BipartiteGraph,
    a_side: Iterable[Vertex],
    b_side: Iterable[Vertex],
    spectrum: Spectrum | None = None,
) -> MixingReport:
    """Evaluate the bipartite mixing inequality for A within X, B within Y.

    Pass a precomputed ``spectrum`` when checking many pairs on one graph.
    """
    profile, spectrum = _mixing_guard(g, spectrum)
    a_set = frozenset(a_side)
    b_set = frozenset(b_side)
    e_ab = cross_edges(g, a_set, b_set)
    lhs, rhs = _mixing_sides(g, profile, spectrum, e_ab, len(a_set), len(b_set))
    lhs, rhs = float(lhs), float(rhs)
    return MixingReport(lhs=lhs, rhs=rhs, holds=lhs <= rhs + MIXING_TOL)


@dataclass(frozen=True)
class MixingAuditReport:
    """Summary of a sampled mixing-inequality sweep over one graph."""

    pairs: int
    violations: int
    min_slack: float
    max_slack: float


# Pairs drawn and checked per chunk of mixing_audit: bounds its arrays
# (and peak memory) however many pairs are asked for.
_MIXING_CHUNK = 64


def mixing_audit(
    g: BipartiteGraph,
    pairs: int,
    seed: int,
    spectrum: Spectrum | None = None,
) -> MixingAuditReport:
    """Check the mixing inequality on ``pairs`` uniform (A, B) subset pairs.

    Membership of each vertex is one low bit of the seeded stream, so the
    sample includes empty and full sides: pair p reads words
    p*(|X|+|Y|) + 1 onward, X-vertices first, then Y-vertices. Pairs are
    drawn and checked in chunks. e(A, B) comes from one product with the
    biadjacency matrix, whose float sums of 0/1 terms are exact integers,
    and ``_mixing_sides`` evaluates lhs and rhs elementwise as it does for
    ``mixing_check``, so each float is the one that returns. Any violation
    raises MixingViolation carrying the first offending pair: the
    inequality is a theorem, so a violation means a bug.
    """
    if pairs < 1:
        raise InvalidParam("pairs must be at least 1")
    profile, spectrum = _mixing_guard(g, spectrum)
    x, y = g.x_count, g.y_count
    adj = biadjacency(g)
    lows, highs = [], []
    for first in range(0, pairs, _MIXING_CHUNK):
        count = min(_MIXING_CHUNK, pairs - first)
        bits = stream_u64(seed, first * (x + y), count * (x + y))
        bits &= 1
        bits = bits.astype(np.float64).reshape(count, x + y)
        a_in, b_in = bits[:, :x], bits[:, x:]
        e_ab = np.einsum("pj,pj->p", a_in @ adj, b_in)
        lhs, rhs = _mixing_sides(
            g, profile, spectrum, e_ab, a_in.sum(axis=1), b_in.sum(axis=1)
        )
        bad = np.flatnonzero(~(lhs <= rhs + MIXING_TOL))
        if bad.size:
            p = bad[0]
            raise MixingViolation(
                frozenset(("x", int(i)) for i in np.flatnonzero(a_in[p])),
                frozenset(("y", int(j)) for j in np.flatnonzero(b_in[p])),
                float(lhs[p]),
                float(rhs[p]),
            )
        slack = rhs - lhs
        lows.append(float(slack.min()))
        highs.append(float(slack.max()))
    return MixingAuditReport(
        pairs=pairs, violations=0, min_slack=min(lows), max_slack=max(highs)
    )


def _mixing_guard(g, spectrum):
    """Profile and spectrum, after the checks both mixing functions make
    first; the spectrum is computed last, and only when none is given."""
    if g.n < 3:
        raise InvalidParam("mixing bound requires at least 3 vertices")
    profile = validate_biregular(g)
    return profile, singular_values(g) if spectrum is None else spectrum


def _mixing_sides(g, profile, spectrum, e_ab, na, nb):
    """lhs and rhs of the mixing inequality at e(A,B), |A|, |B| = e_ab, na, nb.

    Works on numbers and, elementwise, on numpy arrays of them, with the
    same float operations in the same order, so a batched check gives
    every pair the floats ``mixing_check`` gives it.
    """
    x, y = g.x_count, g.y_count
    main = math.sqrt(profile.a * profile.b) / math.sqrt(x * y) * na * nb
    lhs = abs(e_ab - main)
    rhs = spectrum.lambda2 * np.sqrt(
        na * nb * (1.0 - na / x) * (1.0 - nb / y)
    )
    return lhs, rhs
