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
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import ConvergenceFailure, InvalidParam, MixingViolation, check_int
from .graphs import BipartiteGraph, Vertex, check_cells, cross_edges, edge_ends
from .graphs import validate_biregular
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
    """The x_count-by-y_count 0/1 matrix B with B[i, j] = 1 iff (i, j) is an
    edge; TooLarge above ``graphs.CELL_BOUND`` cells."""
    check_cells(g.x_count, g.y_count, "biadjacency matrix")
    mat = np.zeros((g.x_count, g.y_count))
    mat[edge_ends(g)] = 1.0
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
    """Summary of a sampled mixing-inequality sweep over one graph; a
    violation raises, so ``violations`` is always 0."""

    pairs: int
    violations: int = field(default=0, init=False)
    min_slack: float
    max_slack: float


# A chunk of mixing_audit holds at most _MIXING_CHUNK pairs (larger chunks
# ran slower on graphs with n in the hundreds). It reads one stream word per
# vertex of a pair, and its product reads all |X|(|Y|+1) entries of the
# count matrix, so it also keeps its words within the larger of
# _MIXING_WORDS and that matrix: a wide, thin graph draws small chunks,
# and a large square one still draws _MIXING_CHUNK pairs. 2^14 words keep
# a chunk's arrays in reused memory: stream_u64 took 4-6 ns a word up to
# 20 480 words and 7-12 ns from 24 576 on, where each array takes fresh
# pages (written into a reused buffer, about 4 ns at every size).
_MIXING_CHUNK = 128
_MIXING_WORDS = 1 << 14


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
    drawn and counted in chunks of c = min(_MIXING_CHUNK,
    max(_MIXING_WORDS, |X|(|Y|+1)) // n) pairs (at least one), so a
    chunk's arrays stay bounded.

    The counts come from one product per chunk with an (|X|, |Y|+1) count
    matrix C: X-vertex i's row holds its biadjacency row and a 1 in column
    |Y|. So A's bits @ C gives A's edges into each Y-vertex and |A| at
    once; e(A, B) is the row-wise dot of its first |Y| columns with B's
    bits, and |B| the row sum of B's bits. Every count and partial sum is
    an integer of at most m <= 2^24 (``_mixing_guard`` refuses larger
    graphs), so they are exact in float32, in any summation order.

    The counts of c * max(1, _MIXING_WORDS // c) pairs gather in float64
    buffers, so memory does not grow with ``pairs``, and the inequality is
    checked once per full buffer: ``_mixing_sides`` evaluates lhs and rhs
    elementwise as it does for ``mixing_check``, so each float is the one
    that returns. Any violation raises MixingViolation carrying the first
    offending pair, whose sides are re-read from the stream: the
    inequality is a theorem, so a violation means a bug.
    """
    if check_int(pairs, "pairs") < 1:
        raise InvalidParam("pairs must be at least 1")
    check_int(seed, "seed")
    profile, spectrum = _mixing_guard(g, spectrum)
    x, y, n = g.x_count, g.y_count, g.n
    counts = np.zeros((x, y + 1), np.float32)
    counts[edge_ends(g)] = 1
    counts[:, y] = 1
    chunk = max(1, min(_MIXING_CHUNK, max(_MIXING_WORDS, counts.size) // n))
    span = chunk * max(1, _MIXING_WORDS // chunk)
    e_ab, na, nb = np.empty((3, min(span, pairs)))
    low, high = math.inf, -math.inf
    for start in range(0, pairs, span):
        stop = min(start + span, pairs)
        for first in range(start, stop, chunk):
            count = min(chunk, stop - first)
            bits = stream_u64(seed, first * n, count * n)
            bits &= 1
            bits = bits.astype(np.uint8).astype(np.float32).reshape(count, n)
            a_in, b_in = bits[:, :x], bits[:, x:]
            sums = a_in @ counts
            at = slice(first - start, first - start + count)
            e_ab[at] = np.einsum("pj,pj->p", sums[:, :y], b_in)
            na[at] = sums[:, y]
            nb[at] = b_in.sum(axis=1)
        size = stop - start
        lhs, rhs = _mixing_sides(
            g, profile, spectrum, e_ab[:size], na[:size], nb[:size]
        )
        bad = np.flatnonzero(~(lhs <= rhs + MIXING_TOL))
        if bad.size:
            p = int(bad[0])
            bits = stream_u64(seed, (start + p) * n, n) & 1
            raise MixingViolation(
                frozenset(("x", int(i)) for i in np.flatnonzero(bits[:x])),
                frozenset(("y", int(j)) for j in np.flatnonzero(bits[x:])),
                float(lhs[p]),
                float(rhs[p]),
            )
        slack = rhs - lhs
        low = min(low, float(slack.min()))
        high = max(high, float(slack.max()))
    return MixingAuditReport(pairs=pairs, min_slack=low, max_slack=high)


def _mixing_guard(g, spectrum):
    """Profile and spectrum, after the checks both mixing functions make
    first (TooLarge above ``graphs.CELL_BOUND`` cells, before the count
    matrix or the spectrum is built); the spectrum is computed last, and
    only when none is given."""
    if g.n < 3:
        raise InvalidParam("mixing bound requires at least 3 vertices")
    profile = validate_biregular(g)
    check_cells(g.x_count, g.y_count, "mixing inequality")
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
