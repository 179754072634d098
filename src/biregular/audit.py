"""Randomized soundness audit joining certificates with exact oracles,
and its CSV and JSON reports.

``audit_random`` walks a seeded corpus of configuration-model graphs,
evaluates every configured certificate at every configured k, runs the
matching oracle, and emits one flat record per (graph, property, k). A
certified property contradicted by its oracle aborts the whole audit with
the per-trial reproduction seed: that situation is an implementation bug,
never new mathematics. Record streams and their CSV/JSON renderings are
byte-identical across runs and platforms for a fixed configuration.

Each property's certificate, oracle and oracle schedule are one row of
``PROPERTIES``. An oracle skipped behind an unfired certificate leaves the
record's oracle value empty, which is still a sound row. A CERTIFIED
record always holds an oracle value: the per-graph oracle's, or that of the
``when_fired`` oracle, which runs behind every CERTIFIED verdict.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields

from .certify import (
    Certificate,
    GraphProperty,
    Verdict,
    certify_edge_connectivity,
    certify_global_rigidity,
    certify_rigid_packing,
    certify_tree_packing,
    certify_vertex_connectivity,
    is_ramanujan,
)
from .errors import AuditUnsound, InvalidParam, check_int, check_k
from .graphs import BipartiteGraph, check_profile, random_biregular_trials
from .oracles import (
    OracleResult,
    edge_connectivity,
    greedy_rigid_packing,
    is_globally_rigid,
    tree_packing_number,
    vertex_connectivity,
)
from .prng import derive_seed
from .spectral import singular_values

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PropertySpec:
    """How one property is certified and checked; one row of ``PROPERTIES``.

    ``certify(g, k, spectrum=None)`` returns the Certificate and
    ``oracle(g, k)`` the OracleResult, or ``oracle`` is None when no exact
    oracle exists. Only tree packing (k caps tau) and rigid packing (k is
    the target) read k in the oracle. A ``when_fired`` oracle is too
    expensive for every graph: the audit runs it per k and only behind a
    CERTIFIED verdict. Any other oracle runs once per graph at the largest
    k of the grid. A ``single_k`` property is evaluated at k = 1 only.
    """

    certify: Callable[..., Certificate]
    oracle: Callable[[BipartiteGraph, int | None], OracleResult] | None
    when_fired: bool = False
    single_k: bool = False


# The rows call through module globals at call time, so monkeypatching a
# name on this module (tests, the benchmark's tracer) reaches every dispatch.
PROPERTIES: dict[GraphProperty, PropertySpec] = {
    GraphProperty.EDGE_CONNECTIVITY: PropertySpec(
        lambda g, k, spectrum=None: certify_edge_connectivity(g, k, spectrum),
        lambda g, k: edge_connectivity(g),
    ),
    GraphProperty.VERTEX_CONNECTIVITY: PropertySpec(
        lambda g, k, spectrum=None: certify_vertex_connectivity(g, k, spectrum),
        lambda g, k: vertex_connectivity(g),
    ),
    GraphProperty.TREE_PACKING: PropertySpec(
        lambda g, k, spectrum=None: certify_tree_packing(g, k, spectrum),
        lambda g, k: tree_packing_number(g, k_max=k),
    ),
    GraphProperty.RIGID_PACKING: PropertySpec(
        lambda g, k, spectrum=None: certify_rigid_packing(g, k, spectrum),
        lambda g, k: greedy_rigid_packing(g, 1 if k is None else k),
        when_fired=True,
    ),
    GraphProperty.GLOBAL_RIGIDITY: PropertySpec(
        lambda g, k, spectrum=None: certify_global_rigidity(g, spectrum),
        lambda g, k: is_globally_rigid(g),
        when_fired=True,
        single_k=True,
    ),
    GraphProperty.RAMANUJAN: PropertySpec(
        lambda g, k, spectrum=None: is_ramanujan(g, spectrum),
        None,
        single_k=True,
    ),
}

DEFAULT_TRIALS = 10
DEFAULT_SEED = 0x5EED_B1A5
# Desk-scale grid: degrees 2..8, n <= 60. The configuration model's
# expected rejection count grows like exp((a-1)(b-1)/2), so most pairs
# keep (a-1)(b-1) <= 14. Past it are (18, 12, 4, 6) and (12, 18, 6, 4) at
# 15 and (10, 10, 5, 5) at 16, whose trials can use up the sampler's 10000
# attempts and are skipped: 7 of the 10 at (10, 10, 5, 5) under the
# default seed.
DEFAULT_SIZE_GRID = (
    (4, 4, 2, 2), (12, 12, 2, 2), (30, 30, 2, 2),
    (6, 4, 2, 3), (18, 12, 2, 3),
    (4, 6, 3, 2), (12, 18, 3, 2),
    (8, 4, 2, 4), (24, 12, 2, 4),
    (4, 8, 4, 2), (12, 24, 4, 2),
    (10, 4, 2, 5), (25, 10, 2, 5),
    (4, 10, 5, 2), (10, 25, 5, 2),
    (12, 4, 2, 6), (24, 8, 2, 6),
    (4, 12, 6, 2), (8, 24, 6, 2),
    (14, 4, 2, 7), (28, 8, 2, 7),
    (4, 14, 7, 2), (8, 28, 7, 2),
    (16, 4, 2, 8), (24, 6, 2, 8),
    (4, 16, 8, 2), (6, 24, 8, 2),
    (6, 6, 3, 3), (15, 15, 3, 3),
    (8, 6, 3, 4), (16, 12, 3, 4),
    (6, 8, 4, 3), (12, 16, 4, 3),
    (10, 6, 3, 5), (20, 12, 3, 5),
    (6, 10, 5, 3), (12, 20, 5, 3),
    (10, 5, 3, 6), (16, 8, 3, 6),
    (5, 10, 6, 3), (8, 16, 6, 3),
    (14, 6, 3, 7), (6, 14, 7, 3),
    (24, 9, 3, 8), (9, 24, 8, 3),
    (8, 8, 4, 4), (14, 14, 4, 4),
    (10, 8, 4, 5), (15, 12, 4, 5),
    (8, 10, 5, 4), (12, 15, 5, 4),
    (18, 12, 4, 6), (12, 18, 6, 4),
    (10, 10, 5, 5),
)
DEFAULT_K_GRID = (2, 3, 4, 5, 6, 7, 8)
# Sorted by value, as the CLI sorts a --properties list.
DEFAULT_PROPERTIES = (
    GraphProperty.EDGE_CONNECTIVITY,
    GraphProperty.TREE_PACKING,
    GraphProperty.VERTEX_CONNECTIVITY,
)


@dataclass(frozen=True)
class AuditConfig:
    """One audit campaign, the default audit in every field not given; sizes,
    k values and seed are kept as checked ints, and properties (each given
    as a member or its value) as ``GraphProperty`` members."""

    trials: int = DEFAULT_TRIALS
    size_grid: tuple[tuple[int, int, int, int], ...] = DEFAULT_SIZE_GRID
    k_grid: tuple[int, ...] = DEFAULT_K_GRID
    properties: tuple[GraphProperty, ...] = DEFAULT_PROPERTIES
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        trials = check_int(self.trials, "trials")
        if trials < 1:
            raise InvalidParam("trials must be at least 1")
        seed = check_int(self.seed, "seed")
        grid = _read_each(
            self.size_grid, "size grid", lambda e: check_profile(e, "grid entry")
        )
        # A repeated k or property would emit the same records twice.
        k_grid = _read_each(self.k_grid, "k grid", check_k, "a value")
        props = _read_each(
            self.properties, "property set", _read_property, "a property"
        )
        for prop in props:
            if PROPERTIES[prop].oracle is None:
                raise InvalidParam(f"no exact oracle to audit {prop.value!r}")
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "size_grid", grid)
        object.__setattr__(self, "k_grid", k_grid)
        object.__setattr__(self, "properties", props)


def _read_each(values, what: str, read, repeat: str | None = None) -> tuple:
    """Each entry of a sequence field, read by ``read``; InvalidParam naming
    the field when it is a string, not iterable or empty, or, given
    ``repeat``, when two entries read the same."""
    if isinstance(values, (str, bytes)) or not hasattr(values, "__iter__"):
        raise InvalidParam(f"{what} must be a sequence, got {values!r}")
    values = tuple(map(read, values))
    if not values:
        raise InvalidParam(f"{what} must be nonempty")
    if repeat and len(set(values)) != len(values):
        raise InvalidParam(f"{what} repeats {repeat}")
    return values


def _read_property(name) -> GraphProperty:
    """A ``GraphProperty`` member given as itself or as its value."""
    try:
        return GraphProperty(name)
    except ValueError:
        raise InvalidParam(f"unknown property {name!r}") from None


@dataclass(frozen=True)
class AuditRecord:
    """One certificate/oracle join, ready for flat serialization.

    Floats are pre-rounded to 12 significant digits so every rendering of
    the record prints the same value and JSON round trips are exact.
    ``oracle`` is None when the oracle was skipped for an unfired
    certificate of an expensive property.
    """

    graph_id: str
    a: int
    b: int
    x: int
    y: int
    lambda2: float
    property: str
    k: int
    threshold: float | None
    verdict: str
    oracle: int | None
    sound: bool


CSV_HEADER = ",".join(f.name for f in fields(AuditRecord))


def _round12(value):
    return None if value is None else float(f"{value:.12g}")


def default_config(trials=DEFAULT_TRIALS, seed=DEFAULT_SEED) -> AuditConfig:
    return AuditConfig(trials=trials, seed=seed)


def generate_corpus(cfg: AuditConfig):
    """Yield (graph_id, trial_seed, graph, spectrum) for every sampled trial,
    in grid and trial order.

    The trials of one grid entry are sampled by one
    ``random_biregular_trials`` call; each gets the graph
    ``random_biregular`` gives its seed. Trials whose rejection sampling
    budget runs out are logged, in trial order, and skipped.
    """
    for combo_idx, (x, y, a, b) in enumerate(cfg.size_grid):
        seeds = [derive_seed(cfg.seed, combo_idx, t) for t in range(cfg.trials)]
        for trial_seed, g in zip(seeds, random_biregular_trials(x, y, a, b, seeds)):
            if g is None:
                log.warning(
                    "skipping trial: no simple graph for "
                    "(x=%d, y=%d, a=%d, b=%d, seed=%d)", x, y, a, b, trial_seed,
                )
                continue
            gid = f"x{x}y{y}a{a}b{b}-{trial_seed:016x}"
            yield gid, trial_seed, g, singular_values(g)


def audit_random(cfg: AuditConfig) -> list[AuditRecord]:
    """Run the audit; raises AuditUnsound with a reproduction seed on failure."""
    k_max = max(cfg.k_grid)
    records = []
    for gid, trial_seed, g, spectrum in generate_corpus(cfg):
        for prop in cfg.properties:
            spec = PROPERTIES[prop]
            per_graph = None if spec.when_fired else spec.oracle(g, k_max).value
            for k in (1,) if spec.single_k else cfg.k_grid:
                cert = spec.certify(g, k, spectrum)
                oracle, exact = per_graph, True
                if spec.when_fired and cert.verdict is Verdict.CERTIFIED:
                    res = spec.oracle(g, k)
                    oracle, exact = res.value, res.exact
                sound = not (
                    cert.verdict is Verdict.CERTIFIED and exact and oracle < k
                )
                record = AuditRecord(
                    graph_id=gid,
                    a=cert.a,
                    b=cert.b,
                    x=cert.x,
                    y=cert.y,
                    lambda2=_round12(cert.lambda2),
                    property=prop.value,
                    k=k,
                    threshold=_round12(cert.threshold),
                    verdict=cert.verdict.value,
                    oracle=oracle,
                    sound=sound,
                )
                if not sound:
                    raise AuditUnsound(record, trial_seed)
                records.append(record)
    records.sort(key=lambda r: (r.graph_id, r.property, r.k))
    return records


def _csv_value(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def report_emit(records, fmt: str = "csv") -> str:
    """Render records as CSV (fixed header) or JSON (same keys).

    Floats were rounded at record creation, so both renderings carry 12
    significant digits and repeated runs emit identical bytes.
    """
    if fmt == "csv":
        names = CSV_HEADER.split(",")
        lines = [CSV_HEADER]
        for r in records:
            lines.append(",".join(_csv_value(getattr(r, f)) for f in names))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps([asdict(r) for r in records], indent=1) + "\n"
    raise InvalidParam(f"unknown report format {fmt!r}")
