"""The benchmark's workloads: inputs made from a seed, the operations of
one pass, and the reference counts every operation is checked against.

Every input is a seeded proxy generated at the fixed structure seed
``BASE_SEED`` (graph, vertex labels, arc orientation) and then relabeled
by a random vertex permutation drawn from the workload seed.  A
relabeling changes vertex ids, root order and which partial embeddings
survive the symmetry-breaking restrictions, but leaves every count, the
graph statistics and therefore the chosen plans unchanged.  Letting the
seed regenerate the proxies instead moved a fig8-twitter pass by up to
+-25 % between seeds (3.6-5.7 s at scale 0.02), far more than any change
under test, and would need a fresh multi-minute reference per seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.query import MatchQuery
from repro.graph.datasets import load_dataset
from repro.graph.digraph import digraph_from_edges
from repro.graph.labeled import LabeledGraph, assign_random_labels
from repro.graph.orientation import apply_order
from repro.pattern.catalog import get_pattern, paper_patterns
from repro.pattern.directed import get_directed_pattern
from repro.pattern.isomorphism import connected_patterns
from repro.pattern.labeled import LabeledPattern

#: structure seed of every proxy graph, label assignment and orientation.
BASE_SEED = 2020


@dataclass(frozen=True)
class Op:
    """One closed-loop request: a count, an enumeration or a batch count.

    ``session`` names the input graph whose session serves the request;
    ``qid`` keys the reference the result is checked against (one per
    query of a batch: ``f"{qid}#{i}"``).
    """

    kind: str
    qid: str
    session: str
    queries: tuple[MatchQuery, ...]
    limit: int | None = None


@dataclass
class Inputs:
    """The generated inputs of one workload, keyed by session name."""

    graphs: dict[str, Any] = field(default_factory=dict)
    provenance: list[dict] = field(default_factory=list)
    digest: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    #: (session name, dataset, scale, tiny scale, kinds) per proxy graph;
    #: kinds is a subset of ("plain", "labeled", "directed").
    graphs: tuple[tuple[str, str, float, float, tuple[str, ...]], ...]
    ops: Callable[[], list[Op]]
    #: plan every query during set-up (a pass is then warm execution only);
    #: otherwise every pass starts fresh sessions and pays planning.
    plan_in_setup: bool


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------
def _relabel(graph, rng):
    """``graph`` under a random vertex permutation; ``order[new] = old``."""
    order = rng.permutation(graph.n_vertices)
    relabeled, perm = apply_order(graph, order, name=graph.name)
    return relabeled, order, perm


def make_inputs(workload: Workload, seed: int | None, *, tiny: bool = False) -> Inputs:
    """Generate the workload's graphs; ``seed=None`` keeps the base ids.

    The digest covers the base (pre-relabeling) inputs only, so it names
    the reference counts, which every seed shares.
    """
    inputs = Inputs()
    h = hashlib.sha256()
    for index, (key, dataset, scale, tiny_scale, kinds) in enumerate(workload.graphs):
        scale = tiny_scale if tiny else scale
        base = load_dataset(dataset, scale=scale, seed=BASE_SEED)
        graph, order, perm = base, None, None
        if seed is not None:
            graph, order, perm = _relabel(base, np.random.default_rng([seed, index]))
        h.update(base.indptr.tobytes())
        h.update(base.indices.tobytes())
        if "plain" in kinds:
            inputs.graphs[f"{key}/plain"] = graph
        if "labeled" in kinds:
            labels = assign_random_labels(base, 3, seed=BASE_SEED).labels
            h.update(labels.tobytes())
            if order is not None:
                labels = labels[order]
            inputs.graphs[f"{key}/labeled"] = LabeledGraph(graph, labels)
        if "directed" in kinds:
            edges = np.array(list(base.edges()), dtype=np.int64).reshape(-1, 2)
            coin = np.random.default_rng(BASE_SEED).random(len(edges)) < 0.5
            arcs = np.where(coin[:, None], edges, edges[:, ::-1])
            h.update(arcs.tobytes())
            if perm is not None:
                arcs = perm[arcs]
            inputs.graphs[f"{key}/directed"] = digraph_from_edges(
                arcs, n_vertices=graph.n_vertices, name=f"{dataset}-directed"
            )
        inputs.provenance.append(
            {
                "name": dataset,
                "scale": scale,
                "vertices": graph.n_vertices,
                "edges": graph.n_edges,
                "structure_seed": BASE_SEED,
                "relabel_seed": seed,
            }
        )
    inputs.digest = h.hexdigest()
    return inputs


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------
def _fig8_ops() -> list[Op]:
    return [
        Op("count", f"P/{name}", "g/plain", (MatchQuery(p, backend="vectorised"),))
        for name, p in paper_patterns().items()
    ]


def _census_ops() -> list[Op]:
    motifs = connected_patterns(4) + connected_patterns(5)
    ops = [
        Op("count", f"motif/{p.name}", "g/plain", (MatchQuery(p, backend="vectorised"),))
        for p in motifs
    ]
    return ops + _fig8_ops()


#: labeled patterns of modes-mix (3 vertex labels drawn from BASE_SEED).
_LABELED = [
    ("pentagon", (0, 1, 2, 0, 1)),
    ("cycle-5", (0, 0, 1, 1, 2)),
    ("P5", (0, 1, 2, 0, 1, 2)),
    ("path-6", (0, 1, 2, 0, 1, 2)),
    ("star-4", (0, 1, 1, 2, 2)),
]
_DIRECTED = ["bifan", "dpath-4", "outstar-3", "dcycle-4", "dcycle-5", "dpath-5", "outstar-4"]
#: the two orientations of the triangle: one skeleton, so count_many
#: serves them through skeleton-sharing reduction.
_TRIANGLE_ORIENTATIONS = ["ffl", "dcycle-3"]
_ENUM_LIMIT = 20000


def _modes_ops() -> list[Op]:
    ops: list[Op] = []
    for half, backend in (("default", None), ("vectorised", "vectorised")):
        for name, labels in _LABELED:
            q = MatchQuery(LabeledPattern(get_pattern(name), labels), backend=backend)
            ops.append(Op("count", f"{half}/labeled/{name}", f"{half}/labeled", (q,)))
        for p in connected_patterns(4):
            q = MatchQuery(p, semantics="induced", backend=backend)
            ops.append(Op("count", f"{half}/induced/{p.name}", f"{half}/plain", (q,)))
        for name in _DIRECTED:
            q = MatchQuery(get_directed_pattern(name), backend=backend)
            ops.append(Op("count", f"{half}/directed/{name}", f"{half}/directed", (q,)))
        q = MatchQuery(get_pattern("house"), backend=backend)
        ops.append(Op("enumerate", f"{half}/enum/house", f"{half}/plain", (q,), _ENUM_LIMIT))
        batch = tuple(
            MatchQuery(get_directed_pattern(n), backend=backend) for n in _TRIANGLE_ORIENTATIONS
        )
        ops.append(Op("count_many", f"{half}/reduce/triangle", f"{half}/directed", batch))
    return ops


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fig8-twitter",
            graphs=(("g", "twitter", 0.02, 0.0128, ("plain",)),),
            ops=_fig8_ops,
            plan_in_setup=True,
        ),
        Workload(
            name="census-cold",
            graphs=(("g", "patents", 0.06, 0.0107, ("plain",)),),
            ops=_census_ops,
            plan_in_setup=False,
        ),
        Workload(
            name="modes-mix",
            graphs=(
                ("default", "wiki-vote", 0.06, 0.0534, ("plain", "labeled", "directed")),
                ("vectorised", "mico", 0.17, 0.032, ("plain", "labeled", "directed")),
            ),
            ops=_modes_ops,
            plan_in_setup=False,
        ),
    )
}
