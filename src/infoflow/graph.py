"""Causal graph assembly and serialization.

``reconstruct`` runs the full inference pipeline on a panel: fit all
target rows in one solve, test every ordered pair for significance, keep
the significant pairs as directed edges, and annotate self-loop nodes.
The full flow matrix (significant or not) is retained for the JSON
output, schema v2, which holds the nodes and edges as columns; DOT shows
only the significant edges.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .estimator import DEFAULT_ALPHA, FlowMatrix, estimate_flows
from .stats import TimeSeriesPanel

SCHEMA_VERSION = 2


# The records are named tuples rather than frozen dataclasses: building one
# costs ~0.3 us instead of ~1.4 us, and build_graph makes one per edge.
class GraphNode(NamedTuple):
    label: str
    self_influence: float
    self_stderr: float
    is_self_loop: bool
    noise_rate: float


class GraphEdge(NamedTuple):
    source: str
    target: str
    T: float
    stderr: float
    p: float
    tau: float


@dataclass(frozen=True)
class CausalGraph:
    """Directed causal graph with flow-weighted edges.

    ``edges`` holds exactly the significant ordered pairs (never
    self-pairs; self-loops are node annotations).  ``flow_matrix`` is
    the full matrix of flow rates, entry [j][i] = T[j -> i], None on
    the diagonal.
    """

    nodes: tuple
    edges: tuple
    flow_matrix: tuple
    alpha: float
    k: int
    dt: float
    n: int

    @property
    def labels(self) -> tuple:
        return tuple(node.label for node in self.nodes)


def build_graph(matrix: FlowMatrix, panel: TimeSeriesPanel) -> CausalGraph:
    """Assemble a CausalGraph from an estimated flow matrix."""
    labels = panel.labels
    nodes = tuple(map(GraphNode._make, zip(
        labels, np.diag(matrix.T).tolist(), np.diag(matrix.stderr).tolist(),
        np.diag(matrix.significant).tolist(), matrix.noise_rate.tolist())))
    src, dst = np.nonzero(matrix.significant & ~np.eye(matrix.d, dtype=bool))
    T, stderr = matrix.T[src, dst], matrix.stderr[src, dst]
    # Each edge's two-sided p; an edge has T != 0 and stderr > 0.
    p = map(math.erfc, (np.abs(T / stderr) / math.sqrt(2.0)).tolist())
    edges = tuple(map(GraphEdge._make, zip(
        map(labels.__getitem__, src.tolist()), map(labels.__getitem__, dst.tolist()),
        T.tolist(), stderr.tolist(), p, matrix.tau[src, dst].tolist())))
    rows = matrix.T.tolist()
    for i, row in enumerate(rows):
        row[i] = None
    return CausalGraph(
        nodes=nodes,
        edges=edges,
        flow_matrix=tuple(map(tuple, rows)),
        alpha=matrix.alpha,
        k=matrix.k,
        dt=panel.dt,
        n=panel.n,
    )


def reconstruct(
    panel: TimeSeriesPanel,
    alpha: float = DEFAULT_ALPHA,
    k: int = 1,
) -> CausalGraph:
    """Infer the causal graph of a panel.

    Every ordered pair (j, i) gets a flow estimate and a two-sided
    significance test at level alpha; significant pairs become edges.
    Self-loops are annotated per node from the significance of the
    self-influence coefficient, at the same alpha.  One series gives one node.
    """
    matrix = estimate_flows(panel, k=k, alpha=alpha)
    return build_graph(matrix, panel)


def _dot_quoted(text: str) -> str:
    """A DOT double-quoted string: backslashes doubled, then quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(graph: CausalGraph) -> str:
    """Serialize the significant-edge graph as Graphviz DOT text.

    Every node ID is a double-quoted string, so a label that is a DOT
    keyword (``node``, ``edge``, ``graph``, ``digraph``, ``subgraph``,
    ``strict``, in any case) names a node like any other label.
    Edge labels carry T (3 significant digits, as the ``analyze`` summary
    prints it) and tau (percent, 1 decimal);
    self-loop nodes are drawn with doubled peripheries.  Output
    ordering is deterministic: nodes by index, edges by (source,
    target) index.
    """
    lines = ["digraph causal {"]
    for node in graph.nodes:
        name = _dot_quoted(node.label)
        loop = ", peripheries=2" if node.is_self_loop else ""
        lines.append(f"  {name} [label={name}{loop}];")
    for edge in graph.edges:
        label = f"{edge.T:.3g} ({100.0 * edge.tau:.1f}%)"
        lines.append(f'  {_dot_quoted(edge.source)} -> {_dot_quoted(edge.target)} '
                     f'[label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _columns(fields: tuple, records: tuple) -> dict:
    """One list per field, keyed by field name; every column is present even with no records."""
    return dict(zip(fields, zip(*records) if records else [()] * len(fields)))


def to_json(graph: CausalGraph) -> str:
    """Serialize the full graph (metadata, nodes, flow matrix, edges).

    The text is ``json.dumps(doc, separators=(",", ":")) + "\\n"``, one
    line, of the schema v2 document ``{"meta": {...}, "nodes": {...},
    "flow_matrix": [...], "edges": {...}}``.  ``nodes`` and ``edges``
    are columnar: one list per ``GraphNode``/``GraphEdge`` field, keyed
    by field name.
    """
    doc = {
        "meta": {"d": len(graph.nodes), "N": graph.n, "dt": graph.dt, "k": graph.k,
                 "alpha": graph.alpha, "schema_version": SCHEMA_VERSION},
        "nodes": _columns(GraphNode._fields, graph.nodes),
        "flow_matrix": graph.flow_matrix,
        "edges": _columns(GraphEdge._fields, graph.edges),
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _records(record: type, columns: dict) -> tuple:
    """The records of a columnar table; columns of unequal length raise ValueError."""
    return tuple(map(record._make, zip(*map(columns.__getitem__, record._fields), strict=True)))


def from_json(text: str) -> CausalGraph:
    """Parse ``to_json`` output back into an identical CausalGraph.

    Only schema v2 is read; any other ``schema_version``, and node or
    edge columns of unequal length, raise ValueError.
    """
    doc = json.loads(text)
    meta = doc["meta"]
    if meta.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {meta.get('schema_version')!r}")
    return CausalGraph(
        nodes=_records(GraphNode, doc["nodes"]),
        edges=_records(GraphEdge, doc["edges"]),
        flow_matrix=tuple(map(tuple, doc["flow_matrix"])),
        alpha=meta["alpha"],
        k=meta["k"],
        dt=meta["dt"],
        n=meta["N"],
    )
