"""Causal graph assembly and serialization.

``reconstruct`` runs the full inference pipeline on a panel: fit every
target row, test every ordered pair for significance, keep the
significant pairs as directed edges, and annotate self-loop nodes.
The full flow matrix (significant or not) is retained for the JSON
output; DOT shows only the significant edges.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from .estimator import DEFAULT_ALPHA, FlowMatrix, estimate_flows
from .stats import TimeSeriesPanel

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class GraphNode:
    label: str
    self_influence: float
    self_stderr: float
    is_self_loop: bool
    noise_rate: float


@dataclass(frozen=True)
class GraphEdge:
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
    nodes = tuple(
        GraphNode(label=label, self_influence=a, self_stderr=se, is_self_loop=loop,
                  noise_rate=noise)
        for label, a, se, loop, noise in zip(
            labels, matrix.self.tolist(), matrix.self_stderr.tolist(),
            matrix.self_loop.tolist(), matrix.noise_rate.tolist())
    )
    src, dst = np.nonzero(matrix.significant)
    edges = tuple(
        GraphEdge(source=labels[j], target=labels[i], T=t, stderr=se, p=p, tau=tau)
        for j, i, t, se, p, tau in zip(
            src.tolist(), dst.tolist(),
            *(a[src, dst].tolist() for a in (matrix.T, matrix.stderr, matrix.p, matrix.tau)))
    )
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
    ridge: float = 0.0,
) -> CausalGraph:
    """Infer the causal graph of a panel.

    Every ordered pair (j, i) gets a flow estimate and a two-sided
    significance test at level alpha; significant pairs become edges.
    Self-loops are annotated per node from the significance of the
    self-influence coefficient, at the same alpha.
    """
    if panel.d < 2:
        raise ValueError("graph reconstruction needs at least two variables")
    matrix = estimate_flows(panel, k=k, alpha=alpha, ridge=ridge)
    return build_graph(matrix, panel)


_DOT_ID = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _dot_id(label: str) -> str:
    if _DOT_ID.match(label):
        return label
    return '"' + label.replace('"', r"\"") + '"'


def to_dot(graph: CausalGraph) -> str:
    """Serialize the significant-edge graph as Graphviz DOT text.

    Edge labels carry T (3 decimals) and tau (percent, 1 decimal);
    self-loop nodes are drawn with doubled peripheries.  Output
    ordering is deterministic: nodes by index, edges by (source,
    target) index.
    """
    lines = ["digraph causal {"]
    for node in graph.nodes:
        attrs = [f'label="{node.label}"']
        if node.is_self_loop:
            attrs.append("peripheries=2")
        lines.append(f"  {_dot_id(node.label)} [{', '.join(attrs)}];")
    for edge in graph.edges:
        label = f"{edge.T:.3f} ({100.0 * edge.tau:.1f}%)"
        lines.append(
            f'  {_dot_id(edge.source)} -> {_dot_id(edge.target)} [label="{label}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(graph: CausalGraph) -> str:
    """Serialize the full graph (metadata, nodes, flow matrix, edges)."""
    doc = {
        "meta": {
            "d": len(graph.nodes),
            "N": graph.n,
            "dt": graph.dt,
            "k": graph.k,
            "alpha": graph.alpha,
            "schema_version": SCHEMA_VERSION,
        },
        "nodes": [
            {
                "label": node.label,
                "self_influence": node.self_influence,
                "self_stderr": node.self_stderr,
                "is_self_loop": node.is_self_loop,
                "noise_rate": node.noise_rate,
            }
            for node in graph.nodes
        ],
        "flow_matrix": [list(row) for row in graph.flow_matrix],
        "edges": [
            {
                "source": edge.source,
                "target": edge.target,
                "T": edge.T,
                "stderr": edge.stderr,
                "p": edge.p,
                "tau": edge.tau,
            }
            for edge in graph.edges
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def from_json(text: str) -> CausalGraph:
    """Parse ``to_json`` output back into an identical CausalGraph."""
    doc = json.loads(text)
    meta = doc["meta"]
    if meta.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {meta.get('schema_version')!r}")
    nodes = tuple(
        GraphNode(
            label=n["label"],
            self_influence=n["self_influence"],
            self_stderr=n["self_stderr"],
            is_self_loop=n["is_self_loop"],
            noise_rate=n["noise_rate"],
        )
        for n in doc["nodes"]
    )
    edges = tuple(
        GraphEdge(
            source=e["source"],
            target=e["target"],
            T=e["T"],
            stderr=e["stderr"],
            p=e["p"],
            tau=e["tau"],
        )
        for e in doc["edges"]
    )
    flow_matrix = tuple(tuple(row) for row in doc["flow_matrix"])
    return CausalGraph(
        nodes=nodes,
        edges=edges,
        flow_matrix=flow_matrix,
        alpha=meta["alpha"],
        k=meta["k"],
        dt=meta["dt"],
        n=meta["N"],
    )
