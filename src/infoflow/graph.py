"""Causal graph assembly and serialization.

``reconstruct`` runs the full inference pipeline on a panel: fit every
target row, test every ordered pair for significance, keep the
significant pairs as directed edges, and annotate self-loop nodes.
The full flow matrix (significant or not) is retained for the JSON
output; DOT shows only the significant edges.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .estimator import DEFAULT_ALPHA, FlowMatrix, estimate_flows
from .stats import TimeSeriesPanel

SCHEMA_VERSION = 1


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
    self-influence coefficient, at the same alpha.
    """
    if panel.d < 2:
        raise ValueError("graph reconstruction needs at least two variables")
    matrix = estimate_flows(panel, k=k, alpha=alpha)
    return build_graph(matrix, panel)


_DOT_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _dot_quoted(text: str) -> str:
    """A DOT double-quoted string: backslashes doubled, then quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_id(label: str) -> str:
    if _DOT_ID.fullmatch(label):
        return label
    return _dot_quoted(label)


def to_dot(graph: CausalGraph) -> str:
    """Serialize the significant-edge graph as Graphviz DOT text.

    Edge labels carry T (3 decimals) and tau (percent, 1 decimal);
    self-loop nodes are drawn with doubled peripheries.  Output
    ordering is deterministic: nodes by index, edges by (source,
    target) index.
    """
    lines = ["digraph causal {"]
    for node in graph.nodes:
        attrs = [f"label={_dot_quoted(node.label)}"]
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


# The C encoder, which json.dumps uses only without an indent, formats the
# scalars; strings never go through it (see to_json).
_encode_scalars = json.JSONEncoder(separators=(",", ":")).encode
_quote = json.encoder.encode_basestring_ascii


def _array(items: list, indent: str) -> str:
    """JSON array text of ``items``, one per line at ``indent``, as ``indent=2`` lays it out."""
    if not items:
        return "[]"
    return f"[\n{indent}" + f",\n{indent}".join(items) + f"\n{indent[:-2]}]"


def to_json(graph: CausalGraph) -> str:
    """Serialize the full graph (metadata, nodes, flow matrix, edges).

    The text is ``json.dumps(doc, indent=2) + "\\n"`` of the document
    ``{"meta": {...}, "nodes": [...], "flow_matrix": [...], "edges": [...]}``.
    Every number, boolean and null is formatted by one call of the C
    encoder and the pieces are spliced into that layout; labels are
    quoted as ``ensure_ascii`` quotes them.
    """
    nodes, edges, rows = graph.nodes, graph.edges, graph.flow_matrix
    scalars = [len(nodes), graph.n, graph.dt, graph.k, graph.alpha, SCHEMA_VERSION]
    # node[1:] and edge[2:] are the numeric fields, in declaration order.
    for node in nodes:
        scalars += node[1:]
    for row in rows:
        scalars += row
    for edge in edges:
        scalars += edge[2:]
    # Numbers and literals hold no comma, so there is one piece per scalar.
    pieces = _encode_scalars(scalars)[1:-1].split(",")
    if len(pieces) != len(scalars):
        raise TypeError("graph values must be numbers, booleans or None")
    it = iter(pieces)
    d, n, dt, k, alpha, version = islice(it, 6)
    node_items = [
        f'{{\n      "label": {_quote(node.label)},\n      "self_influence": {a},\n'
        f'      "self_stderr": {se},\n      "is_self_loop": {loop},\n'
        f'      "noise_rate": {noise}\n    }}'
        for node, (a, se, loop, noise) in zip(nodes, zip(it, it, it, it))
    ]
    row_items = [_array(list(islice(it, len(row))), "      ") for row in rows]
    edge_items = [
        f'{{\n      "source": {_quote(edge.source)},\n      "target": {_quote(edge.target)},\n'
        f'      "T": {t},\n      "stderr": {se},\n      "p": {p},\n      "tau": {tau}\n    }}'
        for edge, (t, se, p, tau) in zip(edges, zip(it, it, it, it))
    ]
    return (
        f'{{\n  "meta": {{\n    "d": {d},\n    "N": {n},\n    "dt": {dt},\n'
        f'    "k": {k},\n    "alpha": {alpha},\n    "schema_version": {version}\n  }},\n'
        f'  "nodes": {_array(node_items, "    ")},\n'
        f'  "flow_matrix": {_array(row_items, "    ")},\n'
        f'  "edges": {_array(edge_items, "    ")}\n}}\n'
    )


def from_json(text: str) -> CausalGraph:
    """Parse ``to_json`` output back into an identical CausalGraph."""
    doc = json.loads(text)
    meta = doc["meta"]
    if meta.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {meta.get('schema_version')!r}")
    # itemgetter hands _make exact-size tuples; a length-less iterator would
    # over-allocate every record (wide-fit peak RSS +0.3 MB)
    nodes = tuple(map(GraphNode._make, map(itemgetter(*GraphNode._fields), doc["nodes"])))
    edges = tuple(map(GraphEdge._make, map(itemgetter(*GraphEdge._fields), doc["edges"])))
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
