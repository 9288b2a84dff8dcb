import json
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st_

from infoflow import (
    CausalGraph,
    GraphEdge,
    GraphNode,
    TimeSeriesPanel,
    VAR6_EDGES,
    estimate_flows,
    from_json,
    reconstruct,
    to_dot,
    to_json,
)
from infoflow.cli import main, write_csv_panel
from infoflow.graph import build_graph

from oracles import reference_doc


def reference_text(graph):
    return json.dumps(reference_doc(graph), separators=(",", ":")) + "\n"


def edge_index_set(graph):
    lab = {label: i + 1 for i, label in enumerate(graph.labels)}
    return {(lab[e.source], lab[e.target]) for e in graph.edges}


def master_slave_panel(seed=0, n=5000):
    """X drives Y one-way; Y is X plus its own AR dynamics and noise."""
    rng = np.random.default_rng(seed)
    x = np.zeros(n)
    y = np.zeros(n)
    ex = rng.standard_normal(n)
    ey = rng.standard_normal(n)
    for t in range(1, n):
        x[t] = 0.8 * x[t - 1] + ex[t]
        y[t] = 0.5 * y[t - 1] + 0.5 * x[t - 1] + ey[t]
    return TimeSeriesPanel(data=np.vstack([x, y]), labels=("X", "Y"))


class TestReconstruct:
    def test_var6_benchmark_edges(self, var6_b1_panel):
        graph = reconstruct(var6_b1_panel, alpha=0.90, k=1)
        assert edge_index_set(graph) == set(VAR6_EDGES)
        assert all(node.is_self_loop for node in graph.nodes)

    def test_master_slave_one_way(self):
        graph = reconstruct(master_slave_panel(seed=0))
        assert edge_index_set(graph) == {(1, 2)}

    def test_relabeling_invariance(self, var6_b1_panel):
        graph = reconstruct(var6_b1_panel)
        perm = [3, 0, 5, 1, 4, 2]
        permuted = TimeSeriesPanel(
            data=var6_b1_panel.data[perm],
            dt=var6_b1_panel.dt,
            labels=tuple(var6_b1_panel.labels[i] for i in perm),
        )
        graph2 = reconstruct(permuted)
        assert set((e.source, e.target) for e in graph.edges) == set(
            (e.source, e.target) for e in graph2.edges
        )
        by_label = {n.label: n for n in graph.nodes}
        for node in graph2.nodes:
            ref = by_label[node.label]
            assert node.self_influence == pytest.approx(ref.self_influence, rel=1e-9)

    def test_single_variable_gives_one_node(self):
        panel = TimeSeriesPanel(data=np.random.default_rng(0).standard_normal((1, 50)))
        graph = reconstruct(panel)
        assert graph == build_graph(estimate_flows(panel), panel)
        assert graph.labels == ("X1",) and graph.edges == ()
        assert graph.flow_matrix == ((None,),)
        assert from_json(to_json(graph)) == graph
        dot = to_dot(graph).splitlines()
        assert dot[0] == "digraph causal {" and dot[-1] == "}"
        assert len(dot) == 3 and dot[1].startswith('  "X1" [label="X1"')


def tiny_graph(edges=()):
    nodes = (
        GraphNode(label="A", self_influence=-1.0, self_stderr=0.1,
                  is_self_loop=True, noise_rate=0.5),
        GraphNode(label="B", self_influence=0.01, self_stderr=0.1,
                  is_self_loop=False, noise_rate=0.4),
    )
    flow_matrix = ((None, 0.19), (0.002, None))
    return CausalGraph(nodes=nodes, edges=tuple(edges), flow_matrix=flow_matrix,
                       alpha=0.90, k=1, dt=1.0, n=100)


class TestDot:
    def test_empty_graph_has_isolated_nodes(self):
        dot = to_dot(tiny_graph())
        assert dot.startswith("digraph")
        assert '"A" [label="A"' in dot
        assert '"B" [label="B"' in dot
        assert "->" not in dot

    def test_edge_label_format(self):
        # 3 significant digits at any scale: no 0.000, no 150-digit number
        for T, text in [(0.19, "0.19"), (1.2345e150, "1.23e+150"), (-0.00012345, "-0.000123")]:
            edge = GraphEdge(source="A", target="B", T=T, stderr=0.003, p=0.0, tau=0.132)
            dot = to_dot(tiny_graph([edge]))
            assert f'"A" -> "B" [label="{text} (13.2%)"];' in dot

    def test_self_loop_styling(self):
        dot = to_dot(tiny_graph())
        a_line = next(l for l in dot.splitlines() if l.strip().startswith('"A" '))
        b_line = next(l for l in dot.splitlines() if l.strip().startswith('"B" '))
        assert "peripheries=2" in a_line
        assert "peripheries" not in b_line

    def test_var6_line_counts(self, var6_b1_panel):
        dot = to_dot(reconstruct(var6_b1_panel))
        lines = dot.splitlines()
        assert sum("->" in l for l in lines) == 7
        assert sum("->" not in l and "label=" in l for l in lines) == 6

    def test_keyword_labels_are_quoted_ids(self, var6_b1_panel, tmp_path):
        # DOT's keywords, matched without regard to case: bare, they would
        # set defaults or break the edge statements instead of naming nodes.
        # The DOT of analyze --csv on a CSV with these labels is checked too.
        labels = ("node", "Edge", "GRAPH", "digraph", "subgraph", "strict")
        panel = TimeSeriesPanel(data=var6_b1_panel.data, labels=labels)
        graph = reconstruct(panel)
        with open(tmp_path / "p.csv", "w") as fh:
            write_csv_panel(panel, fh)
        assert main(["analyze", "--csv", str(tmp_path / "p.csv"), "--format", "dot",
                     "--out", str(tmp_path / "g.dot")]) == 0
        for dot in (to_dot(graph), (tmp_path / "g.dot").read_text()):
            body = dot.splitlines()[1:-1]
            nodes = [l for l in body if " -> " not in l]
            edges = [l for l in body if " -> " in l]
            assert len(nodes) == len(labels) and len(edges) == len(graph.edges) == 7
            for line, label in zip(nodes, labels):
                assert line.startswith(f'  "{label}" [label="{label}"')
            for line, edge in zip(edges, graph.edges):
                assert line.startswith(f'  "{edge.source}" -> "{edge.target}" [label=')

    def test_escaping_of_quotes_backslashes_and_newlines(self):
        # "rate 1" holds a space: only quoting keeps it one ID
        labels = ('q"d', "b\\", "c\n", "rate 1")
        nodes = tuple(
            GraphNode(label=label, self_influence=0.0, self_stderr=1.0,
                      is_self_loop=False, noise_rate=0.1)
            for label in labels
        )
        edge = GraphEdge(source='q"d', target="b\\", T=0.5, stderr=0.1, p=0.0, tau=0.25)
        flow_matrix = tuple(tuple(None if j == i else 0.0 for i in range(4)) for j in range(4))
        g = CausalGraph(nodes=nodes, edges=(edge,), flow_matrix=flow_matrix,
                        alpha=0.9, k=1, dt=1.0, n=10)
        assert to_dot(g) == (
            "digraph causal {\n"
            r'  "q\"d" [label="q\"d"];' "\n"
            r'  "b\\" [label="b\\"];' "\n"
            '  "c\n" [label="c\n"];\n'
            '  "rate 1" [label="rate 1"];\n'
            r'  "q\"d" -> "b\\" [label="0.5 (25.0%)"];' "\n"
            "}\n"
        )


class TestRecords:
    def test_immutable_keyword_built_values(self):
        node = GraphNode(label="A", self_influence=-1.0, self_stderr=0.1,
                         is_self_loop=True, noise_rate=0.5)
        edge = GraphEdge(source="A", target="B", T=0.19, stderr=0.003, p=0.0, tau=0.132)
        for record, field in ((node, "label"), (node, "noise_rate"), (edge, "T"),
                              (edge, "extra")):
            with pytest.raises(AttributeError):
                setattr(record, field, 1.0)
        assert node == GraphNode("A", -1.0, 0.1, True, 0.5)
        assert edge == GraphEdge("A", "B", 0.19, 0.003, 0.0, 0.132)
        assert node != GraphNode("A", -1.0, 0.1, True, 0.6)
        assert hash(edge) == hash(GraphEdge("A", "B", 0.19, 0.003, 0.0, 0.132))
        assert (node.label, edge.source, edge.tau) == ("A", "A", 0.132)


# Labels with JSON escapes, commas and non-ASCII text; values of every
# scalar type the artifact carries, with the floats JSON spells specially.
label_text = (st_.text(st_.sampled_from('ab,"\\ \n\t\x00\x1f\x7fé€😀'), max_size=6)
              | st_.text(max_size=4))
SPECIAL_FLOATS = (float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 2.2e-308, 1e300)


@st_.composite
def causal_graphs(draw):
    value = st_.floats() | st_.sampled_from(SPECIAL_FLOATS) | st_.integers() | st_.booleans()
    d = draw(st_.integers(0, 6))
    labels = draw(st_.lists(label_text, min_size=d, max_size=d))
    nodes = tuple(GraphNode(label, *draw(st_.tuples(value, value, value, value)))
                  for label in labels)
    flow_matrix = tuple(tuple(None if j == i else draw(value) for i in range(d))
                        for j in range(d))
    pairs = [(j, i) for j in range(d) for i in range(d) if j != i]
    kind = draw(st_.sampled_from(("empty", "full", "some")))
    if kind == "some":
        pairs = [p for p in pairs if draw(st_.booleans())]
    elif kind == "empty":
        pairs = []
    edges = tuple(GraphEdge(labels[j], labels[i], *draw(st_.tuples(value, value, value, value)))
                  for j, i in pairs)
    return CausalGraph(nodes=nodes, edges=edges, flow_matrix=flow_matrix,
                       alpha=draw(value), k=draw(st_.integers()), dt=draw(value),
                       n=draw(st_.integers(0)))


class TestJson:
    def test_round_trip_identity(self, var6_b1_panel):
        graph = reconstruct(var6_b1_panel)
        assert to_json(graph) == reference_text(graph)
        assert from_json(to_json(graph)) == graph

    def test_metadata_recorded(self, var6_b1_panel):
        doc = json.loads(to_json(reconstruct(var6_b1_panel, alpha=0.90, k=1)))
        assert doc["meta"]["alpha"] == 0.90
        assert doc["meta"]["k"] == 1
        assert doc["meta"]["d"] == 6
        assert doc["meta"]["schema_version"] == 2
        assert len(doc["edges"]["T"]) == 7
        assert len(doc["flow_matrix"]) == 6
        assert all(row[i] is None for i, row in enumerate(doc["flow_matrix"]))

    def test_exact_text(self):
        edge = GraphEdge(source="A", target="B", T=0.19, stderr=0.003, p=0.0, tau=0.132)
        assert to_json(tiny_graph([edge])) == (
            '{"meta":{"d":2,"N":100,"dt":1.0,"k":1,"alpha":0.9,"schema_version":2},'
            '"nodes":{"label":["A","B"],"self_influence":[-1.0,0.01],'
            '"self_stderr":[0.1,0.1],"is_self_loop":[true,false],"noise_rate":[0.5,0.4]},'
            '"flow_matrix":[[null,0.19],[0.002,null]],'
            '"edges":{"source":["A"],"target":["B"],"T":[0.19],"stderr":[0.003],'
            '"p":[0.0],"tau":[0.132]}}\n'
        )

    def test_edges_match_significance(self, var6_b1_panel):
        from infoflow import estimate_flows
        from infoflow.graph import build_graph

        matrix = estimate_flows(var6_b1_panel)
        graph = build_graph(matrix, var6_b1_panel)
        labels = var6_b1_panel.labels
        in_graph = {(e.source, e.target) for e in graph.edges}
        for j in range(6):
            for i in range(6):
                expected = matrix.significant[j, i] and j != i
                assert ((labels[j], labels[i]) in in_graph) == expected
        # the node fields are the diagonals, bit for bit
        _, a, se, loop, noise = zip(*graph.nodes)
        assert np.array_equal(a, np.diag(matrix.T))
        assert np.array_equal(se, np.diag(matrix.stderr))
        assert np.array_equal(loop, np.diag(matrix.significant))
        assert np.array_equal(noise, matrix.noise_rate)

    @pytest.mark.parametrize("dt,alpha,k", [
        (np.float32(0.5), 0.9, 1),
        (np.int64(2), 0.9, 1),
        (1.0, np.float32(0.9), 1),
        (1.0, 0.9, np.int64(2)),
    ], ids=["dt-float32", "dt-int64", "alpha-float32", "k-int64"])
    def test_numpy_scalars_reach_meta_as_python_numbers(self, dt, alpha, k):
        from infoflow.simgen import preset_panel

        base, _ = preset_panel("var6-b100-short")
        graph = reconstruct(TimeSeriesPanel(data=base.data, dt=dt), alpha=alpha, k=k)
        assert (type(graph.dt), type(graph.alpha), type(graph.k)) == (float, float, int)
        assert (graph.dt, graph.alpha, graph.k) == (float(dt), float(alpha), int(k))
        assert from_json(to_json(graph)) == graph

    @given(causal_graphs())
    @example(CausalGraph(nodes=(), edges=(), flow_matrix=(), alpha=0.9, k=1, dt=1.0, n=0))
    @example(tiny_graph())
    @example(CausalGraph(nodes=(GraphNode("A", float("nan"), float("inf"), True, -float("inf")),),
                         edges=(), flow_matrix=((None,),), alpha=0.9, k=1, dt=1.0, n=10))
    @settings(max_examples=150, deadline=None)
    def test_round_trip_identity_of_any_finite_graph(self, graph):
        text = to_json(graph)
        assert text == reference_text(graph)
        assert to_json(from_json(text)) == text
        # NaN equals nothing, so only a graph without one can compare equal
        values = [*chain(*graph.nodes, *graph.edges, *graph.flow_matrix), graph.alpha, graph.dt]
        if all(v == v for v in values):
            assert from_json(text) == graph

    def test_string_value_round_trips(self):
        node = GraphNode("A", "1,2", 0.1, True, 0.5)
        graph = CausalGraph(nodes=(node,), edges=(), flow_matrix=((None,),),
                            alpha=0.9, k=1, dt=1.0, n=10)
        assert from_json(to_json(graph)) == graph

    @pytest.mark.parametrize("version", [99, 1])
    def test_unsupported_schema_version(self, version):
        text = to_json(tiny_graph()).replace('"schema_version":2', f'"schema_version":{version}')
        with pytest.raises(ValueError, match=f"schema_version {version}"):
            from_json(text)

    @pytest.mark.parametrize("table,column", [("nodes", "noise_rate"), ("edges", "tau")])
    def test_ragged_columns_rejected(self, table, column):
        edge = GraphEdge(source="A", target="B", T=0.19, stderr=0.003, p=0.0, tau=0.132)
        doc = json.loads(to_json(tiny_graph([edge])))
        doc[table][column].pop()
        with pytest.raises(ValueError, match="shorter"):
            from_json(json.dumps(doc))
