import numpy as np
import pytest

from infoflow import (
    CausalGraph,
    GraphEdge,
    GraphNode,
    TimeSeriesPanel,
    VAR6_EDGES,
    from_json,
    reconstruct,
    to_dot,
    to_json,
)


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

    def test_no_self_edges_ever(self, var6_b1_panel):
        graph = reconstruct(var6_b1_panel)
        assert all(e.source != e.target for e in graph.edges)

    def test_white_noise_edge_count_near_alpha_complement(self):
        # independent series: expect (1 - alpha) * d * (d - 1) edges on average
        d, n, trials = 3, 400, 120
        counts = []
        for seed in range(trials):
            rng = np.random.default_rng(9000 + seed)
            panel = TimeSeriesPanel(data=rng.standard_normal((d, n)))
            counts.append(len(reconstruct(panel, alpha=0.90).edges))
        pairs = trials * d * (d - 1)
        rate = sum(counts) / pairs
        assert abs(rate - 0.10) < 3.0 * np.sqrt(0.1 * 0.9 / pairs)

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

    def test_single_variable_rejected(self):
        panel = TimeSeriesPanel(data=np.random.default_rng(0).standard_normal((1, 50)))
        with pytest.raises(ValueError, match="two variables"):
            reconstruct(panel)


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
        assert 'A [label="A"' in dot
        assert 'B [label="B"' in dot
        assert "->" not in dot

    def test_edge_label_format(self):
        edge = GraphEdge(source="A", target="B", T=0.19, stderr=0.003,
                         p=0.0, tau=0.132)
        dot = to_dot(tiny_graph([edge]))
        assert 'A -> B [label="0.190 (13.2%)"];' in dot

    def test_self_loop_styling(self):
        dot = to_dot(tiny_graph())
        a_line = next(l for l in dot.splitlines() if l.strip().startswith("A "))
        b_line = next(l for l in dot.splitlines() if l.strip().startswith("B "))
        assert "peripheries=2" in a_line
        assert "peripheries" not in b_line

    def test_var6_line_counts(self, var6_b1_panel):
        dot = to_dot(reconstruct(var6_b1_panel))
        lines = dot.splitlines()
        assert sum("->" in l for l in lines) == 7
        assert sum("->" not in l and "label=" in l for l in lines) == 6

    def test_quoting_of_awkward_labels(self):
        nodes = (
            GraphNode(label="rate 1", self_influence=0.0, self_stderr=1.0,
                      is_self_loop=False, noise_rate=0.1),
            GraphNode(label="B", self_influence=0.0, self_stderr=1.0,
                      is_self_loop=False, noise_rate=0.1),
        )
        g = CausalGraph(nodes=nodes, edges=(), flow_matrix=((None, 0.0), (0.0, None)),
                        alpha=0.9, k=1, dt=1.0, n=10)
        assert '"rate 1"' in to_dot(g)


class TestJson:
    def test_round_trip_identity(self, var6_b1_panel):
        graph = reconstruct(var6_b1_panel)
        assert from_json(to_json(graph)) == graph

    def test_metadata_recorded(self, var6_b1_panel):
        import json

        doc = json.loads(to_json(reconstruct(var6_b1_panel, alpha=0.90, k=1)))
        assert doc["meta"]["alpha"] == 0.90
        assert doc["meta"]["k"] == 1
        assert doc["meta"]["d"] == 6
        assert doc["meta"]["schema_version"] == 1
        assert len(doc["edges"]) == 7
        assert len(doc["flow_matrix"]) == 6
        assert all(row[i] is None for i, row in enumerate(doc["flow_matrix"]))

    def test_edges_match_significance(self, var6_b1_panel):
        from infoflow import estimate_flows
        from infoflow.graph import build_graph

        matrix = estimate_flows(var6_b1_panel)
        graph = build_graph(matrix, var6_b1_panel)
        labels = var6_b1_panel.labels
        in_graph = {(e.source, e.target) for e in graph.edges}
        for j in range(6):
            for i in range(6):
                if j == i:
                    continue
                expected = matrix.significant[j, i]
                assert ((labels[j], labels[i]) in in_graph) == expected

    def test_unsupported_schema_version(self):
        text = to_json(tiny_graph()).replace('"schema_version": 1', '"schema_version": 99')
        with pytest.raises(ValueError, match="schema_version"):
            from_json(text)


class TestDeterminism:
    def test_identical_inputs_identical_bytes(self, var6_b1_panel):
        g1 = reconstruct(var6_b1_panel)
        g2 = reconstruct(var6_b1_panel)
        assert to_json(g1) == to_json(g2)
        assert to_dot(g1) == to_dot(g2)
