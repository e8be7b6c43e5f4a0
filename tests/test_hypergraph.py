import pytest

from hypersheaf.hypergraph import (
    DirectedGraph,
    DirectedHypergraph,
    Hyperedge,
    from_directed_graph,
    incidence_counts,
    read_features,
    read_hypergraph,
    read_labels,
    read_splits,
    validate,
    write_hypergraph,
)


def appendix_pair():
    """Two overlapping undirected triples on four vertices."""
    return DirectedHypergraph(4, (Hyperedge((0, 1, 2)), Hyperedge((1, 2, 3))))


def test_hyperedge_normalizes_sorted_unique():
    e = Hyperedge((3, 1, 1), (2,))
    assert e.tail == (1, 3)
    assert e.head == (2,)
    assert e.degree == 3
    assert e.members == (1, 2, 3)


def test_validate_accepts_forward_directed_edge():
    H = DirectedHypergraph(4, (Hyperedge((0,), (1, 2, 3)),))
    validate(H)


def test_validate_rejects_overlapping_tail_head():
    H = DirectedHypergraph(2, (Hyperedge((0,), (0,)),))
    with pytest.raises(ValueError, match="overlap"):
        validate(H)


def test_validate_rejects_degenerate_edge():
    H = DirectedHypergraph(2, (Hyperedge((0,)),))
    with pytest.raises(ValueError, match="degree"):
        validate(H)


def test_validate_rejects_out_of_range_vertex():
    H = DirectedHypergraph(2, (Hyperedge((0, 5)),))
    with pytest.raises(ValueError, match="out of range"):
        validate(H)


def test_vertex_degree_counts_incidences_with_unit_weights():
    H = appendix_pair()
    assert incidence_counts(H).tolist() == [1, 2, 2, 1]


def test_from_directed_graph_star():
    G = DirectedGraph(4, ((0, 1), (0, 2), (0, 3)))
    H = from_directed_graph(G)
    assert H.num_hyperedges == 1
    assert H.hyperedges[0].tail == (0,)
    assert H.hyperedges[0].head == (1, 2, 3)


def test_from_directed_graph_empty_and_cycle():
    assert from_directed_graph(DirectedGraph(3, ())).num_hyperedges == 0
    cycle = from_directed_graph(DirectedGraph(3, ((0, 1), (1, 2), (2, 0))))
    assert cycle.num_hyperedges == 3
    # the transform applied arc by arc: every hyperedge has a singleton tail
    assert all(len(e.tail) == 1 for e in cycle.hyperedges)
    assert [(e.tail, e.head) for e in cycle.hyperedges] == [
        ((0,), (1,)),
        ((1,), (2,)),
        ((2,), (0,)),
    ]


def test_directed_graph_rejects_self_loops():
    with pytest.raises(ValueError, match="self-loop"):
        DirectedGraph(3, ((1, 1),))


def test_read_hypergraph_format_definition(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("4 2\ne 1 : 1 | 2 3 4\ne 1 : | 1 2\n")
    H = read_hypergraph(path)
    assert H.num_vertices == 4
    assert H.hyperedges[0] == Hyperedge((0,), (1, 2, 3))
    # an empty tail is read as an undirected edge and canonicalized to all-tail
    assert H.hyperedges[1] == Hyperedge((0, 1))
    assert H.hyperedges[1].is_undirected


def test_round_trip_preserves_structure_and_weights(tmp_path):
    H = DirectedHypergraph(
        5,
        (Hyperedge((0, 1, 2)), Hyperedge((1,), (3, 4)), Hyperedge((2, 4))),
    )
    path = tmp_path / "rt.txt"
    write_hypergraph(H, path)
    # every hyperedge is written with the unit weight
    assert path.read_text() == "5 3\ne 1 : 1 2 3 |\ne 1 : 2 | 4 5\ne 1 : 3 5 |\n"
    back = read_hypergraph(path)
    assert back == H


@pytest.mark.parametrize("weight", ["2.5", "0.5", "-1", "0", "nan"])
def test_read_rejects_non_unit_weight(tmp_path, weight):
    # the operator is defined for unit weights only, and the file is where
    # other weights could enter
    path = tmp_path / "weighted.hg"
    path.write_text(f"3 2\ne 1.0 : 1 2 |\ne {weight} : 2 | 3\n")
    with pytest.raises(ValueError, match=f"weighted.hg: hyperedge line 2 has weight {weight};"):
        read_hypergraph(path)


def test_read_rejects_out_of_range_vertex(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("4 1\ne 1 : 9 | 1\n")
    with pytest.raises(ValueError):
        read_hypergraph(path)


def test_read_rejects_malformed_line(tmp_path):
    path = tmp_path / "bad2.txt"
    path.write_text("2 1\nnot a record\n")
    with pytest.raises(ValueError, match="malformed|hyperedges"):
        read_hypergraph(path)


def test_read_rejects_wrong_edge_count(tmp_path):
    path = tmp_path / "bad3.txt"
    path.write_text("2 2\ne 1 : 1 2 |\n")
    with pytest.raises(ValueError, match="promises"):
        read_hypergraph(path)


@pytest.mark.parametrize("reader, text, match", [
    (read_hypergraph, "a 2\ne 1 : 1 2 |\ne 1 : 2 | 3\n", "header line 1 must be 'n m'"),
    (read_labels, "1 0\n\n2 1 7\n", "malformed label line 3"),
    (read_labels, "x 1\n", "malformed label line 1"),
    (read_labels, "1 0\n5 1\n", "vertex 5 out of range on line 2"),
    (read_labels, "1 -1\n2 0\n3 0\n", "negative class -1 on line 1"),
    (read_labels, "1 0\n2 1\n1 1\n3 0\n", "second label for vertex 1 on line 3"),
    (read_features, "0.5 1\n0.5 one\n", "non-numeric feature on line 2"),
    (read_splits, "1\n2 x\n3\n", "non-integer vertex on split line 2"),
    (read_splits, "1\n2\n3 0\n", "vertex 0 out of range on line 3"),
], ids=["header", "labels-width", "labels-token", "labels-range", "labels-negative",
        "labels-repeat", "features", "splits-token", "splits-range"])
def test_readers_name_the_file_and_line(tmp_path, reader, text, match):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    args = (path,) if reader in (read_hypergraph, read_features) else (path, 3)
    with pytest.raises(ValueError, match=f"^{path}: {match}"):
        reader(*args)
