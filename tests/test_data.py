import numpy as np
import pytest

from hypersheaf.data import (
    LabeledDataset,
    SyntheticConfig,
    degree_features,
    generate_synthetic,
    read_dataset,
    split,
    write_dataset,
)
from hypersheaf.hypergraph import DirectedHypergraph, Hyperedge


def test_paper_scale_hyperedge_count():
    cfg = SyntheticConfig(n=500, classes=5, h_min=3, h_max=10, intra_per_class=30, inter_per_pair=30, seed=0)
    ds = generate_synthetic(cfg)
    assert ds.hypergraph.num_hyperedges == 450


def test_zero_inter_class_is_purely_undirected():
    cfg = SyntheticConfig(n=40, classes=4, h_min=2, h_max=5, intra_per_class=3, inter_per_pair=0, seed=1)
    ds = generate_synthetic(cfg)
    assert all(e.is_undirected for e in ds.hypergraph.hyperedges)


def test_directed_edges_connect_lower_class_tails_to_higher_class_heads():
    cfg = SyntheticConfig(n=60, classes=3, h_min=2, h_max=6, intra_per_class=4, inter_per_pair=5, seed=2)
    ds = generate_synthetic(cfg)
    labels = ds.labels
    for e in ds.hypergraph.hyperedges:
        if e.is_undirected:
            assert len({labels[u] for u in e.tail}) == 1
        else:
            tail_classes = {labels[u] for u in e.tail}
            head_classes = {labels[u] for u in e.head}
            assert len(tail_classes) == 1 and len(head_classes) == 1
            assert tail_classes.pop() < head_classes.pop()


def test_part_sizes_respect_bounds():
    cfg = SyntheticConfig(n=60, classes=3, h_min=3, h_max=7, intra_per_class=5, inter_per_pair=4, seed=3)
    ds = generate_synthetic(cfg)
    for e in ds.hypergraph.hyperedges:
        if e.is_undirected:
            assert 3 <= len(e.tail) <= 7
        else:
            assert 3 <= len(e.tail) <= 7
            assert 3 <= len(e.head) <= 7
            assert 6 <= e.degree <= 14


def test_generation_is_bit_deterministic():
    cfg = SyntheticConfig(n=40, classes=2, h_min=2, h_max=5, intra_per_class=4, inter_per_pair=6, seed=4)
    a = generate_synthetic(cfg)
    b = generate_synthetic(cfg)
    assert a.hypergraph == b.hypergraph
    assert np.array_equal(a.features, b.features)
    assert all(np.array_equal(x, y) for x, y in zip(a.masks, b.masks))


def test_config_validation():
    with pytest.raises(ValueError, match="divide"):
        SyntheticConfig(n=10, classes=3)
    with pytest.raises(ValueError, match="h_min"):
        SyntheticConfig(n=10, classes=5, h_min=2, h_max=3)


@pytest.mark.parametrize(
    "field", ["n", "classes", "h_min", "h_max", "intra_per_class", "inter_per_pair", "seed"]
)
@pytest.mark.parametrize("value", [4.5, 2.0, True, "2"])
def test_config_integer_fields_reject_other_types(field, value):
    # intra_per_class=True used to build one hyperedge per class
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SyntheticConfig(**{field: value})
    default = getattr(SyntheticConfig(), field)
    assert getattr(SyntheticConfig(**{field: np.int64(default)}), field) == default


def test_degree_features_counts_incidences():
    H = DirectedHypergraph(4, (Hyperedge((0, 1, 2)), Hyperedge((1, 2, 3))))
    np.testing.assert_array_equal(degree_features(H), [[1.0], [2.0], [2.0], [1.0]])
    empty = DirectedHypergraph(3, ())
    np.testing.assert_array_equal(degree_features(empty), np.zeros((3, 1)))


def test_degree_features_invariant_to_edge_order():
    H = DirectedHypergraph(4, (Hyperedge((0, 1, 2)), Hyperedge((1,), (2, 3))))
    H_rev = DirectedHypergraph(4, tuple(reversed(H.hyperedges)))
    np.testing.assert_array_equal(degree_features(H), degree_features(H_rev))


def test_split_sizes():
    train, val, test = split(500, seed=0)
    assert (train.sum(), val.sum(), test.sum()) == (250, 125, 125)
    train, val, test = split(4, seed=1)
    assert (train.sum(), val.sum(), test.sum()) == (2, 1, 1)
    # remainders go to the earlier sets, train first
    train, val, test = split(5, seed=2)
    assert (train.sum(), val.sum(), test.sum()) == (3, 1, 1)


def test_split_deterministic_and_disjoint():
    a = split(30, seed=7)
    b = split(30, seed=7)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    coverage = sum(m.astype(int) for m in a)
    assert np.all(coverage == 1)


def test_split_rejects_bad_proportions():
    with pytest.raises(ValueError, match="sum to 1"):
        split(10, proportions=(0.5, 0.2), seed=0)


def test_dataset_round_trip(tmp_path):
    cfg = SyntheticConfig(n=20, classes=2, h_min=2, h_max=4, intra_per_class=3, inter_per_pair=4, seed=5)
    ds = generate_synthetic(cfg)
    write_dataset(ds, tmp_path / "toy")
    back = read_dataset(tmp_path / "toy")
    assert back.hypergraph == ds.hypergraph
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.labels, ds.labels)
    for x, y in zip(back.masks, ds.masks):
        assert np.array_equal(x, y)


def test_dataset_validate_rejects_overlapping_masks():
    cfg = SyntheticConfig(n=20, classes=2, h_min=2, h_max=4, intra_per_class=3, inter_per_pair=4, seed=6)
    ds = generate_synthetic(cfg)
    bad = LabeledDataset(ds.hypergraph, ds.features, ds.labels, (ds.masks[0], ds.masks[0], ds.masks[2]))
    with pytest.raises(ValueError, match="masks"):
        bad.validate()
