"""Synthetic directed-hypergraph benchmarks with planted class structure.

Vertices split into equal classes; each class receives undirected
intra-class hyperedges, and every ordered class pair ``(i, j)`` with
``i < j`` receives directed hyperedges whose tails come from class ``i``
and heads from class ``j``.  Direction is therefore the only signal that
separates the class ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .hypergraph import (
    DirectedHypergraph,
    Hyperedge,
    _check_integer_fields,
    incidence_counts,
    read_features,
    read_hypergraph,
    read_labels,
    read_splits,
    validate,
    write_features,
    write_hypergraph,
    write_labels,
    write_splits,
)

__all__ = [
    "SyntheticConfig",
    "LabeledDataset",
    "generate_synthetic",
    "degree_features",
    "split",
    "write_dataset",
    "read_dataset",
    "DATASET_SUFFIXES",
]

DATASET_SUFFIXES = {
    "hypergraph": ".hg",
    "features": ".features",
    "labels": ".labels",
    "splits": ".splits",
}


@dataclass(frozen=True)
class SyntheticConfig:
    n: int = 500
    classes: int = 5
    h_min: int = 3
    h_max: int = 10
    intra_per_class: int = 30
    inter_per_pair: int = 30
    seed: int = 0

    def __post_init__(self):
        _check_integer_fields(self)
        if self.classes < 2 or self.n % self.classes != 0:
            raise ValueError("the class count must be >= 2 and divide n")
        class_size = self.n // self.classes
        if not (2 <= self.h_min <= self.h_max <= class_size):
            raise ValueError(
                f"need 2 <= h_min <= h_max <= n/classes, got "
                f"[{self.h_min}, {self.h_max}] with class size {class_size}"
            )


@dataclass
class LabeledDataset:
    hypergraph: DirectedHypergraph
    features: np.ndarray
    labels: np.ndarray
    masks: tuple[np.ndarray, np.ndarray, np.ndarray]

    def validate(self) -> None:
        validate(self.hypergraph)
        n = self.hypergraph.num_vertices
        if self.features.shape[0] != n or self.labels.shape != (n,):
            raise ValueError("feature/label shapes do not match the vertex count")
        train, val, test = self.masks
        stacked = train.astype(int) + val.astype(int) + test.astype(int)
        if not np.all(stacked == 1):
            raise ValueError("masks must be disjoint and cover every vertex")


def degree_features(H: DirectedHypergraph) -> np.ndarray:
    """One structural feature per vertex: its unit-weight incidence count."""
    return incidence_counts(H).astype(float)[:, None]


def split(
    n: int,
    proportions: tuple[float, ...] = (0.5, 0.25, 0.25),
    seed: int = 0,
) -> tuple[np.ndarray, ...]:
    """Random disjoint masks; sizes are floored with remainders going to the
    earlier sets (train first)."""
    if abs(sum(proportions) - 1.0) > 1e-12:
        raise ValueError("proportions must sum to 1")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    sizes = [int(np.floor(p * n)) for p in proportions]
    shortfall = n - sum(sizes)
    for i in range(shortfall):
        sizes[i % len(sizes)] += 1
    masks = []
    start = 0
    for size in sizes:
        mask = np.zeros(n, dtype=bool)
        mask[perm[start : start + size]] = True
        masks.append(mask)
        start += size
    return tuple(masks)


def generate_synthetic(cfg: SyntheticConfig) -> LabeledDataset:
    """Deterministically sample the planted-direction benchmark.

    Draw order is fixed (classes ascending, then class pairs in
    lexicographic order), so a config and seed pin the dataset bit for bit.
    Hyperedge part sizes are uniform on ``[h_min, h_max]`` and members are
    sampled without replacement within their class.
    """
    rng = np.random.default_rng(cfg.seed)
    class_size = cfg.n // cfg.classes
    class_vertices = [
        np.arange(i * class_size, (i + 1) * class_size) for i in range(cfg.classes)
    ]
    edges: list[Hyperedge] = []
    for i in range(cfg.classes):
        for _ in range(cfg.intra_per_class):
            size = int(rng.integers(cfg.h_min, cfg.h_max + 1))
            members = rng.choice(class_vertices[i], size=size, replace=False)
            edges.append(Hyperedge(tuple(int(v) for v in members)))
    for i in range(cfg.classes):
        for j in range(i + 1, cfg.classes):
            for _ in range(cfg.inter_per_pair):
                t_size = int(rng.integers(cfg.h_min, cfg.h_max + 1))
                h_size = int(rng.integers(cfg.h_min, cfg.h_max + 1))
                tail = rng.choice(class_vertices[i], size=t_size, replace=False)
                head = rng.choice(class_vertices[j], size=h_size, replace=False)
                edges.append(
                    Hyperedge(tuple(int(v) for v in tail), tuple(int(v) for v in head))
                )
    H = DirectedHypergraph(cfg.n, tuple(edges))
    validate(H)
    labels = np.repeat(np.arange(cfg.classes), class_size)
    dataset = LabeledDataset(
        hypergraph=H,
        features=degree_features(H),
        labels=labels,
        masks=split(cfg.n, seed=cfg.seed),
    )
    dataset.validate()
    return dataset


def write_dataset(dataset: LabeledDataset, prefix: str | Path) -> dict[str, Path]:
    """Write the four dataset files next to ``prefix``; returns their paths."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    paths = {k: prefix.with_name(prefix.name + s) for k, s in DATASET_SUFFIXES.items()}
    write_hypergraph(dataset.hypergraph, paths["hypergraph"])
    write_features(dataset.features, paths["features"])
    write_labels(dataset.labels, paths["labels"])
    write_splits(dataset.masks, paths["splits"])
    return paths


def read_dataset(prefix: str | Path) -> LabeledDataset:
    prefix = Path(prefix)
    paths = {k: prefix.with_name(prefix.name + s) for k, s in DATASET_SUFFIXES.items()}
    H = read_hypergraph(paths["hypergraph"])
    dataset = LabeledDataset(
        hypergraph=H,
        features=read_features(paths["features"]),
        labels=read_labels(paths["labels"], H.num_vertices),
        masks=read_splits(paths["splits"], H.num_vertices),
    )
    dataset.validate()
    return dataset
