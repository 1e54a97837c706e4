"""Bundled datasets."""

from __future__ import annotations

from importlib import resources

from .network import WeightedAdjacency, load_edge_list

__all__ = ["lesmis_path", "load_lesmis"]


def lesmis_path():
    """Path to the bundled Les Miserables coappearance edge list.

    77 characters, 254 undirected weighted edges, integer weights, no
    self-loops. Node order follows the original dataset; names are in
    the file's comment header.
    """
    return resources.files("commscale").joinpath("data/lesmis.tsv")


def _names_from_comments(path) -> tuple[str, ...]:
    names = {}
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("# node "):
                _, _, idx, name = line.split(maxsplit=3)
                names[int(idx)] = name.strip()
    return tuple(names[i] for i in range(len(names)))


def load_lesmis() -> WeightedAdjacency:
    """The Les Miserables network with character names attached."""
    path = lesmis_path()
    with path.open("r", encoding="utf-8") as handle:
        adj = load_edge_list(handle)
    return WeightedAdjacency(adj.weights, node_names=_names_from_comments(path))
