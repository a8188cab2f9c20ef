"""Chow-Liu trees: optimal tree-shaped Bayesian networks (paper §2).

The Chow-Liu algorithm builds a maximum spanning tree over the pairwise
mutual-information graph of the attributes; LMFAO supplies all the MI
values from one aggregate batch.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .mutual_information import pairwise_mutual_information


def chow_liu_tree(
    engine, attrs: Sequence[str]
) -> Tuple[List[Tuple[str, str]], Dict[Tuple[str, str], float]]:
    """Learn the Chow-Liu tree structure over the given attributes.

    Returns ``(edges, mi)`` where ``edges`` is the list of tree edges
    (each a sorted attribute pair) and ``mi`` the full pairwise
    mutual-information table used to build it.  Needs networkx, which
    is imported here so ``repro.ml`` imports without it.
    """
    import networkx as nx

    attrs = list(attrs)
    if len(attrs) < 2:
        raise ValueError("a Chow-Liu tree needs at least two attributes")
    mi = pairwise_mutual_information(engine, attrs)
    graph = nx.Graph()
    graph.add_nodes_from(attrs)
    for (a, b), weight in mi.items():
        graph.add_edge(a, b, weight=weight)
    spanning = nx.maximum_spanning_tree(graph, weight="weight")
    edges = sorted(tuple(sorted(edge)) for edge in spanning.edges())
    return edges, mi
