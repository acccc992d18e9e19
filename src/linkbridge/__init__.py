"""Link prediction across overlapping graph pairs.

Pipeline: pick the training subgraph bridged by shared nodes, train a
pairwise inner-product scorer, then broadcast its predictions to the sparse
target graph with edge-centric label propagation or a distilled MLP.
"""

__version__ = "0.1.0"

from .errors import ConfigError, DataError, LinkBridgeError, NumericError
from .graph import Graph, build_graph, node_intersection, union_graph

__all__ = [
    "__version__",
    "ConfigError",
    "DataError",
    "LinkBridgeError",
    "NumericError",
    "Graph",
    "build_graph",
    "node_intersection",
    "union_graph",
]
