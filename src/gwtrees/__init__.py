"""Galton-Watson trees conditioned on the number of vertices with out-degree
in a fixed set, together with the exact combinatorial machinery around them:
depth-first-queue encodings, first-passage (Otter-Dwass style) identities,
excursion block transforms, Markov branching samplers, and numerical checks
of the Brownian-tree scaling behaviour.

numpy serves the float work only (float tables, float trees, depths and the
test statistics), and the functions that do it import it themselves, so the
package and its exact paths run without loading it.
"""

__version__ = "0.1.0"

from .degree_sets import DegreeSet
from .offspring import OffspringDist, binary_dist, geometric_dist
from .trees import OrderedTree

__all__ = [
    "DegreeSet",
    "OffspringDist",
    "OrderedTree",
    "binary_dist",
    "geometric_dist",
    "__version__",
]
