"""cupi: chain-level Steenrod diagonals on ordered simplicial complexes.

Builds the cup-i coproduct structure on normalized chains, decides whether a
chain map is a morphism of that structure, enumerates all such morphisms out
of simplex chains, and verifies that they reconstruct the complex with its
degeneracies freely added.
"""
