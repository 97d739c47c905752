"""cupi: chain-level Steenrod diagonals on ordered simplicial complexes.

Builds the cup-i coproduct structure on normalized chains, decides whether a
chain map is a morphism of that structure, enumerates all such morphisms out
of simplex chains, and verifies that they reconstruct the complex with its
degeneracies freely added.
"""

from .simplicial import (VertexMap, adjoin, build_complex,
                         core_comparison_is_iso, core_of, identity_map,
                         standard_simplex)
from .chains import (GradedMap, chain_map_from_vertex_map, homology,
                     kernel_basis, normalized_chains, unnormalized_chains)
from .steenrod import (BarElement, Mod2Cohomology, eta, higher_diagonal,
                       naturality_holds, steenrod_square_matrix,
                       structure_for, verify_structure)
from .reconstruct import (enumerate_morphisms, homology_square,
                          is_steenrod_morphism, lift_morphism,
                          verify_reconstruction, xi_iterate)

__version__ = "0.1.0"
