"""cupi: chain-level Steenrod diagonals on ordered simplicial complexes.

Builds the cup-i coproduct structure on normalized chains, decides whether a
chain map is a morphism of that structure, enumerates all such morphisms out
of simplex chains, and verifies that they reconstruct the complex with its
degeneracies freely added.
"""

from .simplicial import (DeltaComplex, OrderedComplex, SimplicialSetDF,
                         VertexMap, adjoin, build_complex, core_of, counit,
                         forget, simplicial_maps, standard_simplex, unit)
from .chains import (Chain, ChainMap, FreeChainComplex, GradedMap,
                     TensorChain, chain_map_from_vertex_map, hom_differential,
                     homology, koszul_tensor, normalized_chains,
                     tensor_complex, unnormalized_chains)
from .steenrod import (BarElement, SteenrodStructure, aw_diagonal,
                       bar_boundary, eta, higher_diagonal, steenrod_squares,
                       structure_for, verify_structure)
from .reconstruct import (MorphismVerdict, XiImage, adjoint_alpha,
                          enumerate_morphisms, homology_square,
                          is_steenrod_morphism, lift_morphism, s_functor,
                          verify_reconstruction, xi_iterate)

__version__ = "0.1.0"
