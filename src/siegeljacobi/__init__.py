"""Reduction theory, invariant geometry and torus spectral theory on the
Siegel-Jacobi space.

Subpackages by topic: exact group elements and actions (group_core),
Minkowski reduction (minkowski), the Siegel fundamental domain (siegel),
the Jacobi fundamental domain (jacobi_domain), invariant metrics,
Laplacians and volumes (geometry), and the character basis of the torus
attached to a Siegel point (torus_spectral).  ``sjk`` is the CLI.
"""

from .group_core import (HeisenbergInt, JacobiGroupElement, JacobiPoint,
                         PosDefMatrix, SiegelPoint, SymplecticInt,
                         act_jacobi, act_siegel, jacobi_mul, symplectic_check)
from .minkowski import (ReductionCertificate, UnimodularInt,
                        is_minkowski_reduced, minkowski_reduce)
from .siegel import (CandidateSet, SiegelCertificate, builtin_candidates,
                     heuristic_candidates, highest_point_step,
                     load_candidates, siegel_membership, siegel_reduce)
from .jacobi_domain import (JacobiCertificate, OmegaBasisCoords,
                            decompose_in_omega_basis, in_F_gh, in_P_omega,
                            jacobi_membership, jacobi_reduce)
from .geometry import (VOLUME_TARGETS, laplacian_apply, metric_fiber,
                       metric_jacobi, metric_p, metric_siegel,
                       push_tangent_jacobi, push_tangent_p,
                       push_tangent_siegel, volume_f1, volume_fg_mc)
from .torus_spectral import (AbelianPoint, FourierIndex, TorusPoint,
                             eigenvalue_E, eval_E_omega, eval_E_torus,
                             inner_product, phi_omega, phi_omega_inv,
                             riemann_conditions, truncated_expansion)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
