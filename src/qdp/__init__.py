"""qdp: exact-arithmetic engine for deformation Hopf algebras.

Presentations over truncated power series in h with exact rational
coefficients; the two generator-rescaling functors and their round
trips; semiclassical limits and dual Lie bialgebras; seeded Hopf
pairings with an orthogonality-based membership oracle.
"""

from .series import HSeries, div_h
from .freealg import Element, Monomial, TensorElement
from .hopf import (POLY, SERIES, Presentation, antipode, check_diamond,
                   check_hopf_axioms, coproduct, counit, delta_E, delta_n,
                   big_delta_E, element_exp, iterated_coproduct, multiply,
                   normal_form)
from .drinfeld import (GaugeMap, MembershipCertificate, PRIME_THEN_VEE,
                       VEE_THEN_PRIME, gauge_preservation_check,
                       prime_membership, prime_presentation, roundtrip_check,
                       vee_presentation)
from .classical import (LieBialgebra, dual_lie_bialgebra,
                        extract_lie_bialgebra, extract_poisson_structure,
                        lie_bialgebra_equal, validate_lie_bialgebra)
from .pairing import (PairingSeed, orthogonal_membership, pair,
                      pairing_axioms_check)
from .bundles import BUILTIN_NAMES, ExampleBundle, builtin, bundle_selfcheck

__version__ = "0.1.0"
