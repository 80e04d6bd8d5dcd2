"""qdp: exact-arithmetic engine for deformation Hopf algebras.

Presentations over truncated power series in h with exact rational
coefficients; the two generator-rescaling functors and their round
trips; semiclassical limits and dual Lie bialgebras; seeded Hopf
pairings with an orthogonality-based membership oracle.
"""

__version__ = "0.1.0"
