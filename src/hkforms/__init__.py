"""Numerical verification library for L^2 harmonic forms on hyperkahler spaces.

Subpackages and modules:

* exterior        -- quaternionic Lefschetz algebra on Lambda^*(R^{4k})
* gibbons_hawking -- Taub-NUT metric, its harmonic 2-form and L^2 norms
* bianchi         -- cohomogeneity-one metrics and L^2 integrability verdicts
* quotient        -- finite-dimensional hyperkahler quotients of flat T*C^n
* nahm            -- Nahm flows in u(2) coefficients, symplectic pairings, rotation identities
* cli             -- batch verification driver emitting JSON/CSV reports
"""

__version__ = "0.1.0"
