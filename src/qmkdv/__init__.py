"""Pseudo-spectral simulation and verification laboratory for a quasilinear
modified KdV equation

    phi_t + phi_xxx + d_x(phi^3) + d_x( c(phi) d_x( c(phi) d_x phi ) ) = 0

on a large periodic box used as a whole-line surrogate.  The package provides
the spectral discretization (`spectral_core`), dyadic frequency tools and
multiplier norms (`littlewood_paley`), the model's nonlinearity, interaction
symbols and conserved quantities (`model`), an adaptive integrating-factor
RK4 integrator (`integrator`), long-time decay/scattering diagnostics
(`diagnostics`), stationary-phase studies (`oscillatory`), checks of the
algebraic identities behind the resonance analysis (`identities`), and a
batch CLI (`cli`, installed as ``qmkdv``).
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
