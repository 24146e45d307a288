"""Tunable two-mode non-Gaussian entangled resources and their
Braunstein-Kimble-Vaidman teleportation fidelity.

Every number has one production path.  The batched array kernel of
:mod:`sqbell.kernel` builds the scheme's Gaussian source and gives its
heralding probability, fidelity and heralded characteristic function, and
the closed-form characteristic function and fidelity of the analytic
reference families, which are all squeezed Bell states.  Gaussian
characteristic functions, the two-mode squeezed vacuum and loss channels
are :mod:`sqbell.symplectic`, detector conditioning
:mod:`sqbell.conditioning`, resource-state factories :mod:`sqbell.resources`,
the fidelity functional and its cubature cross-check :mod:`sqbell.teleport`,
optimization and sweeps :mod:`sqbell.optimize`, and a truncated-Fock
brute-force oracle :mod:`sqbell.fock_sim`.  The polynomial-Gaussian algebra
of :mod:`sqbell.gauss_poly` is neither a production path nor a test
reference; only its own tests and the benchmark import it.
"""

__version__ = "0.1.0"

from .conditioning import ConditionedState, DetectorKernel, condition
from .optimize import OptResult, SweepSpec, optimize_delta, optimize_s, sweep
from .resources import (
    ResourceState,
    SchemeConfig,
    delta_equivalent,
    effective_squeezing,
    scheme_state,
    theoretical_state,
)
from .symplectic import (
    GaussianChar,
    SqueezeParam,
    loss_channel,
    scheme_four_mode_char,
    two_mode_squeezed_char,
)
from .teleport import FidelityResult, fidelity, fidelity_alpha_explicit, twin_beam_fidelity

__all__ = [
    "__version__",
    "ConditionedState", "DetectorKernel", "FidelityResult", "GaussianChar",
    "OptResult", "ResourceState", "SchemeConfig", "SqueezeParam", "SweepSpec",
    "condition", "delta_equivalent", "effective_squeezing", "fidelity",
    "fidelity_alpha_explicit", "loss_channel", "optimize_delta", "optimize_s",
    "scheme_four_mode_char", "scheme_state", "sweep", "theoretical_state",
    "twin_beam_fidelity", "two_mode_squeezed_char",
]
