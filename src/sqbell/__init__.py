"""Tunable two-mode non-Gaussian entangled resources and their
Braunstein-Kimble-Vaidman teleportation fidelity.

Every number has one production path.  Gaussian sources and linear optics
live in :mod:`sqbell.symplectic`; the batched array kernel of
:mod:`sqbell.kernel` gives the scheme's heralding probability, fidelity and
heralded characteristic function, and the closed-form characteristic
function and fidelity of the analytic reference families, which are all
squeezed Bell states.  Detector conditioning is :mod:`sqbell.conditioning`,
resource-state factories :mod:`sqbell.resources`, the fidelity functional
and its cubature cross-check :mod:`sqbell.teleport`, optimization and sweeps
:mod:`sqbell.optimize`, and a truncated-Fock brute-force oracle
:mod:`sqbell.fock_sim`.  The polynomial-Gaussian algebra of
:mod:`sqbell.gauss_poly` is no longer a production path; the tests build
their reference conditioning and fidelity from it.
"""

__version__ = "0.1.0"

from .conditioning import ConditionedState, DetectorKernel, condition
from .optimize import OptResult, SweepSpec, optimize_delta, optimize_s, optimize_s_many, sweep
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
    beam_splitter_substitute,
    loss_channel,
    scheme_four_mode_char,
    two_mode_squeezed_char,
    vacuum_char,
)
from .teleport import FidelityResult, fidelity, fidelity_alpha_explicit, twin_beam_fidelity

__all__ = [
    "__version__",
    "ConditionedState", "DetectorKernel", "FidelityResult", "GaussianChar",
    "OptResult", "ResourceState", "SchemeConfig", "SqueezeParam", "SweepSpec",
    "beam_splitter_substitute", "condition", "delta_equivalent",
    "effective_squeezing", "fidelity", "fidelity_alpha_explicit",
    "loss_channel", "optimize_delta", "optimize_s", "optimize_s_many",
    "scheme_four_mode_char",
    "scheme_state", "sweep", "theoretical_state", "twin_beam_fidelity",
    "two_mode_squeezed_char", "vacuum_char",
]
