"""Tunable two-mode non-Gaussian entangled resources and their
Braunstein-Kimble-Vaidman teleportation fidelity.

The package is organized around one representation: every characteristic
function is a finite sum of polynomial-times-Gaussian terms
(:mod:`sqbell.gauss_poly`).  Gaussian sources and linear optics live in
:mod:`sqbell.symplectic`, detector conditioning in :mod:`sqbell.conditioning`,
resource-state factories in :mod:`sqbell.resources`, the fidelity functional
in :mod:`sqbell.teleport`, optimization and sweeps in :mod:`sqbell.optimize`,
and a truncated-Fock brute-force oracle in :mod:`sqbell.fock_sim`.  The
scheme's heralding probability and fidelity, which optimization, sweeps and
datasets need in bulk, come from the batched determinant kernel of
:mod:`sqbell.kernel`, which the polynomial-Gaussian path cross-checks.  The
analytic reference families are all squeezed Bell states, built from one
written-out polynomial; their fidelity is the closed form
:func:`sqbell.kernel.squeezed_bell_fidelity`.
"""

__version__ = "0.1.0"

from .conditioning import ConditionedState, DetectorKernel, condition, success_probability
from .gauss_poly import (
    GaussPolyTerm,
    PolyGaussFunction,
    Polynomial,
    evaluate,
    evaluate_at_betas,
    integrate_out,
    integrate_real,
    multiply,
    substitute,
)
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
    ChannelParam,
    GaussianChar,
    SqueezeParam,
    beam_splitter_substitute,
    loss_channel,
    scheme_four_mode_char,
    thermal_char,
    two_mode_squeezed_char,
    vacuum_char,
)
from .teleport import FidelityResult, fidelity, fidelity_alpha_explicit, twin_beam_fidelity

__all__ = [
    "__version__",
    "ChannelParam", "ConditionedState", "DetectorKernel", "FidelityResult",
    "GaussPolyTerm", "GaussianChar", "OptResult", "PolyGaussFunction",
    "Polynomial", "ResourceState", "SchemeConfig", "SqueezeParam", "SweepSpec",
    "beam_splitter_substitute", "condition", "delta_equivalent",
    "effective_squeezing", "evaluate", "evaluate_at_betas", "fidelity",
    "fidelity_alpha_explicit", "integrate_out", "integrate_real",
    "loss_channel", "multiply", "optimize_delta", "optimize_s",
    "scheme_four_mode_char", "scheme_state", "substitute",
    "success_probability", "sweep", "theoretical_state", "thermal_char",
    "twin_beam_fidelity", "two_mode_squeezed_char", "vacuum_char",
]
