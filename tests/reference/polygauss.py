"""Polynomial-Gaussian reference for detector conditioning and the fidelity.

Every characteristic function here is a :mod:`sqbell.gauss_poly` sum of
polynomial-times-Gaussian terms.  Conditioning multiplies the Gaussian
four-mode source by the embedded detector kernels (an on/off kernel carries
an exact point mass) and integrates the ancillas out by Schur complements
and Wick moments; the fidelity integral is taken the same way.  The source
exponent and the squeezer and beam-splitter substitutions come from the
covariance reference, so none of it calls :mod:`sqbell.kernel`.
"""

from __future__ import annotations

import numpy as np

from sqbell import gauss_poly as gp

from . import covariance as cov

# (Re b1, Im b1, Re b2, Im b2) = (-u, v, -u, -v) for lam = u + i v
IDENTIFY = np.array([
    [-1.0, 0.0],
    [0.0, 1.0],
    [-1.0, 0.0],
    [0.0, -1.0],
])


def gaussian(S) -> gp.PolyGaussFunction:
    """exp(-1/2 v^T S v) as a one-term polynomial-Gaussian function."""
    return gp.PolyGaussFunction.gaussian(np.asarray(S, dtype=float))


def mix_modes(f: gp.PolyGaussFunction, modes: tuple[int, int],
              T: float) -> gp.PolyGaussFunction:
    """Mix two modes of a polynomial-Gaussian function by substitution."""
    return gp.substitute(f, cov.variable_map(cov.beam_splitter(T, *modes, f.n_vars // 2)))


def ideal_kernel() -> gp.PolyGaussFunction:
    """Single-photon projector kernel (1 - |b|^2) exp(-|b|^2 / 2)."""
    poly = gp.Polynomial(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0})
    term = gp.GaussPolyTerm(1.0, poly, np.eye(2), np.zeros(2, dtype=complex))
    return gp.PolyGaussFunction(2, [term])


def on_off_kernel(eta: float) -> gp.PolyGaussFunction:
    """On/off POVM kernel pi delta^2(b) - (1/eta) exp(-(2-eta)/(2 eta) |b|^2)."""
    return (gp.PolyGaussFunction.point_mass(2, 0)
            + gp.PolyGaussFunction.gaussian(((2.0 - eta) / eta) * np.eye(2),
                                            coeff=-1.0 / eta))


def magnitude(kernel: gp.PolyGaussFunction) -> gp.PolyGaussFunction:
    """The kernel with every signed piece replaced by its magnitude.

    Integrated against a positive Gaussian it gives the sum of the
    magnitudes of the signed terms that the kernel itself adds up.
    """
    terms = [gp.GaussPolyTerm(
                 abs(t.coeff),
                 gp.Polynomial(t.poly.n_vars,
                               {k: abs(c) for k, c in t.poly.coeffs.items()}),
                 t.quad, t.lin, t.deltas)
             for t in kernel.terms]
    return gp.PolyGaussFunction(kernel.n_vars, terms)


def conditioned(S, k3: gp.PolyGaussFunction,
                k4: gp.PolyGaussFunction) -> gp.PolyGaussFunction:
    """(1/pi^2) Int d^2b3 d^2b4 chi_1234 k3(b3) k4(b4), not normalized."""
    product = gp.multiply(gp.multiply(gaussian(S), gp.embed(k3, 8, 4)),
                          gp.embed(k4, 8, 6))
    return gp.integrate_out(product, {2, 3}).scaled(1.0 / np.pi ** 2)


def success_probability(S, k3: gp.PolyGaussFunction,
                        k4: gp.PolyGaussFunction) -> float:
    """The conditioning integral at the origin, over the ancilla block alone."""
    product = gp.multiply(gp.multiply(gaussian(np.asarray(S)[4:, 4:]),
                                      gp.embed(k3, 4, 0)), gp.embed(k4, 4, 2))
    return gp.integrate_out(product, {0, 1}).constant_value().real / np.pi ** 2


def fidelity(chi: gp.PolyGaussFunction) -> float:
    """(1/pi) Int d^2lam e^{-|lam|^2} chi(-conj(lam), -lam) by Wick moments."""
    integrand = gp.multiply(gp.substitute(chi, IDENTIFY),
                            gp.PolyGaussFunction.gaussian(2.0 * np.eye(2)))
    return gp.integrate_real(integrand, [0, 1]).constant_value().real / np.pi


def scheme(cfg, detector: str):
    """Normalized heralded chi, P and the sum of the magnitudes of P's terms."""
    S = cov.exponent(cov.covariance_of([cfg]))[0]
    if detector == "ideal":
        k3, k4 = ideal_kernel(), ideal_kernel()
    else:
        k3, k4 = on_off_kernel(cfg.eta3), on_off_kernel(cfg.eta4)
    raw = conditioned(S, k3, k4)
    P = gp.evaluate(raw, np.zeros(4)).real
    scale = success_probability(S, magnitude(k3), magnitude(k4))
    return raw.scaled(1.0 / P), P, scale


def squeezed_bell(r: float, delta: float) -> gp.PolyGaussFunction:
    """chi of S(r)[cos d|0,0> + sin d|1,1>]: the written-out bare polynomial
    times e^{-(|b1|^2 + |b2|^2)/2}, squeezed (phase pi) by substitution."""
    c, s = np.cos(delta), np.sin(delta)
    cc, ss, cs = c * c, s * s, 2.0 * c * s
    bare = gp.Polynomial(4, {
        (0, 0, 0, 0): cc + ss,
        (2, 0, 0, 0): -ss, (0, 2, 0, 0): -ss, (0, 0, 2, 0): -ss, (0, 0, 0, 2): -ss,
        (2, 0, 2, 0): ss, (2, 0, 0, 2): ss, (0, 2, 2, 0): ss, (0, 2, 0, 2): ss,
        (1, 0, 1, 0): cs, (0, 1, 0, 1): -cs,
    })
    vac = gp.PolyGaussFunction(4, [gp.GaussPolyTerm(
        1.0, bare, np.eye(4), np.zeros(4, dtype=complex))])
    return gp.substitute(vac, cov.variable_map(cov.squeezer(r, np.pi, 0, 1, 2)))
