"""Batched closed form of the scheme's heralding probability, fidelity and
heralded characteristic function.

The source function of the scheme is the Gaussian chi(v) = exp(-1/2 v^T S v)
with an 8x8 exponent S over (Re b1, Im b1, ..., Re b4, Im b4).  Conditioning
on both ancilla detectors and the fidelity integral

    P    = (1/pi^2) Int d^2b3 d^2b4 chi(0, 0, b3, b4) k3(b3) k4(b4)
    P F  = (1/pi^3) Int d^2lam d^2b3 d^2b4 e^{-|lam|^2}
                        chi(-conj(lam), -lam, b3, b4) k3(b3) k4(b4)

are then finite sums of Gaussian determinants, evaluated here with numpy
over a whole batch of exponents at once:

* on/off detectors, k = pi delta^2(b) - (1/eta) e^{-(2-eta)|b|^2 / 2 eta}:
  a four-term inclusion-exclusion over the set K of modes that take the
  Gaussian piece, each term (-1)^|K| 2^|K| / sqrt(det) of the eta-scaled
  ancilla block (the torontonian structure of threshold detection);
* ideal single-photon projectors, k = (1 - |b|^2) e^{-|b|^2/2}
  = (1 + 2 d/dt) e^{-t|b|^2/2} at t = 1: with M(t) the integrated block,
  g = det(M)^{-1/2}, a = tr(M^-1 E3), b = tr(M^-1 E4) and
  c = tr(M^-1 E3 M^-1 E4) (Ek projects on mode k), Jacobi's formula gives
  (1 + 2 d/dt3)(1 + 2 d/dt4) g = g [(1 - a)(1 - b) + 2c].

For P the ancilla block is that of S; for P F, integrating lam first leaves
the Schur complement of the lam block of the 6x6 exponent over
(lam, b3, b4), and P F = 2 P(Schur complement) / sqrt(det(lam block)).
`scheme_pf` evaluates the ancilla probability once per call, on the n
ancilla blocks and the n Schur complements stacked into one (2, n, 4, 4)
array, so each step runs once over both; the on/off sum stacks the two
diagonal 2x2 blocks of each in turn, and the ideal sum eliminates the 2x2
blocks of each, entry by entry, with no per-matrix LAPACK call.
The heralded P chi(b1, b2) is the same ancilla integral with the signal
amplitudes held fixed, so each Gaussian gains a linear term in the
ancillas (:func:`heralded_chi`): on/off detectors give a signed sum of four
Gaussians in (b1, b2), ideal projectors one Gaussian times a Wick
polynomial, each exponent and polynomial a quadratic form in (b1, b2).
The matrices of every form of a call, the envelope's first, are stacked
once per source, so each call takes all its forms in one stacked product.

`scheme_pf` alone decides each point's status, from its P and F together.
Nothing that takes exponents warns; :func:`warn_if_lossy` reads a lossy
source from the T_loss row of the parameter columns.

The squeezed Bell family, which holds every analytic reference resource,
has a closed-form characteristic function and fidelity,
:func:`squeezed_bell_chi` and :func:`squeezed_bell_fidelity`.

This module imports nothing beyond numpy.
"""

from __future__ import annotations

import operator
import os
import sys
import warnings

import numpy as np

MIN_SUCCESS_PROB = 1e-300
# P is indistinguishable from roundoff when it is at or below this many
# machine epsilons times the sum of the magnitudes of its signed terms
DEGENERACY_ULPS = 64.0

OK, DEGENERATE, UNPHYSICAL = 0, 1, 2

_PACKAGE_DIR = os.path.dirname(__file__)

SOURCE_FIELDS = ("r", "s", "phi_zeta", "phi_xi", "T1", "T2", "T_loss",
                 "n_thermal", "loss_on_detector_modes")
# the rows of a parameter column array: the source fields, then the detectors'
COLUMN_FIELDS = SOURCE_FIELDS + ("eta3", "eta4")
_T_LOSS_ROW = COLUMN_FIELDS.index("T_loss")
# the most points columns_pf evaluates at once
_PASS_POINTS = 512

_DEGENERACY_FLOOR = DEGENERACY_ULPS * np.finfo(float).eps
_EYE2, _EYE4 = np.eye(2), np.eye(4)
# a squeezed pair's reflection R between its modes is cos(phase) times the
# first plus sin(phase) times the second
_PAIR_COS = np.array([[0.0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0]])
_PAIR_SIN = np.array([[0.0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
# the entries of a 2x2 matrix, flattened, in the order of its adjugate's
_ADJUGATE_ORDER = np.array([3, 1, 2, 0])
# the entries of a symmetric 4x4 matrix's upper triangle, flattened, and
# each entry's position among them
_UPPER4 = np.array([0, 1, 2, 3, 5, 6, 7, 10, 11, 15])
_SYMMETRIC4 = np.array([[0, 1, 2, 3], [1, 4, 5, 6], [2, 5, 7, 8], [3, 6, 8, 9]])

# (Re b1, Im b1, Re b2, Im b2) = (-u, v, -u, -v) for lam = u + i v; the
# ancilla coordinates map to themselves
_LAMBDA_MAP = np.array([[-1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
_LAMBDA_MAP_T = np.ascontiguousarray(_LAMBDA_MAP.T)


class LossyProjectorWarning(UserWarning):
    """Ideal single-photon projectors combined with a lossy source function."""


def warn_if_lossy(detector: str, columns) -> None:
    """Warn when ideal projectors see a mixed source: `detector` is 'ideal'
    and any entry of the T_loss row of the parameter columns `columns` (as
    :func:`columns_of` gives) is below one.  Thermal noise enters the source
    only through (2 n_thermal + 1)(1 - T_loss), so at T_loss = 1 the source
    is pure whatever n_thermal is.

    The warning points at the first caller outside this package; where that
    frame is no source file (runpy's, under ``python -m``), at the outermost
    frame inside the package instead."""
    if detector == "ideal" and np.any(columns[_T_LOSS_ROW] < 1.0):
        frame, level = sys._getframe(1), 2
        while frame and os.path.dirname(frame.f_code.co_filename) == _PACKAGE_DIR:
            frame, level = frame.f_back, level + 1
        if frame and frame.f_code.co_filename.startswith("<"):
            level -= 1
        warnings.warn("ideal single-photon projectors combined with a lossy source",
                      LossyProjectorWarning, stacklevel=level)


# ---------------------------------------------------------------------------
# source exponents
# ---------------------------------------------------------------------------


def pair_exponent(amplitude, phase, T_loss=1.0, noise=0.0) -> np.ndarray:
    """Exponent, shape (..., 4, 4), of a two-mode squeezed vacuum after a loss
    channel of transmissivity T_loss on both modes that adds `noise`,
    (2 n_thermal + 1)(1 - T_loss), to the diagonal; the arguments broadcast.
    It is [[d I, x R], [x R, d I]] with d = T_loss cosh 2|z| + noise,
    x = T_loss sinh 2|z| and R = [[cos phase, sin phase], [sin phase, -cos phase]].
    """
    d = T_loss * np.cosh(2.0 * amplitude) + noise
    x = T_loss * np.sinh(2.0 * amplitude)
    return (d[..., None, None] * _EYE4 + (x * np.cos(phase))[..., None, None] * _PAIR_COS
            + (x * np.sin(phase))[..., None, None] * _PAIR_SIN)


@np.errstate(over="ignore", invalid="ignore")
def source_exponents(columns) -> np.ndarray:
    """Exponents S, shape (n, 8, 8), of the scheme's four-mode source function
    at the parameter columns `columns` (as :func:`columns_of` gives), read
    from their leading SOURCE_FIELDS rows; any further rows are ignored.

    Squeezers r on modes (1, 2) and s on (3, 4) and a loss channel (T_loss,
    n_thermal) on modes 1, 2, and 3, 4 where loss_on_detector_modes, give
    the pair exponents P and Q of :func:`pair_exponent`.  Beam splitters T1
    on (1, 3) and T2 on (2, 4) weight them entry by entry, with t and q each
    coordinate's sqrt(T) and sqrt(1 - T): S_ss = t P t + q Q q,
    S_sa = q Q t - t P q, S_aa = q P q + t Q t and S_as = S_sa^T.  Past r or
    s of about 355.24 cosh 2r overflows: S holds inf or NaN, with no warning.
    """
    r, s, phi_zeta, phi_xi, T1, T2, T_loss, n_thermal, on_det = columns[:len(SOURCE_FIELDS)]
    noise = (2.0 * n_thermal + 1.0) * (1.0 - T_loss)
    on_det = on_det > 0
    P = pair_exponent(r, phi_zeta, T_loss, noise)
    Q = pair_exponent(s, phi_xi, np.where(on_det, T_loss, 1.0), np.where(on_det, noise, 0.0))
    T = np.array([T1, T1, T2, T2]).T  # per coordinate of modes 1, 2 (and 3, 4)
    t, q = np.sqrt(T)[:, :, None], np.sqrt(1.0 - T)[:, :, None]
    tt, qq, tq = (a * np.swapaxes(b, 1, 2) for a, b in ((t, t), (q, q), (t, q)))
    S = np.empty((r.shape[0], 8, 8))
    S[:, :4, :4] = P * tt + Q * qq
    S[:, :4, 4:] = Q * np.swapaxes(tq, 1, 2) - P * tq
    S[:, 4:, :4] = np.swapaxes(S[:, :4, 4:], 1, 2)
    S[:, 4:, 4:] = P * qq + Q * tt
    return S


def columns_of(cfgs) -> np.ndarray:
    """Parameter columns of a sequence of objects carrying COLUMN_FIELDS:
    shape (len(COLUMN_FIELDS), n), one row per field."""
    fields = operator.attrgetter(*COLUMN_FIELDS)
    return np.array([fields(c) for c in cfgs], dtype=float).reshape(
        -1, len(COLUMN_FIELDS)).T


# ---------------------------------------------------------------------------
# heralding probability and fidelity
# ---------------------------------------------------------------------------


def _det2(X):
    return X[..., 0, 0] * X[..., 1, 1] - X[..., 0, 1] * X[..., 1, 0]


def _trace2(X):
    return X[..., 0, 0] + X[..., 1, 1]


def _inv2(X):
    """Inverses of a stack of 2x2 matrices, as adjugate over determinant."""
    adj = X.reshape(-1, 4)[:, _ADJUGATE_ORDER]
    np.negative(adj[:, 1:3], out=adj[:, 1:3])
    adj /= _det2(X).reshape(-1, 1)
    return adj.reshape(X.shape)


def _qform(x, Q):
    """x^T Q x for each row of x (shape (m, 4)) and each Q (shape
    (..., 4, 4)), shape (..., m); each Q is its own (m, 4) @ (4, 4) product,
    so a stack of forms gives each form's values bit for bit."""
    return np.sum((x @ Q) * x, axis=-1)


def _inclusion_exclusion(l, l34):
    """(1 - x3)(1 - x4) + x3 x4 expm1(l34) with x_K = e^{l_K} and
    (l3, l4) = l, and the sum of the magnitudes of its four terms."""
    x3, x4 = np.exp(l)
    e3, e4 = np.expm1(l)
    x34 = x3 * x4
    total = e3 * e4 + x34 * np.expm1(l34)
    scale = 1.0 + x3 + x4 + x34 * np.exp(l34)
    return total, scale


def _exp_expm1(A, b):
    """e^A expm1(b), with the exponent of its larger term, A or A + b,
    formed whole before exp is taken."""
    m = np.expm1(-np.abs(b))
    return np.exp(A + np.maximum(b, 0.0)) * np.where(b > 0.0, -m, m)


def _onoff_chi(E, a3, a4, d):
    """e^E [(1 - x3)(1 - x4) + x3 x4 expm1(d)] with x_K = e^{a_K}, as the
    factored sum of `_inclusion_exclusion` or the nested one,
    -expm1(a3) + x4 expm1(a3 + d).

    Where the x_K are large and e^E small the factored sum cancels x3 x4,
    or overflows, while the nested one has every exponent formed whole.
    The nested sum is taken where the magnitudes of its terms sum to less
    than half those of the factored one.  At E = 0, where every x_K is at
    most one, the factored sum's magnitudes never exceed the nested sum's,
    so there the factored sum is taken and is P's, bit for bit."""
    h3 = _exp_expm1(E, a3)
    with np.errstate(over="ignore", invalid="ignore"):
        f1 = h3 * np.expm1(a4)
        f2 = np.exp(E + a3) * np.exp(a4) * np.expm1(d)
        factored, f_scale = f1 + f2, np.abs(f1) + np.abs(f2)
    n2 = _exp_expm1(E + a4, a3 + d)
    return np.where(f_scale <= 2.0 * (np.abs(h3) + np.abs(n2)), factored, n2 - h3)


def _onoff_prob(M, d, W=None):
    """P of on/off detectors on the ancilla blocks M (shape (..., n, 4, 4),
    modes b3 then b4, of n points), the sum of the magnitudes of its four
    signed terms, both of shape (..., n), and an all-False mask of that
    shape in the place of `_ideal_prob`'s lost pivots, a rule of the ideal
    elimination alone; d (shape (n, 4)) holds each point's sqrt(eta) per
    ancilla coordinate.

    The term of the set K of modes taking the Gaussian piece is
    (-1)^|K| x_K with x_K = det(I + Delta_K)^{-1/2}, where
    Delta = D (M - I) D / 2 and D scales mode k by sqrt(eta_k).  The sum is
    formed as (1 - x3)(1 - x4) + x3 x4 expm1(log x34 - log x3 - log x4),
    with every small difference taken by log1p and expm1, so that it keeps
    its relative accuracy when the heralding probability is small.  The
    blocks Delta_3 and Delta_4 of all N ancilla blocks form one contiguous
    (2, N, 2, 2) stack, so each 2x2 step on them runs once.

    Neither term can cancel the other for a state.  x_K is the probability
    that every detector of K stays off, so x3, x4 <= 1.  And
    I + Delta = (I + M_eta) / 2, with M_eta = D M D + I - D^2 the ancillas'
    exponent after the detector loss, is positive definite, so by
    Fischer's inequality det(I + Delta) <= det(I + Delta_3) det(I + Delta_4):
    x34 >= x3 x4.  Both terms are then nonnegative, and P keeps the
    relative accuracy of the logs however small eta makes it.  (On 20,000
    random sources, r, s <= 3, any phases, T1, T2 and T_loss in [0.3, 1],
    n_thermal <= 1, both loss placements, eta in [1e-6, 1], log x3 and
    log x4 stayed negative and log x34 - log x3 - log x4 positive.)  This
    holds for the ancilla block of S, not for the Schur complements that
    P F integrates.

    Given the map W from the signal coordinates x to the ancillas' linear
    terms w = W x (M of shape (n, 4, 4)), each x_K gains a factor e^{u_K},
    where u_K = 1/2 z_K^T (I + Delta_K)^-1 z_K and z = D w / sqrt(2).  It
    returns instead the matrices of the quadratic forms u3, u4 and
    u34 - u3 - u4 in x, stacked as (n, 3, 4, 4), and the function
    (forms, E) -> e^E times the sum (`_onoff_chi`), with the forms
    evaluated as `_qform` gives them (shape (n, 3, m) for x of shape
    (m, 4)), and E and the result of shape (n, m).  With
    Z = I + Delta_4 - Delta_43 (I + Delta_3)^-1 Delta_34, the block inverse
    gives u34 - u3 - u4 from Z^-1 - (I + Delta_4)^-1
    = Z^-1 Delta_43 (I + Delta_3)^-1 Delta_34 (I + Delta_4)^-1, with no
    difference of nearly equal quadratics.
    """
    delta = (0.5 * (M - _EYE4) * d[:, :, None] * d[:, None, :]).reshape(-1, 4, 4)
    # diagonal[j] = delta[:, 2j:2j+2, 2j:2j+2]
    diagonal = np.ascontiguousarray(
        delta.reshape(-1, 2, 2, 2, 2).diagonal(axis1=1, axis2=3).transpose(3, 0, 1, 2))
    D34, D43 = delta[:, :2, 2:], delta[:, 2:, :2]
    with np.errstate(invalid="ignore", divide="ignore"):
        E3, E4 = _inv2(_EYE2 + diagonal)
        l = -0.5 * np.log1p(_trace2(diagonal) + _det2(diagonal))
        # log x34 - log x3 - log x4 = -1/2 log det(I - X) by the Schur complement
        X = E4 @ D43 @ E3 @ D34
        l34 = -0.5 * np.log1p(_det2(X) - _trace2(X))
        if W is None:
            shape = M.shape[:-2]
            return _inclusion_exclusion(l.reshape((2,) + shape),
                                        l34.reshape(shape)) + (np.zeros(shape, bool),)
        Z = W * d[:, :, None] / np.sqrt(2.0)
        Z3, Z4 = Z[:, :2], Z[:, 2:]
        K = D43 @ E3
        Zinv = _inv2(_EYE2 + diagonal[1] - K @ D34)
        H = K @ Z3
        Q3 = 0.5 * np.swapaxes(Z3, 1, 2) @ E3 @ Z3
        Q4 = 0.5 * np.swapaxes(Z4, 1, 2) @ E4 @ Z4
        Q34 = 0.5 * (np.swapaxes(Z4, 1, 2) @ Zinv @ K @ (D34 @ E4 @ Z4 - 2.0 * Z3)
                     + np.swapaxes(H, 1, 2) @ Zinv @ H)
    l3, l4 = l
    return np.stack([Q3, Q4, Q34], 1), lambda forms, envelope: _onoff_chi(
        envelope, l3[:, None] + forms[:, 0], l4[:, None] + forms[:, 1],
        l34[:, None] + forms[:, 2])


def _jacobi(g, one_minus_a, one_minus_b, c):
    """4 g [(1 - a)(1 - b) + 2c], and the sum of the magnitudes of its terms."""
    total = 4.0 * g * (one_minus_a * one_minus_b + 2.0 * c)
    scale = 4.0 * g * ((2.0 - one_minus_a) * (2.0 - one_minus_b) + 2.0 * c)
    return total, scale


def _ideal_prob(M, W=None):
    """P of ideal projectors on the ancilla blocks M (shape (..., 4, 4)),
    the sum of the magnitudes of its signed terms, and where a pivot is lost
    to roundoff.

    P = 4 (1 + 2 d/dt3)(1 + 2 d/dt4) det(M + t3 E3 + t4 E4)^{-1/2} at t = 1
    = 4 g [(1 - a)(1 - b) + 2c]; the magnitudes sum to
    4 g [(1 + a)(1 + b) + 2c].  Every step is elementwise over contiguous
    arrays of the entries of A = M + I, one per entry of its upper triangle:
    with the mode blocks A11, A12 and A22, A11^-1 is the adjugate over
    det(A11), X = A11^-1 A12, the Schur complement is
    Z = A22 - A12^T X, det A = det(A11) det(Z), and A^-1 has the blocks
    A11^-1 + X Z^-1 X^T, -X Z^-1 and Z^-1.  So 1 - a = tr(E3 A^-1 (M - I)) / 2,
    which keeps its relative accuracy near the vacuum, where a -> 1, and
    1 - b and c are sums of products of those entries.  A singular block
    divides by a zero determinant, so that its P is not finite, with no
    warning.

    A pivot is lost where the smaller diagonal entry of Z is at or below
    DEGENERACY_ULPS eps times the larger of A22's: Z is then roundoff, and
    so is P, however finite it is.

    Given W as in `_onoff_prob`, the ancillas are Gaussian with mean
    mu = -A^-1 w and covariance A^-1, and it returns the matrices of the
    four quadratic forms -w.mu/2, |mu3|^2, |mu4|^2 and
    2 mu3^T (A^-1)_34 mu4 in x, stacked as (n, 4, 4, 4), and the function
    of the evaluated forms and E that Wick's theorem gives, e^E times:
    4 g e^{-w.mu/2}
    [(1 - a - |mu3|^2) (1 - b - |mu4|^2) + 2c + 4 mu3^T (A^-1)_34 mu4],
    with -w.mu/2 + E one exponent.
    """
    m = np.moveaxis(M.reshape(M.shape[:-2] + (16,)), -1, 0)[_UPPER4]
    m00, m01, m02, m03, m11, m12, m13, m22, m23, m33 = m
    # A's diagonal, and that of M - I; off it both are M's
    a00, a11, a22, a33 = m00 + 1.0, m11 + 1.0, m22 + 1.0, m33 + 1.0
    d00, d11, d22, d33 = m00 - 1.0, m11 - 1.0, m22 - 1.0, m33 - 1.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        det1 = a00 * a11 - m01 * m01
        x00 = (a11 * m02 - m01 * m12) / det1
        x01 = (a11 * m03 - m01 * m13) / det1
        x10 = (a00 * m12 - m01 * m02) / det1
        x11 = (a00 * m13 - m01 * m03) / det1
        z00 = a22 - (m02 * x00 + m12 * x10)
        z01 = m23 - (m02 * x01 + m12 * x11)
        z11 = a33 - (m03 * x01 + m13 * x11)
        detz = z00 * z11 - z01 * z01
        g = 1.0 / np.sqrt(det1 * detz)
        # the blocks of A^-1: v of A11^-1 + X Z^-1 X^T, b of -X Z^-1, w of Z^-1
        w00, w01, w11 = z11 / detz, -z01 / detz, z00 / detz
        b00, b01 = -(x00 * w00 + x01 * w01), -(x00 * w01 + x01 * w11)
        b10, b11 = -(x10 * w00 + x11 * w01), -(x10 * w01 + x11 * w11)
        v00 = a11 / det1 - (b00 * x00 + b01 * x01)
        v01 = -m01 / det1 - (b00 * x10 + b01 * x11)
        v11 = a00 / det1 - (b10 * x10 + b11 * x11)
        cross = b00 * m02 + b01 * m03 + b10 * m12 + b11 * m13
        one_minus_a = 0.5 * (v00 * d00 + 2.0 * v01 * m01 + v11 * d11 + cross)
        one_minus_b = 0.5 * (cross + w00 * d22 + 2.0 * w01 * m23 + w11 * d33)
        c = b00 * b00 + b01 * b01 + b10 * b10 + b11 * b11
    if W is None:
        lost = np.minimum(z00, z11) <= _DEGENERACY_FLOOR * np.maximum(a22, a33)
        return _jacobi(g, one_minus_a, one_minus_b, c) + (lost,)
    Ainv = np.stack([v00, v01, b00, b01, v11, b10, b11, w00, w01, w11], -1)[..., _SYMMETRIC4]
    Mu = -Ainv @ W
    Mu3, Mu4 = Mu[:, :2], Mu[:, 2:]
    U = -0.5 * np.swapaxes(W, 1, 2) @ Mu
    N3 = np.swapaxes(Mu3, 1, 2) @ Mu3
    N4 = np.swapaxes(Mu4, 1, 2) @ Mu4
    Q34 = 2.0 * np.swapaxes(Mu3, 1, 2) @ Ainv[:, :2, 2:] @ Mu4
    return np.stack([U, N3, N4, Q34], 1), lambda forms, envelope: _jacobi(
        g[:, None] * np.exp(forms[:, 0] + envelope), one_minus_a[:, None] - forms[:, 1],
        one_minus_b[:, None] - forms[:, 2], c[:, None] + forms[:, 3])[0]


def _ancilla_prob(detector: str, eta3, eta4, n: int):
    """`_ideal_prob` or `_onoff_prob` of one detector kind, as a function of
    the ancilla blocks of n points (shape (..., n, 4, 4)) and the optional
    map W; eta3 and eta4 broadcast to n, and an on/off efficiency outside
    (0, 1], or omitted, raises ValueError."""
    if detector == "ideal":
        return _ideal_prob
    if detector == "on-off":
        etas = np.empty((2, n))
        etas[0], etas[1] = np.asarray(eta3, dtype=float), np.asarray(eta4, dtype=float)
        if not ((0.0 < etas) & (etas <= 1.0)).all():
            raise ValueError("detector efficiencies must lie in (0, 1]")
        d = np.sqrt(etas)[[0, 0, 1, 1]].T
        return lambda M, W=None: _onoff_prob(M, d, W)
    raise ValueError(f"unknown detector kind {detector!r}")


def _status(P, p_scale, F):
    """Status of each point: UNPHYSICAL where P is not finite; else
    DEGENERATE where P is at or below the larger of MIN_SUCCESS_PROB and
    DEGENERACY_ULPS eps times p_scale, the sum of the magnitudes of its
    signed terms; else UNPHYSICAL where P is above one, or F lies outside
    (0, 1]; else OK."""
    status = np.full(P.shape, OK)
    status[~((F > 0.0) & (F <= 1.0 + 1e-9) & (P <= 1.0 + 1e-9))] = UNPHYSICAL
    status[P <= np.maximum(MIN_SUCCESS_PROB, _DEGENERACY_FLOOR * p_scale)] = DEGENERATE
    status[~np.isfinite(P)] = UNPHYSICAL
    return status


def _lambda_blocks(S):
    """The lam block (shape (n, 2, 2)) of each exponent S over (lam, b3, b4),
    and its coupling C (shape (n, 2, 4)) to the ancillas.  The map from lam
    to the signal coordinates leaves the ancillas alone, so both come from
    the signal rows of S, and the ancilla block is S's own."""
    rows = _LAMBDA_MAP_T @ S[:, :4]
    return rows[:, :, :4] @ _LAMBDA_MAP, rows[:, :, 4:]


def heralded_chi(S, detector: str, eta3=None, eta4=None):
    """The function (b1, b2) -> P chi(b1, b2), shape (n,) + the broadcast
    shape of b1 and b2, of the state heralded from each source exponent S
    (shape (n, 8, 8)).

    With x = (Re b1, Im b1, Re b2, Im b2) it is the envelope
    e^{-1/2 x^T S_xx x} times the ancilla sum taken with the linear terms
    w = S_yx x, the envelope's exponent added to each Gaussian term's
    before exp is taken: far from the origin the envelope underflows where
    the ancilla terms overflow.  What does not depend on x is computed
    once, here: the ancilla sum's quadratic forms, stacked behind S_xx as
    (n, K + 1, 4, 4), so that each call evaluates every form in one
    `_qform` product.  At b1 = b2 = 0 it is P, bit for bit.
    """
    S = np.asarray(S, dtype=float)
    Q, ancillas = _ancilla_prob(detector, eta3, eta4, S.shape[0])(S[:, 4:, 4:],
                                                                 S[:, 4:, :4])
    Q = np.concatenate([S[:, None, :4, :4], Q], 1)

    def chi(b1, b2):
        b1, b2 = np.broadcast_arrays(np.asarray(b1, dtype=complex),
                                     np.asarray(b2, dtype=complex))
        x = np.stack([b1.real, b1.imag, b2.real, b2.imag], -1).reshape(-1, 4)
        forms = _qform(x, Q)
        values = ancillas(forms[:, 1:], -0.5 * forms[:, 0])
        return values.reshape(S.shape[:1] + b1.shape)

    return chi


def scheme_pf(S, detector: str, eta3=None, eta4=None):
    """Heralding probability P, fidelity F and status of each source exponent.

    `S` has shape (n, 8, 8); `detector` is 'ideal' or 'on-off';
    `eta3`, `eta4` (on/off only) broadcast to n, each in (0, 1], else
    ValueError.  Status is that of `_status` (a block that is not positive
    definite makes P or F NaN, and so UNPHYSICAL), and UNPHYSICAL with P as
    computed in two more cases: where the square of the sum of squares of
    the ancilla blocks' entries overflows, as a product of four entries then
    may, and a step that overflows can read OK; and, for ideal projectors,
    where either block loses a pivot of its elimination to roundoff
    (`_ideal_prob`), as P and F are then roundoff too.  F is capped at one,
    NaN where not OK.

    One ancilla evaluation covers both integrals: the ancilla blocks of S
    (for P) and the Schur complements of the lam blocks (for P F), stacked
    into one (2, n, 4, 4) array, whose two halves both see the n points'
    efficiencies.  Each point's values are those of two separate
    evaluations, bit for bit, since every step acts on each matrix of the
    stack alone.
    """
    S = np.asarray(S, dtype=float)
    n = S.shape[0]
    prob = _ancilla_prob(detector, eta3, eta4, n)

    # P F: the lam integral first, which leaves the Schur complement of its
    # block as the ancilla block and a factor (2 pi) / sqrt(det) / pi
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lam, C = _lambda_blocks(S)
        lam.reshape(n, 4)[:, ::3] += 2.0  # e^{-|lam|^2}, on the diagonal
        schur = S[:, 4:, 4:] - np.swapaxes(C, 1, 2) @ _inv2(lam) @ C
        blocks = np.concatenate([S[None, :, 4:, 4:], schur[None]])
        (P, PF), (p_scale, _), lost = prob(blocks)
        F = 2.0 * PF / np.sqrt(_det2(lam)) / P
        in_range = np.isfinite(np.sum(blocks * blocks, axis=(0, 2, 3)) ** 2)
    status = _status(np.where(in_range & ~lost.any(axis=0), P, np.nan), p_scale, F)
    F = np.where(status == OK, np.minimum(F, 1.0), np.nan)
    return P, F, status


def columns_pf(columns, detector: str):
    """:func:`scheme_pf` of the points whose parameters are the columns of
    `columns` (one row per COLUMN_FIELDS entry, as :func:`columns_of`
    gives), in passes of at most _PASS_POINTS columns, each passed whole to
    :func:`source_exponents`.  The passes bound the working memory, a few
    KB per point; batch invariance makes their results those of one pass."""
    n = columns.shape[1]
    passes = [scheme_pf(source_exponents(c), detector, *c[len(SOURCE_FIELDS):])
              for c in (columns[:, i:i + _PASS_POINTS]
                        for i in range(0, max(n, 1), _PASS_POINTS))]
    return passes[0] if n <= _PASS_POINTS else tuple(map(np.concatenate, zip(*passes)))


# ---------------------------------------------------------------------------
# squeezed Bell family
# ---------------------------------------------------------------------------


@np.errstate(over="ignore")
def squeezed_bell_fidelity(r, delta):
    """Fidelity of S(r)[cos d|0,0> + sin d|1,1>] (squeezer phase pi), batched.

    With c = cos d, s = sin d and x = e^{-2r},

        F = c^2 / (1 + x) + s^2 (1 + x^2) / (1 + x)^3 + 2 c s x / (1 + x)^2.

    The fidelity is (1/pi) Int d^2lam e^{-|lam|^2} chi(-conj(lam), -lam).  At
    phase pi the squeezer maps b1 -> b1 cosh r - conj(b2) sinh r and
    b2 -> b2 cosh r - conj(b1) sinh r, so (-conj(lam), -lam) becomes the bare
    arguments e^{-r} (-conj(lam), -lam).  The bare characteristic function

        e^{-(|b1|^2 + |b2|^2)/2} [c^2 + s^2 (1 - |b1|^2)(1 - |b2|^2)
                                  + 2 c s Re(b1 b2)]

    depends there only on t = |lam|^2, and d^2lam = pi dt, so

        F = Int_0^inf e^{-(1+x) t} [c^2 + s^2 (1 - x t)^2 + 2 c s x t] dt,

    and Int_0^inf t^n e^{-a t} dt = n! / a^{n+1} gives the formula, since
    (1+x)^2 - 2x(1+x) + 2x^2 = 1 + x^2.  At d = 0 it is the twin beam's
    1 / (1 + e^{-2r}).  Arguments broadcast; returns an array.
    """
    x = np.exp(-2.0 * np.asarray(r, dtype=float))
    c, s = np.cos(delta), np.sin(delta)
    a = 1.0 + x
    return c * c / a + s * s * (1.0 + x * x) / a ** 3 + 2.0 * c * s * x / a ** 2


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def squeezed_bell_chi(r, delta, b1, b2):
    """chi(b1, b2) of S(r)[cos d|0,0> + sin d|1,1>] (squeezer phase pi).

    The bare characteristic function of the squeezed_bell_fidelity docstring
    at the squeezer-mapped arguments a1 = e^r u + e^{-r} v and
    conj(a2) = e^{-r} v - e^r u, u, v = (b1 -+ conj b2)/2.  With x = e^{2r}|u|^2
    = exp(2 (log|u| + r)), y = e^{-2r}|v|^2 likewise and w = 2 Re(u conj v),
    chi = e^{-(x + y)} [c^2 + s^2 ((1 - x - y)^2 - w^2) + 2 c s (y - x)], and 0
    where that envelope underflows: finite, with no warning, at every r.
    b1 and b2 broadcast; returns a real array.
    """
    b1, b2 = np.asarray(b1, dtype=complex), np.asarray(b2, dtype=complex)
    u, v = 0.5 * (b1 - np.conj(b2)), 0.5 * (b1 + np.conj(b2))
    c, s = np.cos(delta), np.sin(delta)
    x = np.exp(2.0 * (np.log(np.abs(u)) + r))
    y = np.exp(2.0 * (np.log(np.abs(v)) - r))
    w = 2.0 * (u * np.conj(v)).real
    envelope = np.exp(-(x + y))
    chi = envelope * (c * c + s * s * ((1.0 - x - y) ** 2 - w * w) + 2.0 * c * s * (y - x))
    return np.where(envelope == 0.0, 0.0, chi)
