"""50-digit evaluation of the heralded characteristic function and fidelity.

The input is the float source exponent S, shape (8, 8), that the kernel also
receives; every entry converts to mpmath exactly, so the only error left is
that of the kernel's own arithmetic.  The conditioning integral

    P chi(x) = (1/pi^2) Int d^2b3 d^2b4 e^{-1/2 v^T S v} k3(b3) k4(b4),

v = (x, y) with x the signal and y the ancilla coordinates, is written out
directly as Gaussian integrals, without the kernel's rearrangements:

* on/off detectors: the signed sum over the set K of ancillas taking the
  Gaussian piece of the kernel, each term
  (-1)^|K| prod_K (2/eta_k) det(A_K)^{-1/2} e^{-1/2 x^T Q_K x}
  with A_K = S_KK + diag((2 - eta_k)/eta_k) and Q_K = S_xx - S_xK A_K^-1 S_Kx;
* ideal projectors: 4 det(A)^{-1/2} e^{-1/2 x^T Q x} times the Gaussian
  expectation of (1 - |b3|^2)(1 - |b4|^2) under mean m = -A^-1 S_yx x and
  covariance A^-1 (A = S_yy + I, Q = S_xx - S_xy A^-1 S_yx), summed moment
  by moment with Isserlis' theorem.

The fidelity P F = (1/pi) Int d^2lam e^{-|lam|^2} P chi(x) at x = Lambda lam,
(Re b1, Im b1, Re b2, Im b2) = (-u, v, -u, -v) for lam = u + i v, takes lam
out of each term directly.  A term's Gaussian gives 2 det(H)^{-1/2} with
H = 2I + Lambda^T Q Lambda, and for ideal projectors the bracket's
expectation over lam ~ N(0, H^-1) too: m = -B lam with B = A^-1 S_yx Lambda,
so over both lam and b the ancilla coordinates have mean zero and covariance
A^-1 + B H^-1 B^T, and the bracket is that of this covariance at mean zero.

Each function returns the values of P chi at the given points, P, P F and
the sum of the magnitudes of the signed terms that make up P.
"""

from __future__ import annotations

import itertools

import mpmath as mp

DPS = 50
SIGNAL = range(4)
ANCILLA = {3: (4, 5), 4: (6, 7)}
LAMBDA = [[-1, 0], [0, 1], [-1, 0], [0, -1]]


def _sub(S, rows, cols):
    return mp.matrix([[mp.mpf(float(S[i][j])) for j in cols] for i in rows])


def _points(xs):
    return [mp.matrix([mp.mpf(float(v)) for v in x]) for x in xs]


def _quad(u, A, v):
    return (u.T * A * v)[0]


def _lam_integral(Q):
    """(1/pi) Int d^2lam e^{-|lam|^2 - 1/2 x^T Q x}, x = Lambda lam, and H^-1."""
    L = mp.matrix(LAMBDA)
    H = 2 * mp.eye(2) + L.T * Q * L
    return 2 / mp.sqrt(mp.det(H)), H ** -1


def onoff(S, eta3, eta4, xs):
    """On/off detectors of efficiencies eta3, eta4; xs are real 4-vectors."""
    with mp.workdps(DPS):
        etas = {3: mp.mpf(float(eta3)), 4: mp.mpf(float(eta4))}
        pts = _points(xs)
        Sxx = _sub(S, SIGNAL, SIGNAL)
        values = [mp.mpf(0)] * len(pts)
        P = PF = scale = mp.mpf(0)
        for size in range(3):
            for K in itertools.combinations((3, 4), size):
                idx = [i for k in K for i in ANCILLA[k]]
                coeff, Q = mp.mpf((-1) ** size), Sxx
                if idx:
                    A = _sub(S, idx, idx)
                    for k in K:
                        coeff *= 2 / etas[k]
                        for i in range(2 * K.index(k), 2 * K.index(k) + 2):
                            A[i, i] += (2 - etas[k]) / etas[k]
                    coeff /= mp.sqrt(mp.det(A))
                    C = _sub(S, idx, SIGNAL)
                    Q = Sxx - C.T * A ** -1 * C
                P += coeff
                PF += coeff * _lam_integral(Q)[0]
                scale += abs(coeff)
                for n, x in enumerate(pts):
                    values[n] += coeff * mp.exp(-_quad(x, Q, x) / 2)
        return values, P, PF, scale


def _ideal_bracket(m, C):
    """Terms of E[(1 - Q3)(1 - Q4)], Q_k = |b_k|^2, for mean m and covariance C."""
    second = [C[i, i] + m[i] ** 2 for i in range(4)]
    q3, q4 = second[0] + second[1], second[2] + second[3]
    q34 = sum(second[i] * second[j] + 2 * C[i, j] ** 2 + 4 * m[i] * m[j] * C[i, j]
              for i in (0, 1) for j in (2, 3))
    return (1, -q3, -q4, q34)


def ideal(S, xs):
    """Ideal single-photon projectors; xs are real 4-vectors."""
    with mp.workdps(DPS):
        pts = _points(xs)
        A = _sub(S, range(4, 8), range(4, 8)) + mp.eye(4)
        C = A ** -1
        Syx = _sub(S, range(4, 8), SIGNAL)
        Q = _sub(S, SIGNAL, SIGNAL) - Syx.T * C * Syx
        g = 4 / mp.sqrt(mp.det(A))
        values = [g * mp.exp(-_quad(x, Q, x) / 2) * sum(_ideal_bracket(-(C * Syx * x), C))
                  for x in pts]
        terms = _ideal_bracket(mp.matrix(4, 1), C)
        gauss, Hinv = _lam_integral(Q)
        B = C * Syx * mp.matrix(LAMBDA)
        PF = g * gauss * sum(_ideal_bracket(mp.matrix(4, 1), C + B * Hinv * B.T))
        return values, g * sum(terms), PF, g * sum(abs(t) for t in terms)


def scheme(S, detector: str, eta3, eta4, xs=()):
    """:func:`ideal` or :func:`onoff` by the kernel's name of the detectors."""
    return ideal(S, xs) if detector == "ideal" else onoff(S, eta3, eta4, xs)
