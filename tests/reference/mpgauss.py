"""50-digit evaluation of the heralded characteristic function.

The input is the float source exponent S, shape (8, 8), that the kernel also
receives; every entry converts to mpmath exactly, so the only error left is
that of the kernel's own arithmetic.  The conditioning integral

    P chi(x) = (1/pi^2) Int d^2b3 d^2b4 e^{-1/2 v^T S v} k3(b3) k4(b4),

v = (x, y) with x the signal and y the ancilla coordinates, is written out
directly as Gaussian integrals, without the kernel's rearrangements:

* on/off detectors: the signed sum over the set K of ancillas taking the
  Gaussian piece of the kernel, each term
  (-1)^|K| prod_K (2/eta_k) det(A_K)^{-1/2} e^{-1/2 x^T S_xx x + 1/2 w^T A_K^-1 w}
  with A_K = S_KK + diag((2 - eta_k)/eta_k) and w = S_Kx x;
* ideal projectors: 4 det(A)^{-1/2} e^{-1/2 x^T S_xx x + 1/2 w^T A^-1 w} times
  the Gaussian expectation of (1 - |b3|^2)(1 - |b4|^2) under mean
  -A^-1 w and covariance A^-1 (A = S_yy + I, w = S_yx x), summed moment by
  moment with Isserlis' theorem.

Each function returns the values of P chi at the given points, P, and the
sum of the magnitudes of the signed terms that make up P.
"""

from __future__ import annotations

import itertools

import mpmath as mp

DPS = 50
SIGNAL = range(4)
ANCILLA = {3: (4, 5), 4: (6, 7)}


def _sub(S, rows, cols):
    return mp.matrix([[mp.mpf(float(S[i][j])) for j in cols] for i in rows])


def _points(xs):
    return [mp.matrix([mp.mpf(float(v)) for v in x]) for x in xs]


def _quad(u, A, v):
    return (u.T * A * v)[0]


def onoff(S, eta3, eta4, xs):
    """On/off detectors of efficiencies eta3, eta4; xs are real 4-vectors."""
    with mp.workdps(DPS):
        etas = {3: mp.mpf(float(eta3)), 4: mp.mpf(float(eta4))}
        pts = _points(xs)
        Sxx = _sub(S, SIGNAL, SIGNAL)
        values = [mp.mpf(0)] * len(pts)
        P = scale = mp.mpf(0)
        for size in range(3):
            for K in itertools.combinations((3, 4), size):
                idx = [i for k in K for i in ANCILLA[k]]
                coeff = mp.mpf((-1) ** size)
                if idx:
                    A = _sub(S, idx, idx)
                    for k in K:
                        coeff *= 2 / etas[k]
                        for i in range(2 * K.index(k), 2 * K.index(k) + 2):
                            A[i, i] += (2 - etas[k]) / etas[k]
                    coeff /= mp.sqrt(mp.det(A))
                    Ainv, C = A ** -1, _sub(S, idx, SIGNAL)
                P += coeff
                scale += abs(coeff)
                for n, x in enumerate(pts):
                    u = _quad(C * x, Ainv, C * x) / 2 if idx else 0
                    values[n] += coeff * mp.exp(u - _quad(x, Sxx, x) / 2)
        return values, P, scale


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
        Sxx, Syx = _sub(S, SIGNAL, SIGNAL), _sub(S, range(4, 8), SIGNAL)
        g = 4 / mp.sqrt(mp.det(A))
        values = []
        for x in pts:
            w = Syx * x
            m = -(C * w)
            gauss = mp.exp(_quad(w, C, w) / 2 - _quad(x, Sxx, x) / 2)
            values.append(g * gauss * sum(_ideal_bracket(m, C)))
        terms = _ideal_bracket(mp.matrix(4, 1), C)
        return values, g * sum(terms), g * sum(abs(t) for t in terms)
