"""The Fock oracle's contractions as dense products over every entry.

`sqbell.fock_sim` skips the exact zeros of its characteristic-function and
conditioning contractions; these are the same sums taken in full, one GEMM
or one einsum each, for the tests to compare against.
"""

import numpy as np

from sqbell import fock_sim as fs
from sqbell.errors import DegeneratePostselectionError


def char_function_batch(rho: fs.FockDensity, betas1, betas2) -> np.ndarray:
    """chi[b] = sum rho[m, n, k, l] D1[k, m, b] D2[l, n, b] as one
    (batch x d^2) (d^2 x d^2) GEMM."""
    D1 = fs._displacement_batch(betas1, rho.cutoffs[0])
    D2 = fs._displacement_batch(betas2, rho.cutoffs[1])
    d0, d1 = rho.cutoffs[0] + 1, rho.cutoffs[1] + 1
    # rho as a (k m, n l) matrix for rho[m, n, k, l]
    t = rho.as_tensor().transpose(2, 0, 1, 3).reshape(d0 * d0, d1 * d1)
    # A[b, (n, l)] = sum_{k,m} D1[k, m, b] rho[m, n, k, l]
    A = D1.reshape(d0 * d0, -1).T @ t
    # chi[b] = sum_{n,l} A[b, (n, l)] D2[l, n, b]
    return np.einsum("bi,ib->b", A, D2.transpose(1, 0, 2).reshape(d1 * d1, -1))


def condition_with_diagonal_weights(state: fs.FockTensor, w3, w4
                                    ) -> tuple[np.ndarray, float]:
    """Normalized reduced density matrix and success probability of a pure
    four-mode state conditioned on diagonal weights of modes 3 and 4."""
    amps = state.amps
    success = float(np.einsum("abkl,abkl,k,l->", amps, amps.conj(), w3, w4).real)
    if success <= 1e-300:
        raise DegeneratePostselectionError(
            f"conditioning probability {success:.3e} is degenerate")
    rho = np.einsum("abkl,cdkl,k,l->abcd", amps, amps.conj(), w3, w4,
                    optimize=True)
    d = (state.cutoffs[0] + 1) * (state.cutoffs[1] + 1)
    return rho.reshape(d, d) / success, success
