"""The ideal lossless scheme as a squeezed Bell state, exactly.

It imports numpy only and shares no code with ``sqbell``.  The two squeezers
and the beam splitters leave the four modes in

    N0 exp(c12 a1^dag a2^dag + c14 a1^dag a4^dag + c32 a3^dag a2^dag
           + c34 a3^dag a4^dag)|0>,    N0 = 1 / (cosh r cosh s),

where, at the squeezer phases pi, l_r = tanh r and l_s = tanh s, and the
beam splitters a_k^dag -> sqrt(T) a_k^dag - sqrt(1 - T) a_l^dag,
a_l^dag -> sqrt(1 - T) a_k^dag + sqrt(T) a_l^dag on (1, 3) and (2, 4) give

    c12 = l_r t1 t2 + l_s q1 q2,    c14 = l_s q1 t2 - l_r t1 q2,
    c32 = l_s t1 q2 - l_r q1 t2,    c34 = l_r q1 q2 + l_s t1 t2,

with t = sqrt(T) and q = sqrt(1 - T).  No term pairs mode 1 with 3 or 2
with 4, so the projection of modes 3 and 4 on |1, 1> leaves

    N0 [a + b a1^dag a2^dag] exp(t a1^dag a2^dag)|0>,
    t = c12, a = c34, b = c14 c32,

whose amplitudes on |n, n> are N0 (a t^n + b n t^{n-1}).  Summing their
squares gives the heralding probability

    P = N0^2 [a^2 / (1 - t^2) + 2 a b t / (1 - t^2)^2
              + b^2 (1 + t^2) / (1 - t^2)^3],

and the state is S(r_eff)[cos d|0,0> + sin d|1,1>] with r_eff = atanh t and
d = atan2(b cosh^2 r_eff, a + t b cosh^2 r_eff).  Its teleportation fidelity,
with x = e^{-2 r_eff}, c = cos d and s = sin d, is

    F = c^2 / (1 + x) + s^2 (1 + x^2) / (1 + x)^3 + 2 c s x / (1 + x)^2.
"""

from __future__ import annotations

import numpy as np


def bell_map(r, s, T1, T2):
    """(P, F, r_eff, d) of the ideal lossless scheme at phases pi; the
    arguments broadcast, and each result is an array."""
    r, s, T1, T2 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (r, s, T1, T2)))
    l_r, l_s = np.tanh(r), np.tanh(s)
    t1, q1, t2, q2 = np.sqrt(T1), np.sqrt(1.0 - T1), np.sqrt(T2), np.sqrt(1.0 - T2)
    c12, c14 = l_r * t1 * t2 + l_s * q1 * q2, l_s * q1 * t2 - l_r * t1 * q2
    c32, c34 = l_s * t1 * q2 - l_r * q1 * t2, l_r * q1 * q2 + l_s * t1 * t2
    t, a, b = c12, c34, c14 * c32
    n0 = 1.0 / (np.cosh(r) * np.cosh(s))
    u = 1.0 - t * t  # 1 / cosh^2 r_eff
    P = n0 ** 2 * (a * a / u + 2.0 * a * b * t / u ** 2 + b * b * (1.0 + t * t) / u ** 3)
    r_eff = np.arctanh(t)
    d = np.arctan2(b / u, a + t * b / u)
    x = np.exp(-2.0 * r_eff)
    c, sn = np.cos(d), np.sin(d)
    F = c * c / (1.0 + x) + sn * sn * (1.0 + x * x) / (1.0 + x) ** 3 \
        + 2.0 * c * sn * x / (1.0 + x) ** 2
    return P, F, r_eff, d
