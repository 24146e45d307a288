"""Algebra of polynomial-times-Gaussian functions over real phase-space variables.

Every characteristic function handled by this package is a finite sum of terms

    coeff * poly(x) * exp(-1/2 x^T A x + b^T x),

over real coordinates ordered (Re b1, Im b1, ..., Re bn, Im bn), so complex
variable k owns the coordinate pair (2k, 2k+1).  A term may additionally carry
exact point-mass factors pi * delta^2(beta_k) on whole complex variables; these
are kept structurally and resolved only by integration.

Integration is plain Lebesgue in the real coordinates, d^2 beta = dRe dIm,
so the integral of exp(-|beta|^2) over the plane is pi.  All 1/pi prefactors
of downstream formulas are applied explicitly by callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DegreeCapError,
    DimensionMismatchError,
    DivergentIntegralError,
    UnsupportedEvaluationError,
)

MAX_POLY_DEGREE = 16
SYMMETRY_TOL = 1e-12

PhaseVector = np.ndarray


def as_phase_vector(values: Sequence[float], n_vars: int) -> PhaseVector:
    """Validate and coerce real coordinates: one vector of length n_vars, or an
    (N, n_vars) array holding one point per row."""
    x = np.asarray(values, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != n_vars:
        raise DimensionMismatchError(
            f"phase vector has shape {x.shape}, expected ({n_vars},) or (N, {n_vars})"
        )
    return x


def complex_to_real(betas: Sequence[complex]) -> PhaseVector:
    """Pack complex amplitudes into the interleaved (Re, Im) coordinate order.

    The last axis holds the amplitudes, so an (N, n) array packs row by row.
    """
    b = np.asarray(betas, dtype=complex)
    return np.stack([b.real, b.imag], axis=-1).reshape(*b.shape[:-1], 2 * b.shape[-1])


def _power_table(x: np.ndarray, degree: int) -> np.ndarray:
    """x ** e for e = 0..degree, shape (degree + 1, N, n_vars), for N points x."""
    table = np.empty((degree + 1,) + x.shape)
    table[0] = 1.0
    for e in range(1, degree + 1):
        table[e] = table[e - 1] * x
    return table


class Polynomial:
    """Multivariate polynomial with complex coefficients, keyed by exponent tuples."""

    __slots__ = ("n_vars", "coeffs")

    def __init__(self, n_vars: int, coeffs: Mapping[tuple, complex] | None = None):
        self.n_vars = n_vars
        self.coeffs: dict[tuple, complex] = {}
        if coeffs:
            for mono, c in coeffs.items():
                if c != 0:
                    self.coeffs[tuple(mono)] = complex(c)

    @staticmethod
    def constant(n_vars: int, value: complex = 1.0) -> "Polynomial":
        return Polynomial(n_vars, {(0,) * n_vars: value})

    @staticmethod
    def coordinate(n_vars: int, i: int, scale: complex = 1.0) -> "Polynomial":
        mono = [0] * n_vars
        mono[i] = 1
        return Polynomial(n_vars, {tuple(mono): scale})

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return max((sum(m) for m in self.coeffs), default=0)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            s = out.get(mono, 0.0) + c
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = s
        return Polynomial(self.n_vars, out)

    def scaled(self, factor: complex) -> "Polynomial":
        if factor == 0:
            return Polynomial(self.n_vars)
        return Polynomial(self.n_vars, {m: c * factor for m, c in self.coeffs.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out: dict[tuple, complex] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                s = out.get(mono, 0.0) + c1 * c2
                if s == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = s
        poly = Polynomial(self.n_vars, out)
        if poly.degree() > MAX_POLY_DEGREE:
            raise DegreeCapError(
                f"polynomial degree {poly.degree()} exceeds cap {MAX_POLY_DEGREE}"
            )
        return poly

    def substitute_zero(self, coords: Iterable[int]) -> "Polynomial":
        """Set the named coordinates to zero (drop monomials that contain them)."""
        zero = set(coords)
        out = {m: c for m, c in self.coeffs.items() if all(m[i] == 0 for i in zero)}
        return Polynomial(self.n_vars, out)

    def substitute_linear(self, mat: np.ndarray) -> "Polynomial":
        """Return q(z) = p(M z) for a real matrix M of shape (n_vars, n_new)."""
        n_new = mat.shape[1]
        rows = [
            Polynomial(n_new, {tuple(int(j == k) for k in range(n_new)): mat[i, j]
                               for j in range(n_new) if mat[i, j] != 0})
            for i in range(self.n_vars)
        ]
        result = Polynomial(n_new)
        one = Polynomial.constant(n_new)
        for mono, c in self.coeffs.items():
            factor = one.scaled(c)
            for i, e in enumerate(mono):
                for _ in range(e):
                    factor = factor * rows[i]
            result = result + factor
        return result

    def reindex(self, keep: Sequence[int]) -> "Polynomial":
        """Restrict to the kept coordinates (all others must have exponent zero)."""
        keep = list(keep)
        dropped = set(range(self.n_vars)) - set(keep)
        out: dict[tuple, complex] = {}
        for mono, c in self.coeffs.items():
            if any(mono[i] for i in dropped):
                raise DimensionMismatchError(
                    "reindex would drop a coordinate with nonzero exponent"
                )
            key = tuple(mono[i] for i in keep)
            out[key] = out.get(key, 0.0) + c
        return Polynomial(len(keep), out)

    def evaluate(self, powers: np.ndarray) -> np.ndarray:
        """Values at N points, given their `_power_table` of degree >= self.degree()."""
        total = np.zeros(powers.shape[1], dtype=complex)
        for mono, c in self.coeffs.items():
            v = c
            for i, e in enumerate(mono):
                if e:
                    v = v * powers[e, :, i]
            total += v
        return total


@dataclass(frozen=True)
class GaussPolyTerm:
    """One term coeff * poly(x) * exp(-1/2 x^T A x + b^T x), times optional deltas.

    `deltas` holds complex-variable indices carrying an exact pi*delta^2(beta_k)
    factor.  A is real symmetric, b may be complex.
    """

    coeff: complex
    poly: Polynomial
    quad: np.ndarray
    lin: np.ndarray
    deltas: frozenset = frozenset()

    def __post_init__(self):
        A = np.asarray(self.quad, dtype=float)
        if A.shape != (self.poly.n_vars, self.poly.n_vars):
            raise DimensionMismatchError("quadratic form shape mismatch")
        if A.size and np.max(np.abs(A - A.T)) > SYMMETRY_TOL:
            raise DimensionMismatchError("quadratic form is not symmetric")
        object.__setattr__(self, "quad", 0.5 * (A + A.T))
        object.__setattr__(self, "lin", np.asarray(self.lin, dtype=complex))
        if self.poly.degree() > MAX_POLY_DEGREE:
            raise DegreeCapError(
                f"polynomial degree {self.poly.degree()} exceeds cap {MAX_POLY_DEGREE}"
            )

    @property
    def n_vars(self) -> int:
        return self.poly.n_vars


class PolyGaussFunction:
    """A finite sum of GaussPolyTerm over a shared real-coordinate space."""

    __slots__ = ("n_vars", "terms")

    def __init__(self, n_vars: int, terms: Sequence[GaussPolyTerm]):
        for t in terms:
            if t.n_vars != n_vars:
                raise DimensionMismatchError("terms do not share the variable count")
            for k in t.deltas:
                if not (0 <= 2 * k + 1 < n_vars):
                    raise DimensionMismatchError(
                        f"delta factor on complex variable {k} is out of range"
                    )
        self.n_vars = n_vars
        self.terms = tuple(terms)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(n_vars: int, value: complex = 1.0) -> "PolyGaussFunction":
        return PolyGaussFunction(n_vars, [GaussPolyTerm(
            value, Polynomial.constant(n_vars), np.zeros((n_vars, n_vars)),
            np.zeros(n_vars, dtype=complex))])

    @staticmethod
    def gaussian(A: np.ndarray, b: np.ndarray | None = None,
                 coeff: complex = 1.0) -> "PolyGaussFunction":
        A = np.asarray(A, dtype=float)
        n = A.shape[0]
        if b is None:
            b = np.zeros(n, dtype=complex)
        return PolyGaussFunction(n, [GaussPolyTerm(
            coeff, Polynomial.constant(n), A, np.asarray(b, dtype=complex))])

    @staticmethod
    def point_mass(n_vars: int, cvar: int, coeff: complex = 1.0) -> "PolyGaussFunction":
        """The factor pi * delta^2(beta_cvar), flat in the other coordinates."""
        return PolyGaussFunction(n_vars, [GaussPolyTerm(
            coeff, Polynomial.constant(n_vars), np.zeros((n_vars, n_vars)),
            np.zeros(n_vars, dtype=complex), frozenset({cvar}))])

    # -- structure ----------------------------------------------------------

    @property
    def point_masses(self) -> tuple:
        """All (complex variable, weight) delta entries across terms; weight is pi."""
        return tuple(sorted((k, np.pi) for t in self.terms for k in t.deltas))

    def has_deltas(self) -> bool:
        return any(t.deltas for t in self.terms)

    def constant_value(self) -> complex:
        """Value of a zero-variable function."""
        if self.n_vars != 0:
            raise DimensionMismatchError("constant_value requires zero variables")
        return sum((t.coeff * t.poly.coeffs.get((), 0.0) for t in self.terms),
                   0.0 + 0.0j)

    def scaled(self, factor: complex) -> "PolyGaussFunction":
        return PolyGaussFunction(self.n_vars, [
            GaussPolyTerm(t.coeff * factor, t.poly, t.quad, t.lin, t.deltas)
            for t in self.terms])

    def __add__(self, other: "PolyGaussFunction") -> "PolyGaussFunction":
        if self.n_vars != other.n_vars:
            raise DimensionMismatchError("cannot add functions on different spaces")
        return PolyGaussFunction(self.n_vars, self.terms + other.terms)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def multiply(f: PolyGaussFunction, g: PolyGaussFunction) -> PolyGaussFunction:
    """Pointwise product; exponents add, polynomials multiply, deltas unite."""
    if f.n_vars != g.n_vars:
        raise DimensionMismatchError(
            f"operands live on {f.n_vars} and {g.n_vars} variables"
        )
    terms = []
    for t1 in f.terms:
        for t2 in g.terms:
            if t1.deltas & t2.deltas:
                raise UnsupportedEvaluationError(
                    "product of two delta factors on the same complex variable"
                )
            terms.append(GaussPolyTerm(
                t1.coeff * t2.coeff, t1.poly * t2.poly, t1.quad + t2.quad,
                t1.lin + t2.lin, t1.deltas | t2.deltas))
    return canonicalize(PolyGaussFunction(f.n_vars, terms))


def evaluate(f: PolyGaussFunction, x: Sequence[float]) -> complex | np.ndarray:
    """Sum of term values at the real coordinate vector x.

    x may also be an (N, n_vars) array of points; the result is then an array
    of N values.  One point is evaluated as a batch of one.
    """
    if f.has_deltas():
        raise UnsupportedEvaluationError(
            "function carries point masses and cannot be evaluated pointwise"
        )
    xv = as_phase_vector(x, f.n_vars)
    pts = xv.reshape(-1, f.n_vars)
    powers = _power_table(pts, max((t.poly.degree() for t in f.terms), default=0))
    total = np.zeros(len(pts), dtype=complex)
    for t in f.terms:
        expo = -0.5 * np.sum((pts @ t.quad) * pts, axis=1) + pts @ t.lin
        total += t.coeff * t.poly.evaluate(powers) * np.exp(expo)
    return total if xv.ndim == 2 else complex(total[0])


def evaluate_at_betas(f: PolyGaussFunction,
                      betas: Sequence[complex]) -> complex | np.ndarray:
    """`evaluate` at complex amplitudes: one per variable, or an (N, n) array."""
    return evaluate(f, complex_to_real(betas))


def substitute(f: PolyGaussFunction, mat: np.ndarray) -> PolyGaussFunction:
    """Return g(z) = f(M z) for a real matrix M of shape (n_vars, n_new).

    Any delta factor must act on a complex variable that the substitution maps
    one-to-one onto a complex variable of the new space (same coordinate pair,
    identity block), otherwise the point mass has no structural image.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.shape[0] != f.n_vars:
        raise DimensionMismatchError("substitution matrix row count mismatch")
    n_new = mat.shape[1]
    terms = []
    for t in f.terms:
        new_deltas = set()
        for k in t.deltas:
            rows = mat[[2 * k, 2 * k + 1], :]
            nz = np.nonzero(np.any(rows != 0.0, axis=0))[0]
            if (len(nz) != 2 or nz[0] + 1 != nz[1] or nz[0] % 2 != 0
                    or not np.allclose(rows[:, nz], np.eye(2))):
                raise UnsupportedEvaluationError(
                    "substitution does not preserve a delta-carrying variable"
                )
            new_deltas.add(nz[0] // 2)
        terms.append(GaussPolyTerm(
            t.coeff, t.poly.substitute_linear(mat), mat.T @ t.quad @ mat,
            mat.T @ t.lin, frozenset(new_deltas)))
    return PolyGaussFunction(n_new, terms)


def embed(f: PolyGaussFunction, n_vars_new: int, offset: int) -> PolyGaussFunction:
    """Embed f into a larger space with its coordinates starting at `offset`."""
    if offset % 2 != 0:
        raise DimensionMismatchError("embedding offset must preserve complex pairs")
    terms = []
    for t in f.terms:
        A = np.zeros((n_vars_new, n_vars_new))
        A[offset:offset + f.n_vars, offset:offset + f.n_vars] = t.quad
        b = np.zeros(n_vars_new, dtype=complex)
        b[offset:offset + f.n_vars] = t.lin
        coeffs = {}
        for mono, c in t.poly.coeffs.items():
            new = [0] * n_vars_new
            new[offset:offset + f.n_vars] = mono
            coeffs[tuple(new)] = c
        terms.append(GaussPolyTerm(
            t.coeff, Polynomial(n_vars_new, coeffs), A, b,
            frozenset(k + offset // 2 for k in t.deltas)))
    return PolyGaussFunction(n_vars_new, terms)


def _moment_polynomial(alpha: tuple, mu_polys: list, cov: np.ndarray,
                       one: Polynomial, memo: dict) -> Polynomial:
    """E[x_I^alpha] as a polynomial in the kept variables (means are affine)."""
    if sum(alpha) == 0:
        return one
    if alpha in memo:
        return memo[alpha]
    i = next(j for j, e in enumerate(alpha) if e > 0)
    rest = list(alpha)
    rest[i] -= 1
    rest_t = tuple(rest)
    total = mu_polys[i] * _moment_polynomial(rest_t, mu_polys, cov, one, memo)
    for j, e in enumerate(rest_t):
        if e > 0 and cov[i, j] != 0.0:
            rr = list(rest_t)
            rr[j] -= 1
            total = total + _moment_polynomial(
                tuple(rr), mu_polys, cov, one, memo).scaled(e * cov[i, j])
    memo[alpha] = total
    return total


def integrate_real(f: PolyGaussFunction, coords: Iterable[int]) -> PolyGaussFunction:
    """Integrate out the named real coordinates in closed form.

    Delta factors whose coordinate pair is fully contained in `coords` are
    resolved (substitute zero, multiply by pi); the Gaussian part is reduced by
    a Schur complement, the polynomial part by Wick moments of the shifted
    Gaussian.  Deltas may not be split across the integration boundary.
    """
    coords = sorted(set(coords))
    for c in coords:
        if not (0 <= c < f.n_vars):
            raise DimensionMismatchError(f"coordinate {c} out of range")
    coord_set = set(coords)
    keep = [i for i in range(f.n_vars) if i not in coord_set]
    out_terms = []
    for idx, t in enumerate(f.terms):
        out_terms.append(_integrate_term(t, coord_set, keep, idx))
    return canonicalize(PolyGaussFunction(len(keep), out_terms))


def _integrate_term(t: GaussPolyTerm, coord_set: set, keep: list,
                    term_index: int) -> GaussPolyTerm:
    n = t.n_vars
    coeff = t.coeff
    poly = t.poly
    resolved: set[int] = set()
    kept_deltas = set()
    for k in t.deltas:
        pair = {2 * k, 2 * k + 1}
        inside = pair & coord_set
        if len(inside) == 1:
            raise UnsupportedEvaluationError(
                "integration splits the coordinate pair of a delta factor"
            )
        if inside:
            resolved |= pair
            coeff *= np.pi
        else:
            kept_deltas.add(k)
    if resolved:
        poly = poly.substitute_zero(resolved)
        if poly.is_zero():
            return GaussPolyTerm(
                0.0, Polynomial(len(keep)), np.zeros((len(keep), len(keep))),
                np.zeros(len(keep), dtype=complex))
    I = sorted(coord_set - resolved)
    live = [i for i in range(n) if i not in resolved]
    K = [i for i in live if i not in coord_set]  # == keep as old indices

    if I:
        A_II = t.quad[np.ix_(I, I)]
        A_IK = t.quad[np.ix_(I, K)] if K else np.zeros((len(I), 0))
        A_KK = t.quad[np.ix_(K, K)] if K else np.zeros((0, 0))
        b_I = t.lin[I]
        b_K = t.lin[K] if K else np.zeros(0, dtype=complex)
        try:
            chol = np.linalg.cholesky(A_II)
        except np.linalg.LinAlgError as exc:
            raise DivergentIntegralError(
                f"integrated block of term {term_index} is not positive definite",
                term_index=term_index) from exc
        A_II_inv = np.linalg.inv(A_II)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        coeff *= np.exp(0.5 * len(I) * np.log(2.0 * np.pi) - 0.5 * logdet
                        + 0.5 * b_I @ A_II_inv @ b_I)
        new_A_full = np.zeros((n, n))
        new_b_full = np.zeros(n, dtype=complex)
        if K:
            cross = A_II_inv @ A_IK
            new_A_full[np.ix_(K, K)] = A_KK - A_IK.T @ cross
            new_b_full[K] = b_K - A_IK.T @ (A_II_inv @ b_I)
        # mean of the shifted Gaussian is affine in the kept variables
        one = Polynomial.constant(n)
        mu_polys = []
        for row in range(len(I)):
            p = Polynomial.constant(n, (A_II_inv @ b_I)[row])
            if K:
                shift = (A_II_inv @ A_IK)[row]
                for col, kk in enumerate(K):
                    if shift[col] != 0.0:
                        p = p + Polynomial.coordinate(n, kk, -shift[col])
            mu_polys.append(p)
        memo: dict = {}
        new_poly = Polynomial(n)
        pos_in_I = {c: r for r, c in enumerate(I)}
        for mono, c in poly.coeffs.items():
            alpha = tuple(mono[c_] for c_ in I)
            outer = tuple(0 if j in pos_in_I else e
                          for j, e in enumerate(mono))
            outer_poly = Polynomial(n, {outer: c})
            new_poly = new_poly + outer_poly * _moment_polynomial(
                alpha, mu_polys, A_II_inv, one, memo)
        poly = new_poly
        A_out, b_out = new_A_full, new_b_full
    else:
        A_out = t.quad.copy()
        b_out = t.lin.copy()
        A_out[list(resolved), :] = 0.0
        A_out[:, list(resolved)] = 0.0
        b_out[list(resolved)] = 0.0

    # compress to the kept coordinates
    poly_out = poly.reindex(keep)
    A_small = A_out[np.ix_(keep, keep)]
    b_small = b_out[keep]
    old_to_new = {old: new for new, old in enumerate(keep)}
    deltas_out = set()
    for k in kept_deltas:
        a, b2 = old_to_new.get(2 * k), old_to_new.get(2 * k + 1)
        if a is None or b2 is None or b2 != a + 1 or a % 2 != 0:
            raise UnsupportedEvaluationError(
                "integration breaks the pairing of a surviving delta factor"
            )
        deltas_out.add(a // 2)
    return GaussPolyTerm(coeff, poly_out, A_small, b_small, frozenset(deltas_out))


def integrate_out(f: PolyGaussFunction, cvars: Iterable[int]) -> PolyGaussFunction:
    """Integrate out whole complex variables (d^2 beta per variable)."""
    coords: list[int] = []
    for k in set(cvars):
        if not (0 <= 2 * k + 1 < f.n_vars):
            raise DimensionMismatchError(f"complex variable {k} out of range")
        coords.extend((2 * k, 2 * k + 1))
    return integrate_real(f, coords)


def canonicalize(f: PolyGaussFunction) -> PolyGaussFunction:
    """Merge terms sharing the same (A, b, deltas) up to 1e-12; drop zero terms."""
    groups: dict[tuple, list] = {}
    for t in f.terms:
        if t.coeff == 0 or t.poly.is_zero():
            continue
        key = (
            tuple(np.round(t.quad, 12).ravel() + 0.0),
            tuple(np.round(t.lin.real, 12) + 0.0),
            tuple(np.round(t.lin.imag, 12) + 0.0),
            tuple(sorted(t.deltas)),
        )
        groups.setdefault(key, []).append(t)
    terms = []
    for key in sorted(groups, key=repr):
        group = groups[key]
        base = group[0]
        merged = Polynomial(f.n_vars)
        for t in group:
            merged = merged + t.poly.scaled(t.coeff)
        if merged.is_zero():
            continue
        terms.append(GaussPolyTerm(1.0, merged, base.quad, base.lin, base.deltas))
    return PolyGaussFunction(f.n_vars, terms)
