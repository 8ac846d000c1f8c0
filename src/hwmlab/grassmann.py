"""Grassmannian-valued loops on the torus and their standard constructors.

A point of the target is a Hermitian involution: ``U = U*``, ``U^2 = 1`` with
``Tr(U) = d - 2k``.  Loops are stored as truncated Fourier series together
with the residuals of the pointwise constraints on a validation grid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .hardy import (
    FourierSeries,
    evaluate_grid,
    fit_series,
    grid_product,
    pad_spectrum,
    product_block,
    sample_padded,
    series_stack,
    sobolev_energy,
)

__all__ = [
    "PAULI",
    "GrassmannLoop",
    "BlaschkeProduct",
    "GapCollapseError",
    "CutoffTooSmallError",
    "ValidationError",
    "pauli_encode",
    "pauli_decode",
    "blaschke_eval",
    "blaschke_series",
    "half_harmonic_map",
    "traveling_profile",
    "embed_block",
    "project_to_grassmann",
    "constraint_residuals",
    "validate_loop",
    "loop_to_json",
    "loop_from_json",
    "random_blaschke",
    "random_unitary",
    "random_rational_loop",
]

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

SQ_TOL = 1e-10
HERM_TOL = 1e-12


class GapCollapseError(ValueError):
    """Pointwise spectral projection is ill-posed: the k-th eigenvalue gap closed."""


class CutoffTooSmallError(ValueError):
    """Fourier tail of the requested object exceeds tolerance at this cutoff."""


class ValidationError(ValueError):
    """A loop constraint fails beyond tolerance."""


@dataclass(frozen=True)
class GrassmannLoop:
    """Loop into the rank-k Grassmannian, stored as a Fourier series.

    ``grid_check`` records the worst residuals found during validation:
    keys ``involution``, ``hermitian``, ``trace``.
    """

    d: int
    k: int
    series: FourierSeries
    grid_check: dict

    @property
    def N(self) -> int:
        return self.series.N

    def energy(self) -> float:
        return sobolev_energy(self.series)


_RESIDUAL_KEYS = ("involution", "hermitian", "trace")


def _hermitian_part(vals: np.ndarray) -> np.ndarray:
    # grid_product's X D X* is Hermitian only to rounding; exactly Hermitian samples fit
    # exactly Hermitian-symmetric coefficients
    return 0.5 * (vals + vals.swapaxes(-2, -1).conj())


def constraint_residuals(d: int, k: int, series):
    """Worst pointwise constraint residuals of a candidate loop on 4N+1 points.

    The involution constraint is quadratic in the series, doubling the
    bandwidth to 2N, which 4N+1 points resolve.  A stack of series (see
    :func:`series_stack`) gives a list of one dict per series, in C order over
    the stack axes, each equal bit for bit to the call on that series alone.
    The transform is exact on 4N+1 points, so ``hermitian``, the largest sample
    of U - U^H, bounds its coefficients c_n - c_{-n}^H.  The samples are the
    padded spectrum's entry block transformed in place, and U^2 is formed one
    row at a time (the :func:`product_block` of a row block and the block), so
    the check holds one full block and one row block.
    """
    N, coeffs = series_stack(series)
    U = pad_spectrum(coeffs, 4 * N + 1)
    # every residual is a modulus, so the sign of a zero sample (see evaluate_grid) never shows
    sample_padded(U, out=U)
    rows = []
    for i in range(d):
        row = product_block(U[i : i + 1], U)[0]
        row[i] -= 1
        worst = np.abs(row).max(axis=(0, -1))
        # |U_ic - conj(U_ci)| is symmetric in (i, c): the columns c >= i of each row hold every
        # value; taken in the row's own buffer once its U^2 residual is read
        herm = np.subtract(U[i, i:], np.conjugate(U[i:, i], out=row[i:]), out=row[i:])
        rows.append((worst, np.abs(herm).max(axis=(0, -1))))
    involution, hermitian = np.max(rows, axis=0)
    trace = np.abs(U.trace().real - (d - 2 * k)).max(axis=-1)
    values = np.stack([involution, hermitian, trace], axis=-1)
    if values.ndim == 1:
        return dict(zip(_RESIDUAL_KEYS, values.tolist()))
    return [dict(zip(_RESIDUAL_KEYS, row)) for row in values.reshape(-1, 3).tolist()]


def validate_loop(
    d: int,
    k: int,
    series: FourierSeries,
    sq_tol: float = SQ_TOL,
    herm_tol: float = HERM_TOL,
) -> GrassmannLoop:
    """Check the pointwise constraints and wrap into a GrassmannLoop."""
    check = constraint_residuals(d, k, series)
    # negated, so a NaN residual fails too
    if not check["hermitian"] <= herm_tol:
        raise ValidationError(f"Hermitian residual {check['hermitian']:.3e} exceeds {herm_tol:.1e}")
    if not check["involution"] <= sq_tol:
        raise ValidationError(f"involution residual {check['involution']:.3e} exceeds {sq_tol:.1e}")
    if not check["trace"] <= 1e-8:
        raise ValidationError(f"trace residual {check['trace']:.3e} (target {d - 2 * k})")
    return GrassmannLoop(d, k, series, check)


def pauli_encode(u) -> np.ndarray:
    """Unit 3-vector -> the 2x2 traceless Hermitian involution u . sigma."""
    u = np.asarray(u, dtype=float)
    if u.shape != (3,):
        raise ValueError("expected a 3-vector")
    if abs(np.linalg.norm(u) - 1.0) > 1e-10:
        raise ValueError(f"|u| = {np.linalg.norm(u)} is not 1")
    return u[0] * PAULI[0] + u[1] * PAULI[1] + u[2] * PAULI[2]


def pauli_decode(U) -> np.ndarray:
    """Inverse of pauli_encode on a 2x2 matrix: u_k = Tr(U sigma_k) / 2."""
    U = np.asarray(U)
    if U.shape != (2, 2):
        raise ValueError(f"pauli_decode needs a 2x2 matrix, got shape {U.shape}")
    return np.array([0.5 * np.trace(U @ s).real for s in PAULI])


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite product of disk automorphisms e^{i phase} prod (z - a_j)/(1 - conj(a_j) z)."""

    phase: float
    zeros: tuple

    def __post_init__(self):
        zs = tuple(complex(a) for a in self.zeros)
        if not np.isfinite(self.phase):
            raise ValueError(f"the Blaschke phase must be finite, got {self.phase}")
        # negated, so a NaN zero fails too
        for a in zs:
            if not abs(a) < 1.0:
                raise ValueError(f"all Blaschke zeros must lie strictly inside the unit disk, got {a}")
        object.__setattr__(self, "zeros", zs)

    @property
    def degree(self) -> int:
        return len(self.zeros)


def blaschke_eval(b: BlaschkeProduct, z) -> np.ndarray | complex:
    """Evaluate the product on the closed disk; unimodular for |z| = 1."""
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z) > 1.0 + 1e-12):
        raise ValueError("blaschke_eval is restricted to |z| <= 1")
    out = np.full(z.shape, np.exp(1j * b.phase), dtype=complex)
    for a in b.zeros:
        out = out * (z - a) / (1.0 - np.conj(a) * z)
    return out if out.shape else complex(out)


def blaschke_series(b: BlaschkeProduct, N: int, tail_tol: float = 1e-12) -> np.ndarray:
    """Hardy coefficients of the boundary trace, fitted from 4N+1 samples.

    Raises CutoffTooSmallError when the geometric tail at N exceeds tail_tol.
    """
    rho = max((abs(a) for a in b.zeros), default=0.0)
    if N < b.degree:
        raise CutoffTooSmallError(f"cutoff {N} cannot hold a degree-{b.degree} product")
    if rho > 0.0 and rho ** (N - b.degree) > tail_tol:
        raise CutoffTooSmallError(
            f"cutoff {N} leaves a coefficient tail ~{rho ** (N - b.degree):.2e} > {tail_tol:.1e}"
        )
    M = 4 * N + 1
    theta = 2.0 * np.pi * np.arange(M) / M
    vals = blaschke_eval(b, np.exp(1j * theta))
    return fit_series(vals[:, None, None], N)[N:, 0, 0]


def _offdiag_loop(b: BlaschkeProduct, diag: float, U: np.ndarray | None, N: int, tail_tol: float) -> FourierSeries:
    # series of [[diag, s * conj(B)], [s * B, -diag]] conjugated by the constant unitary U
    s = np.sqrt(max(0.0, 1.0 - diag * diag))
    bc = blaschke_series(b, N, tail_tol)
    coeffs = np.zeros((2 * N + 1, 2, 2), dtype=complex)
    # += and -= rather than =, so zero entries keep the +0.0 sign of 0 + x (-diag at diag = 0 too)
    coeffs[N, 0, 0] += diag
    coeffs[N, 1, 1] -= diag
    coeffs[N:, 1, 0] += s * bc
    coeffs[N::-1, 0, 1] += s * np.conj(bc)
    if U is not None:
        U = np.asarray(U, dtype=complex)
        if np.max(np.abs(U @ U.conj().T - np.eye(2))) > 1e-12:
            raise ValueError("conjugating matrix must be unitary")
        coeffs = np.einsum("ij,mjk,kl->mil", U, coeffs, U.conj().T)
    return FourierSeries(2, N, coeffs)


def half_harmonic_map(b: BlaschkeProduct, N: int = 64) -> GrassmannLoop:
    """Stationary loop with off-diagonal Blaschke product, energy = degree:
    :func:`traveling_profile` at speed 0, unconjugated, with its default tail tolerance."""
    return traveling_profile(b, 0.0, N=N)


def traveling_profile(
    b: BlaschkeProduct,
    v: float,
    U: np.ndarray | None = None,
    N: int = 64,
    tail_tol: float = 1e-12,
) -> GrassmannLoop:
    """Traveling-wave profile with speed parameter |v| < 1; energy (1-v^2) * degree.

    The time evolution translates this profile as theta + v*t (determined
    empirically by the evolution tests; see TRAVELING_SIGN).  The loop is
    validated at ``SQ_TOL`` and ``HERM_TOL`` and carries the measured
    residuals; a cutoff whose dropped Blaschke tail exceeds ``tail_tol``
    raises CutoffTooSmallError.
    """
    # negated, so a NaN speed fails too
    if not abs(v) < 1.0:
        raise ValueError(f"speed parameter must satisfy |v| < 1, got {v}")
    # + 0.0 turns -0.0 into 0.0, so v = -0.0 gives the v = 0 loop bit for bit
    return validate_loop(2, 1, _offdiag_loop(b, float(v) + 0.0, U, N, tail_tol))


# Empirical translation law for traveling_profile under the flow:
# U(t, theta) = Q_v(theta + TRAVELING_SIGN * v * t).  Fixed by the
# rotated-profile comparison in the evolution tests, not assumed.
TRAVELING_SIGN = +1


def embed_block(q: GrassmannLoop, d: int, k: int) -> GrassmannLoop:
    """Embed a rank-1 loop on C^2 into the rank-k Grassmannian of C^d.

    Pads with the constant block diag(1_p, -1_q) where p - q = d - 2k and
    p + q = d - 2; infeasible targets are rejected.  Energy is unchanged.
    """
    if q.d != 2 or q.k != 1:
        raise ValueError("embed_block expects a d=2, k=1 loop")
    if d == 2 and k == 1:
        return q
    p = d - k - 1
    qq = k - 1
    if p < 0 or qq < 0 or p + qq != d - 2:
        raise ValueError(f"no constant padding block exists for (d, k) = ({d}, {k})")
    N = q.N
    coeffs = np.zeros((2 * N + 1, d, d), dtype=complex)
    coeffs[:, :2, :2] = q.series.coeffs
    j = np.concatenate([np.ones(p), -np.ones(qq)])
    coeffs[N, 2:, 2:] = np.diag(j)
    return validate_loop(d, k, FourierSeries(d, N, coeffs))


def project_to_grassmann(
    a: FourierSeries,
    d: int,
    k: int,
    sq_tol: float = SQ_TOL,
    herm_tol: float = HERM_TOL,
) -> GrassmannLoop:
    """Pointwise spectral projection of a nearby series onto the target.

    At each grid point the Hermitian part is diagonalized and mapped to the
    involution with exactly k negative eigenvalues; a gap below 1e-8 between
    the k-th and (k+1)-th eigenvalue raises GapCollapseError.  The projected
    samples are refit at the input cutoff, so the input should be close to a
    band-limited loop for the constraints to validate.
    """
    if a.d != d:
        raise ValueError(f"series dimension {a.d} does not match d = {d}")
    if k < 1 or k > d - 1:
        raise ValueError(f"need 1 <= k <= d-1, got k = {k}")
    M = 4 * a.N + 1
    vals = evaluate_grid(a, M)
    lam, vecs = np.linalg.eigh(_hermitian_part(vals))
    gap = np.min(lam[:, k] - lam[:, k - 1])
    if gap < 1e-8:
        raise GapCollapseError(f"eigenvalue gap {gap:.3e} at the rank cut (tolerance 1.0e-08)")
    signs = np.ones(d)
    signs[:k] = -1.0
    proj = _hermitian_part(grid_product(vecs * signs, vecs.swapaxes(-2, -1).conj()))
    series = FourierSeries(d, a.N, fit_series(proj, a.N))
    return validate_loop(d, k, series, sq_tol=sq_tol, herm_tol=herm_tol)


def loop_to_json(loop: GrassmannLoop) -> str:
    """Serialize as {d, k, N, coeffs} with [re, im] pairs in row-major mode order."""
    flat = loop.series.coeffs.reshape(-1)
    payload = {
        "d": loop.d,
        "k": loop.k,
        "N": loop.N,
        "coeffs": [[z.real, z.imag] for z in flat],
    }
    return json.dumps(payload)


def loop_from_json(text: str) -> GrassmannLoop:
    """Bit-exact inverse of loop_to_json; a malformed payload raises ValueError naming the problem."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError(f"loop JSON must be an object, got {type(payload).__name__}")
    for key in ("d", "k", "N", "coeffs"):
        if key not in payload:
            raise ValueError(f"loop JSON lacks {key!r}")
    if not all(type(payload[key]) is int for key in "dkN"):
        raise ValueError("loop JSON d, k and N must be integers")
    d, k, N = payload["d"], payload["k"], payload["N"]
    try:
        flat = np.array([complex(re, im) for re, im in payload["coeffs"]])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"loop JSON coeffs must be [re, im] number pairs: {exc}") from exc
    coeffs = flat.reshape(2 * N + 1, d, d)
    return validate_loop(d, k, FourierSeries(d, N, coeffs))


def random_blaschke(rng: np.random.Generator, degree: int, max_radius: float = 0.6) -> BlaschkeProduct:
    """Blaschke product with zeros drawn uniformly from a centered disk."""
    r = max_radius * np.sqrt(rng.random(degree))
    phi = 2.0 * np.pi * rng.random(degree)
    phase = float(2.0 * np.pi * rng.random())
    return BlaschkeProduct(phase, tuple(r * np.exp(1j * phi)))


def random_unitary(rng: np.random.Generator, d: int = 2) -> np.ndarray:
    """Haar-ish unitary from the QR factorization of a Ginibre sample."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_rational_loop(
    rng: np.random.Generator,
    d: int = 2,
    k: int = 1,
    twists: int = 1,
) -> GrassmannLoop:
    """Generic trigonometric-polynomial loop via unitary twists of a base point.

    Conjugates diag(1_{d-k}, -1_k) by a product W of loops V (1 + (z - 1) P) with
    random constant unitaries V and rank-one projections P; W has degree ``twists``,
    so U = W B W* has bandwidth ``twists``, the cutoff.  These data are rational but
    (unlike the Blaschke constructions) generically not stationary or traveling.
    """
    if not 1 <= k <= d - 1:
        raise ValueError(f"need 1 <= k <= d-1, got (d, k) = ({d}, {k})")
    N = twists
    M = 4 * N + 1
    theta = 2.0 * np.pi * np.arange(M) / M
    z = np.exp(1j * theta)
    w = np.broadcast_to(np.eye(d, dtype=complex), (M, d, d)).copy()
    for _ in range(twists):
        v = random_unitary(rng, d)
        g = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        g = g / np.linalg.norm(g)
        p = np.outer(g, g.conj())
        factor = np.eye(d) + (z[:, None, None] - 1.0) * p
        w = grid_product(grid_product(w, v), factor)
    base = np.diag(np.concatenate([np.ones(d - k), -np.ones(k)])).astype(complex)
    vals = _hermitian_part(grid_product(grid_product(w, base), w.swapaxes(-2, -1).conj()))
    return validate_loop(d, k, FourierSeries(d, N, fit_series(vals, N)))
