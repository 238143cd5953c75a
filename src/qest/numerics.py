"""Dense Hermitian calculus for small operator spaces.

Everything here works on explicit complex matrices at desk scale (dimensions
up to a few hundred). Operators are validated at construction time so the
higher layers can assume well-formed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-10
DENSITY_TOL = 1e-10

# Eigenvalues this close to zero are treated as exactly zero when a function
# with domain restricted to nonnegative reals is applied.
EIGENVALUE_CLIP = 1e-10


class DomainError(ValueError):
    """A numerical-domain precondition was violated."""


def _as_complex_matrix(entries) -> np.ndarray:
    m = np.array(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix has non-finite entries")
    return m


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class HermitianOperator:
    """A Hermitian matrix on a power-of-two dimensional space.

    Its spectral decomposition is computed once, on first use of
    ``spectrum``, and shared by every function of the operator.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = _as_complex_matrix(self.entries)
        if not _is_power_of_two(m.shape[0]) or m.shape[0] < 2:
            raise DomainError(f"dimension {m.shape[0]} is not a power of two >= 2")
        asym = np.abs(m - m.conj().T).max()
        if asym > HERMITICITY_TOL:
            raise DomainError(f"matrix is not Hermitian: max |A - A^dag| = {asym:.3e}")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def spectrum(self) -> "SpectralDecomposition":
        return eigendecompose(self)

    @classmethod
    def from_spectrum(cls, dec: "SpectralDecomposition") -> "HermitianOperator":
        """U diag(eigenvalues) U^dag, symmetrised, with dec as its spectrum."""
        m = dec.reconstruct()
        op = cls((m + m.conj().T) / 2)
        op.__dict__["spectrum"] = dec  # the cached_property's slot
        return op

    def to_json(self) -> dict:
        return matrix_to_json(self.entries)

    @classmethod
    def from_json(cls, obj: dict) -> "HermitianOperator":
        return cls(matrix_from_json(obj))


@dataclass(frozen=True)
class UnitaryOperator:
    """A unitary matrix; dimension is unconstrained beyond being square."""

    entries: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.entries)
        m = _as_complex_matrix(raw)
        # Finite entries near the float limit overflow the Gram product to
        # inf or nan; the check below rejects both, so numpy need not warn.
        with np.errstate(over="ignore", invalid="ignore"):
            if raw.dtype.kind in "biuf":
                # Real input: U^dag U is U^T U, so the check runs in real BLAS.
                real = np.ascontiguousarray(raw, dtype=float)
                gram = real.T @ real
            else:
                gram = m.conj().T @ m
            gram[np.diag_indices_from(gram)] -= 1.0
            dev = np.abs(gram).max()
        if not dev <= UNITARITY_TOL:
            raise DomainError(f"matrix is not unitary: max |U^dag U - I| = {dev:.3e}")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in ascending order plus the basis-change unitary.

    Column x of basis_changer is the eigenvector for eigenvalues[x]; each
    column is phase-fixed so its first nonzero component is real positive.
    """

    eigenvalues: np.ndarray
    basis_changer: UnitaryOperator

    def __post_init__(self):
        vals = np.array(self.eigenvalues, dtype=float)
        if vals.ndim != 1 or vals.shape[0] != self.basis_changer.dim:
            raise DomainError("eigenvalue count does not match the basis dimension")
        if not np.all(np.isfinite(vals)):
            raise DomainError("eigenvalues must be finite")
        if np.any(np.diff(vals) < -1e-12):
            raise DomainError("eigenvalues are not in ascending order")
        vals.flags.writeable = False
        object.__setattr__(self, "eigenvalues", vals)

    @property
    def dim(self) -> int:
        return self.basis_changer.dim

    def reconstruct(self) -> np.ndarray:
        u = self.basis_changer.entries
        return (u * self.eigenvalues) @ u.conj().T


# Named weight shortcuts accepted wherever a polynomial coefficient list is
# expected. Coefficients are ascending in power.
_NAMED_WEIGHTS = {
    "one": (1.0,),
    "identity": (0.0, 1.0),
}

_FAMILIES = ("identity", "exponential", "weighted_exponential", "tabulated")

# Queries against a tabulated function must land this close to a grid point.
TABLE_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class FunctionSpec:
    """A nonnegative spectral function from a closed set of families.

    identity             f(xi) = xi
    exponential          f(xi) = exp(-beta * xi)
    weighted_exponential f(xi) = g(xi) * exp(-beta * xi), g a polynomial
    tabulated            explicit grid -> value map

    Evaluation must return finite nonnegative reals; a signed weight has to
    be split into a positive and a negative part before it gets here.
    """

    family: str
    beta: float = 0.0
    g_coeffs: tuple = ()
    grid: tuple = ()
    values: tuple = ()

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise DomainError(f"unknown function family {self.family!r}")
        if not np.isfinite(self.beta) or self.beta < 0:
            raise DomainError(f"beta must be finite and >= 0, got {self.beta}")
        object.__setattr__(self, "g_coeffs", tuple(float(c) for c in self.g_coeffs))
        if self.family == "weighted_exponential" and not self.g_coeffs:
            raise DomainError("weighted_exponential requires polynomial coefficients")
        if not np.all(np.isfinite(self.g_coeffs)):
            raise DomainError("polynomial coefficients must be finite")
        if self.family == "tabulated":
            grid = tuple(float(x) for x in self.grid)
            vals = tuple(float(v) for v in self.values)
            if len(grid) == 0 or len(grid) != len(vals):
                raise DomainError("tabulated spec needs matching grid and values")
            if not np.all(np.isfinite(grid)):
                raise DomainError("tabulated grid points must be finite")
            if any(v < 0 or not np.isfinite(v) for v in vals):
                raise DomainError("tabulated values must be finite and >= 0")
            object.__setattr__(self, "grid", grid)
            object.__setattr__(self, "values", vals)

    @classmethod
    def identity(cls) -> "FunctionSpec":
        return cls("identity")

    @classmethod
    def exponential(cls, beta: float) -> "FunctionSpec":
        return cls("exponential", beta=beta)

    @classmethod
    def weighted_exponential(cls, g, beta: float) -> "FunctionSpec":
        if isinstance(g, str):
            if g not in _NAMED_WEIGHTS:
                raise DomainError(f"unknown named weight {g!r}")
            g = _NAMED_WEIGHTS[g]
        return cls("weighted_exponential", beta=beta, g_coeffs=tuple(g))

    @classmethod
    def constant(cls, c: float) -> "FunctionSpec":
        return cls.weighted_exponential((c,), 0.0)

    @classmethod
    def tabulated(cls, grid, values) -> "FunctionSpec":
        return cls("tabulated", grid=tuple(grid), values=tuple(values))

    @property
    def restricted_domain(self) -> bool:
        """True when the function is only defined for xi >= 0."""
        return self.family != "identity"

    def _formula(self, x: np.ndarray) -> np.ndarray:
        """Raw family formula with no sign handling."""
        if self.family == "identity":
            return x.copy()
        if self.family == "exponential":
            return np.exp(-self.beta * x)
        if self.family == "weighted_exponential":
            return np.polyval(self.g_coeffs[::-1], x) * np.exp(-self.beta * x)
        return self._lookup(x)

    def evaluate(self, xi):
        """Evaluate on a scalar or array; rejects negative results.

        Identity is exempt from the sign check: it is the actual identity
        map, so a negative input legitimately comes back negative.
        """
        x = np.asarray(xi, dtype=float)
        out = self._formula(x)
        if not np.all(np.isfinite(out)):
            raise DomainError("function evaluation produced a non-finite value")
        if self.family != "identity":
            # Allow rounding-level undershoot, reject genuinely negative values.
            if np.any(out < -1e-12):
                raise DomainError(
                    "function evaluation produced a negative value; "
                    "split signed weights before evaluating"
                )
            out = np.maximum(out, 0.0)
        return float(out) if np.isscalar(xi) else out

    def _lookup(self, x: np.ndarray) -> np.ndarray:
        grid = np.asarray(self.grid)
        flat = np.atleast_1d(x)
        out = np.empty_like(flat)
        for i, q in enumerate(flat):
            j = int(np.argmin(np.abs(grid - q)))
            if abs(grid[j] - q) > TABLE_MATCH_TOL:
                raise DomainError(f"query {q} is not on the tabulated grid")
            out[i] = self.values[j]
        return out.reshape(x.shape)

    def to_json(self) -> dict:
        obj = {"family": self.family, "beta": self.beta, "g_coeffs": list(self.g_coeffs)}
        if self.family == "tabulated":
            obj["grid"] = list(self.grid)
            obj["values"] = list(self.values)
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "FunctionSpec":
        family = obj.get("family")
        if family == "tabulated":
            return cls.tabulated(obj["grid"], obj["values"])
        g = obj.get("g_coeffs", ())
        if isinstance(g, str):
            return cls.weighted_exponential(g, float(obj.get("beta", 0.0)))
        return cls(family, beta=float(obj.get("beta", 0.0)), g_coeffs=tuple(g))


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        dim = int(obj["dim"])
        re = np.array(obj["re"], dtype=float)
        im = np.array(obj["im"], dtype=float)
    # OverflowError: a dim of +-Infinity, or an integer entry beyond float.
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed matrix object: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise DomainError(
            f"matrix shape {re.shape}/{im.shape} does not match dim {dim}"
        )
    # A JSON null reads as nan, which the Hermiticity and unitarity checks
    # would let through.
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise DomainError("matrix entries must be finite numbers")
    return re + 1j * im


def _first_nonzero_index(col: np.ndarray, tol: float = 1e-12) -> int:
    idx = np.nonzero(np.abs(col) > tol)[0]
    return int(idx[0]) if idx.size else len(col)


def _phase_fix(col: np.ndarray) -> np.ndarray:
    """Rotate a vector so its first nonzero component is real positive."""
    i = _first_nonzero_index(col)
    if i == len(col):
        return col
    phase = col[i] / abs(col[i])
    return col * phase.conjugate()


def eigendecompose(op: HermitianOperator) -> SpectralDecomposition:
    """Spectral decomposition with a deterministic eigenvector convention.

    Eigenvalues come out ascending. Each eigenvector is phase-fixed so its
    first nonzero component is real positive, and within a degenerate group
    eigenvectors are ordered by the position of that component (then by the
    component values), which keeps diagonal input matrices diagonalized by
    the identity.
    """
    vals, vecs = np.linalg.eigh(op.entries)
    cols = [_phase_fix(vecs[:, i]) for i in range(len(vals))]

    order = list(range(len(vals)))
    start = 0
    while start < len(vals):
        stop = start + 1
        while stop < len(vals) and vals[stop] - vals[start] <= 1e-10:
            stop += 1
        if stop - start > 1:
            def degeneracy_key(i):
                c = cols[i]
                return (_first_nonzero_index(c),
                        tuple(np.round(c.view(float), 10)))
            order[start:stop] = sorted(order[start:stop], key=degeneracy_key)
        start = stop

    u = np.column_stack([cols[i] for i in order])
    return SpectralDecomposition(vals[order], UnitaryOperator(u))


def spectral_values(op: HermitianOperator, f: FunctionSpec) -> np.ndarray:
    """f on the spectrum of op, in the order of op.spectrum.

    A family defined only for xi >= 0 rejects eigenvalues below
    -EIGENVALUE_CLIP and sees the rest clipped at zero.
    """
    vals = op.spectrum.eigenvalues
    if f.restricted_domain:
        if vals.min() < -EIGENVALUE_CLIP:
            raise DomainError(
                f"eigenvalue {vals.min():.6e} is negative but the function "
                f"family {f.family!r} is only defined for xi >= 0"
            )
        vals = np.maximum(vals, 0.0)
    return f.evaluate(vals)


def function_of_hermitian(op: HermitianOperator, f: FunctionSpec) -> HermitianOperator:
    """f(A) through the eigenbasis: U diag(f(A_x)) U^dag."""
    fvals = spectral_values(op, f)
    u = op.spectrum.basis_changer.entries
    m = (u * fvals) @ u.conj().T
    return HermitianOperator((m + m.conj().T) / 2)


def unitary_exp(op: HermitianOperator, t: float) -> UnitaryOperator:
    """exp(i A t) through the eigenbasis of A."""
    if not np.isfinite(t) or t < 0:
        raise DomainError(f"evolution time must be finite and >= 0, got {t}")
    dec = op.spectrum
    u = dec.basis_changer.entries
    phases = np.exp(1j * dec.eigenvalues * t)
    return UnitaryOperator((u * phases) @ u.conj().T)


def exact_diag_element(
    a: HermitianOperator, v: UnitaryOperator, f: FunctionSpec, x0: int
) -> float:
    """<x0| V^dag f(A) V |x0> as a spectral sum.

    Computed as sum_x f(A_x) |<A_x|V|x0>|^2, which is an independent route
    from building the matrix f(A) and sandwiching it.
    """
    if a.dim != v.dim:
        raise DomainError(f"operator dim {a.dim} does not match unitary dim {v.dim}")
    if not 0 <= x0 < a.dim:
        raise DomainError(f"x0={x0} out of range for dimension {a.dim}")
    fvals = spectral_values(a, f)
    overlaps = a.spectrum.basis_changer.entries.conj().T @ v.entries[:, x0]
    return float(np.sum(fvals * np.abs(overlaps) ** 2))


def validate_density(rho: HermitianOperator) -> None:
    """Reject matrices that are not positive semidefinite with unit trace."""
    tr = np.trace(rho.entries).real
    if abs(tr - 1.0) > DENSITY_TOL:
        raise DomainError(f"density matrix trace is {tr}, expected 1")
    evmin = np.linalg.eigvalsh(rho.entries).min()
    if evmin < -DENSITY_TOL:
        raise DomainError(f"density matrix has negative eigenvalue {evmin:.3e}")


def exact_mean(omega: HermitianOperator, rho: HermitianOperator) -> float:
    """tr(Omega rho) for a valid density matrix rho."""
    if omega.dim != rho.dim:
        raise DomainError("observable and density dimensions differ")
    validate_density(rho)
    return float(np.trace(omega.entries @ rho.entries).real)


def exact_partition(h: HermitianOperator, beta: float, g: FunctionSpec) -> float:
    """Z_g = sum_x g(E_x) exp(-beta E_x) over the spectrum of H.

    This is the classical brute-force oracle, so it evaluates the raw
    family formula on whatever spectrum H has; domain policing belongs to
    the sampling path, which shifts H nonnegative first.
    """
    if not np.isfinite(beta) or beta < 0:
        raise DomainError(f"beta must be finite and >= 0, got {beta}")
    vals = np.linalg.eigvalsh(h.entries)
    gvals = g._formula(vals)
    if not np.all(np.isfinite(gvals)):
        raise DomainError("weight evaluation produced a non-finite value")
    return float(np.sum(gvals * np.exp(-beta * vals)))
