"""Spectral machinery checked against brute-force series and loop oracles.

Every oracle here is written the slow obvious way (explicit loops, raw
Taylor series, np.linalg directly) so it shares no code path with the
implementation it checks.
"""

import warnings

import numpy as np
import pytest

from qest.numerics import (
    DEGENERACY_TOL,
    DomainError,
    FunctionSpec,
    HermitianOperator,
    SpectralDecomposition,
    UnitaryOperator,
    eigendecompose,
    exact_diag_element,
    exact_mean,
    exact_partition,
    function_of_hermitian,
    matrix_from_json,
    matrix_to_json,
    unitary_exp,
    validate_density,
)
from qest.synth import random_density, random_hermitian, random_unitary

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


# ---------------------------------------------------------------- oracles

def taylor_exp_neg(m: np.ndarray, beta: float, terms: int = 30) -> np.ndarray:
    """exp(-beta*m) by raw Taylor summation."""
    out = np.eye(len(m), dtype=complex)
    term = np.eye(len(m), dtype=complex)
    for k in range(1, terms):
        term = term @ (-beta * m) / k
        out = out + term
    return out


def series_unitary_exp(m: np.ndarray, t: float) -> np.ndarray:
    """exp(i*m*t) by scaling-and-squaring over a 25-term series."""
    s = max(0, int(np.ceil(np.log2(max(1.0, np.abs(m).max() * abs(t))))) + 3)
    x = 1j * t * m / 2 ** s
    out = np.eye(len(m), dtype=complex)
    term = np.eye(len(m), dtype=complex)
    for k in range(1, 25):
        term = term @ x / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def loop_trace(a: np.ndarray, b: np.ndarray) -> float:
    """tr(a @ b) as an explicit double loop."""
    total = 0.0
    for i in range(len(a)):
        for j in range(len(a)):
            total += (a[i, j] * b[j, i]).real
    return total


def shifted_nonneg(rng: np.random.Generator, dim: int) -> HermitianOperator:
    a = random_hermitian(rng, dim)
    lift = -np.linalg.eigvalsh(a.entries).min()
    return HermitianOperator(a.entries + max(lift, 0.0) * np.eye(dim))


# ----------------------------------------------------------------- types

def test_hermitian_rejects_asymmetry():
    m = np.array([[1.0, 1e-6], [0.0, 2.0]], dtype=complex)
    with pytest.raises(DomainError):
        HermitianOperator(m)


def test_hermitian_accepts_rounding_level_asymmetry():
    m = np.array([[1.0, 0.5 + 1e-14j], [0.5 - 1e-14j, 2.0]])
    HermitianOperator(m)


def test_hermitian_near_the_float_limit_needs_no_warning():
    # A - A^dag overflows to inf for the first matrix, and so would
    # m + m^dag in from_spectrum for the second's reconstruction.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="not Hermitian"):
            HermitianOperator(np.array([[1.7e308j, 0.0], [0.0, 0.0]]))
        dec = SpectralDecomposition([0.0, 1.7e308], UnitaryOperator(np.eye(2)))
        assert HermitianOperator.from_spectrum(dec).entries[1, 1] == 1.7e308


@pytest.mark.parametrize("dim", [1, 3, 5, 6])
def test_hermitian_rejects_non_power_of_two(dim):
    with pytest.raises(DomainError):
        HermitianOperator(np.eye(dim))


def test_unitary_invariant():
    UnitaryOperator(np.eye(4))
    with pytest.raises(DomainError):
        UnitaryOperator(1.001 * np.eye(4))


def test_spectral_decomposition_requires_ascending():
    with pytest.raises(DomainError):
        SpectralDecomposition(np.array([1.0, 0.0]), UnitaryOperator(np.eye(2)))


# --------------------------------------------------------- eigendecompose

def test_eigendecompose_identity():
    dec = eigendecompose(HermitianOperator(np.eye(2)))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0])
    np.testing.assert_allclose(dec.basis_changer.entries, np.eye(2), atol=1e-12)


def test_eigendecompose_diagonal():
    dec = eigendecompose(HermitianOperator(np.diag([0.0, 3.0])))
    np.testing.assert_allclose(dec.eigenvalues, [0.0, 3.0])
    np.testing.assert_allclose(dec.basis_changer.entries, np.eye(2), atol=1e-12)


def test_eigendecompose_pauli_x():
    dec = eigendecompose(HermitianOperator(PAULI_X))
    np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-12)
    r = 1 / np.sqrt(2)
    # Phase convention: first nonzero component real positive.
    np.testing.assert_allclose(dec.basis_changer.entries[:, 0], [r, -r], atol=1e-12)
    np.testing.assert_allclose(dec.basis_changer.entries[:, 1], [r, r], atol=1e-12)


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_reconstruction_sweep(dim):
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a = random_hermitian(rng, dim)
        dec = eigendecompose(a)
        assert np.abs(dec.reconstruct() - a.entries).max() <= 1e-10


def test_phase_convention_sweep():
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        dec = eigendecompose(random_hermitian(rng, 4))
        for col in dec.basis_changer.entries.T:
            lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert abs(lead.imag) <= 1e-10
            assert lead.real > 0


def test_eigendecompose_deterministic_under_degeneracy():
    # A degenerate spectrum still yields one canonical basis.
    a = HermitianOperator(np.kron(np.eye(2), PAULI_X))
    first = eigendecompose(a)
    again = eigendecompose(a)
    np.testing.assert_array_equal(
        first.basis_changer.entries, again.basis_changer.entries
    )
    assert np.abs(first.reconstruct() - a.entries).max() <= 1e-10


@pytest.mark.parametrize("gap", [5e-11, 0.9 * DEGENERACY_TOL])
def test_eigendecompose_near_degenerate_diagonal(gap):
    # 1 + gap and 1 count as one eigenvalue, whose vectors are ordered by
    # position, so the spectrum descends by gap; the ascending check used to
    # reject any descent over 1e-12.
    dec = eigendecompose(HermitianOperator(np.diag([1.0 + gap, 1.0])))
    assert dec.eigenvalues.tolist() == [1.0 + gap, 1.0]
    np.testing.assert_array_equal(dec.basis_changer.entries, np.eye(2))


def test_spectral_decomposition_rejects_descent_beyond_degeneracy():
    SpectralDecomposition(np.array([1.0, 1.0 - 0.9 * DEGENERACY_TOL]), UnitaryOperator(np.eye(2)))
    with pytest.raises(DomainError, match="ascending"):
        SpectralDecomposition(np.array([1.0, 1.0 - 2 * DEGENERACY_TOL]), UnitaryOperator(np.eye(2)))


def test_spectrum_wider_than_the_float_range_needs_no_warning():
    # The gap 1.7e308 - (-1.7e308) overflows in eigendecompose's grouping
    # and in the ascending-order check; as inf it still compares correctly.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dec = eigendecompose(HermitianOperator(np.diag([-1.7e308, 1.7e308])))
        assert dec.eigenvalues.tolist() == [-1.7e308, 1.7e308]
        np.testing.assert_array_equal(dec.basis_changer.entries, np.eye(2))
        SpectralDecomposition([-1.7e308, 1.7e308], UnitaryOperator(np.eye(2)))
        with pytest.raises(DomainError, match="ascending"):
            SpectralDecomposition([1.7e308, -1.7e308], UnitaryOperator(np.eye(2)))


def _first_nonzero_index(col: np.ndarray) -> int:
    idx = np.nonzero(np.abs(col) > 1e-12)[0]
    return int(idx[0]) if idx.size else len(col)


def reference_eigendecompose(entries: np.ndarray):
    """The per-column decomposition: each eigenvector phase-fixed on its own,
    each degenerate group sorted, the columns stacked."""
    vals, vecs = np.linalg.eigh(entries)
    cols = []
    for i in range(len(vals)):
        col = vecs[:, i]
        lead = _first_nonzero_index(col)
        if lead < len(col):
            col = col * (col[lead] / abs(col[lead])).conjugate()
        cols.append(col)

    def degeneracy_key(i):
        return (_first_nonzero_index(cols[i]), tuple(np.round(cols[i].view(float), 10)))

    order = list(range(len(vals)))
    start = 0
    with np.errstate(over="ignore"):
        while start < len(vals):
            stop = start + 1
            while stop < len(vals) and vals[stop] - vals[start] <= DEGENERACY_TOL:
                stop += 1
            order[start:stop] = sorted(order[start:stop], key=degeneracy_key)
            start = stop
    return vals[order], np.column_stack([cols[i] for i in order])


def _rotated(rng, spectrum) -> np.ndarray:
    u = random_unitary(rng, len(spectrum)).entries
    return (u * np.asarray(spectrum)) @ u.conj().T


def _block_diagonal(rng, dim: int) -> np.ndarray:
    """Two Hermitian blocks: the second block's eigenvectors lead with
    exact zeros."""
    m = np.zeros((dim, dim), dtype=complex)
    half = dim // 2
    for block, shift in ((slice(0, half), 0.0), (slice(half, dim), 5.0)):
        b = rng.normal(size=(half, half)) + 1j * rng.normal(size=(half, half))
        m[block, block] = (b + b.conj().T) / 2 + shift * np.eye(half)
    return m


def _oracle_cases():
    rng = np.random.default_rng(233)
    cases = []
    for dim in (2, 4, 8, 16, 32, 64, 128):
        cases += [random_hermitian(rng, dim).entries for _ in range(8 if dim < 128 else 3)]
        cases += [
            np.eye(dim),
            np.kron(np.eye(dim // 2), PAULI_X),
            np.diag(rng.integers(0, 3, dim).astype(float)),
            _rotated(rng, np.repeat(rng.normal(size=dim // 2), 2)),
            _block_diagonal(rng, dim),
        ]
    cases += [
        np.diag([1.0 + 0.9 * DEGENERACY_TOL, 1.0]),
        _rotated(rng, [0.0, 1.0, 1.0 + 0.5 * DEGENERACY_TOL, 2.0]),
        np.diag([-1.7e308, 1.7e308]),
    ]
    return cases


def test_eigendecompose_bitwise_equals_per_column_reference():
    leading_zero = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for entries in _oracle_cases():
            op = HermitianOperator(entries)
            dec = eigendecompose(op)
            vals, u = reference_eigendecompose(op.entries)
            # Bit for bit, signed zeros included; row-major, as the reference.
            assert dec.eigenvalues.tobytes() == vals.tobytes()
            assert dec.basis_changer.entries.flags.c_contiguous
            assert dec.basis_changer.entries.tobytes() == u.tobytes()
            leading_zero += np.any(u[0] == 0)
    assert leading_zero > 0


# ---------------------------------------------------- function_of_hermitian

def test_function_identity_returns_operator():
    rng = np.random.default_rng(0)
    a = random_hermitian(rng, 4)
    out = function_of_hermitian(a, FunctionSpec.identity())
    assert np.abs(out.entries - a.entries).max() <= 1e-12


def test_function_exponential_diagonal():
    a = HermitianOperator(np.diag([0.0, np.log(2.0)]))
    out = function_of_hermitian(a, FunctionSpec.exponential(1.0))
    np.testing.assert_allclose(out.entries, np.diag([1.0, 0.5]), atol=1e-12)


def test_function_exponential_matches_taylor_oracle():
    rng = np.random.default_rng(7)
    a = shifted_nonneg(rng, 4)
    out = function_of_hermitian(a, FunctionSpec.exponential(0.7))
    oracle = taylor_exp_neg(a.entries, 0.7)
    assert np.abs(out.entries - oracle).max() <= 1e-8


def test_function_rejects_negative_spectrum():
    a = HermitianOperator(np.diag([-0.5, 1.0]))
    with pytest.raises(DomainError):
        function_of_hermitian(a, FunctionSpec.exponential(1.0))
    # Identity has full real domain, so the same operator passes.
    function_of_hermitian(a, FunctionSpec.identity())


def test_function_commutes_with_basis_change():
    f = FunctionSpec.exponential(0.4)
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        a = shifted_nonneg(rng, 4)
        v = random_unitary(rng, 4).entries
        rotated = HermitianOperator(v @ a.entries @ v.conj().T)
        lhs = function_of_hermitian(rotated, f).entries
        rhs = v @ function_of_hermitian(a, f).entries @ v.conj().T
        assert np.abs(lhs - rhs).max() <= 1e-10


# --------------------------------------------------------------- unitary_exp

def test_unitary_exp_zero_time():
    rng = np.random.default_rng(3)
    a = random_hermitian(rng, 4)
    np.testing.assert_allclose(unitary_exp(a, 0.0).entries, np.eye(4), atol=1e-12)


def test_unitary_exp_pi():
    a = HermitianOperator(np.diag([0.0, np.pi]))
    np.testing.assert_allclose(
        unitary_exp(a, 1.0).entries, np.diag([1.0, -1.0]), atol=1e-12
    )


def test_unitary_exp_matches_series_oracle():
    rng = np.random.default_rng(11)
    a = random_hermitian(rng, 4)
    out = unitary_exp(a, 0.3)
    assert np.abs(out.entries - series_unitary_exp(a.entries, 0.3)).max() <= 1e-9


def test_unitary_exp_group_property():
    rng = np.random.default_rng(13)
    a = random_hermitian(rng, 4)
    u = unitary_exp(a, 0.4).entries @ unitary_exp(a, 0.9).entries
    assert np.abs(u - unitary_exp(a, 1.3).entries).max() <= 1e-9


# --------------------------------------------------------- exact_diag_element

def test_exact_diag_identity_function():
    a = HermitianOperator(np.diag([0.0, 1.0]))
    v = UnitaryOperator(np.eye(2))
    assert exact_diag_element(a, v, FunctionSpec.identity(), 0) == pytest.approx(0.0)


def test_exact_diag_tabulated_constant():
    a = HermitianOperator(np.diag([0.0, 1.0]))
    v = UnitaryOperator(np.eye(2))
    one = FunctionSpec.tabulated((0.0, 1.0), (1.0, 1.0))
    for x0 in (0, 1):
        assert exact_diag_element(a, v, one, x0) == pytest.approx(1.0)


def test_exact_diag_shifted_pauli_x():
    a = HermitianOperator(PAULI_X + np.eye(2))
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    v = UnitaryOperator(h)
    got = exact_diag_element(a, v, FunctionSpec.identity(), 0)
    assert got == pytest.approx(2.0, abs=1e-12)


def test_exact_diag_index_range():
    a = HermitianOperator(np.diag([0.0, 1.0]))
    v = UnitaryOperator(np.eye(2))
    with pytest.raises(DomainError):
        exact_diag_element(a, v, FunctionSpec.identity(), 2)


def test_exact_diag_crosschecks_matrix_route():
    # Independent route: build f(A) as a matrix, conjugate, read the entry.
    f = FunctionSpec.exponential(0.6)
    for seed in range(8):
        rng = np.random.default_rng(300 + seed)
        a = shifted_nonneg(rng, 4)
        v = random_unitary(rng, 4)
        fa = function_of_hermitian(a, f).entries
        m = v.entries.conj().T @ fa @ v.entries
        for x0 in range(4):
            want = m[x0, x0].real
            assert abs(exact_diag_element(a, v, f, x0) - want) <= 1e-12


# ------------------------------------------------------- mean and partition

def test_exact_mean_identity_observable():
    rng = np.random.default_rng(17)
    rho = random_density(rng, 4)
    assert exact_mean(HermitianOperator(np.eye(4)), rho) == pytest.approx(1.0)


def test_exact_mean_two_thirds_fixture():
    omega = HermitianOperator(np.diag([0.0, 1.0]))
    rho = HermitianOperator(np.diag([2 / 3, 1 / 3]))
    assert exact_mean(omega, rho) == pytest.approx(1 / 3)


def test_exact_mean_matches_loop_oracle():
    rng = np.random.default_rng(19)
    omega = random_hermitian(rng, 4)
    rho = random_density(rng, 4)
    want = loop_trace(omega.entries, rho.entries)
    assert abs(exact_mean(omega, rho) - want) <= 1e-12


def test_exact_mean_rejects_non_density():
    omega = HermitianOperator(np.eye(2))
    with pytest.raises(DomainError):
        exact_mean(omega, HermitianOperator(np.diag([0.7, 0.7])))
    with pytest.raises(DomainError):
        exact_mean(omega, HermitianOperator(np.diag([1.5, -0.5])))


def test_validate_density_accepts_boundary():
    validate_density(HermitianOperator(np.diag([1.0, 0.0])))


def test_exact_partition_hand_values():
    h = HermitianOperator(np.diag([0.0, 1.0]))
    one = FunctionSpec.constant(1.0)
    assert exact_partition(h, np.log(2.0), one) == pytest.approx(1.5)
    rng = np.random.default_rng(23)
    h8 = random_hermitian(rng, 8)
    assert exact_partition(h8, 0.0, one) == pytest.approx(8.0)


def test_exact_partition_matches_eigenvalue_loop():
    rng = np.random.default_rng(29)
    h = shifted_nonneg(rng, 8)
    got = exact_partition(h, 0.5, FunctionSpec.identity())
    vals = np.linalg.eigvalsh(h.entries)
    want = sum(float(e) * np.exp(-0.5 * e) for e in vals)
    assert abs(got - want) <= 1e-10


# ------------------------------------------------------------- serialization

def test_matrix_json_round_trip():
    rng = np.random.default_rng(31)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    back = matrix_from_json(matrix_to_json(m))
    np.testing.assert_array_equal(back, m)


def test_function_spec_round_trip():
    cases = [
        ({"family": "identity"}, FunctionSpec.identity()),
        ({"family": "exponential", "beta": 1.25}, FunctionSpec.exponential(1.25)),
        (
            {"family": "weighted_exponential", "beta": 0.3, "g_coeffs": [0.5, 2]},
            FunctionSpec.weighted_exponential((0.5, 2.0), 0.3),
        ),
        (
            {"family": "tabulated", "grid": [0, 1.0, 2.0], "values": [1.0, 0.25, 4]},
            FunctionSpec.tabulated((0.0, 1.0, 2.0), (1.0, 0.25, 4.0)),
        ),
    ]
    for obj, spec in cases:
        assert FunctionSpec.from_json(obj) == spec


# A field the family does not read, and an unknown family. A g_coeffs name
# used to turn an exponential spec into a weighted one.
UNREAD_FIELDS = {
    "exponential-g_coeffs-list": ({"family": "exponential", "beta": 0.5, "g_coeffs": [5.0]}, "'g_coeffs'"),
    "exponential-g_coeffs-name": ({"family": "exponential", "g_coeffs": "identity"}, "'g_coeffs'"),
    "identity-beta": ({"family": "identity", "beta": 3.0}, "'beta'"),
    "tabulated-beta": ({"family": "tabulated", "grid": [0.0], "values": [1.0], "beta": 1.0}, "'beta'"),
    "weighted-grid": ({"family": "weighted_exponential", "g_coeffs": [1.0], "grid": [0.0]}, "'grid'"),
    "no-family": ({"g_coeffs": "one"}, "family None"),
}


@pytest.mark.parametrize("case", sorted(UNREAD_FIELDS))
def test_function_spec_rejects_fields_its_family_does_not_read(case):
    obj, named = UNREAD_FIELDS[case]
    with pytest.raises(DomainError, match=named):
        FunctionSpec.from_json(obj)


def test_function_spec_named_weights():
    assert FunctionSpec.weighted_exponential("one", 0.5).g_coeffs == (1.0,)
    assert FunctionSpec.weighted_exponential("identity", 0.5).g_coeffs == (0.0, 1.0)
    with pytest.raises(DomainError):
        FunctionSpec.weighted_exponential("cubic", 0.5)


def test_function_evaluation_stays_nonnegative():
    spec = FunctionSpec.weighted_exponential((1.0, -1.0), 0.0)  # g = 1 - xi
    assert spec.evaluate(1.0) == pytest.approx(0.0)
    with pytest.raises(DomainError):
        spec.evaluate(2.0)


@pytest.mark.parametrize(
    "spec",
    [FunctionSpec.exponential(1.7e308), FunctionSpec.weighted_exponential((2.0,), 1.7e308)],
    ids=["exponential", "weighted_exponential"],
)
def test_function_evaluation_with_overflowing_exponent_needs_no_warning(spec):
    # beta * xi overflows: exp(-inf) is 0, and exp(+inf) a rejected inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert spec.evaluate(np.array([0.0, 2.0])).tolist() == [spec.evaluate(0.0), 0.0]
        with pytest.raises(DomainError, match="non-finite"):
            spec.evaluate(-2.0)


def test_tabulated_rejects_off_grid_query():
    spec = FunctionSpec.tabulated((0.0, 1.0), (1.0, 2.0))
    assert spec.evaluate(1.0 + 1e-10) == pytest.approx(2.0)
    with pytest.raises(DomainError):
        spec.evaluate(0.5)


@pytest.mark.parametrize("excess", [2e-11, 2e-10])
@pytest.mark.parametrize("dim", [1, 4, 7])
def test_unitary_check_same_on_real_and_complex_input(excess, dim):
    # (1 + e) I deviates from unitarity by (1 + e)^2 - 1, about 2e: below
    # UNITARITY_TOL for e = 2e-11 and above it for e = 2e-10.
    real = (1 + excess) * np.eye(dim)
    outcomes = []
    for entries in (real, real.astype(complex)):
        try:
            UnitaryOperator(entries)
            outcomes.append(None)
        except DomainError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    assert (outcomes[0] is None) == (excess < 1e-10)


def test_unitary_real_input_stored_complex():
    rng = np.random.default_rng(239)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    u = UnitaryOperator(q)
    assert u.entries.dtype == complex
    assert np.array_equal(u.entries, q.astype(complex))
    with pytest.raises(DomainError, match="not unitary"):
        UnitaryOperator(q[:, ::-1] * 1.001)


NON_FINITE = {
    "nan-filled": np.full((2, 2), np.nan),
    "inf-filled": np.full((2, 2), np.inf),
    "nan-entry": np.array([[1.0, 0.0], [0.0, np.nan]]),
    "neg-inf-entry": np.array([[-np.inf, 0.0], [0.0, 1.0]]),
    "complex-nan-part": np.array([[1.0, 0.0], [0.0, complex(1.0, np.nan)]]),
    "complex-inf-part": np.array([[1.0, complex(np.inf, 0.0)], [0.0, 1.0]]),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
@pytest.mark.parametrize("operator", [HermitianOperator, UnitaryOperator])
def test_operators_reject_non_finite_entries(operator, case):
    # nan deviations compare False against any tolerance, so without this
    # check a nan-filled matrix passed both the Hermiticity and the
    # unitarity test.
    with pytest.raises(DomainError, match="non-finite"):
        operator(NON_FINITE[case])


def test_unitary_check_rejects_an_overflowing_gram_product():
    # |1e300 (1 + i)|^2 overflows: the Gram product holds inf and nan, and a
    # nan deviation compares False against the tolerance.
    with pytest.raises(DomainError, match="not unitary"):
        UnitaryOperator(np.array([[1e300 + 1e300j, 0.0], [0.0, 1.0]]))
    # A real entry of 1e300 overflows to inf; numpy must not warn about it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for entries in (np.diag([1e300, 1.0]), np.diag([1e300 + 0j, 1.0])):
            with pytest.raises(DomainError, match="not unitary"):
                UnitaryOperator(entries)


# Each builds a FunctionSpec with one non-finite number; they used to be
# accepted and end in a RuntimeWarning or a nan when evaluated.
NON_FINITE_SPECS = {
    "coeff-inf": lambda: FunctionSpec.weighted_exponential((1.0, np.inf), 0.0),
    "coeff-neg-inf": lambda: FunctionSpec.weighted_exponential((-np.inf,), 0.0),
    "coeff-nan": lambda: FunctionSpec("weighted_exponential", g_coeffs=(np.nan,)),
    "grid-inf": lambda: FunctionSpec.tabulated((0.0, np.inf), (1.0, 1.0)),
    "grid-nan": lambda: FunctionSpec.tabulated((np.nan,), (1.0,)),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_SPECS))
def test_function_spec_rejects_non_finite_numbers(case):
    with pytest.raises(DomainError, match="finite"):
        NON_FINITE_SPECS[case]()


# A dim of +-Infinity (JSON reads it) and an integer entry beyond the float
# range used to escape as an OverflowError.
UNCONVERTIBLE_MATRICES = {
    "dim-inf": {"dim": np.inf, "re": [[1.0]], "im": [[0.0]]},
    "dim-neg-inf": {"dim": -np.inf, "re": [[1.0]], "im": [[0.0]]},
    "huge-int-entry": {"dim": 1, "re": [[10 ** 400]], "im": [[0.0]]},
}


@pytest.mark.parametrize("case", sorted(UNCONVERTIBLE_MATRICES))
def test_matrix_from_json_rejects_unconvertible_numbers(case):
    with pytest.raises(DomainError, match="malformed"):
        matrix_from_json(UNCONVERTIBLE_MATRICES[case])
