"""Circuit stages checked against dense block-matrix oracles.

The oracles build each stage as one explicit matrix on the full
probe x main x ancilla space (kron chains, geometric sums) and apply it
by matrix-vector multiplication, so they exercise none of the axis
gymnastics used by the implementation.
"""

import math

import numpy as np
import pytest

from qest.circuit import (
    MAX_STATE_DIM,
    CircuitConfig,
    Gate,
    GateSequence,
    StateVector,
    apply_controlled_evolution,
    apply_inverse_dft,
    apply_tomography_multiplexor,
    compose_gate_unitary,
    expand_multiplexor,
    leakage_amplitude,
    multiplexor_block,
    multiplexor_deviation,
    prepare_initial_state,
    run_tomography_circuit,
)
from qest.numerics import (
    DomainError,
    FunctionSpec,
    HermitianOperator,
    UnitaryOperator,
    exact_diag_element,
    unitary_exp,
)
from qest.synth import on_grid_hermitian, random_unitary

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2)
E0 = np.array([1.0, 0.0], dtype=complex)


def plain_config(n_probe=1, dt=1.0, gamma=1.0, f=None):
    return CircuitConfig(n_probe, dt, gamma, f or FunctionSpec.constant(1.0))


# ---------------------------------------------------------------- oracles

def dft_matrix(n: int) -> np.ndarray:
    """Forward transform with entries e^{+i k_x y} / sqrt(n)."""
    y, x = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(2j * np.pi * x * y / n) / np.sqrt(n)


def prepare_oracle(n_probe: int, v: np.ndarray, x0: int) -> np.ndarray:
    probe = np.full(2 ** n_probe, 1 / np.sqrt(2 ** n_probe), dtype=complex)
    return np.kron(np.kron(probe, v[:, x0]), E0)


def evolution_oracle(a: HermitianOperator, dt: float, n_probe: int) -> np.ndarray:
    """Dense sum over j of |j><j| (x) U^j (x) identity."""
    n = 2 ** n_probe
    u = unitary_exp(a, dt).entries
    dim = n * a.dim * 2
    out = np.zeros((dim, dim), dtype=complex)
    for j in range(n):
        proj = np.zeros((n, n))
        proj[j, j] = 1.0
        out += np.kron(np.kron(proj, np.linalg.matrix_power(u, j)), np.eye(2))
    return out


def inverse_dft_oracle(n_probe: int, n_main: int) -> np.ndarray:
    f = dft_matrix(2 ** n_probe)
    return np.kron(f.conj().T, np.eye(2 ** (n_main + 1)))


def multiplexor_oracle(config: CircuitConfig, n_main: int) -> np.ndarray:
    n = config.n_slots
    c = config.rotation_cosines()
    s = np.sqrt(1 - c ** 2)
    dim = n * 2 ** n_main * 2
    out = np.zeros((dim, dim), dtype=complex)
    for j in range(n):
        proj = np.zeros((n, n))
        proj[j, j] = 1.0
        r = np.array([[c[j], -s[j]], [s[j], c[j]]])
        out += np.kron(np.kron(proj, np.eye(2 ** n_main)), r)
    return out


def state_from(amps: np.ndarray, n_probe: int, n_main: int) -> StateVector:
    return StateVector(n_probe, n_main, amps)


# ------------------------------------------------------------------ config

def test_config_rejects_bad_fields():
    f = FunctionSpec.constant(1.0)
    with pytest.raises(DomainError):
        CircuitConfig(0, 1.0, 1.0, f)
    with pytest.raises(DomainError):
        CircuitConfig(1, 0.0, 1.0, f)
    with pytest.raises(DomainError):
        CircuitConfig(1, 1.0, -0.5, f)


def test_config_enforces_scaled_range():
    # gamma * f = 2 on the grid leaves [0, 1].
    with pytest.raises(DomainError):
        CircuitConfig(1, 1.0, 2.0, FunctionSpec.constant(1.0))
    # gamma alone may exceed 1 as long as gamma * f stays in range.
    CircuitConfig(1, 1.0, 4.0, FunctionSpec.constant(0.25))


def test_config_grid_points():
    cfg = plain_config(n_probe=2, dt=0.5)
    np.testing.assert_allclose(cfg.grid(), 2 * np.pi * np.arange(4) / (0.5 * 4))


def test_state_vector_validation():
    with pytest.raises(DomainError):
        StateVector(1, 0, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(DomainError):
        StateVector(1, 0, np.array([1.0, 1.0, 0.0, 0.0]))
    sv = StateVector(1, 1, np.array([1.0, 0, 0, 0, 0, 0, 0, 0]))
    assert sv.as_register_tensor().shape == (2, 2, 2)


# ----------------------------------------------------------------- prepare

def test_prepare_single_probe_identity():
    sv = prepare_initial_state(0, UnitaryOperator(np.eye(2)), plain_config())
    want = np.zeros(8)
    want[0] = want[4] = 1 / np.sqrt(2)  # (j=0,x=0,b=0) and (j=1,x=0,b=0)
    np.testing.assert_allclose(sv.amplitudes, want, atol=1e-15)


def test_prepare_two_probe_qubits():
    sv = prepare_initial_state(1, UnitaryOperator(np.eye(2)), plain_config(n_probe=2))
    tensor = sv.as_register_tensor()
    np.testing.assert_allclose(tensor[:, 1, 0], np.full(4, 0.5), atol=1e-15)
    assert np.abs(tensor[:, 0, :]).max() == 0
    assert np.abs(tensor[:, :, 1]).max() == 0


def test_prepare_hadamard_main():
    sv = prepare_initial_state(0, UnitaryOperator(HADAMARD), plain_config())
    np.testing.assert_allclose(
        sv.amplitudes, prepare_oracle(1, HADAMARD, 0), atol=1e-15
    )


def test_prepare_matches_tensor_oracle():
    rng = np.random.default_rng(41)
    v = random_unitary(rng, 4)
    cfg = plain_config(n_probe=3)
    for x0 in range(4):
        sv = prepare_initial_state(x0, v, cfg)
        np.testing.assert_allclose(
            sv.amplitudes, prepare_oracle(3, v.entries, x0), atol=1e-12
        )


def test_prepare_rejects_bad_index():
    with pytest.raises(DomainError):
        prepare_initial_state(2, UnitaryOperator(np.eye(2)), plain_config())


# --------------------------------------------------------------- evolution

def test_evolution_zero_operator_is_identity():
    a = HermitianOperator(np.zeros((2, 2)))
    sv = prepare_initial_state(0, UnitaryOperator(HADAMARD), plain_config())
    out = apply_controlled_evolution(sv, a, plain_config())
    np.testing.assert_allclose(out.amplitudes, sv.amplitudes, atol=1e-12)


def test_evolution_controlled_phase():
    # U = diag(1, i): probe branch j=1 picks up the phase i on x=1.
    cfg = plain_config(dt=0.5)
    a = HermitianOperator(np.diag([0.0, np.pi / 2]) / 0.5)
    amps = np.zeros(8, dtype=complex)
    amps[0 * 4 + 1 * 2] = amps[1 * 4 + 1 * 2] = 1 / np.sqrt(2)
    out = apply_controlled_evolution(state_from(amps, 1, 1), a, cfg)
    want = np.zeros(8, dtype=complex)
    want[2] = 1 / np.sqrt(2)
    want[6] = 1j / np.sqrt(2)
    np.testing.assert_allclose(out.amplitudes, want, atol=1e-12)


def test_evolution_matches_block_oracle():
    for seed in range(5):
        rng = np.random.default_rng(500 + seed)
        cfg = plain_config(n_probe=2, dt=0.7)
        a = on_grid_hermitian(rng, 2, 10.0, 5)  # nonnegative spectrum
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        sv = state_from(amps, 2, 1)
        out = apply_controlled_evolution(sv, a, cfg)
        want = evolution_oracle(a, 0.7, 2) @ amps
        assert np.abs(out.amplitudes - want).max() <= 1e-10


def test_evolution_rejects_negative_spectrum():
    a = HermitianOperator(np.diag([-0.1, 1.0]))
    sv = prepare_initial_state(0, UnitaryOperator(np.eye(2)), plain_config())
    with pytest.raises(DomainError):
        apply_controlled_evolution(sv, a, plain_config())


# ------------------------------------------------------------- inverse DFT

def test_inverse_dft_maps_momentum_to_position():
    # Probe prepared in |k=k_z> lands exactly on |z>.
    n_probe, n_main = 3, 1
    n = 2 ** n_probe
    for z in (0, 3, 7):
        probe = np.exp(2j * np.pi * z * np.arange(n) / n) / np.sqrt(n)
        amps = np.kron(np.kron(probe, E0), E0)
        out = apply_inverse_dft(state_from(amps, n_probe, n_main))
        tensor = out.as_register_tensor()
        assert abs(tensor[z, 0, 0]) == pytest.approx(1.0, abs=1e-12)


def test_inverse_dft_single_qubit_is_hadamard():
    amps = np.zeros(4)
    amps[0] = 1.0
    out = apply_inverse_dft(state_from(amps, 1, 0))
    want = np.zeros(4)
    want[0] = want[2] = 1 / np.sqrt(2)
    np.testing.assert_allclose(out.amplitudes, want, atol=1e-12)


def test_inverse_dft_inverts_forward_oracle():
    rng = np.random.default_rng(43)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    amps /= np.linalg.norm(amps)
    forward = np.kron(dft_matrix(4), np.eye(4))
    pushed = state_from(forward @ amps, 2, 1)
    out = apply_inverse_dft(pushed)
    assert np.abs(out.amplitudes - amps).max() <= 1e-12


def test_inverse_dft_matches_matrix_oracle():
    rng = np.random.default_rng(47)
    amps = rng.normal(size=32) + 1j * rng.normal(size=32)
    amps /= np.linalg.norm(amps)
    out = apply_inverse_dft(state_from(amps, 2, 2))
    want = inverse_dft_oracle(2, 2) @ amps
    assert np.abs(out.amplitudes - want).max() <= 1e-12


# -------------------------------------------------------------- multiplexor

def test_multiplexor_full_transmission():
    sv = prepare_initial_state(0, UnitaryOperator(np.eye(2)), plain_config())
    out = apply_tomography_multiplexor(sv, plain_config())
    np.testing.assert_allclose(out.amplitudes, sv.amplitudes, atol=1e-12)


def test_multiplexor_full_reflection():
    cfg = plain_config(f=FunctionSpec.constant(0.0))
    sv = prepare_initial_state(0, UnitaryOperator(np.eye(2)), cfg)
    out = apply_tomography_multiplexor(sv, cfg)
    tensor = out.as_register_tensor()
    assert np.abs(tensor[:, :, 0]).max() <= 1e-15
    np.testing.assert_allclose(
        tensor[:, 0, 1], np.full(2, 1 / np.sqrt(2)), atol=1e-12
    )


def test_multiplexor_two_branch_hand_values():
    # gamma*f on the grid {0, pi} is (0.25, 1.0): c_0 = 0.5, c_1 = 1.
    f = FunctionSpec.tabulated((0.0, np.pi), (0.25, 1.0))
    cfg = plain_config(f=f)
    sv = prepare_initial_state(0, UnitaryOperator(np.eye(2)), cfg)
    tensor = apply_tomography_multiplexor(sv, cfg).as_register_tensor()
    r = 1 / np.sqrt(2)
    np.testing.assert_allclose(tensor[0, 0, 0], 0.5 * r, atol=1e-12)
    np.testing.assert_allclose(tensor[0, 0, 1], np.sqrt(3) / 2 * r, atol=1e-12)
    np.testing.assert_allclose(tensor[1, 0, 0], r, atol=1e-12)
    np.testing.assert_allclose(tensor[1, 0, 1], 0.0, atol=1e-12)


def test_multiplexor_matches_matrix_oracle():
    rng = np.random.default_rng(53)
    f = FunctionSpec.exponential(0.3)
    cfg = CircuitConfig(2, 1.0, 1.0, f)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    amps /= np.linalg.norm(amps)
    out = apply_tomography_multiplexor(state_from(amps, 2, 1), cfg)
    want = multiplexor_oracle(cfg, 1) @ amps
    assert np.abs(out.amplitudes - want).max() <= 1e-12


# ------------------------------------------------------------- full circuit

def test_circuit_on_grid_closed_form():
    # Eigenvalues 0 and pi sit on grid slots 0 and 1; gamma*mu = 1 exactly.
    a = HermitianOperator(np.diag([0.0, np.pi]))
    cfg = CircuitConfig(1, 1.0, 1 / np.pi, FunctionSpec.identity())
    sv = run_tomography_circuit(a, UnitaryOperator(np.eye(2)), 1, cfg)
    p0 = float(np.sum(np.abs(sv.as_register_tensor()[:, :, 0]) ** 2))
    assert p0 == pytest.approx(1.0, abs=1e-12)
    assert p0 / (1 / np.pi) == pytest.approx(np.pi, abs=1e-10)


def test_circuit_constant_function_any_operator():
    rng = np.random.default_rng(59)
    a = on_grid_hermitian(rng, 4, 1.0, 3)
    v = random_unitary(rng, 4)
    cfg = CircuitConfig(3, 1.0, 0.8, FunctionSpec.constant(0.6))
    sv = run_tomography_circuit(a, v, 2, cfg)
    p0 = float(np.sum(np.abs(sv.as_register_tensor()[:, :, 0]) ** 2))
    assert p0 == pytest.approx(0.8 * 0.6, abs=1e-10)


def test_circuit_on_grid_matches_exact_oracle():
    f = FunctionSpec.exponential(0.5)
    for seed in range(6):
        rng = np.random.default_rng(600 + seed)
        dt = 1.0
        a = on_grid_hermitian(rng, 4, dt, 3)
        v = random_unitary(rng, 4)
        gamma = 1.0  # f = e^{-x/2} <= 1 on the nonnegative grid
        cfg = CircuitConfig(3, dt, gamma, f)
        for x0 in range(4):
            sv = run_tomography_circuit(a, v, x0, cfg)
            p0 = float(np.sum(np.abs(sv.as_register_tensor()[:, :, 0]) ** 2))
            want = gamma * exact_diag_element(a, v, f, x0)
            assert abs(p0 - want) <= 1e-9


def test_circuit_on_grid_probe_collapse():
    # In each eigenbranch the probe register must sit exactly on its slot.
    rng = np.random.default_rng(61)
    dt = 1.0
    n_probe = 3
    a = on_grid_hermitian(rng, 2, dt, n_probe)
    v = random_unitary(rng, 2)
    cfg = CircuitConfig(n_probe, dt, 1.0, FunctionSpec.exponential(0.4))
    sv = run_tomography_circuit(a, v, 0, cfg)
    vals, vecs = np.linalg.eigh(a.entries)
    slots = np.round(vals * dt * cfg.n_slots / (2 * np.pi)).astype(int)
    tensor = sv.as_register_tensor()
    # Project the main register onto each eigenvector.
    for x, slot in enumerate(slots):
        branch = np.einsum("m,jmb->jb", vecs[:, x].conj(), tensor)
        weight = np.sum(np.abs(branch) ** 2, axis=1)
        off = np.delete(weight, slot)
        assert np.abs(off).max() <= 1e-20


def test_stage_norms_preserved():
    rng = np.random.default_rng(67)
    a = on_grid_hermitian(rng, 2, 1.0, 2)
    v = random_unitary(rng, 2)
    cfg = CircuitConfig(2, 1.0, 1.0, FunctionSpec.exponential(0.2))
    sv = prepare_initial_state(0, v, cfg)
    stages = [sv]
    stages.append(apply_controlled_evolution(stages[-1], a, cfg))
    stages.append(apply_inverse_dft(stages[-1]))
    stages.append(apply_tomography_multiplexor(stages[-1], cfg))
    for st in stages:
        assert abs(np.linalg.norm(st.amplitudes) - 1.0) <= 1e-10


def test_stage_linearity():
    # alpha*psi + beta*phi for orthogonal psi, phi stays inside the domain.
    rng = np.random.default_rng(71)
    a = on_grid_hermitian(rng, 2, 1.0, 2)
    cfg = CircuitConfig(2, 1.0, 1.0, FunctionSpec.exponential(0.2))
    basis = np.eye(16, dtype=complex)
    alpha, beta = 0.6, 0.8j
    psi, phi = basis[3], basis[10]
    combo = state_from(alpha * psi + beta * phi, 2, 1)
    for op in (
        lambda s: apply_controlled_evolution(s, a, cfg),
        apply_inverse_dft,
        lambda s: apply_tomography_multiplexor(s, cfg),
    ):
        lhs = op(combo).amplitudes
        rhs = (
            alpha * op(state_from(psi, 2, 1)).amplitudes
            + beta * op(state_from(phi, 2, 1)).amplitudes
        )
        assert np.abs(lhs - rhs).max() <= 1e-10


# ----------------------------------------------------------------- leakage

def test_leakage_on_grid_values():
    n = 8
    ks = 2 * np.pi * np.arange(n) / n
    assert leakage_amplitude(ks[3], 3, n) == pytest.approx(1.0)
    assert abs(leakage_amplitude(ks[5], 3, n)) == pytest.approx(0.0, abs=1e-12)


def test_leakage_half_pi_detuning():
    assert abs(leakage_amplitude(np.pi / 2, 0, 2)) == pytest.approx(
        1 / np.sqrt(2), abs=1e-10
    )


def test_leakage_matches_geometric_sum():
    rng = np.random.default_rng(73)
    for n in (2, 4, 8):
        for _ in range(5):
            k = rng.uniform(0, 2 * np.pi)
            for x in range(n):
                d = k - 2 * np.pi * x / n
                want = np.sum(np.exp(1j * d * np.arange(n))) / n
                assert abs(leakage_amplitude(k, x, n) - want) <= 1e-12


def test_leakage_mass_sums_to_one():
    rng = np.random.default_rng(79)
    for n in (2, 4, 16):
        for _ in range(5):
            k = rng.uniform(0, 2 * np.pi)
            mass = sum(abs(leakage_amplitude(k, x, n)) ** 2 for x in range(n))
            assert mass == pytest.approx(1.0, abs=1e-10)


# ----------------------------------------------------- multiplexor compile

def test_gate_sequence_text_round_trip():
    seq = GateSequence(
        2, (Gate("RY", 1, angle=0.25), Gate("CNOT", 1, control=0))
    )
    again = GateSequence.from_text(seq.to_text())
    assert again == seq


def test_gate_sequence_rejects_garbage():
    with pytest.raises(DomainError):
        GateSequence.from_text("RZ 0 0.5")


def test_compose_matches_kron_oracle():
    theta = 0.7
    seq = GateSequence(2, (Gate("RY", 1, angle=theta), Gate("CNOT", 1, control=0)))
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    ry = np.array([[c, -s], [s, c]])
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float
    )
    want = cnot @ np.kron(np.eye(2), ry)
    assert np.abs(compose_gate_unitary(seq) - want).max() <= 1e-12


def test_expand_uniform_angles_single_rotation():
    theta = 1.1
    seq = expand_multiplexor([theta] * 8)
    assert sum(1 for g in seq.gates if g.name == "RY") == 1
    want = np.kron(np.eye(8), [[np.cos(theta / 2), -np.sin(theta / 2)],
                               [np.sin(theta / 2), np.cos(theta / 2)]])
    assert np.abs(compose_gate_unitary(seq) - want).max() <= 1e-10


def test_expand_one_control_pair():
    seq = expand_multiplexor([0.3, 1.9])
    assert sum(1 for g in seq.gates if g.name == "RY") == 2
    assert sum(1 for g in seq.gates if g.name == "CNOT") == 2
    dev = np.abs(compose_gate_unitary(seq) - multiplexor_block([0.3, 1.9])).max()
    assert dev <= 1e-10


def test_expand_two_controls_seeded():
    rng = np.random.default_rng(83)
    angles = rng.uniform(-np.pi, np.pi, 4)
    seq = expand_multiplexor(angles)
    dev = np.abs(compose_gate_unitary(seq) - multiplexor_block(angles)).max()
    assert dev <= 1e-10


def test_expand_gate_budget():
    rng = np.random.default_rng(89)
    for n_probe in (1, 2, 3, 4):
        n = 2 ** n_probe
        angles = rng.uniform(-np.pi, np.pi, n)
        seq = expand_multiplexor(angles)
        assert sum(1 for g in seq.gates if g.name == "RY") <= n
        assert sum(1 for g in seq.gates if g.name == "CNOT") <= n


def test_expand_rejects_bad_length():
    with pytest.raises(DomainError):
        expand_multiplexor([0.1, 0.2, 0.3])


def test_size_cap_rejects_one_qubit_over():
    cap_qubits = MAX_STATE_DIM.bit_length() - 1
    f = FunctionSpec.constant(1.0)
    # Probe plus a one-qubit main register plus the ancilla.
    with pytest.raises(DomainError, match="cap"):
        CircuitConfig(cap_qubits - 1, 1.0, 1.0, f)
    # The check runs before the 2^n amplitude state is built.
    config = CircuitConfig(cap_qubits - 3, 1.0, 1.0, f)
    with pytest.raises(DomainError, match="cap"):
        prepare_initial_state(0, UnitaryOperator(np.eye(8)), config)


def reference_compose_gate_unitary(seq: GateSequence) -> np.ndarray:
    """The complex moveaxis/stack composition, one full tensor copy per gate."""
    dim = 2 ** seq.n_qubits
    tensor = np.eye(dim, dtype=complex).reshape((2,) * seq.n_qubits + (dim,))
    for g in seq.gates:
        if g.name == "RY":
            c, s = np.cos(g.angle / 2), np.sin(g.angle / 2)
            moved = np.moveaxis(tensor, g.target, 0)
            tensor = np.moveaxis(
                np.stack([c * moved[0] - s * moved[1], s * moved[0] + c * moved[1]]),
                0,
                g.target,
            )
        else:
            moved = np.moveaxis(tensor, (g.control, g.target), (0, 1))
            out = moved.copy()
            out[1] = moved[1, ::-1]
            tensor = np.moveaxis(out, (0, 1), (g.control, g.target))
    return tensor.reshape(dim, dim)


def test_compose_bitwise_equals_reference_on_generic_sequences():
    # Random RY/CNOT sequences on the last qubit, the empty one included;
    # every other qubit is at most a CNOT control.
    rng = np.random.default_rng(211)
    for n_qubits in range(1, 9):
        for n_gates in (0, 1, 5, 24, 40):
            seq = _sequence_targeting(rng, n_qubits, [n_qubits - 1], n_gates)
            _assert_composes_like_reference(seq)


def test_compose_bitwise_equals_reference_at_register_edges():
    # CNOT controls at either end of the register and in its middle.
    rng = np.random.default_rng(223)
    last = 4
    for control in (0, 2, last - 1):
        gates = [
            Gate("RY", last, angle=0.9),
            Gate("CNOT", last, control=control),
            Gate("RY", last, angle=float(rng.uniform(-7, 7))),
            Gate("CNOT", last, control=control),
        ]
        seq = GateSequence(last + 1, tuple(gates))
        assert np.array_equal(compose_gate_unitary(seq), reference_compose_gate_unitary(seq))


def test_compose_bitwise_on_a_random_nine_qubit_sequence():
    n_qubits = 9
    seq = _sequence_targeting(np.random.default_rng(227), n_qubits, [n_qubits - 1], 30)
    assert np.array_equal(compose_gate_unitary(seq), reference_compose_gate_unitary(seq))


def test_compose_bitwise_equals_reference_on_multiplexors():
    rng = np.random.default_rng(229)
    for k in range(0, 9):
        seq = expand_multiplexor(rng.uniform(-np.pi, np.pi, 2 ** k))
        assert np.array_equal(compose_gate_unitary(seq), reference_compose_gate_unitary(seq))


def _slot_angles(seq: GateSequence) -> list:
    """Rotation angle of each Gray-code slot (0.0 where no RY was emitted);
    every slot but a lone angle's ends with a CNOT."""
    slots, angle = [], 0.0
    for g in seq.gates:
        if g.name == "RY":
            angle = g.angle
        else:
            slots.append(angle)
            angle = 0.0
    return slots or [angle]


def test_slot_angles_match_the_popcount_fsum():
    # Slot i rotates by sum_x (-1)^popcount(x & gray(i)) theta_x / n,
    # summed here exactly (fsum) term by term from the popcount signs.
    rng = np.random.default_rng(277)
    for k in range(11):
        n = 2 ** k
        gray = [i ^ (i >> 1) for i in range(n)]
        for angles in (rng.uniform(-np.pi, np.pi, n), rng.uniform(-7, 7, n)):
            want = [
                math.fsum(
                    -a if bin(x & gray[i]).count("1") % 2 else a for x, a in enumerate(angles)
                ) / n
                for i in range(n)
            ]
            got = _slot_angles(expand_multiplexor(angles))
            assert len(got) == n
            assert np.abs(np.array(got) - want).max() <= 2.0 ** -50 * np.abs(angles).max()


def test_multiplexor_deviation_equals_the_dense_check():
    rng = np.random.default_rng(281)
    for k in range(11):
        angles = rng.uniform(-np.pi, np.pi, 2 ** k)
        seq = expand_multiplexor(angles)
        dense = np.abs(compose_gate_unitary(seq) - multiplexor_block(angles)).max()
        got = multiplexor_deviation(seq, angles)
        assert type(got) is float and got <= 1e-10
        assert got == dense


def test_multiplexor_deviation_rejects_a_sequence_that_is_not_the_multiplexor():
    seq = expand_multiplexor([0.3, -1.1, 0.9, 2.2])
    with pytest.raises(DomainError, match="not a multiplexor"):
        multiplexor_deviation(seq, [0.3, -1.1])
    moved = GateSequence(3, (Gate("RY", 0, angle=0.3),) + seq.gates)
    with pytest.raises(DomainError, match="not a multiplexor"):
        multiplexor_deviation(moved, [0.3, -1.1, 0.9, 2.2])


def _sequence_targeting(rng, n_qubits: int, targeted, n_gates: int, ry_share=0.5) -> GateSequence:
    """Random RY/CNOT gates whose targets all lie in `targeted`; every other
    qubit is at most a CNOT control."""
    targeted = sorted(targeted)
    gates = []
    for _ in range(n_gates):
        target = int(rng.choice(targeted))
        if n_qubits == 1 or rng.random() < ry_share:
            gates.append(Gate("RY", target, angle=float(rng.uniform(-7, 7))))
        else:
            control = int(rng.choice([q for q in range(n_qubits) if q != target]))
            gates.append(Gate("CNOT", target, control=control))
    return GateSequence(n_qubits, tuple(gates))


def _assert_composes_like_reference(seq: GateSequence) -> None:
    got = compose_gate_unitary(seq)
    assert got.dtype == complex and got.shape == (2 ** seq.n_qubits,) * 2
    assert np.array_equal(got, reference_compose_gate_unitary(seq))


def test_compose_bitwise_with_control_only_qubits():
    # Every qubit but the last is at most a CNOT control.
    rng = np.random.default_rng(239)
    for n_qubits in range(1, 10):
        _assert_composes_like_reference(GateSequence(n_qubits, ()))
        for _ in range(3):
            _assert_composes_like_reference(_sequence_targeting(rng, n_qubits, [n_qubits - 1], 24))


def test_compose_bitwise_on_cnots_only():
    rng = np.random.default_rng(241)
    for n_qubits in range(2, 10):
        seq = _sequence_targeting(rng, n_qubits, [n_qubits - 1], 16, ry_share=0.0)
        assert all(g.name == "CNOT" for g in seq.gates)
        _assert_composes_like_reference(seq)


def test_compose_bitwise_with_one_targeted_qubit():
    rng = np.random.default_rng(251)
    for n_qubits in range(1, 10):
        _assert_composes_like_reference(_sequence_targeting(rng, n_qubits, [n_qubits - 1], 20))


def _assert_rejected(seq: GateSequence) -> None:
    """Both readers of the last-qubit kernel refuse `seq`."""
    with pytest.raises(DomainError, match="last qubit"):
        compose_gate_unitary(seq)
    angles = np.zeros(2 ** max(seq.n_qubits - 1, 0))
    with pytest.raises(DomainError, match="not a multiplexor"):
        multiplexor_deviation(seq, angles)


def test_compose_bitwise_with_every_qubit_targeted():
    # Only the one-qubit register, whose every qubit is its last, composes;
    # with n >= 2 qubits the sequence targets another qubit and is refused.
    rng = np.random.default_rng(257)
    for n_qubits in range(1, 10):
        # Each qubit is targeted at least once, then random gates follow.
        head = tuple(Gate("RY", q, angle=float(rng.uniform(-7, 7))) for q in range(n_qubits))
        tail = _sequence_targeting(rng, n_qubits, range(n_qubits), 20).gates
        seq = GateSequence(n_qubits, head + tail)
        if n_qubits == 1:
            _assert_composes_like_reference(seq)
        else:
            _assert_rejected(seq)


def test_compose_bitwise_with_eight_of_nine_qubits_targeted():
    # 8 targeted qubits out of 9 always include one besides the last:
    # the composer refuses the sequence.
    n_qubits = 9
    rng = np.random.default_rng(263)
    for idle in (0, 4, 8):
        targeted = [q for q in range(n_qubits) if q != idle]
        head = tuple(Gate("RY", q, angle=float(rng.uniform(-7, 7))) for q in targeted)
        tail = _sequence_targeting(rng, n_qubits, targeted, 30).gates
        _assert_rejected(GateSequence(n_qubits, head + tail))


def test_compose_rejects_a_sequence_that_targets_another_qubit():
    # The 0-qubit sequence has no last qubit.
    _assert_rejected(GateSequence(0, ()))
    # Gates on the last qubit, then one that targets qubit 0.
    last = (Gate("RY", 4, angle=0.9), Gate("CNOT", 4, control=0))
    _assert_rejected(GateSequence(5, last + (Gate("CNOT", 0, control=4),)))


def test_compose_bitwise_on_a_nine_control_multiplexor():
    # k = 0 .. 8 controls are covered by
    # test_compose_bitwise_equals_reference_on_multiplexors.
    angles = np.random.default_rng(269).uniform(-np.pi, np.pi, 2 ** 9)
    _assert_composes_like_reference(expand_multiplexor(angles))


def _multiplexor_block_loop(angles) -> np.ndarray:
    angles = np.asarray(angles, dtype=float)
    n = angles.shape[0]
    out = np.zeros((2 * n, 2 * n))
    c = np.cos(angles / 2)
    s = np.sin(angles / 2)
    for j in range(n):
        out[2 * j:2 * j + 2, 2 * j:2 * j + 2] = [[c[j], -s[j]], [s[j], c[j]]]
    return out


def test_multiplexor_block_equals_the_loop():
    rng = np.random.default_rng(271)
    for n in (1, 2, 8, 1024):
        angles = rng.uniform(-7, 7, n)
        got = multiplexor_block(angles)
        assert got.dtype == np.float64 and got.shape == (2 * n, 2 * n)
        assert np.array_equal(got, _multiplexor_block_loop(angles))


def test_probe_phases_that_overflow_are_rejected():
    a = HermitianOperator(np.diag([0.0, 1e300]).astype(complex))
    config = plain_config(n_probe=2, dt=1e10)
    with pytest.raises(DomainError, match="overflows the phases"):
        run_tomography_circuit(a, UnitaryOperator(np.eye(2)), 0, config)
    # The largest phase lambda dt (2^n_probe - 1) is what must stay finite.
    a = HermitianOperator(np.diag([0.0, 1e307]).astype(complex))
    with pytest.raises(DomainError, match="overflows the phases"):
        run_tomography_circuit(a, UnitaryOperator(np.eye(2)), 0, plain_config(n_probe=6, dt=10.0))
    run_tomography_circuit(a, UnitaryOperator(np.eye(2)), 0, plain_config(n_probe=1, dt=10.0))
