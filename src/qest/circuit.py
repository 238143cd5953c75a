"""Statevector simulation of the diagonal-element tomography circuit.

The register layout is probe (n_probe qubits, most significant), then main
(n_main qubits), then a single ancilla qubit (least significant): the flat
amplitude index is j * 2^(n_main+1) + x * 2 + b.

The circuit prepares a uniform probe superposition against V|x0> on the main
register, applies probe-controlled powers of exp(i A dt), undoes the probe
Fourier transform, and rotates the ancilla by an angle keyed to the probe
outcome. The ancilla-zero probability then encodes gamma * <x0|V^dag f(A) V|x0>
up to leakage from eigenvalues that miss the probe grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (
    DomainError,
    EIGENVALUE_CLIP,
    FunctionSpec,
    HermitianOperator,
    UnitaryOperator,
)

NORM_TOL = 1e-10

# Largest probe x main x ancilla state the simulator allocates (16 MiB of
# complex amplitudes). Register sizes are checked against it before any
# array of their size exists.
MAX_STATE_DIM = 2 ** 20

# Rotation slots with angles below this are dropped when a multiplexor is
# expanded into explicit gates.
ANGLE_EMIT_TOL = 1e-12

# Bytes of the float64 column block compose_gate_unitary runs through a gate
# sequence at once (128 columns at 9 qubits); sized to stay in a core's L2.
COMPOSE_BLOCK_BYTES = 2 ** 19


def check_register_size(n_probe: int, main_dim: int = 2) -> None:
    """Reject a probe count, or a register of 2^n_probe * main_dim * 2
    amplitudes above MAX_STATE_DIM, before anything of that size exists."""
    if not isinstance(n_probe, int) or n_probe < 1:
        raise DomainError(f"n_probe must be an integer >= 1, got {n_probe}")
    n_qubits = n_probe + (main_dim - 1).bit_length() + 1
    if n_qubits > MAX_STATE_DIM.bit_length() - 1:
        raise DomainError(
            f"n_probe={n_probe} with main dimension {main_dim} needs 2^{n_qubits} "
            f"amplitudes, above the cap {MAX_STATE_DIM}"
        )


@dataclass(frozen=True)
class CircuitConfig:
    """Probe size, evolution step, scale factor, and spectral function.

    gamma must scale f into [0, 1] on every probe grid point
    2*pi*j / (dt * 2^n_probe); that is what makes the ancilla rotation
    angles well defined. gamma itself may exceed 1 when f is small on the
    whole grid.
    """

    n_probe: int
    dt: float
    gamma: float
    f: FunctionSpec

    def __post_init__(self):
        check_register_size(self.n_probe)
        if not np.isfinite(self.dt) or self.dt <= 0:
            raise DomainError(f"dt must be finite and > 0, got {self.dt}")
        if not np.isfinite(self.gamma) or self.gamma <= 0:
            raise DomainError(f"gamma must be finite and > 0, got {self.gamma}")
        scaled = self.gamma * np.asarray(self.f.evaluate(self.grid()))
        if scaled.min() < -1e-12 or scaled.max() > 1 + 1e-12:
            raise DomainError(
                "gamma * f(grid) leaves [0, 1]: range "
                f"[{scaled.min():.6e}, {scaled.max():.6e}]"
            )

    @property
    def n_slots(self) -> int:
        return 2 ** self.n_probe

    def grid(self) -> np.ndarray:
        """Probe grid points 2*pi*j / (dt * N_j) for j = 0 .. N_j - 1."""
        n = self.n_slots
        return 2 * np.pi * np.arange(n) / (self.dt * n)

    def rotation_cosines(self) -> np.ndarray:
        """c_j = sqrt(gamma * f(grid_j)), clipped into [0, 1]."""
        scaled = self.gamma * np.asarray(self.f.evaluate(self.grid()))
        return np.sqrt(np.clip(scaled, 0.0, 1.0))


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitudes over probe x main x ancilla."""

    n_probe: int
    n_main: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).ravel()
        expected = 2 ** (self.n_probe + self.n_main + 1)
        if amps.shape[0] != expected:
            raise DomainError(
                f"amplitude count {amps.shape[0]} does not match "
                f"2^(n_probe+n_main+1) = {expected}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise DomainError(f"state norm is {norm}, expected 1")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_main_states(self) -> int:
        return 2 ** self.n_main

    def as_register_tensor(self) -> np.ndarray:
        """View shaped (probe slots, main states, 2)."""
        return self.amplitudes.reshape(2 ** self.n_probe, self.n_main_states, 2)

    def to_json(self) -> dict:
        return {
            "n_probe": self.n_probe,
            "n_main": self.n_main,
            "re": self.amplitudes.real.tolist(),
            "im": self.amplitudes.imag.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "StateVector":
        amps = np.array(obj["re"], dtype=float) + 1j * np.array(obj["im"], dtype=float)
        return cls(int(obj["n_probe"]), int(obj["n_main"]), amps)


@dataclass(frozen=True)
class Gate:
    """RY(target, angle) or CNOT(control, target)."""

    name: str
    target: int
    control: int = -1
    angle: float = 0.0

    def to_text(self) -> str:
        if self.name == "RY":
            return f"RY {self.target} {self.angle!r}"
        return f"CNOT {self.control} {self.target}"


@dataclass(frozen=True)
class GateSequence:
    """Gates in application order on qubits 0 .. n_qubits - 1.

    Qubit 0 is the most significant bit of the composed unitary's index.
    """

    n_qubits: int
    gates: tuple

    def __post_init__(self):
        for g in self.gates:
            if g.name not in ("RY", "CNOT"):
                raise DomainError(f"unknown gate {g.name!r}")
            qubits = (g.target,) if g.name == "RY" else (g.control, g.target)
            for q in qubits:
                if not 0 <= q < self.n_qubits:
                    raise DomainError(f"gate qubit {q} out of range")
            if g.name == "CNOT" and g.control == g.target:
                raise DomainError("CNOT control and target coincide")

    def __len__(self) -> int:
        return len(self.gates)

    def to_text(self) -> str:
        return "\n".join(g.to_text() for g in self.gates) + "\n"

    @classmethod
    def from_text(cls, text: str, n_qubits: int | None = None) -> "GateSequence":
        gates = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "RY" and len(parts) == 3:
                gates.append(Gate("RY", int(parts[1]), angle=float(parts[2])))
            elif parts[0] == "CNOT" and len(parts) == 3:
                gates.append(Gate("CNOT", int(parts[2]), control=int(parts[1])))
            else:
                raise DomainError(f"unparseable gate line: {line!r}")
        if n_qubits is None:
            if not gates:
                raise DomainError("cannot infer qubit count from an empty gate list")
            n_qubits = 1 + max(max(g.target, g.control) for g in gates)
        return cls(n_qubits, tuple(gates))


def prepare_initial_state(
    x0: int, v: UnitaryOperator, config: CircuitConfig
) -> StateVector:
    """Uniform probe (x) V|x0> (x) ancilla |0>."""
    n_main_states = v.dim
    n_main = n_main_states.bit_length() - 1
    if 2 ** n_main != n_main_states:
        raise DomainError(f"main dimension {n_main_states} is not a power of two")
    if not 0 <= x0 < n_main_states:
        raise DomainError(f"x0={x0} out of range for dimension {n_main_states}")
    check_register_size(config.n_probe, n_main_states)
    probe = np.full(config.n_slots, 1 / np.sqrt(config.n_slots), dtype=complex)
    ancilla = np.array([1.0, 0.0], dtype=complex)
    amps = np.kron(probe, np.kron(v.entries[:, x0], ancilla))
    return StateVector(config.n_probe, n_main, amps)


def apply_controlled_evolution(
    state: StateVector, a: HermitianOperator, config: CircuitConfig
) -> StateVector:
    """Apply exp(i A dt)^j to the main register, controlled on probe value j.

    A must have nonnegative eigenvalues so the phases land on the probe grid
    the rotation stage assumes.
    """
    if a.dim != state.n_main_states:
        raise DomainError(
            f"operator dim {a.dim} does not match main dimension {state.n_main_states}"
        )
    if config.n_probe != state.n_probe:
        raise DomainError("config probe size does not match the state")
    dec = a.spectrum
    u = dec.basis_changer.entries
    tensor = state.as_register_tensor()
    # Move the main register into the eigenbasis, phase each probe branch,
    # and move back. O(N_j * N_S^2) instead of per-branch matrix powers.
    in_basis = np.einsum("yx,jxb->jyb", u.conj().T, tensor)
    phases = _probe_phases(dec.eigenvalues, config)[:, :, None]
    out = np.einsum("xy,jyb->jxb", u, in_basis * phases)
    return StateVector(state.n_probe, state.n_main, out.ravel())


def _probe_phases(eigenvalues: np.ndarray, config: CircuitConfig) -> np.ndarray:
    """exp(i lambda_k dt j) over probe values j (rows) and eigenvalues k;
    eigenvalues below -EIGENVALUE_CLIP are rejected."""
    if eigenvalues.min() < -EIGENVALUE_CLIP:
        raise DomainError(
            f"eigenvalue {eigenvalues.min():.6e} is negative; shift the "
            "operator before running the circuit"
        )
    j = np.arange(config.n_slots).reshape(-1, 1)
    return np.exp(1j * eigenvalues.reshape(1, -1) * config.dt * j)


def eigencomponent_zero_probability(
    eigenvalues: np.ndarray, config: CircuitConfig
) -> np.ndarray:
    """Ancilla-zero probability the circuit gives each eigencomponent of A.

    The eigencomponents of A stay orthogonal on the main register through
    every stage, so the circuit's ancilla-zero probability for V|x0> is
    sum_k |<A_k|V|x0>|^2 times entry k of this array, which is
    sum_j |L(lambda_k dt, j)|^2 c_j^2. L comes from the same phases and FFT
    as apply_controlled_evolution and apply_inverse_dft, so a probe bin the
    statevector leaves exactly empty is exactly empty here too.
    """
    n = config.n_slots
    probe = np.fft.fft(_probe_phases(eigenvalues, config) / np.sqrt(n), axis=0) / np.sqrt(n)
    return config.rotation_cosines() ** 2 @ np.abs(probe) ** 2


def apply_inverse_dft(state: StateVector) -> StateVector:
    """Undo the probe Fourier transform.

    The probe convention puts exp(+i k_x y) phases on the forward transform,
    so the inverse is the numpy-convention FFT scaled by 1/sqrt(N_j).
    """
    tensor = state.as_register_tensor()
    n = tensor.shape[0]
    out = np.fft.fft(tensor, axis=0) / np.sqrt(n)
    return StateVector(state.n_probe, state.n_main, out.ravel())


def apply_tomography_multiplexor(
    state: StateVector, config: CircuitConfig
) -> StateVector:
    """Rotate the ancilla by the probe-keyed angle.

    Probe value j applies [[c_j, -s_j], [s_j, c_j]] to the ancilla with
    c_j = sqrt(gamma * f(grid_j)).
    """
    if config.n_probe != state.n_probe:
        raise DomainError("config probe size does not match the state")
    c = config.rotation_cosines().reshape(-1, 1)
    s = np.sqrt(np.clip(1 - c ** 2, 0.0, 1.0))
    tensor = state.as_register_tensor()
    b0 = tensor[:, :, 0]
    b1 = tensor[:, :, 1]
    out = np.empty_like(tensor)
    out[:, :, 0] = c * b0 - s * b1
    out[:, :, 1] = s * b0 + c * b1
    return StateVector(state.n_probe, state.n_main, out.ravel())


def run_tomography_circuit(
    a: HermitianOperator, v: UnitaryOperator, x0: int, config: CircuitConfig
) -> StateVector:
    """Full pipeline: prepare, controlled evolution, inverse DFT, multiplexor."""
    state = prepare_initial_state(x0, v, config)
    state = apply_controlled_evolution(state, a, config)
    state = apply_inverse_dft(state)
    return apply_tomography_multiplexor(state, config)


def leakage_amplitude(k: float, x: int, n_slots: int) -> complex:
    """Overlap of the inverse-DFT output bin x with a phase state at k.

    Equals (1/N) * sum_y exp(i (k - k_x) y) with k_x = 2*pi*x/N: modulus-one
    geometric phases summed over the probe register. Returns 1 at k = k_x
    (the removable singularity) and 0 at every other grid point.
    """
    if n_slots < 1:
        raise DomainError("n_slots must be >= 1")
    if not 0 <= x < n_slots:
        raise DomainError(f"bin index {x} out of range for {n_slots} slots")
    d = k - 2 * np.pi * x / n_slots
    if abs(np.sin(d / 2)) < 1e-12:
        return complex(1.0)
    return (
        np.exp(1j * d * (n_slots - 1) / 2)
        * np.sin(d * n_slots / 2)
        / (n_slots * np.sin(d / 2))
    )


def multiplexor_block(angles) -> np.ndarray:
    """Block-diagonal reference: direct sum of R_y(theta_j)."""
    angles = np.asarray(angles, dtype=float)
    n = angles.shape[0]
    out = np.zeros((2 * n, 2 * n))
    c = np.cos(angles / 2)
    s = np.sin(angles / 2)
    for j in range(n):
        out[2 * j:2 * j + 2, 2 * j:2 * j + 2] = [[c[j], -s[j]], [s[j], c[j]]]
    return out


def expand_multiplexor(angles) -> GateSequence:
    """Compile a uniformly controlled Y-rotation into RY and CNOT gates.

    Controls are the probe qubits 0 .. k-1 (qubit 0 most significant), the
    target is qubit k. The Gray-code walk needs one rotation slot and one
    CNOT per angle; rotation angles are the Hadamard-type transform of the
    input angles, with sign patterns given by the Gray code of each slot, so
    the CNOT parity flips reproduce exactly theta_j on control branch j.
    """
    angles = np.asarray(angles, dtype=float)
    n = angles.shape[0]
    if n < 1 or (n & (n - 1)) != 0:
        raise DomainError(f"angle count {n} is not a power of two")
    if not np.all(np.isfinite(angles)):
        raise DomainError("angles must be finite")
    k = n.bit_length() - 1
    if k == 0:
        return GateSequence(1, (Gate("RY", 0, angle=float(angles[0])),))

    gray = [i ^ (i >> 1) for i in range(n)]
    slot_angles = _gray_code_signs(n).T @ angles / n

    gates = []
    for i in range(n):
        if abs(slot_angles[i]) > ANGLE_EMIT_TOL:
            gates.append(Gate("RY", k, angle=float(slot_angles[i])))
        flipped_bit = (gray[i] ^ gray[(i + 1) % n]).bit_length() - 1
        gates.append(Gate("CNOT", k, control=k - 1 - flipped_bit))
    return GateSequence(k + 1, tuple(gates))


def _gray_code_signs(n: int) -> np.ndarray:
    """signs[x, i] = (-1)^popcount(x & gray(i)) over x, i < n, gray(i) = i ^ (i >> 1).

    The parity is an xor-fold of the masked bits, so the whole matrix is a few
    integer array operations.
    """
    i = np.arange(n, dtype=np.int64)
    bits = i[:, None] & (i ^ (i >> 1))[None, :]
    for shift in (32, 16, 8, 4, 2, 1):
        bits ^= bits >> shift
    return 1.0 - 2.0 * (bits & 1)


def _qubit_views(block: np.ndarray, axes, bits):
    """View of a (2^n, width) block at the given bit of each listed row axis
    (axis 0 most significant); the other axes fold into the view's axes."""
    n = block.shape[0].bit_length() - 1
    shape, select, prev = [], [], 0
    for ax, bit in sorted(zip(axes, bits)):
        shape += [2 ** (ax - prev), 2]
        select += [slice(None), bit]
        prev = ax + 1
    shape.append(2 ** (n - prev) * block.shape[1])
    return block.reshape(shape)[tuple(select)]


def compose_gate_unitary(seq: GateSequence) -> np.ndarray:
    """Multiply a gate sequence into a dense unitary (qubit 0 most significant).

    Every gate is real, so the product is built in float64 and cast to
    complex once. Columns evolve independently: each block of identity
    columns (COMPOSE_BLOCK_BYTES of float64) runs through the whole sequence
    while it stays in cache, and each gate updates the block in place in
    O(dim * block) work. An RY computes c*m0 - s*m1 and s*m0 + c*m1, as a
    complex product would, so the result does not depend on the blocking.
    Inside a block the row axes are ordered by how many RY gates target each
    qubit, most first, so the rotations mostly update contiguous halves.
    """
    n = seq.n_qubits
    dim = 2 ** n
    width = min(dim, max(1, COMPOSE_BLOCK_BYTES // (8 * dim)))
    targets = [g.target for g in seq.gates if g.name == "RY"]
    order = sorted(range(n), key=lambda q: -targets.count(q))
    axis = {q: i for i, q in enumerate(order)}
    block = np.empty((dim, width))
    scratch = np.empty(dim * width // 2), np.empty(dim * width // 2)
    steps = []
    for g in seq.gates:
        if g.name == "RY":
            m0, m1 = (_qubit_views(block, (axis[g.target],), (b,)) for b in (0, 1))
            a, b = (buf[:m0.size].reshape(m0.shape) for buf in scratch)
            steps.append((m0, m1, a, b, np.cos(g.angle / 2), np.sin(g.angle / 2)))
        else:
            qubits = (axis[g.control], axis[g.target])
            m0, m1 = (_qubit_views(block, qubits, (1, b)) for b in (0, 1))
            steps.append((m0, m1, scratch[0][:m0.size].reshape(m0.shape), None, None, None))
    # Block row of each standard basis index, and the block seen with its
    # row axes in the standard qubit order.
    inverse = list(np.argsort(order))
    row_of = np.arange(dim).reshape((2,) * n).transpose(inverse).ravel()
    standard = block.reshape((2,) * n + (width,)).transpose(inverse + [n])
    columns = np.arange(width)
    out = np.empty((dim, dim), dtype=complex)
    for start in range(0, dim, width):
        block.fill(0.0)
        block[row_of[start:start + width], columns] = 1.0
        for m0, m1, a, b, c, s in steps:
            if c is None:  # CNOT: swap the target halves where the control is 1
                np.copyto(a, m0)
                np.copyto(m0, m1)
                np.copyto(m1, a)
                continue
            np.multiply(m0, c, out=a)
            np.multiply(m1, s, out=b)
            m1 *= c
            m0 *= s
            m1 += m0
            np.subtract(a, b, out=m0)
        out[:, start:start + width] = standard.reshape(dim, width)
    return out
