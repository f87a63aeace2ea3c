"""Two-singlet signalling scenario.

Alice and Bob share two singlets (source qubit pair and register qubit
pair); Bob attaches an environment register and runs a machine on his half.
Alice measures her two qubits in one of two product bases; the outcome-
averaged state on Bob's side must not depend on her choice for any physical
machine.  The wishful termwise cloner, whose expansion basis is tied to
Alice's basis index, breaks exactly this.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DensityMatrix,
    Ket,
    SubsystemSignature,
    basis_ket,
    density_of,
    partial_trace,
    signature,
    tensor_all,
    trace_distance,
)
from .machines import (
    MODE_LINEAR,
    LinearMachine,
    MachineSpec,
    apply_linear,
    apply_termwise,
    extend_to_isometry,
    merge_specs,
    preset_wishful_cloner,
)
from .states import BasisPair, StateFamily, singlet
from .tolerances import ASSERT_TOL, RESIDUAL_TOL

ALICE_LABELS = ("pa", "aa")
BOB_LABELS = ("pb", "ab")
ANCILLA_LABEL = "env"


@dataclass(frozen=True)
class TwoSingletScenario:
    """Shared state singlet(pa,pb) x singlet(aa,ab) x |env_0> plus two basis
    choices, with the largest entrywise deviation of Bob's pre-machine
    marginal from I/4."""

    alice_labels: tuple[str, str]
    bob_labels: tuple[str, str]
    ancilla_label: str
    basis1: tuple[BasisPair, BasisPair]
    basis2: tuple[BasisPair, BasisPair]
    ancilla_dim: int
    joint: Ket
    premachine_deviation: float = float("nan")

    def basis(self, index: int) -> tuple[BasisPair, BasisPair]:
        if index == 1:
            return self.basis1
        if index == 2:
            return self.basis2
        raise ValueError(f"basis index must be 1 or 2, got {index!r}")


def build_scenario(
    basis1: tuple[BasisPair, BasisPair],
    basis2: tuple[BasisPair, BasisPair],
    ancilla_dim: int = 4,
) -> TwoSingletScenario:
    """Assemble the shared state, check that Bob's half starts maximally mixed
    and record its deviation from I/4."""
    pa, aa = ALICE_LABELS
    pb, ab = BOB_LABELS
    env = basis_ket(signature((ANCILLA_LABEL, ancilla_dim)), 0)
    joint = tensor_all(
        singlet(basis1[0], (pa, pb)),
        singlet(basis1[1], (aa, ab)),
        env,
    )
    scenario = TwoSingletScenario(
        ALICE_LABELS, BOB_LABELS, ANCILLA_LABEL, basis1, basis2, ancilla_dim, joint
    )
    marginal = bob_marginal_before(scenario)
    dev = float(np.max(np.abs(marginal.entries - np.eye(4) / 4.0)))
    if dev > RESIDUAL_TOL:
        raise ArithmeticError(f"pre-machine Bob marginal deviates from I/4 by {dev:g}")
    return replace(scenario, premachine_deviation=dev)


def bob_marginal_before(s: TwoSingletScenario) -> DensityMatrix:
    return partial_trace(density_of(s.joint), s.bob_labels)


def default_wishful_machine(s: TwoSingletScenario) -> MachineSpec:
    """Union of the wishful rule sets for both bases (termwise mode)."""
    m1 = preset_wishful_cloner(s.basis1[0], s.basis1[1], ancilla_dim=s.ancilla_dim)
    m2 = preset_wishful_cloner(s.basis2[0], s.basis2[1], ancilla_dim=s.ancilla_dim)
    return merge_specs(m1, m2)


def _product_states(psi: BasisPair, alpha: BasisPair) -> list[np.ndarray]:
    p, pb_ = psi.primary.amplitudes, psi.complement.amplitudes
    a, ab_ = alpha.primary.amplitudes, alpha.complement.amplitudes
    return [np.kron(p, a), np.kron(pb_, ab_), np.kron(p, ab_), np.kron(pb_, a)]


def expansion_family(s: TwoSingletScenario, index: int) -> StateFamily:
    """Orthonormal product basis of Bob's two qubits for the chosen index."""
    psi, alpha = s.basis(index)
    sig = signature(("src", 2), ("reg", 2))
    return StateFamily(tuple(Ket(sig, v) for v in _product_states(psi, alpha)))


def bob_marginal_after(
    s: TwoSingletScenario,
    m: MachineSpec | LinearMachine,
    alice_basis_index: int,
    tol: float = ASSERT_TOL,
) -> DensityMatrix:
    """Outcome-averaged Bob state after the machine, for Alice's basis choice.

    Termwise machines expand in the basis matching Alice's index (the
    unphysical step); isometric machines are applied as genuine linear maps.
    Alice's measurement is the complete product basis on her two qubits, and
    the four conditioned Bob states are mixed with their outcome
    probabilities.
    """
    acted = (*s.bob_labels, s.ancilla_label)
    if isinstance(m, LinearMachine):
        after = apply_linear(m, s.joint, acted)
    elif m.mode == MODE_LINEAR:
        after = apply_linear(extend_to_isometry(m, tol), s.joint, acted)
    else:
        after = apply_termwise(m, s.joint, acted, expansion_family(s, alice_basis_index), tol=tol)

    # Spectators (pa, aa) lead the result signature.
    assert after.signature.labels[:2] == s.alice_labels
    psi, alpha = s.basis(alice_basis_index)
    block = after.amplitudes.reshape(4, -1)
    d_bob = block.shape[1]
    rho = np.zeros((d_bob, d_bob), dtype=complex)
    for outcome in _product_states(psi, alpha):
        conditioned = outcome.conj() @ block
        rho += np.outer(conditioned, conditioned.conj())
    bob_sig = SubsystemSignature(after.signature.entries[2:])
    return DensityMatrix(bob_sig, rho)


def signalling_magnitude(
    s: TwoSingletScenario,
    m: MachineSpec | LinearMachine,
    tol: float = ASSERT_TOL,
) -> float:
    """Trace distance between Bob's marginals for Alice's two basis choices."""
    return trace_distance(
        bob_marginal_after(s, m, 1, tol), bob_marginal_after(s, m, 2, tol)
    )
