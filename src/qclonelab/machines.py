"""Machines: maps declared on finite sets of input kets.

A ``MachineSpec`` lists input -> output ket pairs over fixed signatures and
carries one of two application modes:

* ``linear-extension``: the declared rules are extended to a genuine isometry
  (possible exactly when the input and output Gram matrices agree), which is
  then a physical, unitarizable process.
* ``termwise``: the rules are applied term by term in a caller-chosen
  orthonormal expansion basis of the acted factors.  This is generally not a
  linear map on the whole space, which is precisely what makes the "wishful"
  cloning machines unphysical.

Both readings are kept separate on purpose; nothing here ever merges them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Ket, SubsystemSignature, kron_stack, signature
from .states import BasisPair, StateFamily, gram
from .tolerances import ASSERT_TOL

MODE_LINEAR = "linear-extension"
MODE_TERMWISE = "termwise"
MODES = (MODE_LINEAR, MODE_TERMWISE)

class InconsistentGram(ValueError):
    """Declared pairs do not preserve the Gram matrix; carries the report."""

    def __init__(self, report: "ConsistencyReport"):
        super().__init__(
            f"input/output Gram matrices differ by {report.max_deviation:g}; "
            "no isometry can realize these pairs"
        )
        self.report = report


class DependentInputsConflict(ValueError):
    """Linearly dependent declared inputs map to incompatibly composed outputs,
    so no isometry reproduces every declared pair."""


@dataclass(frozen=True)
class MachineSpec:
    """Finite set of declared input -> output ket pairs plus an application mode."""

    input_signature: SubsystemSignature
    output_signature: SubsystemSignature
    pairs: tuple[tuple[Ket, Ket], ...]
    mode: str

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown machine mode {self.mode!r}")
        pairs = tuple((x, y) for x, y in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if not pairs:
            raise ValueError("machine needs at least one declared pair")
        if self.output_signature.dim < self.input_signature.dim:
            raise ValueError(
                "output dimension must be at least the input dimension "
                f"({self.output_signature.dim} < {self.input_signature.dim})"
            )
        for x, y in pairs:
            if x.signature != self.input_signature:
                raise ValueError("declared input does not match the input signature")
            if y.signature != self.output_signature:
                raise ValueError("declared output does not match the output signature")
            x.require_normalized()
            y.require_normalized()

    def inputs(self) -> StateFamily:
        return StateFamily(tuple(x for x, _ in self.pairs))

    def outputs(self) -> StateFamily:
        return StateFamily(tuple(y for _, y in self.pairs))


@dataclass(frozen=True)
class LinearMachine:
    """Isometry between labeled spaces; columns are orthonormal."""

    matrix: np.ndarray = field(repr=False)
    input_signature: SubsystemSignature
    output_signature: SubsystemSignature

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        expected = (self.output_signature.dim, self.input_signature.dim)
        if mat.shape != expected:
            raise ValueError(f"matrix shape {mat.shape}, expected {expected}")
        dev = float(np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[1]))))
        if dev > ASSERT_TOL:
            raise ValueError(f"matrix is not an isometry (M^dag M deviates by {dev:g})")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class ConsistencyReport:
    """Gram-matrix comparison between declared inputs and outputs."""

    input_gram: np.ndarray = field(repr=False)
    output_gram: np.ndarray = field(repr=False)
    max_deviation: float = 0.0
    consistent: bool = False

    def __post_init__(self):
        for name in ("input_gram", "output_gram"):
            arr = np.asarray(getattr(self, name), dtype=complex).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def check_consistency(m: MachineSpec, tol: float = ASSERT_TOL) -> ConsistencyReport:
    """Compare the Gram matrices of declared inputs and outputs entrywise."""
    g_in = gram(m.inputs())
    g_out = gram(m.outputs())
    dev = float(np.max(np.abs(g_in - g_out)))
    return ConsistencyReport(g_in, g_out, dev, dev < tol)


def isometry_matrix_from_pairs(
    xs: list[np.ndarray],
    ys: list[np.ndarray],
    in_dim: int,
    out_dim: int,
    tol: float = ASSERT_TOL,
) -> np.ndarray:
    """Isometry M with M x_k = y_k, assuming the two Gram matrices agree.

    With the pairs stacked as columns of X (in_dim x K) and Y (out_dim x K)
    and the SVD X = A S B^H, equal Gram matrices make Y B S^-1 = W A_r for
    the sought isometry W on the range of X (rank r, counted as in
    ``np.linalg.matrix_rank``).  A QR factorization orthonormalizes Y B S^-1
    and completes it to a basis of the output space; M maps the columns of
    A onto that basis.  Rounding in column j of Y B S^-1 is of order
    eps / s_j but reaches M X only through s_j, and QR, largest singular
    value first, keeps it out of the earlier columns, so the residual stays
    at rounding level however close the inputs are to dependent.  Pairs
    that no isometry maps (dependent inputs whose outputs are not the
    induced combination) leave a residual max|M X - Y| above ``tol`` and
    are refused.
    """
    x = np.asarray(xs, dtype=complex).reshape(len(xs), in_dim).T
    y = np.asarray(ys, dtype=complex).reshape(len(ys), out_dim).T
    a, s, bh = np.linalg.svd(x)
    rank = int(np.sum(s > s[0] * max(x.shape) * np.finfo(float).eps))
    q, r = np.linalg.qr((y @ bh[:rank].conj().T) / s[:rank], mode="complete")
    # Undo the phases QR puts on the diagonal of R, so q's columns match Y B S^-1.
    q[:, :rank] *= np.exp(1j * np.angle(np.diagonal(r)[:rank]))
    mat = q[:, :in_dim] @ a.conj().T
    residual = float(np.max(np.abs(mat @ x - y)))
    if not residual <= tol:
        raise DependentInputsConflict(
            "declared outputs are not an isometric image of the declared inputs "
            f"(residual {residual:g})"
        )
    return mat


def extend_to_isometry(m: MachineSpec, tol: float = ASSERT_TOL) -> LinearMachine:
    """Extend a Gram-consistent machine to an isometry on the whole input space."""
    report = check_consistency(m, tol)
    if not report.consistent:
        raise InconsistentGram(report)
    mat = isometry_matrix_from_pairs(
        [x.amplitudes for x, _ in m.pairs],
        [y.amplitudes for _, y in m.pairs],
        m.input_signature.dim,
        m.output_signature.dim,
        tol,
    )
    return LinearMachine(mat, m.input_signature, m.output_signature)


def _split_spectators(state: Ket, acted_labels, machine_input: SubsystemSignature):
    """Validate acted labels against the machine input and reorder the state
    tensor to (spectators..., acted...) with acted axes in machine order."""
    acted = tuple(acted_labels)
    sig = state.signature
    if len(acted) != len(machine_input.entries):
        raise ValueError(
            f"expected {len(machine_input.entries)} acted labels, got {len(acted)}"
        )
    if len(set(acted)) != len(acted):
        raise ValueError("acted labels must be distinct")
    for lab, (mlab, mdim) in zip(acted, machine_input.entries):
        axis = sig.axis_of(lab)  # raises on unknown label
        dim = sig.dims[axis]
        if dim != mdim:
            raise ValueError(
                f"label {lab!r} has dimension {dim}, machine factor {mlab!r} needs {mdim}"
            )
    acted_set = set(acted)
    spectators = tuple(e for e in sig.entries if e[0] not in acted_set)
    axes = [sig.axis_of(lab) for lab, _ in spectators]
    axes += [sig.axis_of(lab) for lab in acted]
    d_spec = int(np.prod([d for _, d in spectators], dtype=np.int64)) if spectators else 1
    block = state.as_tensor().transpose(axes).reshape(d_spec, machine_input.dim)
    return spectators, block


def _result_signature(spectators, output_signature: SubsystemSignature) -> SubsystemSignature:
    if not spectators:
        return output_signature
    return SubsystemSignature(tuple(spectators)).concat(output_signature)


def apply_linear(lm: LinearMachine, state: Ket, acted_labels) -> Ket:
    """Apply an isometry to the acted factors, leaving spectators untouched.

    The result signature is the spectator labels (original order) followed by
    the machine's output labels.
    """
    spectators, block = _split_spectators(state, acted_labels, lm.input_signature)
    out = block @ lm.matrix.T
    return Ket(_result_signature(spectators, lm.output_signature), out.reshape(-1))


def apply_termwise(
    m: MachineSpec,
    state: Ket,
    acted_labels,
    expansion: StateFamily,
    renormalize: bool = False,
    tol: float = ASSERT_TOL,
) -> Ket:
    """Apply declared rules term by term in the given expansion basis.

    ``expansion`` must be a complete orthonormal basis of the leading acted
    factors; the remaining acted factors form the ancilla, which every
    matched declared input must carry in one shared fixed state.  The state
    is expanded over the basis, each term is replaced by its declared output
    with the coefficient (including sign) kept, and the result is
    renormalized only on request.
    """
    spectators, block = _split_spectators(state, acted_labels, m.input_signature)
    in_dims = m.input_signature.dims
    exp_dims = expansion.signature.dims
    if exp_dims != in_dims[: len(exp_dims)]:
        raise ValueError(
            f"expansion dimensions {exp_dims} do not match the leading "
            f"machine input factors {in_dims[:len(exp_dims)]}"
        )
    d_exp = expansion.signature.dim
    d_anc = m.input_signature.dim // d_exp
    if len(expansion) != d_exp:
        raise ValueError(
            f"expansion must contain {d_exp} states to span the acted factors, "
            f"got {len(expansion)}"
        )
    g = gram(expansion)
    if float(np.max(np.abs(g - np.eye(d_exp)))) > tol:
        raise ValueError("non-orthonormal expansion")

    basis = np.stack([k.amplitudes for k in expansion.members], axis=1)  # (d_exp, d_exp)

    # Match declared pairs to expansion elements: a pair is usable when its
    # input factors as (expansion element) x (fixed ancilla state).
    ancilla_state = None
    outputs: list[np.ndarray | None] = [None] * d_exp
    for x, y in m.pairs:
        coeffs = basis.conj().T @ x.amplitudes.reshape(d_exp, d_anc)
        k = int(np.argmax(np.linalg.norm(coeffs, axis=1)))
        if float(np.max(np.abs(np.kron(basis[:, k], coeffs[k]) - x.amplitudes))) > tol:
            continue
        if outputs[k] is not None:
            continue  # first declared rule wins
        if ancilla_state is None:
            ancilla_state = coeffs[k]
        elif float(np.max(np.abs(ancilla_state - coeffs[k]))) > tol:
            raise ValueError("declared inputs do not share one fixed ancilla state")
        outputs[k] = y.amplitudes

    psi = block.reshape(-1, d_exp, d_anc)
    branch = np.einsum("ek,sea->ksa", basis.conj(), psi)
    d_out = m.output_signature.dim
    result = np.zeros((psi.shape[0], d_out), dtype=complex)
    for k in range(d_exp):
        t_k = branch[k]
        if float(np.linalg.norm(t_k)) <= tol:
            continue
        if outputs[k] is None:
            raise ValueError(
                f"expansion element {k} carries weight but is not covered by the declared pairs"
            )
        spec_coeff = t_k @ ancilla_state.conj()
        if float(np.max(np.abs(t_k - np.outer(spec_coeff, ancilla_state)))) > tol:
            raise ValueError(
                "state support leaves the declared domain: ancilla factor differs "
                "from the machine's fixed ancilla state"
            )
        result += np.outer(spec_coeff, outputs[k])

    amp = result.reshape(-1)
    if renormalize:
        n = np.linalg.norm(amp)
        if n == 0.0:
            raise ValueError("cannot renormalize a vanishing result")
        amp = amp / n
    return Ket(_result_signature(spectators, m.output_signature), amp)


def _kron_all(*vecs: np.ndarray) -> np.ndarray:
    out = np.array([1.0 + 0j])
    for v in vecs:
        out = kron_stack(out, v)
    return out


def _qubit_amplitudes(k: Ket, role: str) -> np.ndarray:
    if k.signature.dim != 2:
        raise ValueError(f"{role} must be a single-qubit ket, got dimension {k.signature.dim}")
    return k.require_normalized().amplitudes


def preset_wishful_cloner(
    psi_basis: BasisPair,
    alpha_basis: BasisPair,
    cross_outputs: tuple[Ket, Ket] | None = None,
    ancilla_outputs: tuple[Ket, Ket] | None = None,
    ancilla_dim: int = 4,
) -> MachineSpec:
    """Termwise cloner whose copy of the source is steered by the register.

    Rules (|C> is the fixed environment input):
      |psi>|alpha>|C>       -> |psi>|psi>|C1>
      |psibar>|alphabar>|C> -> |psibar>|psibar>|C2>
      |psi>|alphabar>|C>    -> cross output (default: same state, passed through)
      |psibar>|alpha>|C>    -> second cross output (same default)

    Default environment records C1, C2 are orthogonal basis states.  Within
    one basis the four rules always map an orthonormal set to an orthonormal
    set, so each single-basis rule set is isometric on its own; the choice of
    records only matters once the two bases' rule sets are compared (with
    C1 = C2 = |C> and pass-through crosses, the two conditioned mixtures
    coincide and the signalling magnitude degenerates to zero).
    """
    if ancilla_dim < 2:
        raise ValueError("environment register needs dimension >= 2")
    in_sig = signature(("src", 2), ("reg", 2), ("env", ancilla_dim))
    out_sig = signature(("src", 2), ("copy", 2), ("env", ancilla_dim))
    env_in = np.zeros(ancilla_dim, dtype=complex)
    env_in[0] = 1.0
    if ancilla_outputs is None:
        c1 = np.zeros(ancilla_dim, dtype=complex)
        c1[0] = 1.0
        c2 = np.zeros(ancilla_dim, dtype=complex)
        c2[1] = 1.0
    else:
        c1, c2 = (k.require_normalized().amplitudes for k in ancilla_outputs)
        if len(c1) != ancilla_dim or len(c2) != ancilla_dim:
            raise ValueError("ancilla outputs must live in the environment register")
    psi = psi_basis.primary.amplitudes
    psibar = psi_basis.complement.amplitudes
    alpha = alpha_basis.primary.amplitudes
    alphabar = alpha_basis.complement.amplitudes
    if cross_outputs is None:
        phi = Ket(out_sig, _kron_all(psi, alphabar, env_in))
        phibar = Ket(out_sig, _kron_all(psibar, alpha, env_in))
    else:
        phi, phibar = cross_outputs
        if phi.signature != out_sig or phibar.signature != out_sig:
            raise ValueError("cross outputs must live on the machine output signature")
    pairs = (
        (Ket(in_sig, _kron_all(psi, alpha, env_in)), Ket(out_sig, _kron_all(psi, psi, c1))),
        (
            Ket(in_sig, _kron_all(psibar, alphabar, env_in)),
            Ket(out_sig, _kron_all(psibar, psibar, c2)),
        ),
        (Ket(in_sig, _kron_all(psi, alphabar, env_in)), phi),
        (Ket(in_sig, _kron_all(psibar, alpha, env_in)), phibar),
    )
    return MachineSpec(in_sig, out_sig, pairs, MODE_TERMWISE)


def strong_cloner_rules(
    psis: np.ndarray, alphas: np.ndarray, env_outs: np.ndarray, ancilla_dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """Declared inputs |psi_k>|0>|alpha_k>|C> and outputs |psi_k>|psi_k>|C_k>
    of the strong cloner, stacked.

    ``psis`` and ``alphas`` hold the two source and register qubit kets,
    shape (..., 2, 2); ``env_outs`` holds the two output records, shape
    (..., 2, 2 * ancilla_dim).  Both results have shape (..., 2, 8 * ancilla_dim).
    """
    blank = np.array([1.0, 0.0], dtype=complex)
    env_in = np.zeros(ancilla_dim, dtype=complex)
    env_in[0] = 1.0
    return _kron_all(psis, blank, alphas, env_in), _kron_all(psis, psis, env_outs)


def preset_strong_cloner(
    psi_pair: tuple[Ket, Ket],
    alpha_pair: tuple[Ket, Ket],
    ancilla_out_pair: tuple[Ket, Ket] | None = None,
    ancilla_dim: int = 4,
) -> MachineSpec:
    """Cloner fed a blank slot and a supplementary register:

      |psi_k>|0>|alpha_k>|C> -> |psi_k>|psi_k>|C_k>   for k in {i, j}.

    The output environment has twice the input environment dimension so the
    total output dimension matches the input and an isometric extension is
    possible whenever the Gram matrices agree.
    """
    if ancilla_dim < 2:
        raise ValueError("environment register needs dimension >= 2")
    out_env_dim = 2 * ancilla_dim
    in_sig = signature(("src", 2), ("blank", 2), ("reg", 2), ("env", ancilla_dim))
    out_sig = signature(("src", 2), ("copy", 2), ("env", out_env_dim))
    if ancilla_out_pair is None:
        c_i = np.zeros(out_env_dim, dtype=complex)
        c_i[0] = 1.0
        c_j = np.zeros(out_env_dim, dtype=complex)
        c_j[1] = 1.0
    else:
        c_i, c_j = (k.require_normalized().amplitudes for k in ancilla_out_pair)
        if len(c_i) != out_env_dim or len(c_j) != out_env_dim:
            raise ValueError(
                f"ancilla outputs must live in the {out_env_dim}-dimensional output environment"
            )
    inputs, outputs = strong_cloner_rules(
        np.stack([_qubit_amplitudes(k, "psi") for k in psi_pair]),
        np.stack([_qubit_amplitudes(k, "alpha") for k in alpha_pair]),
        np.stack([c_i, c_j]),
        ancilla_dim,
    )
    pairs = tuple((Ket(in_sig, inputs[k]), Ket(out_sig, outputs[k])) for k in (0, 1))
    return MachineSpec(in_sig, out_sig, pairs, MODE_LINEAR)


def preset_deleter(
    psi_pair: tuple[Ket, Ket],
    ancilla_out_pair: tuple[Ket, Ket] | None = None,
    ancilla_dim: int = 4,
) -> MachineSpec:
    """Deleter returning one copy to the blank state:

      |psi_k>|psi_k>|A> -> |psi_k>|0>|A_k>   for k in {i, j}.
    """
    if ancilla_dim < 2:
        raise ValueError("environment register needs dimension >= 2")
    in_sig = signature(("src", 2), ("copy", 2), ("env", ancilla_dim))
    out_sig = signature(("src", 2), ("blank", 2), ("env", ancilla_dim))
    blank = np.array([1.0, 0.0], dtype=complex)
    env_in = np.zeros(ancilla_dim, dtype=complex)
    env_in[0] = 1.0
    if ancilla_out_pair is None:
        a_i = np.zeros(ancilla_dim, dtype=complex)
        a_i[0] = 1.0
        a_j = np.zeros(ancilla_dim, dtype=complex)
        a_j[1] = 1.0
    else:
        a_i, a_j = (k.require_normalized().amplitudes for k in ancilla_out_pair)
        if len(a_i) != ancilla_dim or len(a_j) != ancilla_dim:
            raise ValueError("ancilla outputs must live in the environment register")
    psis = [_qubit_amplitudes(k, "psi") for k in psi_pair]
    pairs = tuple(
        (
            Ket(in_sig, _kron_all(psis[k], psis[k], env_in)),
            Ket(out_sig, _kron_all(psis[k], blank, (a_i, a_j)[k])),
        )
        for k in (0, 1)
    )
    return MachineSpec(in_sig, out_sig, pairs, MODE_LINEAR)


def merge_specs(a: MachineSpec, b: MachineSpec) -> MachineSpec:
    """Union of two rule sets over identical signatures and mode."""
    if a.input_signature != b.input_signature or a.output_signature != b.output_signature:
        raise ValueError("cannot merge machines with different signatures")
    if a.mode != b.mode:
        raise ValueError("cannot merge machines with different modes")
    return MachineSpec(a.input_signature, a.output_signature, a.pairs + b.pairs, a.mode)


def random_isometry(
    input_signature: SubsystemSignature,
    output_signature: SubsystemSignature,
    rng: np.random.Generator,
) -> LinearMachine:
    """Haar-style random isometry between the two spaces."""
    n_in = input_signature.dim
    n_out = output_signature.dim
    if n_out < n_in:
        raise ValueError("output dimension must be at least the input dimension")
    z = rng.standard_normal((n_out, n_in)) + 1j * rng.standard_normal((n_out, n_in))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    q = q * (d.conj() / np.abs(d))
    return LinearMachine(q, input_signature, output_signature)
