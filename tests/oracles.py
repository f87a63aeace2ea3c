"""Brute-force reference constructions used to cross-check the package.

Everything here is raw numpy, written independently of the package code
paths: explicit kron products, reshape-based partial traces, eigenvalue
sums from numpy's LAPACK wrappers, the scalar Python arithmetic that the
stacked per-point formulas must reproduce bit for bit, and a report row and
verdict lines rendered one value at a time by ``format_scalar``.
"""

import math

import numpy as np

D_ENV = 4
_E = np.eye(D_ENV, dtype=complex)
ENV_IN = _E[0]
ENV_REC_1 = _E[0]
ENV_REC_2 = _E[1]


def bloch_pair(theta, phi=0.0):
    psi = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], dtype=complex)
    bar = np.array([-np.exp(-1j * phi) * np.sin(theta / 2), np.cos(theta / 2)], dtype=complex)
    return psi, bar


def random_amplitudes(dim, rng):
    """A standard complex Gaussian ket of dimension ``dim``, normalized: the
    real parts drawn first, then the imaginary parts."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def kron_all(*xs):
    out = np.array([1.0 + 0j])
    for x in xs:
        out = np.kron(out, x)
    return out


def trace_distance_eigsum(r, s):
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(r - s))))


def spectra_eigvalsh(rho):
    """Eigenvalues, descending, of stacked Hermitian matrices (..., n, n),
    each from one dense LAPACK solve of the whole matrix."""
    return np.linalg.eigvalsh(rho)[..., ::-1]


def partial_trace_einsum(rho, dims, keep):
    """Partial trace of a dense density matrix as one einsum: row axes get
    fresh letters, and each traced column axis reuses its row letter."""
    n = len(dims)
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    row = letters[:n]
    col = []
    next_free = n
    for axis in range(n):
        if axis in keep:
            col.append(letters[next_free])
            next_free += 1
        else:
            col.append(row[axis])
    kept = sorted(keep)
    out_sub = "".join(row[a] for a in kept) + "".join(col[a] for a in kept)
    reduced = np.einsum(f"{row}{''.join(col)}->{out_sub}", rho.reshape(tuple(dims) * 2))
    d = int(np.prod([dims[a] for a in kept]))
    return reduced.reshape(d, d)


def partial_trace_loop(rho, dims, keep):
    """Partial trace via reshape and successive np.trace calls."""
    dims = list(dims)
    rho = rho.reshape(dims + dims)
    for axis in sorted((i for i in range(len(dims)) if i not in keep), reverse=True):
        rho = np.trace(rho, axis1=axis, axis2=axis + len(dims))
        dims.pop(axis)
    d = int(np.prod(dims))
    return rho.reshape(d, d)


def reduced_states_loop(kets, dims, keep):
    """Reduced states of stacked kets (..., prod(dims)) on the kept axes, the
    traced multi-index summed in ascending order one rank-1 term at a time
    into a zero start."""
    kets = np.asarray(kets, dtype=complex)
    batch, n = kets.shape[:-1], len(dims)
    kept = sorted(keep)
    traced = [axis for axis in range(n) if axis not in kept]
    amp = kets.reshape(*batch, *dims)
    lead = len(batch)
    amp = np.moveaxis(amp, [lead + axis for axis in kept + traced], range(lead, lead + n))
    d_kept = math.prod(dims[axis] for axis in kept)
    amp = amp.reshape(*batch, d_kept, -1)
    out = np.zeros((*batch, d_kept, d_kept), dtype=complex)
    for t in range(amp.shape[-1]):
        v = amp[..., t]
        out += v[..., :, None] * v.conj()[..., None, :]
    return out


def basis_amplitudes_scalar(theta, phi=0.0):
    """[primary, complement] of the qubit basis at (theta, phi) in Python
    complex arithmetic."""
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    w = complex(math.cos(phi), math.sin(phi))
    return np.array([[c, w * s], [-np.conj(w) * s, c]], dtype=complex)


def binary_entropy(p):
    out = 0.0
    for v in (p, 1.0 - p):
        if v > 0.0:
            out -= v * np.log2(v)
    return out


def wishful_after_state(theta1, theta2, index, sign_faithful=True, phi=0.0):
    """Post-machine joint vector over (alice source, alice register, bob out).

    Expands the two-singlet product term by term in the basis Alice will
    measure (the +,-,-,+ sign pattern of the product of two singlets) and
    substitutes the four wishful rules with the package's default outputs:
    environment records e0/e1 on the cloned branches and pass-through cross
    outputs.  Returns a 4 * (4 * D_ENV)-dimensional vector.
    """
    theta = theta1 if index == 1 else theta2
    psi, psibar = bloch_pair(theta, phi)
    alpha, alphabar = psi, psibar  # register basis shares the source angles

    def rule(bob_psi_bar, bob_alpha_bar):
        if not bob_psi_bar and not bob_alpha_bar:
            return kron_all(psi, psi, ENV_REC_1)
        if bob_psi_bar and bob_alpha_bar:
            return kron_all(psibar, psibar, ENV_REC_2)
        if not bob_psi_bar and bob_alpha_bar:
            return kron_all(psi, alphabar, ENV_IN)
        return kron_all(psibar, alpha, ENV_IN)

    # (coeff, alice source state, alice register state, bob rule key)
    branches = [
        (+0.5, psi, alpha, (True, True)),
        (-0.5, psi, alphabar, (True, False)),
        (-0.5, psibar, alpha, (False, True)),
        (+0.5, psibar, alphabar, (False, False)),
    ]
    if not sign_faithful:
        branches = [(abs(c), a, b, k) for c, a, b, k in branches]
    vec = np.zeros(4 * 4 * D_ENV, dtype=complex)
    for coeff, a_src, a_reg, key in branches:
        vec += coeff * kron_all(np.kron(a_src, a_reg), rule(*key))
    return vec


def wishful_bob_mixture(theta1, theta2, index, sign_faithful=True, phi=0.0):
    """Outcome-averaged Bob state: project Alice's four product outcomes."""
    theta = theta1 if index == 1 else theta2
    psi, psibar = bloch_pair(theta, phi)
    after = wishful_after_state(theta1, theta2, index, sign_faithful, phi).reshape(4, -1)
    rho = np.zeros((4 * D_ENV, 4 * D_ENV), dtype=complex)
    for a_src in (psi, psibar):
        for a_reg in (psi, psibar):
            conditioned = np.kron(a_src, a_reg).conj() @ after
            rho += np.outer(conditioned, conditioned.conj())
    return rho


def overlap_scalar(modulus, phase):
    """m e^{ip} as Python complex arithmetic rounds it."""
    return modulus * complex(math.cos(phase), math.sin(phase))


def complement_amplitude(target):
    """The second amplitude sqrt(1 - |t|^2) of the ket with overlap t."""
    return math.sqrt(max(1.0 - abs(complex(target)) ** 2, 0.0))


def lambda_max(offdiag_modulus, branch_weight):
    """Largest eigenvalue of [[w, pq z], [pq conj z, 1 - w]], |z| given."""
    w = branch_weight
    return 0.5 + math.sqrt((w - 0.5) ** 2 + w * (1.0 - w) * offdiag_modulus**2)


def lambda_before_scalar(a, b, branch_weight):
    return lambda_max(abs(complex(a)) * abs(complex(b)), branch_weight)


def lambda_after_scalar(a, c, branch_weight):
    return lambda_max(abs(complex(a)) ** 2 * abs(complex(c)), branch_weight)


def gaussian_matrix(n_out, n_in, rng):
    """A complex Gaussian (n_out, n_in) matrix drawn in one call: every real
    part, then every imaginary part, row-major."""
    z = rng.standard_normal(2 * n_out * n_in).reshape(2, n_out, n_in)
    return z[0] + 1j * z[1]


def isometric_scenario_draws(rng, n):
    """The draws of n random isometric scenarios, one trial after another:
    four basis pairs' (theta, phi), uniform below (pi, 2 pi - 1e-9), then
    the 16 x 16 Gaussian matrix of Bob's isometry.  Angles (n, 4, 2) and
    matrices (n, 16, 16)."""
    angles, draws = [], []
    for _ in range(n):
        angles.append(rng.uniform(0.0, [math.pi, 2.0 * math.pi - 1e-9], size=(4, 2)))
        draws.append(gaussian_matrix(16, 16, rng))
    return np.array(angles), np.array(draws)


def roundtrip_trial(dim, target_dim, size, rng):
    """The draws of one Gram-equivalence round trip: ``size`` kets in
    dimension ``dim``, drawn in one call with each ket's real parts before
    its imaginary parts and normalized by ``np.linalg.norm``, then the
    (target_dim, dim) Gaussian matrix of the hidden isometry."""
    z = rng.standard_normal((size, 2 * dim))
    family = np.array([k / np.linalg.norm(k) for k in z[:, :dim] + 1j * z[:, dim:]])
    return family, gaussian_matrix(target_dim, dim, rng)


def format_scalar(x):
    """A number as a report renders it: 12 significant digits, -0.0 as 0.0."""
    x = float(x)
    return f"{0.0 if x == 0.0 else x:.11e}"


def verdict_line(name, deviation, tolerance):
    """A verdict as the table and ``verify`` print it, each number formatted on its own."""
    status = "PASS" if deviation < tolerance else "FAIL"
    dev, tol = format_scalar(deviation), format_scalar(tolerance)
    return f"{status} {name} deviation={dev} tolerance={tol}"


def format_complex(z):
    """A matrix entry as a report renders it: its real and imaginary parts
    each by ``format_scalar``, joined as ``re+imj`` or ``re-imj``."""
    z = complex(z)
    re, im = format_scalar(z.real), format_scalar(z.imag)
    return f"{re}{im}j" if im.startswith("-") else f"{re}+{im}j"


def report_row(report, row):
    """Row ``row`` of a stacked report as its JSON document, every number
    formatted on its own."""
    config = {k: v if isinstance(v, str) else v[row] for k, v in sorted(report.config.items())}
    return {
        "kind": report.kind,
        "config": config,
        "scalars": {k: format_scalar(v[row]) for k, v in report.scalars.items()},
        "matrices": {
            name: [[format_complex(z) for z in r] for r in stack[row]]
            for name, stack in report.matrices.items()
        },
        "verdicts": [
            {"name": name, "passed": bool(dev[row] < tol[row]),
             "deviation": format_scalar(dev[row]), "tolerance": format_scalar(tol[row])}
            for name, (dev, tol) in report.verdicts.items()
        ],
    }


def report_table(report):
    """The table of a report's first row, from :func:`report_row` and
    :func:`verdict_line`."""
    doc = report_row(report, 0)
    lines = [f"kind = {report.kind}", "", "[config]"]
    lines += [f"{k} = {v}" for k, v in doc["config"].items()]
    lines += ["", "[scalars]"]
    lines += [f"{k} = {v}" for k, v in doc["scalars"].items()]
    for name, rows in doc["matrices"].items():
        lines += ["", f"[matrix {name}]", *("  ".join(r) for r in rows)]
    verdicts = [(name, dev[0], tol[0]) for name, (dev, tol) in report.verdicts.items()]
    lines += ["", "[verdicts]", *(verdict_line(*v) for v in verdicts)]
    lines += ["", f"overall = {'PASS' if all(d < t for _, d, t in verdicts) else 'FAIL'}"]
    return "\n".join(lines) + "\n"
