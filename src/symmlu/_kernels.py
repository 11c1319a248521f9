"""Hot numeric kernels, one numpy body each.

Kernels:
  euler_su2_batch          SU(2) elements of a batch of ZYZ Euler triples
  density_factor           V with rho = V V^+, from one eigh (rank r)
  conj_distance_batch      Frobenius distance || g^{(x)n} rho g^{(x)n +} - target ||
                           for a batch of ZYZ Euler triples, from the factors
                           V of rho and W of the target (rank s): the oracle
                           form, used by verify.  D^2 fills a table with one
                           row per distinct (beta, gamma) of the batch,
                           (n + r + (n + 1) s) r 2^n complex products each, and
                           one column per distinct alpha, (n + 1) s r each,
                           summed over the Hamming-weight classes of
                           Rz(alpha)^{(x)n}: (distinct pairs) x (distinct
                           alpha) entries, filled in chunks of pairs, the one
                           chunk size, and each row reads its entry.  Asked
                           entries with D^2 below S / 16, S = ||rho||^2 +
                           ||T||^2, where that sum cancels, are scored again
                           by the non-cancelling (r + s) r 2^n form, so the
                           sum's error in D stays below 2 e sqrt(S) for terms
                           rounded to e.  No 2^n x 2^n matrix
  conj_gauss_newton        the same distance squared, with its gradient and
                           Gauss-Newton matrix in left steps of g, for one g
                           on every qubit or one factor per qubit
  su2_left_step            g <- exp(-i d.sigma/2) g, for either form
  polish_roots             guarded Newton refinement of polynomial roots
  diag_phase_residual      stabilization residual of per-qubit diagonal phases;
                           verify solves that family exactly, so only tests
                           call it, as the lattice reference

euler_su2 and conj_distance_single are the one-point forms, computed by the
batch bodies on a one-row array.  The (f2, grad, gn) models feed
search.gauss_newton.
"""
from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "euler_su2",
    "euler_su2_batch",
    "horner",
    "density_factor",
    "conj_distance_batch",
    "conj_distance_single",
    "conj_gauss_newton",
    "su2_left_step",
    "polish_roots",
    "diag_phase_residual",
]

_CHUNK_ROWS, _CHUNK_ENTRIES = 256, 1 << 22  # conjugation kernels: rows per chunk, complex entries per temporary
_RESCORE = 1 / 16  # conj_distance_batch: share of ||rho||^2 + ||T||^2 below which a row's D^2 is scored again


def _chunk_rows(n: int) -> int:
    """Rows per chunk of the conjugation kernels at n qubits.

    At most 256, and at least 1; otherwise few enough that rows x 4^n is at
    most 2^22 (64 MiB of complex entries): 256 rows up to n = 7, 4 at
    n = 10.  A chunk's temporaries are (rows, 2^n, r) and smaller at ranks r
    and s, so the rule bounds them at full rank; at low rank they are far
    below it.  conj_distance_batch sizes its chunks of pairs from the same
    rows x 4^n entries.
    """
    return max(1, min(_CHUNK_ROWS, _CHUNK_ENTRIES >> (2 * n)))


def euler_su2_batch(angles: np.ndarray) -> np.ndarray:
    """SU(2) elements Rz(alpha) Ry(beta) Rz(gamma) of (B, 3) angle rows; (B, 2, 2).

    Rz(t) = diag(e^{-it/2}, e^{+it/2}),
    Ry(t) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]].
    """
    angles = np.asarray(angles, dtype=np.float64)
    cb = np.cos(0.5 * angles[:, 1])
    sb = np.sin(0.5 * angles[:, 1])
    ep = np.exp(-0.5j * (angles[:, 0] + angles[:, 2]))
    em = np.exp(-0.5j * (angles[:, 0] - angles[:, 2]))
    out = np.empty((angles.shape[0], 2, 2), dtype=np.complex128)
    out[:, 0, 0] = ep * cb
    out[:, 0, 1] = -em * sb
    out[:, 1, 0] = np.conj(em) * sb
    out[:, 1, 1] = np.conj(ep) * cb
    return out


def euler_su2(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """SU(2) element Rz(alpha) Ry(beta) Rz(gamma); see euler_su2_batch."""
    return euler_su2_batch(np.array([[alpha, beta, gamma]], dtype=np.float64))[0]


def density_factor(rho) -> np.ndarray:
    """V (2^n, r) with V V^+ = rho, from one eigh of the Hermitian PSD rho.

    Keeps the eigenvalues above numpy's matrix_rank default cutoff
    (lambda_max 2^n eps), so a pure state gives r = 1.
    """
    vals, vecs = np.linalg.eigh(np.asarray(rho, dtype=np.complex128))
    keep = vals > vals[-1] * len(vals) * np.finfo(np.float64).eps
    return vecs[:, keep] * np.sqrt(vals[keep])


def _on_every_qubit(ops, a: np.ndarray, n: int) -> np.ndarray:
    """ops applied to the columns of a (B or 1, 2^n, r), one qubit at a time; (B, 2^n, r).

    ops is (B, 2, 2), applied as ops[b]^{(x)n}, or (B, n, 2, 2), one factor
    per qubit, applied as ops[b, 0] (x) ... (x) ops[b, n - 1].
    """
    rows, cols = ops.shape[0], a.shape[-1]  # sizes spelt out: a -1 axis is ambiguous on 0 rows
    for k in range(n):
        op = ops if ops.ndim == 3 else ops[:, k]
        legs = a.reshape(a.shape[0], 1 << k, 2, (1 << (n - 1 - k)) * cols)
        out = np.empty((rows,) + legs.shape[1:], dtype=np.complex128)
        for i in (0, 1):
            out[:, :, i] = op[:, i, 0, None, None] * legs[:, :, 0] + op[:, i, 1, None, None] * legs[:, :, 1]
        a = out
    return a.reshape(rows, 1 << n, cols)


def _target_split(target_factor):
    """(Q, m) with T = Q diag(m) Q^+, from W (2^n, s) with orthogonal columns (density_factor of T).

    Q is W's columns normalised and m their squared norms.
    """
    w = np.asarray(target_factor, dtype=np.complex128)
    m = np.sum(np.abs(w) ** 2, axis=0)
    return w / np.sqrt(m), m


def _squared_residual(a, q, m):
    """||A A^+ - Q diag(m) Q^+||_F^2 of each A of a (B, 2^n, r) stack, and X = Q^+ A.

    With P = A - Q X (the part of A outside Q's span) and G = P^+ P,
    ||A A^+ - T||^2 = ||X X^+ - diag(m)||^2 + 2 tr(X G X^+) + ||G||^2: three
    sums of squares, each small near a zero of the distance, so none cancels
    there.  Only (B, 2^n, r) and smaller products are formed.
    """
    x = np.conj(q.T) @ a  # (B, s, r)
    p = a - q @ x
    gram = np.conj(np.swapaxes(p, 1, 2)) @ p  # (B, r, r)
    inner = x @ np.conj(np.swapaxes(x, 1, 2)) - np.diag(m)
    cross = np.einsum("ijk,ijk->i", np.conj(x), x @ gram).real
    return _squared_norms(inner) + 2.0 * np.maximum(cross, 0.0) + _squared_norms(gram), x


def _squared_norms(m: np.ndarray) -> np.ndarray:
    """||m_b||_F^2 of each complex array of a (B, ...) stack, in one pass."""
    flat = np.ascontiguousarray(m).reshape(m.shape[0], math.prod(m.shape[1:])).view(np.float64)
    return np.einsum("ij,ij->i", flat, flat)


def _by_chunks(body, rows: int, n: int, *batch):
    """body on _chunk_rows(n) rows of each batch array at a time, results concatenated.

    Every temporary of body is at most (rows, 2^n, r) for r <= 2^n.
    """
    step = _chunk_rows(n)
    parts = [body(*(b[s : s + step] for b in batch)) for s in range(0, max(rows, 1), step)]
    return tuple(np.concatenate(p) for p in zip(*parts))


def _conj_distance(angles, factor, target_factor, n: int) -> np.ndarray:
    """D of each Euler row, behind both public names.

    Kept apart from them so a one-point call is not also counted as a batch
    call by wrappers installed on the public names.  Each row is factored
    as g = Rz(alpha) Ry(beta) Rz(gamma), and B = (Ry(beta) Rz(gamma))^{(x)n} V
    is formed once per distinct (beta, gamma).  Rz(alpha)^{(x)n} is the
    diagonal e^{-i alpha (n/2 - |x|)}, which depends on the Hamming weight
    |x| only.  With Y_w = W_w^+ B_w (W and B restricted to the indices of
    weight w), A = Rz(alpha)^{(x)n} B has W^+ A = sum_w e^{-i alpha (n/2 - w)} Y_w,
    and as ||A^+ A|| = ||B^+ B|| and ||W W^+|| = ||m|| (_target_split),

        D^2 = S - 2 ||W^+ A||^2,  S = ||B^+ B||^2 + ||m||^2 = ||rho||^2 + ||T||^2.

    D^2 is a table with one row per distinct (beta, gamma) and one column
    per distinct alpha.  Per pair that is one stacked product with the
    weight-split W^+ of shape ((n + 1) s, 2^n) and one Gram matrix; the
    sum over w is broadcast over every distinct alpha, (n + 1) s r products
    an entry, and each row of the batch reads its entry.  So the cost is
    (distinct pairs) x (distinct alpha) entries: on a product lattice such
    as search.euler_lattice that is the number of rows, and for arbitrary
    rows it can reach rows^2 (the tests' batches; conj_distance_single is
    one entry).

    The sum cancels near D = 0.  Its terms are at most S and carry a
    relative rounding error e of a few units of roundoff, so D^2 is off by
    about e S and D by e S / (2 D).  An entry with D^2 >= _RESCORE S = S / 16
    is thus off by at most 2 e sqrt(S), the non-cancelling form's order;
    every asked entry below it is scored again by _squared_residual, whose
    sums of squares do not cancel, so zeros stay exact to roundoff.  The
    pairs come in chunks, the one chunk size here: a pair's turned factor
    (2^n r entries), Y ((n + 1) s r) and row of X (s r per distinct alpha)
    stay within _chunk_rows(n) x 4^n entries for a chunk; one pair may
    exceed it, at full rank for n = 10 only.  A chunk's entries are scored
    again from its own turned factors, through _by_chunks, the row rule of
    every conjugation kernel.  Each entry's value depends on its own
    (alpha, beta, gamma) alone, so it does not move with the order of the
    rows or the chunk seams.
    """
    factor = np.asarray(factor, dtype=np.complex128)
    target = np.asarray(target_factor, dtype=np.complex128)
    q, m = _target_split(target)
    rank, cols = factor.shape[1], target.shape[1]
    alphas, alpha_of = np.unique(angles[:, 0], return_inverse=True)
    # (beta, gamma) read as one complex number: a 1-D unique, exact in every bit
    pairs, pair_of = np.unique(np.ascontiguousarray(angles[:, 1:]).view(np.complex128)[:, 0], return_inverse=True)
    weight = _hamming_weight(n)
    classes = np.exp(-1j * alphas[:, None] * (0.5 * n - np.arange(n + 1)))  # (distinct alpha, n + 1)
    split = (np.conj(target.T) * (weight == np.arange(n + 1)[:, None, None])).reshape((n + 1) * cols, 1 << n)
    turns = euler_su2_batch(np.stack([np.zeros(len(pairs)), pairs.real, pairs.imag], axis=1))
    # a pair's turned factor, Y and row of X: (2^n + (n + 1 + distinct alpha) s) r entries
    pair_step = max(1, (_chunk_rows(n) << (2 * n)) // (((1 << n) + (n + 1 + len(alphas)) * cols) * rank))
    table = np.empty((len(pairs), len(alphas)))  # D^2, one row a pair and one column an alpha
    wanted = np.zeros(table.shape, dtype=bool)
    wanted[pair_of, alpha_of] = True
    for lo in range(0, len(pairs), pair_step):
        hi = min(lo + pair_step, len(pairs))
        turned = _on_every_qubit(turns[lo:hi], factor[None], n)  # (pairs, 2^n, r)
        blocks = (split @ turned).reshape(hi - lo, n + 1, 1, cols, rank)  # Y_w of each pair
        scale = _squared_norms(np.conj(np.swapaxes(turned, 1, 2)) @ turned) + m @ m
        # (pairs, distinct alpha, s, r), from two 4-D factors: numpy rounds a one-entry product that it
        # broadcasts up from 3-D differently, which would move conj_distance_single off the batch's bits
        x = blocks[:, 0] * classes[None, :, 0, None, None]
        for w in range(1, n + 1):
            x += blocks[:, w] * classes[None, :, w, None, None]
        table[lo:hi] = scale[:, None] - 2.0 * _squared_norms(x.reshape(-1, cols, rank)).reshape(hi - lo, -1)
        pair, alpha = np.nonzero(wanted[lo:hi] & (table[lo:hi] < _RESCORE * scale[:, None]))
        if pair.size:
            table[lo + pair, alpha] = _by_chunks(
                lambda p, a: _squared_residual(turned[p] * classes[a][:, weight, None], q, m), len(pair), n, pair, alpha
            )[0]
    return np.sqrt(table[pair_of, alpha_of])


def conj_distance_batch(angles, factor, target_factor, n):
    """D = || g^{(x)n} V V^+ g^{(x)n +} - W W^+ ||_F for each Euler row g.

    factor is V (2^n, r) of rho = V V^+ and target_factor W (2^n, s) of the
    target T = W W^+, both as density_factor gives them or a pure state's
    vector as one column (W's columns must be orthogonal).  With
    g = Rz(alpha) Ry(beta) Rz(gamma), D^2 is scored as a table with one row
    per distinct (beta, gamma) of the batch and one column per distinct
    alpha, and each row reads its entry.  (Ry(beta) Rz(gamma))^{(x)n} V is
    applied qubit by qubit once per table row, n r 2^n complex products,
    and split into its n + 1 Hamming-weight classes against W,
    Y_w = W_w^+ B_w.  Rz(alpha)^{(x)n} is one phase per class, so an entry
    costs (n + 1) s r products:
    D^2 = ||rho||^2 + ||T||^2 - 2 ||sum_w e^{-i alpha (n/2 - w)} Y_w||^2.
    An asked entry where that falls below 1/16 of ||rho||^2 + ||T||^2 is
    scored again through _squared_residual, (r + s) r 2^n products, which
    does not cancel near D = 0; above it the cancellation costs at most
    2 e sqrt(||rho||^2 + ||T||^2) for terms rounded to e (_conj_distance).
    The table costs (distinct pairs) x (distinct alpha) entries: on a
    product lattice such as search.euler_lattice that is the row count
    (144 pairs by 12 alpha for the 1728 rows at grid 12), while arbitrary
    rows can reach rows^2.  No 2^n x 2^n matrix is formed.
    """
    return _conj_distance(np.asarray(angles, dtype=np.float64), factor, target_factor, n)


def conj_distance_single(alpha, beta, gamma, factor, target_factor, n):
    """conj_distance_batch of the single Euler triple (alpha, beta, gamma)."""
    angles = np.array([[alpha, beta, gamma]], dtype=np.float64)
    return float(_conj_distance(angles, factor, target_factor, n)[0])


@functools.lru_cache(maxsize=None)
def _bit_flips(n: int) -> tuple:
    """(flips, signs), each (n, 2^n), read-only: x with the bit of qubit k flipped, and 2 b_k(x) - 1.

    Qubit k is bit n - 1 - k of the index, as in _on_every_qubit.
    """
    index = np.arange(1 << n)
    bits = (1 << (n - 1 - np.arange(n)))[:, None]
    flips, signs = index ^ bits, np.where(index & bits, 1.0, -1.0)
    flips.setflags(write=False)
    signs.setflags(write=False)
    return flips, signs


@functools.lru_cache(maxsize=None)
def _hamming_weight(n: int) -> np.ndarray:
    """|x|, the number of set bits of each basis index x of n qubits, read-only."""
    ones = np.count_nonzero(_bit_flips(n)[1] > 0, axis=0)
    ones.setflags(write=False)
    return ones


@functools.lru_cache(maxsize=None)
def _spin_z(n: int) -> np.ndarray:
    """Diagonal of J_z = sum_k sigma_z^(k) / 2 on n qubits, read-only: (n - 2|x|) / 2 at basis index x."""
    jz = 0.5 * n - _hamming_weight(n)
    jz.setflags(write=False)
    return jz


def _spin_components(a: np.ndarray, n: int) -> np.ndarray:
    """J_c a for J_c = sum_k sigma_c^(k) / 2, c = x, y, z, on (B, 2^n, r) columns; (3, B, 2^n, r).

    J_z is diagonal (_spin_z).  sigma_x^(k) and sigma_y^(k) move entry
    x ^ bit_k to x, sigma_y^(k) times i (2 b_k(x) - 1) (_bit_flips), so J_x
    and J_y are sums of n gathers of a, taken one qubit at a time.
    """
    flips, signs = _bit_flips(n)
    out = np.empty((3,) + a.shape, dtype=np.complex128)
    np.multiply(_spin_z(n)[:, None], a, out=out[2])
    np.take(a, flips[0], axis=1, out=out[0])
    np.multiply(out[0], signs[0][:, None], out=out[1])
    for idx, sign in zip(flips[1:], signs[1:]):
        moved = a[:, idx]
        out[0] += moved
        moved *= sign[:, None]
        out[1] += moved
    out[0] *= 0.5
    out[1] *= 0.5j
    return out


def _qubit_spin_components(a: np.ndarray, n: int) -> np.ndarray:
    """sigma_c^(k) / 2 a for each qubit k and c = x, y, z, on (B, 2^n, r) columns; (3n, B, 2^n, r), row 3k + c.

    The one-qubit terms of _spin_components, from the same gathers:
    sigma_x^(k) and sigma_y^(k) move entry x ^ bit_k to x, sigma_y^(k) times
    i (2 b_k(x) - 1), and sigma_z^(k) is the diagonal -(2 b_k(x) - 1).
    """
    flips, signs = _bit_flips(n)
    out = np.empty((n, 3) + a.shape, dtype=np.complex128)
    for k in range(n):
        np.take(a, flips[k], axis=1, out=out[k, 0])
        np.multiply(out[k, 0], 0.5j * signs[k][:, None], out=out[k, 1])
        np.multiply(a, -0.5 * signs[k][:, None], out=out[k, 2])
        out[k, 0] *= 0.5
    return out.reshape((3 * n,) + a.shape)


def conj_gauss_newton(gs, factor, target_factor, n):
    """Least-squares model of D^2 at each row of gs; (f2, grad, gn).

    gs is a (B, 2, 2) stack of SU(2) elements g, one on every qubit, or a
    (B, n, 2, 2) stack of one factor g_k per qubit.  factor and
    target_factor are V and W as in conj_distance_batch.  The residual is
    R = A A^+ - T with A = g^{(x)n} V (or (g_0 (x) ... (x) g_{n-1}) V) and
    T = Q diag(m) Q^+ (_target_split).  Steps are taken on the left,
    g <- exp(-i d.sigma/2) g, so column c of the Jacobian is
    C_c = -i [S_c, A A^+], with S_c = J_c = sum_k sigma_c^(k) / 2 for the
    3 steps of a tied g and S_{3k+c} = sigma_c^(k) / 2 for the 3n steps of
    per-qubit factors (su2_left_step).  Returned per row: f2 = ||R||^2
    (_squared_residual), grad_c = Re<C_c, R> = -2 Im tr(B_c^+ R A) with
    R A = A (A^+ A) - Q diag(m) X, and the Gauss-Newton matrix
    gn_cd = Re<C_c, C_d> = 2 Re tr(B_c^+ B_d A^+ A - A^+ B_d A^+ B_c), where
    B_c = S_c A and X = Q^+ A.  R is never formed: every product has r
    columns.
    """
    gs = np.asarray(gs, dtype=np.complex128)
    factor = np.asarray(factor, dtype=np.complex128)
    q, m = _target_split(target_factor)

    def body(chunk):
        a = _on_every_qubit(chunk, factor[None], n)
        f2, x = _squared_residual(a, q, m)
        spins = _spin_components(a, n) if chunk.ndim == 3 else _qubit_spin_components(a, n)
        ah = np.conj(np.swapaxes(a, 1, 2))
        gram = ah @ a  # (B, r, r)
        resid_a = a @ gram - q @ (m[:, None] * x)  # R A
        grad = -2.0 * np.imag(np.sum(np.conj(spins) * resid_a, axis=(2, 3))).T
        proj = ah @ spins  # P_c = A^+ B_c, (3, B, r, r)
        cross = np.einsum("cbir,dbis->bcdrs", np.conj(spins), spins)  # B_c^+ B_d
        gn = 2.0 * np.real(
            np.einsum("bcdrs,bsr->bcd", cross, gram) - np.einsum("dbrs,cbsr->bcd", proj, proj)
        )
        return f2, grad, gn

    return _by_chunks(body, gs.shape[0], n, gs)


def su2_left_step(gs, deltas):
    """exp(-i d.sigma/2) g for each SU(2) element g of gs and its step d.

    gs is (B, 2, 2) with deltas (B, 3), or (B, n, 2, 2), one factor per
    qubit, with deltas (B, 3n): factor k steps by columns 3k .. 3k + 2, the
    coordinates of conj_gauss_newton.
    """
    gs = np.asarray(gs)
    deltas = np.reshape(np.asarray(deltas, dtype=np.float64), (-1, 3))  # one row per factor
    theta = np.sqrt(np.sum(deltas * deltas, axis=1))
    x, y, z = 0.5 * np.sinc(theta / (2 * np.pi)) * deltas.T  # sin(theta/2) d / theta
    c = np.cos(0.5 * theta)
    step = np.empty((len(theta), 2, 2), dtype=np.complex128)
    step[:, 0, 0] = c - 1j * z
    step[:, 0, 1] = -y - 1j * x
    step[:, 1, 0] = y - 1j * x
    step[:, 1, 1] = c + 1j * z
    return (step @ gs.reshape(-1, 2, 2)).reshape(gs.shape)


def horner(coeffs, z):
    """Values at z of the polynomial with descending coefficients."""
    acc = np.full_like(np.asarray(z, dtype=np.complex128), coeffs[0])
    for c in coeffs[1:]:
        acc = acc * z + c
    return acc


def polish_roots(coeffs, roots, iters: int = 5):
    """Refine roots of the polynomial with descending coefficients.

    Newton steps on each root; a step is kept only if |P| decreases.  A
    pass that improves no root leaves the roots as they were, so every
    later pass would repeat it: the passes stop there, with the roots that
    all iters passes would give.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    z = np.array(roots, dtype=np.complex128)
    if z.size == 0 or coeffs.size < 2:
        return z
    deriv = coeffs[:-1] * np.arange(len(coeffs) - 1, 0, -1)
    best = np.abs(horner(coeffs, z))
    for _ in range(iters):
        pz = horner(coeffs, z)
        dz = horner(deriv, z)
        step = np.where(dz != 0, pz / np.where(dz == 0, 1, dz), 0)
        cand = z - step
        val = np.abs(horner(coeffs, cand))
        better = val < best
        if not better.any():
            break
        z = np.where(better, cand, z)
        best = np.where(better, val, best)
    return z


def diag_phase_residual(phis, vals, diffs):
    """Residual of conjugation by per-qubit diag(1, e^{i phi_k}) phases.

    vals are squared moduli of the density matrix's nonzero entries and
    diffs the per-entry bit differences (row bits minus column bits), so the
    returned value equals the Frobenius distance moved by the conjugation.
    |e^{i theta} - 1| is taken as 2 |sin(theta/2)|, which keeps its relative
    accuracy near 0.
    """
    phis = np.atleast_2d(np.asarray(phis, dtype=np.float64))
    vals = np.asarray(vals, dtype=np.float64)
    diffs = np.asarray(diffs, dtype=np.float64)
    half = np.sin(0.5 * (phis @ diffs.T))
    return 2.0 * np.sqrt(np.sum(vals * half * half, axis=1))
