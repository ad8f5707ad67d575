"""Phase synthesis: map a desired receive point to per-antenna phases.

Given channel gains h and equal per-antenna power P/M, any target d with
r <= |d| <= R is realized by a greedy phasor decomposition: antennas are
processed in descending gain magnitude, each step shrinking the residual
target as far as the annulus reachable by the remaining antennas allows.
The final two antennas close the residual exactly via the two-circle
intersection.  Everything is written on arrays so a million targets
vectorize cleanly, and in real arithmetic: each step's phasor comes from
the step's cosine and sine, never from an angle.

transmit() is what the CSIT sweep runs: h_hat . x is its target, so it
forms only the error term delta . x, with _receive().  phases_for_targets()
and reconstruct() are the same map written as per-antenna phases, in direct
form: no engine or CLI command calls them; they are the benchmark's
phase-synthesis layer.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 8192  # rows per block: each 1-D float temporary is 64 KB


def _unit_phasors(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Unit phasors u, shape (M, b), with sum_k a[k] * u[k] = d.

    a: (M, b) amplitudes, each column sorted in descending order; d: (b,)
    targets inside their annuli.  Step k turns the residual's direction by
    delta_k, the greedy shrink angle (k < M - 2) or the two-circle closure
    (k = M - 2), as the phasor cos(delta) + j sin(delta); the last phasor
    points along what remains.  A zero residual has direction 1.
    """
    m, b = a.shape
    u = np.empty((m, b), dtype=complex)
    # big[k]: outer radius reachable by amplitudes k..M-1
    big = [None] * m
    big[m - 1] = a[m - 1]
    for k in range(m - 2, 0, -1):
        big[k] = big[k + 1] + a[k]
    res = d.copy()
    rr, ri = res.real, res.imag
    for k in range(m):
        t = np.abs(res)
        er, ei = rr / t, ri / t
        if not t.all():
            zero = t == 0
            er[zero], ei[zero] = 1.0, 0.0
        if k == m - 1:
            u[k].real, u[k].imag = er, ei
            break
        ak = a[k]
        diff, total = t - ak, t + ak
        if k < m - 2:  # greedy: shrink the residual as far as allowed
            r_rem = np.maximum(2.0 * a[k + 1] - big[k + 1], 0.0)
            rho = np.minimum(np.maximum(np.abs(diff), r_rem),
                             np.minimum(total, big[k + 1]))
            fallback = -1.0
        else:          # closure: what remains must have modulus a[M-1]
            rho, fallback = a[m - 1], 1.0
        # The new residual has modulus rho.  2 t a_k (1 -+ cos delta) in
        # factored form, clipped at 0 (cos delta clipped to [-1, 1]): a
        # tangent step, rho = |t -+ a_k|, gets sin delta = 0 exactly.
        minus = np.maximum((rho - diff) * (rho + diff), 0.0)
        plus = np.maximum((total - rho) * (total + rho), 0.0)
        inv = 1.0 / (plus + minus)
        c = (plus - minus) * inv
        s = 2.0 * np.sqrt(plus * minus) * inv
        if not (t.all() and ak.all()):
            zero = (t == 0) | (ak == 0)
            c[zero], s[zero] = fallback, 0.0
        ur, ui = u[k].real, u[k].imag
        np.subtract(er * c, ei * s, out=ur)
        np.add(er * s, ei * c, out=ui)
        rr -= ak * ur
        ri -= ak * ui
    return u


def _transmit_block(h, scale, d, out) -> None:
    """transmit() on one block of rows, written into out."""
    b, m = h.shape
    mags = np.abs(h)
    amp = scale * mags
    # stable descending rank of each antenna's amplitude within its row
    rank = [np.zeros(b, dtype=np.min_scalar_type(m)) for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            ahead = amp[:, j] > amp[:, i]
            rank[i] += ahead
            rank[j] += ~ahead
    # where antenna i of each row sits in the (M, b) sorted layout
    pos = np.stack(rank, axis=1) * np.intp(b) + np.arange(b)[:, None]
    a = np.empty(m * b)
    a[pos] = amp
    u = _unit_phasors(a.reshape(m, b), d).reshape(-1)
    # x_i = sqrt(P/M) u_i conj(h_i) / |h_i|: the antenna's own phase removed
    np.take(u, pos, out=out)
    out *= h.conj()
    w = scale / mags
    out.real *= w
    out.imag *= w
    if not mags.all():  # a zero gain keeps its phasor as is
        zero = mags == 0
        out[zero] = scale * u[pos[zero]]


def transmit(h: np.ndarray, total_power: float, d: np.ndarray) -> np.ndarray:
    """Constant-envelope transmit signal x, shape (T, M), for targets d (T,).

    Every |x_i| is sqrt(P/M), and sum_i h_i x_i reconstructs each row's
    target, which must lie in the annulus: the caller's screen checks it.
    Antennas go in descending gain order (ties in antenna order); phasors
    are real cosine/sine pairs, with no trigonometric function, and rows go
    in blocks of _BLOCK so temporaries stay small.
    """
    h = np.atleast_2d(np.asarray(h, dtype=complex))
    d = np.broadcast_to(np.asarray(d, dtype=complex), h.shape[:1])
    scale = np.sqrt(total_power / h.shape[1])
    x = np.empty(h.shape, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, h.shape[0], _BLOCK):
            rows = slice(lo, lo + _BLOCK)
            _transmit_block(h[rows], scale, d[rows], x[rows])
    return x


def phases_for_targets(h: np.ndarray, total_power: float,
                       d: np.ndarray) -> np.ndarray:
    """Transmit phases theta, shape (T, M), for targets d (T,): the angles
    of transmit()'s x, mod 2 pi, so that reconstruct() returns d."""
    return np.mod(np.angle(transmit(h, total_power, d)), 2.0 * np.pi)


def _receive(h, x):
    """sum_i g_i x_i for any gains g (the CSIT sweep passes its error
    draw), added antenna by antenna.  The products are formed in x, which
    the caller must not need again."""
    np.multiply(h, x, out=x)
    total = x[:, 0].copy()
    for col in x.T[1:]:
        total += col
    return total


def reconstruct(h: np.ndarray, total_power: float,
                theta: np.ndarray) -> np.ndarray:
    """Noise-free receive points sqrt(P/M) sum_i h_i exp(j theta_i)."""
    h = np.atleast_2d(h)
    return (np.sqrt(total_power / h.shape[1])
            * np.sum(h * np.exp(1j * np.asarray(theta)), axis=1))
