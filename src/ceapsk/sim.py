"""Monte Carlo engines: fixed-rate SER, CSIT sensitivity, variable rate.

Trials are processed in chunks of CHUNK_SIZE.  _reduce_chunks alone forms
each chunk's counter-based random stream, keyed by (seed, engine, chunk),
and adds the chunks' sums in chunk order, so the curves are bit-identical
for any worker count; the engines never see a chunk index.  An engine's
schemes share its streams: common random numbers make inter-scheme SNR
gaps far less noisy.  One data symbol is sent per channel realization.

SCHEMES holds every per-scheme fact, as data: its CLI command, its region
table (TABLE_SIZE points, one per size in SIZES, or none), whether the CSIT
sweep runs it, and whether a fixed-rate scheme without a table clips 16-QAM
into the annulus, switches to 16-PSK where 16-QAM does not fit, or sends it
by equal-gain transmission.  check_scheme is the one scheme check.

Channel draws, symbols and unit noise are P-independent, so each chunk
replays the same realizations across the whole SNR grid.  Both SER engines
detect w = s + e / R, as the transmitter puts the noise-free receive point
on the target R s in the annulus.  With perfect CSIT e is scaled noise, so
the fixed-rate engine never precodes; the CSIT sweep precodes for its
estimate h_hat = h - sd delta, delta a unit error drawn independently of
h, once per training point, and e adds sd delta . x.  Both share one front
end, _ser_steps: its screen counts a zero-norm channel as an error at
every point, checks the annulus, and passes on only the trials whose noise
at one point, plus an engine's extra term, may leave the sent point's
decision cell; the fixed-rate engine then counts the points at which each
kept trial may err.  The fixed-rate union bound (union_bound_curve) is
computed when SerCurve.union_bound is first read.

Each engine draws a chunk in stream order, in blocks of precoder._BLOCK rows
(channel._channel_blocks and _complex_normal_blocks), and works through it
block by block, so temporaries stay in cache.  The fixed-rate engine frees
each channel block once it is screened, keeps the block's trials that may
err, and detects a chunk's kept trials in slices of at most _BLOCK rows.
The CSIT sweep holds only the chunk's channel blocks: its noise and the real
parts of its unit error are replayed block by block from copies of the
stream's state, with the bits of the whole-chunk draws.
Variable-rate selection places each trial's R * d_min among per-size SNR
cuts with an exact table lookup (optimizer._CellSearch) built once per run.
"""

from __future__ import annotations

import csv
import math
import threading
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel import _channel_blocks, _complex_normal_blocks, annulus_arrays
from .constellation import (med, modulus_ratio, qam_family, ser_union_bound,
                            union_bound_threshold)
from .optimizer import RegionTable, _CellSearch
from .precoder import _BLOCK, _receive, transmit
from .rng import check_int, stream

Scheme = namedtuple("Scheme", "command table csit qam16")
SCHEMES = {
    "proposed-optimal": Scheme("ser", "optimal", True, None),
    "proposed-suboptimal": Scheme("ser", "suboptimal", True, None),
    "fixed-qam16": Scheme("ser", None, False, "clip"),
    "adaptive-qam-psk": Scheme("ser", None, False, "switch"),
    "egt-qam16": Scheme("ser", None, True, "egt"),
    "variable-apsk": Scheme("rate", "per-size", False, None),
    "variable-qam": Scheme("rate", None, False, None),
}
TABLE_SIZE = 16  # N of a fixed-rate scheme's region table
# engine -> the schemes it runs; "csit" is the CSIT sweep
ENGINE_SCHEMES = {e: tuple(s for s, f in SCHEMES.items()
                           if (f.csit if e == "csit" else f.command == e))
                  for e in ("ser", "csit", "rate")}
_STREAMS = {"ser": 1, "rate": 2, "csit": 3}  # engine -> its stream key

# Results depend on these only through SNR = P beta / sigma^2: powers() sets
# P from the SNR, so beta and sigma^2 scale out of every curve.
PATH_LOSS = 1e-9               # beta, -90 dB
NOISE_POWER = 10 ** (-12.4)    # sigma^2, -94 dBm in watts
SIZES = (2, 4, 8, 16, 32, 64)  # the variable-rate schemes' constellation sizes
CHUNK_SIZE = 100_000  # trials per chunk, and so per random stream
# every manifest names it: bump it whenever a draw changes its bits
DRAW_LAW = 1
# upper bounds: no input opens unbounded chunk lists, pools or chunk arrays
MAX_TRIALS, MAX_THREADS, MAX_ANTENNAS = 10**9, 256, 64
MAX_SNR_DB = 300.0  # |SNR| in dB; far beyond it the power under- or overflows


@dataclass(frozen=True)
class SimConfig:
    m: int
    snr_db: tuple[float, ...]
    trials: int
    scheme: str
    target_ser: float = 1e-3
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; "
                             f"valid: {tuple(SCHEMES)}")
        for name in ("m", "trials", "threads", "seed"):
            object.__setattr__(self, name, check_int(getattr(self, name), name))
        for name, top in (("m", MAX_ANTENNAS), ("threads", MAX_THREADS)):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
            if getattr(self, name) > top:
                raise ValueError(f"{name} must be at most {top}")
        if not 1000 <= self.trials <= MAX_TRIALS:
            raise ValueError("trials must lie in [1e3, 1e9]")
        if not (0.0 < self.target_ser < 1.0):
            raise ValueError("target_ser must lie in (0, 1)")
        snrs = tuple(float(s) for s in self.snr_db)
        if not all(map(math.isfinite, snrs)):
            raise ValueError("snr_db must be finite")
        if any(abs(s) > MAX_SNR_DB for s in snrs):
            raise ValueError(f"snr_db must lie in [-{MAX_SNR_DB:g}, "
                             f"{MAX_SNR_DB:g}]")
        if not snrs:
            raise ValueError("snr_db needs at least one point")
        if any(b <= a for a, b in zip(snrs, snrs[1:])):
            raise ValueError("snr_db must be strictly increasing")
        object.__setattr__(self, "snr_db", snrs)

    def powers(self) -> np.ndarray:
        """Total transmit power per SNR grid point (SNR = P beta / sigma^2)."""
        snr_lin = 10.0 ** (np.asarray(self.snr_db) / 10.0)
        return snr_lin * NOISE_POWER / PATH_LOSS


def check_scheme(cfg: SimConfig, engine: str) -> Scheme:
    """SCHEMES[cfg.scheme] if `engine` runs it, else a ValueError naming it
    and the schemes that engine runs; the CSIT sweep needs one data SNR."""
    valid = ENGINE_SCHEMES[engine]
    if cfg.scheme not in valid:
        raise ValueError(f"the {engine} engine does not run scheme "
                         f"{cfg.scheme!r}; valid: {', '.join(valid)}")
    if engine == "csit" and len(cfg.snr_db) != 1:
        raise ValueError("csit sweep uses a single data SNR")
    return SCHEMES[cfg.scheme]


@dataclass(frozen=True)
class SerCurve:
    snr_db: np.ndarray
    errors: np.ndarray
    trials: np.ndarray
    # (cfg, table) of a fixed-rate run of a proposed scheme, else None
    bound_args: tuple | None = field(default=None, repr=False, compare=False)

    @cached_property
    def union_bound(self) -> np.ndarray | None:
        """union_bound_curve(*bound_args), computed when first read; None
        for a curve without a region table."""
        return None if self.bound_args is None else union_bound_curve(
            *self.bound_args)

    @property
    def ser(self) -> np.ndarray:
        return self.errors / self.trials

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["snr_db", "ser", "errors", "trials"])
            for s, e, t in zip(self.snr_db, self.errors, self.trials):
                w.writerow([f"{s:.10g}", f"{e / t:.10e}", int(e), int(t)])


@dataclass(frozen=True)
class RateCurve:
    snr_db: np.ndarray
    avg_bits: np.ndarray
    no_tx_fraction: np.ndarray
    trials: int

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["snr_db", "avg_bits", "no_tx_fraction"])
            for s, b, q in zip(self.snr_db, self.avg_bits, self.no_tx_fraction):
                w.writerow([f"{s:.10g}", f"{b:.10e}", f"{q:.10e}"])


# ---------------------------------------------------------------------------
# SER front end: the screen, and exact ML detection of w = y / (sqrt(P) R)

# a receive point within this many MEDs of the sent point is detected as sent
_SAFE_RADIUS = 0.499


def _check_two_ring_table(table: RegionTable | None) -> None:
    if table is None or not all(1 <= reg.n2 < table.size
                                for reg in table.regions):
        raise ValueError("a proposed scheme requires a two-ring region table")


class _RingTables:
    """Per-region unit-circle lookup tables of a proposed scheme's table.

    Row r of `unit` holds region r's outer then inner points at unit radius,
    computed as the point set is defined.  Each ring is also kept three times
    over in `re`/`im`/`label`, where floor(phase * scale + offset) indexes
    the ring point nearest in phase; the nearer of the two is the ML point.
    """

    def __init__(self, table: RegionTable | None):
        _check_two_ring_table(table)
        n, regs = table.size, table.regions
        self.n1 = np.array([n - reg.n2 for reg in regs])
        self.unit = np.array([np.concatenate([
            np.exp(2j * np.pi * np.arange(n - reg.n2) / (n - reg.n2)),
            np.exp(1j * (2.0 * np.pi * np.arange(reg.n2) / reg.n2 + reg.omega2))])
            for reg in regs])
        flat, label, rings = [], [], []
        for unit, n1, reg in zip(self.unit, self.n1, regs):
            for first, k, om in ((0, n1, 0.0), (n1, reg.n2, reg.omega2)):
                om = math.remainder(om, 2.0 * math.pi) * k / (2.0 * math.pi)
                rings.append((k / (2.0 * math.pi), len(label) + k + 0.5 - om))
                flat += [unit[first:first + k]] * 3
                label += list(range(first, first + k)) * 3
        flat = np.concatenate(flat)
        self.re, self.im = flat.real.copy(), flat.imag.copy()
        self.label = np.array(label)
        # each (2, regions): row 0 for the outer ring, row 1 for the inner
        self.scale, self.offset = np.array(rings).reshape(-1, 2, 2).T

    def symbols(self, idx, rho2, u):
        """Symbols u of the trials' regions, at unit outer radius."""
        s = self.unit.ravel()[idx * self.unit.shape[1] + u]
        return s * np.where(u >= self.n1[idx], rho2, 1.0)

    def detector(self, idx, rho2):
        """ML detector of the trials' constellations.  It takes the receive
        points of any leading prefix of those trials."""
        (f1, f2), (o1, o2) = self.scale.take(idx, 1), self.offset.take(idx, 1)

        def decide(wr, wi):
            rows = wr.size
            phi = np.arctan2(wi, wr)
            j1 = (phi * f1[:rows] + o1[:rows]).astype(np.intp)
            j2 = (phi * f2[:rows] + o2[:rows]).astype(np.intp)
            r2 = rho2[:rows]
            d1 = (wr - self.re[j1]) ** 2 + (wi - self.im[j1]) ** 2
            d2 = (wr - r2 * self.re[j2]) ** 2 + (wi - r2 * self.im[j2]) ** 2
            # a tie goes to the outer ring, as argmin over outer-first points
            return self.label[np.where(d1 <= d2, j1, j2)]
        return decide


def _qam_limits(n: int) -> tuple[float, float]:
    """(largest feasible annulus ratio, MED) of the size-n QAM benchmark."""
    pts = qam_family(n)
    return modulus_ratio(pts), med(pts)


# the tableless schemes' 16-point sets, their MEDs and 16-QAM's ratio limit
_QAM16, _PSK16 = qam_family(16), np.exp(2j * np.pi * np.arange(16) / 16)
(_QAM16_RATIO, _QAM16_MED), _PSK16_MED = _qam_limits(16), med(_PSK16)
_QAM16_EDGES = np.array([-2.0, 0.0, 2.0]) / (3.0 * math.sqrt(2.0))


def _qam16_decide(wr, wi) -> np.ndarray:
    """qam_family(16) label (4 * real level + imaginary level) by slicing."""
    return (4 * np.searchsorted(_QAM16_EDGES, wr)
            + np.searchsorted(_QAM16_EDGES, wi))


def _psk_decide(wr, wi) -> np.ndarray:
    """Label k of the nearest point exp(2j pi k / 16) by phase rounding."""
    k = np.rint(np.arctan2(wi, wr) * (16 / (2.0 * np.pi))).astype(np.intp)
    return k % 16


def _annulus(h):
    """(R, r/R) at unit power.  A zero-norm channel (R = 0) reaches only the
    origin; its R is returned as 0 and its ratio as 0, with no 0/0."""
    r0, big_r0 = annulus_arrays(h, 1.0)
    live = big_r0 > 0
    return big_r0, np.where(live, r0 / np.where(live, big_r0, 1.0), 0.0)


def _ser_steps(facts: Scheme, table: RegionTable | None):
    """(size, screen, detector) of an SER engine for a scheme's `facts`.

    screen(g, u, mz, extra=0.0) takes one block: g the channels the
    transmitter designs for, u the labels, mz the noise moduli at one point.
    It returns the indices of the trials that may err there, the count of
    zero-norm trials (R = 0: nothing to design in, so an error at every
    point), and for the kept trials u, s, lim, R and the state of their
    detector(*state), which takes the receive points of any leading prefix
    of them (the fixed-rate engine passes the state of one slice of at most
    _BLOCK kept trials, so no call sees more rows).  It raises RuntimeError
    if a kept target R s leaves the annulus of g (egt-qam16, which precodes
    linearly, is exempt).

    Let R be g's outer radius at unit power, s the target over R (the symbol
    at unit outer radius, clipped into the annulus for fixed-qam16), center
    the label's own point (for fixed-qam16 the unclipped 16-QAM point) and
    d_cell the MED of the trial's constellation.  Both engines detect w = s
    + e / R with |e| <= mz + extra: the fixed-rate engine's e is the noise
    term c b, the CSIT sweep's sd delta . x + c z.  A trial is skipped
    unless mz + extra >= lim R, where

        lim = _SAFE_RADIUS d_cell - |s - center| - 1e-9.

    The error budget of a skip: a skipped pair has |w - center| < 0.499
    d_cell - 1e-9, and the exact ML cell of center holds the open disc of
    radius d_true / 2 about it, d_true the true MED of the point set.  On
    the N = 8 to 64 tables d_min_at overstates d_true by at most 1e-12
    (relative), and transmit misses R s by at most 1e-9 R (the 1e-9 term;
    criterion 8).  The 0.001 d_cell left is at least 3.9e-4 on the 16-point
    sets (16-PSK's MED, 0.390, is their least) and 9.8e-5 at N = 64, over
    10^8 times the rounding of w = s + c b or of the detectors' distance
    compares, so the exact ML detectors return the sent label.
    """
    rings = _RingTables(table) if facts.table else None

    def screen(g, u, mz, extra=0.0):
        big_r0, ratio = _annulus(g)
        if rings is not None:
            lim = _SAFE_RADIUS * table.d_min_at(ratio) - 1e-9
        elif facts.qam16 == "switch":
            feas = ratio <= _QAM16_RATIO
            lim = _SAFE_RADIUS * np.where(feas, _QAM16_MED, _PSK16_MED) - 1e-9
        else:
            s = _QAM16[u]
            lim = np.full(s.shape, _SAFE_RADIUS * _QAM16_MED - 1e-9)
            if facts.qam16 == "clip":
                mod = np.abs(s)
                clipped = s / mod * np.clip(mod, ratio, 1.0)
                lim -= np.abs(clipped - s)
                s = clipped
        live = big_r0 > 0
        kept = np.flatnonzero(~(mz < lim * big_r0 - extra) & live)
        zero = big_r0.size - np.count_nonzero(live)
        u, lim, big_r0, ratio = (x.take(kept) for x in (u, lim, big_r0, ratio))
        if rings is not None:
            idx, _, _, rho2 = table.params_at(ratio)
            s, state = rings.symbols(idx, rho2, u), (idx, rho2)
        elif facts.qam16 == "switch":
            feas = feas.take(kept)
            s, state = np.where(feas, _QAM16[u], _PSK16[u]), (feas,)
        else:
            s, state = s.take(kept), ()
        # both engines' w - s = e / R rests on R s lying in the annulus
        mod = np.abs(s)
        if facts.qam16 != "egt" and not np.all(
                (mod <= 1 + 1e-9) & (mod >= ratio * (1 - 1e-9) - 1e-12)):
            raise RuntimeError("target left the annulus")
        return (kept, zero, u, s, lim, big_r0, *state)

    def detector(*state):
        if rings is not None:
            return rings.detector(*state)
        return _qam16_decide if not state else lambda wr, wi: np.where(
            state[0][:wr.size], _qam16_decide(wr, wi), _psk_decide(wr, wi))

    return 16 if rings is None else table.size, screen, detector


# ---------------------------------------------------------------------------
# Fixed-rate SER


def run_fixed_rate_ser(cfg: SimConfig, table: RegionTable | None) -> SerCurve:
    """Average SER over the SNR grid for one fixed-rate scheme.

    At SNR point k the detector sees w = a + c_k b: b is the noise over
    sqrt(p) R, c_k falls as the SNR rises, and a, the noise-free receive
    point over R, is s, the target over R, as perfect CSIT reaches any
    target in the annulus exactly (criterion 8 checks transmit to 1e-9 R).
    So no trial is precoded.  _ser_steps' screen (mz = c_0 |b| R, no extra)
    keeps only the trials that may err at the first point; a kept trial may
    err at point k only if c_k |b| R >= lim R, and c_k |b| falls with k, so
    each may err at a leading run of points, and only those pairs reach the
    detector.  Each chunk is screened in blocks of _BLOCK trials, its noise
    drawn block by block and each channel block freed once screened; its
    kept trials, sorted by the number of points they may err at, are
    detected in slices of at most _BLOCK rows, each slice at the points
    its leading rows may err at.  The averaged union bound of the proposed
    schemes is the returned curve's union_bound, computed when it is first
    read.
    """
    facts = check_scheme(cfg, "ser")
    sigma = math.sqrt(NOISE_POWER)
    cs = [sigma / math.sqrt(p) for p in cfg.powers()]
    size, screen, detector = _ser_steps(facts, table)

    def one_chunk(rng, t: int):
        # the channel blocks, last first: each is popped as it is screened,
        # so the list shrinks as the kept trials grow; the labels, an int64
        # draw, are kept in one byte
        h = [hb for _, hb in _channel_blocks(rng, cfg.m, t, PATH_LOSS)][::-1]
        u = rng.integers(0, size, size=t).astype(np.min_scalar_type(size - 1))
        errors = np.zeros(len(cs), dtype=np.int64)
        parts = []
        for lo, zb in _complex_normal_blocks(rng, (t,)):
            zb /= np.sqrt(2.0)
            mz = np.abs(zb)
            kept, zero, ub, s, lim, big_r0, *state = screen(
                h.pop(), u[lo:lo + _BLOCK], cs[0] * mz)
            errors += zero
            # kept[i] may err at the first unsafe[i] points
            mz, reach = mz.take(kept), lim * big_r0
            unsafe = np.ones(kept.size, dtype=np.min_scalar_type(len(cs)))
            for c in cs[1:]:
                unsafe += ~(c * mz < reach)
            # w = y / (sqrt(p) R) = s + (sigma / sqrt(p)) b at every point
            b = zb.take(kept)
            parts.append((s, np.divide(b, big_r0, out=b), ub, unsafe, *state))
        del u, zb  # free the draws before the parts are joined
        a, b, sent, unsafe, *state = map(np.concatenate, zip(*parts))
        del parts  # and the parts before detection
        # most unsafe first; a small key dtype lets numpy radix-sort
        order = np.argsort(len(cs) - unsafe, kind="stable")
        # prefix[k]: the trials unsafe at point k are the first prefix[k]
        hist = np.bincount(unsafe, minlength=len(cs) + 1)
        prefix = np.cumsum(hist[::-1])[-2::-1]
        # detect _BLOCK sorted trials at a time, each slice with its own
        # detector, at every point that its leading rows are unsafe at
        for lo in range(0, prefix[0], _BLOCK):
            rows = order[lo:lo + _BLOCK]
            decide = detector(*(x.take(rows) for x in state))
            sa, sb, su = (x.take(rows) for x in (a, b, sent))
            ar, ai, br, bi = sa.real, sa.imag, sb.real, sb.imag
            for k, (c, n) in enumerate(zip(cs, prefix - lo)):
                if n <= 0:
                    break
                errors[k] += np.count_nonzero(
                    decide(ar[:n] + c * br[:n], ai[:n] + c * bi[:n]) != su[:n])
        return (errors,)

    errors, = _reduce_chunks(cfg, "ser", one_chunk)
    return SerCurve(snr_db=np.asarray(cfg.snr_db, dtype=float), errors=errors,
                    trials=np.full(len(cs), cfg.trials, dtype=np.int64),
                    bound_args=None if facts.table is None else (cfg, table))


def union_bound_curve(cfg: SimConfig, table: RegionTable | None) -> np.ndarray:
    """Averaged union bound min(1, (N-1) Q(R d_min / (sigma sqrt 2))) per SNR
    point of run_fixed_rate_ser(cfg, table), for a proposed scheme.

    It redraws only the channels, the fixed-rate engine's first draw, by
    _channel_sums on that engine's streams ("ser"), and takes the bound on
    one (SNR point, trial) array per block, in place in one buffer set per
    worker thread, so no block leaves block-sized temporaries to free.
    """
    if check_scheme(cfg, "ser").table is None:
        raise ValueError(f"no union bound for scheme {cfg.scheme!r}")
    _check_two_ring_table(table)
    sps, local = np.sqrt(cfg.powers()), threading.local()

    def per_block(big_r0, ratio):
        if not hasattr(local, "bufs"):  # (arg, out, work), each flat
            local.bufs = [np.empty(sps.size * _BLOCK) for _ in range(3)]
        arg, out, work = (b[:sps.size * big_r0.size] for b in local.bufs)
        arg = np.multiply.outer(sps, big_r0, out=arg.reshape(sps.size, -1))
        return (ser_union_bound(table.size, table.d_min_at(ratio), arg,
                                NOISE_POWER, (arg, out, work)).sum(axis=1),)
    bound, = _channel_sums(cfg, "ser", per_block)
    return bound / cfg.trials


def _reduce_chunks(cfg: SimConfig, engine: str, one_chunk):
    """Element-wise sums, added in chunk order, of the tuples of arrays that
    one_chunk(rng, trials) returns for the chunks of cfg.trials.  Here alone
    a chunk's stream is formed, keyed by (cfg.seed, _STREAMS[engine], chunk)
    in the worker that runs the chunk, at most one worker per chunk."""
    def run(c: int):
        return one_chunk(stream(cfg.seed, _STREAMS[engine], c),
                         min(CHUNK_SIZE, cfg.trials - c * CHUNK_SIZE))
    chunks = range((cfg.trials + CHUNK_SIZE - 1) // CHUNK_SIZE)
    workers = min(cfg.threads, len(chunks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(run, chunks))
    else:
        results = list(map(run, chunks))
    return [sum(parts, np.zeros_like(parts[0])) for parts in zip(*results)]


def _channel_sums(cfg: SimConfig, engine: str, per_block):
    """_reduce_chunks' sums, in block order, of per_block(R, r/R) (_annulus)
    over the blocks of _channel_blocks, each chunk stream's first draw."""
    def one_chunk(rng, t: int):
        blocks = [per_block(*_annulus(h))
                  for _, h in _channel_blocks(rng, cfg.m, t, PATH_LOSS)]
        return tuple(sum(parts) for parts in zip(*blocks))
    return _reduce_chunks(cfg, engine, one_chunk)


# ---------------------------------------------------------------------------
# Imperfect-CSIT sweep


def check_training(training_snr_db) -> tuple[float, ...]:
    """The CSIT sweep's training SNRs, as floats, if all lie in range."""
    training = tuple(float(s) for s in training_snr_db)
    if not all(abs(s) <= MAX_SNR_DB for s in training):  # NaN fails too
        raise ValueError("training SNRs must be finite and lie in "
                         f"[-{MAX_SNR_DB:g}, {MAX_SNR_DB:g}]")
    return training


def run_csit_sweep(cfg: SimConfig, table: RegionTable | None,
                   training_snr_db: tuple[float, ...]) -> SerCurve:
    """Average SER versus training SNR at a fixed data SNR (cfg.snr_db[0]),
    with perfect CSIT (training SNR inf) as the last point.

    The transmitter designs everything (annulus, constellation choice,
    phases, scale) from its channel estimate h_hat; the true channel h
    produces the received sample; the receiver detects against the
    transmitter-intended scaled constellation.  The estimate is drawn as
    h_hat = h - sd delta, with delta a unit CN(0, 1) error per antenna
    drawn independently of h, so the error is independent of the true
    channel, not of the estimate, and h_hat has variance beta + sd^2 per
    antenna (an MMSE estimate would have beta - sd^2, its error
    independent of it).  A shared delta couples the sweep points, so the
    SER trend in training SNR is monotone up to binomial noise.

    With R the outer radius of h_hat at unit power and s the target over
    R, x is unit-power with h_hat . x = R s: transmit(h_hat, 1, R s), or
    exp(-j angle(h_hat)) s / sqrt(M) for egt-qam16.  So the receive point
    over sqrt(p) R is w = s + e / R, with e = sd delta . x + c z and c =
    sigma / sqrt(p).  Every |x_i| <= 1 / sqrt(M), so _ser_steps' screen
    takes mz = c |z| and extra = sd |delta|_1 / sqrt(M) >= sd |delta . x|,
    with no transmit signal formed.  Only the pairs it keeps are precoded,
    and they are detected only if |w - s| >= lim.
    """
    facts = check_scheme(cfg, "csit")
    size, screen, detector = _ser_steps(facts, table)
    training = check_training(training_snr_db)
    c = math.sqrt(NOISE_POWER) / math.sqrt(cfg.powers()[0])  # sigma / sqrt(p)
    axis = list(training) + [math.inf]
    # the error's variance per antenna, beta / (1 + training SNR), is the
    # MMSE error variance, but the estimate is h - sd delta with delta
    # independent of h (variance beta + sd^2), not the MMSE estimate
    err_sd = [math.sqrt(PATH_LOSS / (1.0 + 10.0 ** (s / 10.0))) for s in axis]

    def one_point(h, dh_unit, u, noise, spread, sd):
        """Errors at one training point over one block of trials; noise is
        c z, and spread is (|dh_unit|_1 / sqrt(M), |c z|) per trial."""
        h_hat = h - sd * dh_unit
        rows, errors, u, s, lim, big_r0, *state = screen(
            h_hat, u, spread[1], sd * spread[0])
        # the full-block array is dropped as its kept rows are taken with
        # take, ~10x faster than fancy indexing on (8192, M) rows
        h_hat = h_hat.take(rows, 0)
        if facts.qam16 == "egt":
            x = np.exp(-1j * np.angle(h_hat)) * (s / math.sqrt(cfg.m))[:, None]
        else:
            x = transmit(h_hat, 1.0, big_r0 * s)
        # w - s; delta's rows are gathered once transmit's temporaries are gone
        dw = (sd * _receive(dh_unit.take(rows, 0), x)
              + noise.take(rows)) / big_r0
        far = np.flatnonzero(np.abs(dw) >= lim)
        w = s.take(far) + dw.take(far)
        decide = detector(*(v.take(far) for v in state))
        return errors + np.count_nonzero(decide(w.real, w.imag) != u.take(far))

    def one_chunk(rng, t: int):
        # only the channel blocks are held across the chunk (replaying them
        # too ran slower in fresh processes, to glibc heap trims): the noise
        # is replayed block by block from copies of the stream, and so are
        # the unit error's real parts, its imaginary parts (the last draw)
        # coming straight from rng; the labels, an int64 draw, are kept narrow
        h = [hb for _, hb in _channel_blocks(rng, cfg.m, t, PATH_LOSS)]
        u = rng.integers(0, size, size=t).astype(np.min_scalar_type(size - 1))
        noise = _complex_normal_blocks(rng, (t,), replayed=2)
        dh = _complex_normal_blocks(rng, (t, cfg.m), replayed=1)
        errors = np.zeros(len(err_sd), dtype=np.int64)
        # each block of trials stays in cache across all training points
        for hb, (lo, nb), (_, db) in zip(h, noise, dh):
            nb /= np.sqrt(2.0)
            nb *= c
            db /= np.sqrt(2.0)
            ub = u[lo:lo + _BLOCK]
            spread = np.abs(db).sum(axis=1) / math.sqrt(cfg.m), np.abs(nb)
            for k, sd in enumerate(err_sd):
                errors[k] += one_point(hb, db, ub, nb, spread, sd)
        return (errors,)

    errors, = _reduce_chunks(cfg, "csit", one_chunk)
    return SerCurve(snr_db=np.asarray(axis, dtype=float), errors=errors,
                    trials=np.full(len(err_sd), cfg.trials, dtype=np.int64))


# ---------------------------------------------------------------------------
# Variable rate


def _least_feasible(sqrt_p: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """(K, J) array of the least float x > 0 with sqrt_p[k] * x >= thresholds[j]
    as evaluated in floating point; inf where no such x exists, and for an
    infinite threshold, which no R d_min meets.

    Floating-point multiplication is monotone in each factor, so the test
    `x > 0 and sqrt_p[k] * x >= thresholds[j]` is exactly `x >= least[k, j]`,
    and least[k, j] is non-increasing in k for a non-decreasing sqrt_p.
    """
    sp, thr = sqrt_p[:, None], thresholds[None, :]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = np.fmax(thr / sp, np.nextafter(0.0, 1.0))
        # the rounded quotient lies within an ulp or two of the answer
        while (up := sp * x < thr).any():
            x = np.where(up, np.nextafter(x, np.inf), x)
        while True:
            below = np.nextafter(x, 0.0)
            down = (below > 0) & (sp * below >= thr) & (thr < np.inf)
            if not down.any():
                return x
            x = np.where(down, below, x)


def _rate_counts(xs, searches, step: np.ndarray):
    """(no-tx count, bit sum) at each SNR point over one block of trials.

    xs yields, for each size j in ascending order, the trials' R * d_min
    (0 when infeasible).  searches[j] is _CellSearch(least[::-1, j]), with
    least from _least_feasible: it counts the SNR points k with
    least[k, j] <= x, at which size j is feasible.  step[j] is the bits
    size j adds over the next smaller one.
    """
    k_pts = searches[0].size
    # feasible[j, i]: the number of SNR points at which size j is feasible
    # for trial i; they are the last ones, as least[k, j] falls with k
    feasible = np.array([search(x) for search, x in zip(searches, xs)])
    # now the number at which the largest feasible size is j or larger
    for j in range(len(feasible) - 2, -1, -1):
        np.maximum(feasible[j], feasible[j + 1], out=feasible[j])
    # at_least[j, k]: the trials sending size j or larger at point k, i.e.
    # those feasible at k_pts - k points or more
    at_least = np.cumsum([np.bincount(f, minlength=k_pts + 1)[:0:-1]
                          for f in feasible], axis=1)
    return feasible.shape[1] - at_least[0], step @ at_least


def run_variable_rate(cfg: SimConfig,
                      tables: dict[int, RegionTable] | None) -> RateCurve:
    """Average spectral efficiency of the variable-rate scheme.

    Each trial sends the largest size whose R * d_min is positive and meets
    its union-bound threshold at that SNR point, or nothing.  Feasibility is
    monotone in SNR, so one pass finds, for every trial and size, the
    number of SNR points at which that size or a larger one is feasible; a
    histogram of those counts gives every point's bit and no-tx counts.
    The channel is the only draw (_channel_sums on engine "rate"); each
    block runs the MED lookups and the counts, and its temporaries stay in
    cache.  The bit steps of SIZES are integers, so the block sums are
    exact.
    """
    per_size = check_scheme(cfg, "rate").table
    if per_size and (tables is None or any(n not in tables for n in SIZES)):
        raise ValueError(f"{cfg.scheme} needs a region table per size")
    powers = cfg.powers()
    sizes = np.asarray(SIZES)
    # bits gained by each size over the next smaller one
    step = np.diff(np.log2(sizes), prepend=0.0)
    thresholds = np.array([union_bound_threshold(n, cfg.target_ser,
                                                 NOISE_POWER) for n in sizes])
    least = _least_feasible(np.sqrt(powers), thresholds)
    searches = [_CellSearch(cuts) for cuts in least[::-1].T]
    if not per_size:
        feas_ratio, qam_dmin = np.array([_qam_limits(int(n)) for n in sizes]).T

    def per_block(big_r0, ratio):
        # per-trial R*d_min for each size in turn (0 = infeasible)
        if per_size:
            xs = (big_r0 * tables[int(n)].d_min_at(ratio) for n in sizes)
        else:
            xs = (np.where(ratio <= fr, big_r0 * d, 0.0)
                  for fr, d in zip(feas_ratio, qam_dmin))
        return _rate_counts(xs, searches, step)

    no_tx, bit_sum = _channel_sums(cfg, "rate", per_block)
    return RateCurve(snr_db=np.asarray(cfg.snr_db, dtype=float),
                     avg_bits=bit_sum / cfg.trials,
                     no_tx_fraction=no_tx / cfg.trials,
                     trials=cfg.trials)


# ---------------------------------------------------------------------------
# Curve post-processing


def _crossing(snr_db, values, target: float, what: str) -> float:
    """SNR (dB) where `values` first reaches the target, linearly interpolated."""
    for i in range(len(values) - 1):
        a, b = values[i], values[i + 1]
        if (a - target) * (b - target) <= 0 and a != b:
            frac = (target - a) / (b - a)
            return float(snr_db[i] + frac * (snr_db[i + 1] - snr_db[i]))
    raise ValueError(f"curve never {what}")


def snr_at_ser(curve: SerCurve, target: float) -> float:
    """SNR (dB) where the curve crosses the target SER, by log-linear
    interpolation between grid points."""
    return _crossing(curve.snr_db, np.log10(np.maximum(curve.ser, 1e-300)),
                     math.log10(target), f"crosses SER {target:g}")


def snr_at_bits(curve: RateCurve, target: float) -> float:
    """SNR (dB) where average spectral efficiency reaches the target."""
    return _crossing(curve.snr_db, curve.avg_bits, target,
                     f"reaches {target:g} bits")
