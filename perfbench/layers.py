"""Layer microbenchmarks and the engine decomposition, through the public API.

Inputs come from the benchmark seed.  Every timing is the median of
repeated calls at a chunk size of 10^5 rows, the chunk size the engines
use.  Each function returns {metric name: (value, unit)} and raises
CheckFailed when a result is wrong.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

ROWS = 100_000
ANTENNAS = (2, 4, 8)
LOOKUP_SIZES = (16, 64)
BUILD_SIZES = (16, 64, 256)
DECOMP_TRIALS = 200_000
DECOMP_SNR = tuple(float(s) for s in range(10, 25))   # ser-apsk16-m2's grid


class CheckFailed(Exception):
    pass


def median_seconds(fn, min_reps=5, min_total=0.25, max_reps=50) -> float:
    times = []
    while len(times) < min_reps or (sum(times) < min_total
                                    and len(times) < max_reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def layer_microbenchmarks(ceapsk, seed: int) -> dict[str, tuple[float, str]]:
    out = {}
    rng = np.random.default_rng([seed, 0x4C41])
    for m in ANTENNAS:
        t = median_seconds(lambda: ceapsk.sample_rayleigh(m, 1.0, seed, trials=ROWS))
        out[f"channel.sample_rayleigh.rows_per_s.m{m}"] = (ROWS / t, "1/s")
        h = ceapsk.sample_rayleigh(m, 1.0, seed, trials=ROWS)
        t = median_seconds(lambda: ceapsk.annulus_arrays(h, 1.0))
        out[f"channel.annulus_arrays.rows_per_s.m{m}"] = (ROWS / t, "1/s")
        # feasible targets: uniform modulus over [r, R], uniform phase
        inner, outer = ceapsk.annulus_arrays(h, 1.0)
        d = ((inner + rng.random(ROWS) * (outer - inner))
             * np.exp(2j * np.pi * rng.random(ROWS)))
        t = median_seconds(lambda: ceapsk.phases_for_targets(h, 1.0, d))
        out[f"precoder.phases_for_targets.targets_per_s.m{m}"] = (ROWS / t, "1/s")
        theta = ceapsk.phases_for_targets(h, 1.0, d)
        t = median_seconds(lambda: ceapsk.reconstruct(h, 1.0, theta))
        out[f"precoder.reconstruct.targets_per_s.m{m}"] = (ROWS / t, "1/s")
        worst = float(np.max(np.abs(ceapsk.reconstruct(h, 1.0, theta) - d) / outer))
        if not worst < 1e-9:
            raise CheckFailed(f"precoder misses its targets at M={m}: {worst:.3g}")
    for n in BUILD_SIZES:
        t = median_seconds(lambda: ceapsk.build_region_table(n),
                           min_reps=3, min_total=0.0)
        out[f"optimizer.build_region_table.time_s.n{n}"] = (t, "s")
    h = ceapsk.sample_rayleigh(2, 1.0, seed, trials=ROWS)
    inner, outer = ceapsk.annulus_arrays(h, 1.0)
    ratio = inner / outer
    for n in LOOKUP_SIZES:
        table = ceapsk.build_region_table(n)
        t = median_seconds(lambda: table.params_at(ratio))
        out[f"optimizer.params_at.rows_per_s.n{n}"] = (ROWS / t, "1/s")
        t = median_seconds(lambda: table.d_min_at(ratio))
        out[f"optimizer.d_min_at.rows_per_s.n{n}"] = (ROWS / t, "1/s")
    return out


def engine_decomposition(ceapsk, seed: int) -> dict[str, tuple[float, str]]:
    """Fit engine time = trials * (per_trial + points * per_point) from
    run_fixed_rate_ser at 1 and at 15 SNR points."""
    table = ceapsk.build_region_table(16)
    cfgs = [ceapsk.SimConfig(m=2, snr_db=snr, trials=DECOMP_TRIALS,
                             scheme="proposed-optimal", seed=seed)
            for snr in (DECOMP_SNR[:1], DECOMP_SNR)]
    times = [median_seconds(lambda: ceapsk.run_fixed_rate_ser(cfg, table),
                            min_reps=3, min_total=0.0) for cfg in cfgs]
    curve = ceapsk.run_fixed_rate_ser(cfgs[1], table)
    bad = (curve.errors >= 100) & (curve.union_bound < curve.ser)
    if bad.any():
        raise CheckFailed(f"union bound below SER at {curve.snr_db[bad]} dB")
    extra_points = len(DECOMP_SNR) - 1
    per_point = (times[1] - times[0]) / (extra_points * DECOMP_TRIALS)
    per_trial = times[0] / DECOMP_TRIALS - per_point
    return {"sim.per_point_ns_per_trial": (per_point * 1e9, "ns"),
            "sim.per_trial_ns": (per_trial * 1e9, "ns")}
