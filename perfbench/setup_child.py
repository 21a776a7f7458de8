"""Set-up phase of one benchmark workload.

``python3 perfbench/setup_child.py <workload>`` (with ``src`` on PYTHONPATH)
runs the set-up in a fresh interpreter and prints one JSON line
``{"cal_s": ..., "setup_s": ..., "load_s": ...}``: the time to import the
library, load the candidate sets the workload uses and fill the lazy caches,
within it the cold load of the g = 2 built-in family, and the host-speed
calibration measured right after.  ``run.py`` calls ``setup`` in its own process too,
so the timed loop starts warm, and uses ``calibrate`` between ops.
"""

import json
import sys
import time


def calibrate():
    """Best of five timings of a fixed kernel of small numpy calls: the host's speed.

    The host switches between contention states every few seconds, slowing
    all code by up to about 1.7x.  Small-array numpy calls slow down the way
    the library does, so times divided by this kernel's are steady.
    """
    import numpy as np
    k0 = np.array([[1.0, 0.3], [0.3, 2.0]]) + 0.5j
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        s = 0.0
        for _ in range(20):
            k = k0 @ k0 + k0
            s += abs(np.linalg.det(k)) + float(np.max(np.abs(k - k.T)))
        best = min(best, time.perf_counter() - t0)
    return best


#: (candidate-set genera, Minkowski cache genera) per workload
SETUP_GENERA = {
    "mc_volume_g2": ((2,), (2,)),
    "reduce_mixed": ((1, 2, 3), (1, 2, 3)),
    "laplacian_spectral": ((), ()),
    "cli_roundtrip": ((2,), (2, 3)),
}


def setup(workload: str) -> float:
    """Import, load candidate sets and warm caches; return the g = 2 load time."""
    import siegeljacobi  # noqa: F401
    from siegeljacobi import minkowski, siegel
    if workload == "cli_roundtrip":
        import siegeljacobi.cli  # noqa: F401
    cand_genera, cache_genera = SETUP_GENERA[workload]
    load_s = 0.0
    for g in cand_genera:
        t = time.perf_counter()
        siegel.builtin_candidates(g)
        if g == 2:
            load_s = time.perf_counter() - t
    for g in cache_genera:
        minkowski._candidate_arrays(g, minkowski.DEFAULT_BOUND)
    return load_s


if __name__ == "__main__":
    t0 = time.perf_counter()
    load = setup(sys.argv[1])
    setup_s = time.perf_counter() - t0
    cal_s = calibrate()
    print(json.dumps({"cal_s": cal_s, "setup_s": setup_s, "load_s": load}))
