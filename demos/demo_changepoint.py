"""Segment a noisy step series and sanity-check the pruned detector.

Three things worth seeing once:

1. the pruned dynamic program and the O(n^2) oracle return the exact same
   segmentation (that equivalence is the whole reason the oracle exists);
2. the penalty controls segmentation granularity monotonically;
3. the derived default penalty lands in a sensible range without tuning.

Run:  python demos/demo_changepoint.py
"""

import time

import numpy as np

from driftcast.changepoint import (
    GAUSSIAN_NLL,
    L2_MEAN,
    default_penalty,
    op_detect,
    pelt_detect,
)

rng = np.random.default_rng(11)

# --- a three-regime series with mild noise ------------------------------
y = np.concatenate([
    rng.normal(0.0, 0.4, 300),
    rng.normal(3.0, 0.4, 200),
    rng.normal(1.2, 0.4, 300),
])

beta = default_penalty(y)
print(f"derived penalty beta = {beta:.3f}")

t0 = time.time()
fast = pelt_detect(y, L2_MEAN, beta)
t_fast = time.time() - t0
t0 = time.time()
slow = op_detect(y, L2_MEAN, beta)
t_slow = time.time() - t0

print(f"pruned:  {fast.changepoints} cost {fast.total_cost:.2f} ({t_fast * 1e3:.1f} ms)")
print(f"oracle:  {slow.changepoints} cost {slow.total_cost:.2f} ({t_slow * 1e3:.1f} ms)")
assert fast.changepoints == slow.changepoints
print("true boundaries were (300, 500)")

# --- penalty sweep: more penalty, fewer changepoints --------------------
print("\npenalty sweep:")
for beta in (0.1, 1.0, 5.0, 25.0, 250.0):
    seg = pelt_detect(y, L2_MEAN, beta)
    print(f"  beta {beta:>6.1f} -> {seg.m:2d} changepoints")

# --- variance shifts need the free-variance cost ------------------------
z = np.concatenate([rng.normal(0, 0.2, 400), rng.normal(0, 2.0, 400)])
mean_only = pelt_detect(z, L2_MEAN, default_penalty(z))
free_var = pelt_detect(z, GAUSSIAN_NLL, 25.0, min_size=30)
print(f"\nvariance-shift series: mean-cost finds {mean_only.m}, "
      f"free-variance cost finds {free_var.m} at {free_var.changepoints} (true: 400)")
