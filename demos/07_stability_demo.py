"""Why every high order derivative must be factorized.

The same 0.6-amplitude narrow heap is run through the three treatments of
the dispersive terms. Linear theory puts the fifth-only factorization's
stability ceiling near a background deformation of 0.2, so at 0.6 it
develops a violent short-wave instability, while both the fully
factorized and the fully explicit variants integrate through t = 3
without drama.
"""

import numpy as np

from ebwave.scenarios import stability_demo

results = stability_demo()
for name, result in results.items():
    if result.blew_up:
        print(f"{name:25s} BLEW UP at t = {result.blowup_time:.3f} "
              f"(threshold {result.config.blowup_threshold:g}, "
              f"{'expected' if result.config.expect_blowup else 'unexpected'})")
    elif result.failure:
        print(f"{name:25s} FAILED: {result.failure}")
    else:
        amp = max(float(np.max(np.abs(s.zeta))) for s in result.snapshots)
        print(f"{name:25s} stable through t = 3, max |zeta| = {amp:.3f}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
    fig, ax = plt.subplots(figsize=(8, 3.5))
    for name, result in results.items():
        snap = result.snapshots[-1]
        ax.plot(snap.x, snap.zeta, lw=0.9,
                label=f"{name} (t = {snap.t:.1f})")
    ax.set_xlabel("x")
    ax.set_ylabel("surface deformation")
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("stability_demo.png", dpi=150)
    print("wrote stability_demo.png")
except ImportError:
    pass
