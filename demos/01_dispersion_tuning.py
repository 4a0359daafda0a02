"""Tuning the dispersion correction parameter.

The correction parameter alpha does not change the formal accuracy of the
model, only how well its linear phase and group velocities track the
water-wave reference w^2 = g h0 |k| tanh|k|. This script reproduces the
two headline numbers: the unfactorized model is best around alpha = 0.835
for long waves (k <= 1), and the factorized model holds up to k = 10 with
alpha = 1.0555.
"""

import numpy as np

from ebwave import PhysParams
from ebwave.dispersion import (DispersionKind, DispersionModel, optimize_alpha,
                               stability_bound, stokes_reference, velocities,
                               weighted_error)
from ebwave.core import ModelVariant

params = PhysParams(1.0, alpha=1.0, gravity=1.0, depth=1.0)
unfactorized = DispersionModel(DispersionKind.EB_UNFACTORIZED, params)
factorized = DispersionModel(DispersionKind.EB_FACTORIZED, params)

# ---------------------------------------------------------------- optima
for label, model, k_max in [("unfactorized", unfactorized, 1.0),
                            ("unfactorized", unfactorized, 2.0),
                            ("factorized", factorized, 10.0)]:
    alpha_opt, err = optimize_alpha(model, k_max)
    print(f"{label:13s} K = {k_max:4.1f}: alpha* = {alpha_opt:.4f} "
          f"(error integral {err:.3e})")

# ------------------------------------------------- velocity ratio curves
k = np.linspace(0.05, 10.0, 400)
tuned = factorized.with_alpha(1.0555)
cp, cg = velocities(tuned, k)
cp_s, cg_s = velocities(stokes_reference(tuned), k)
print(f"\nfactorized, alpha = 1.0555, k in (0, 10]:")
print(f"  max |Cp/Cp_ref - 1| = {np.max(np.abs(cp / cp_s - 1)):.3f}")
print(f"  max |Cg/Cg_ref - 1| = {np.max(np.abs(cg / cg_s - 1)):.3f}")

# the same sweep with alpha = 1 drifts much further from the reference
plain = factorized.with_alpha(1.0)
cp1, _ = velocities(plain, k)
print(f"  max |Cp/Cp_ref - 1| at alpha = 1: {np.max(np.abs(cp1 / cp_s - 1)):.3f}")

# ------------------------------------------------------ stability bounds
print("\nlargest stable background deformation per wavenumber:")
print(f"{'k':>6} {'unfactorized':>14} {'fifth-only':>12} {'factorized':>12}")
for kk in (0.5, 1.0, 2.0, 5.0, 10.0):
    row = [float(stability_bound(ModelVariant.UNFACTORIZED, kk)),
           float(stability_bound(ModelVariant.FIFTH_ONLY_FACTORIZED, kk)),
           float(stability_bound(ModelVariant.FACTORIZED_ALL, kk, 1.0555))]
    print(f"{kk:6.1f} {row[0]:14.3f} {row[1]:12.3f} {row[2]:12.3f}")
print("\nthe fifth-only bound saturates near 0.2, which is the Achilles")
print("heel demonstrated in demos/07_stability_demo.py")

# --------------------------------------------------------- error-vs-alpha
try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    alphas = np.linspace(0.6, 1.4, 81)
    errs = []
    for a in alphas:
        try:
            errs.append(weighted_error(unfactorized, a, 1.0))
        except ArithmeticError:
            errs.append(np.nan)
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.semilogy(alphas, errs)
    ax.set_xlabel("alpha")
    ax.set_ylabel("integrated velocity error, K = 1")
    ax.axvline(0.8351, color="k", ls="--", lw=0.8)
    fig.tight_layout()
    fig.savefig("dispersion_error_vs_alpha.png", dpi=150)
    print("\nwrote dispersion_error_vs_alpha.png")
