"""Propagation of a solitary wave with second-order correctors.

A sech^2 wave of relative amplitude 0.2 travels across a periodic channel
of length 100 for seventy time units. The crest should arrive at
x0 + c*t (modulo the domain) with its amplitude intact; the corrected
analytic solution provides the initial data.
"""

from ebwave.scenarios import builtin_scenario, run_scenario, track_crest
from ebwave.analytic import SolitaryWaveSpec

config = builtin_scenario("solitary")
spec = SolitaryWaveSpec(amplitude=0.2, epsilon=config.epsilon, x0=20.0)
print(f"wave speed c = {spec.speed:.4f}, width parameter = {spec.kappa:.4f}")

result = run_scenario(config)
print(f"{result.steps} steps, relative mass drift "
      f"{abs(result.mass_final - result.mass_initial) / abs(result.mass_initial):.2e}\n")

length = config.x_max - config.x_min
print(f"{'t':>5} {'crest x':>9} {'expected':>9} {'height':>8}")
for snap in result.snapshots:
    x_crest, height = track_crest(snap.x, snap.zeta)
    expected = config.x_min + (20.0 - config.x_min + spec.speed * snap.t) % length
    print(f"{snap.t:5.0f} {x_crest:9.2f} {expected:9.2f} {height:8.4f}")

final = result.snapshots[-1]
_, h_final = track_crest(final.x, final.zeta)
_, h_init = track_crest(result.snapshots[0].x, result.snapshots[0].zeta)
print(f"\namplitude drift over t = 70: {abs(h_final - h_init) / h_init:.2%}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
    fig, ax = plt.subplots(figsize=(8, 3.2))
    for snap in result.snapshots:
        ax.plot(snap.x, snap.zeta, lw=1.0, label=f"t = {snap.t:.0f}")
    ax.set_xlabel("x")
    ax.set_ylabel("surface deformation")
    ax.legend(ncol=5, fontsize=8)
    fig.tight_layout()
    fig.savefig("solitary_propagation.png", dpi=150)
    print("wrote solitary_propagation.png")
except ImportError:
    pass
