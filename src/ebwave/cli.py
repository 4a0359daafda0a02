"""Command line front end.

Exit codes: 0 success, 2 configuration error (including non-finite config
values, analysis arguments outside ``dispersion.MAGNITUDES``, ``dispersion``
parameters whose model has no real frequency branch up to ``--kmax`` and an
``optimize-alpha`` optimum at the edge of its bracket), 3 unexpected
numerical blow-up (including a member of a ``converge`` study), a dry bed
(h0 + eps*zeta reached zero) or a stall (the CFL step fell below
``scenarios.STALL_FRACTION`` of its first value), 4 self-test failure. A
failed run still writes its CSV. The output directory defaults to the
EBWAVE_OUTDIR environment variable, then to the current directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .core import (BlowUpError, ConfigurationError, HyperbolicityError, ModelVariant,
                   PhysParams, StallError)
from .dispersion import DispersionInstabilityError, optimize_alpha, stability_bound
from . import scenarios

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_SELFTEST = 4

# error class -> (stderr label, exit code), matched in order
ERRORS = {
    ConfigurationError: ("configuration error", EXIT_CONFIG),
    HyperbolicityError: ("dry bed (water column h0 + eps*zeta <= 0)", EXIT_BLOWUP),
    BlowUpError: ("blow-up", EXIT_BLOWUP),
    StallError: ("stall", EXIT_BLOWUP),
    DispersionInstabilityError: ("dispersion error", EXIT_CONFIG),
    ValueError: ("error", EXIT_CONFIG),
}


def _report(exc: Exception, where: str = "") -> int:
    label, code = next(v for kind, v in ERRORS.items() if isinstance(exc, kind))
    print(f"{label}: {where}{exc}", file=sys.stderr)
    return code


def _outdir(args) -> Path:
    if args.outdir is not None:
        return Path(args.outdir)
    return Path(os.environ.get("EBWAVE_OUTDIR", "."))


def _load_config(ref: str) -> scenarios.ScenarioConfig:
    if ref in scenarios.builtin_names():
        return scenarios.builtin_scenario(ref)
    path = Path(ref)
    if not path.exists():
        raise ConfigurationError(
            f"{ref!r} is neither a built-in scenario nor a config file")
    return scenarios.read_config(path)


def _cmd_simulate(args) -> int:
    config = _load_config(args.config)
    result = scenarios.run_scenario(config, outdir=_outdir(args))
    print(f"{config.name}: {result.steps} steps, "
          f"mass drift {abs(result.mass_final - result.mass_initial):.3e}")
    if result.blew_up and config.expect_blowup:
        print(f"blow-up at t = {result.blowup_time:g} (expected by scenario)")
        return EXIT_OK
    return _report(result.failure) if result.failure else EXIT_OK


def _cmd_converge(args) -> int:
    config = _load_config(args.config)
    n_list = [int(v) for v in args.n.split(",")]
    report = scenarios.run_convergence(config, n_list, args.t_final)
    scenarios.write_convergence_csv(
        report, _outdir(args) / f"convergence_{config.name}.csv")
    for n, ez, ev in zip(report.n_cells, report.err_zeta, report.err_v):
        print(f"N={n:6d}  E_L2(zeta)={ez:.3e}  E_L2(v)={ev:.3e}")
    print(f"slopes: zeta {report.slope_zeta:.3f}, v {report.slope_v:.3f}"
          + ("" if report.monotone else "  (warning: non-monotone errors)"))
    return EXIT_OK


def _cmd_dispersion(args) -> int:
    scenarios.run_dispersion_report(args.model, args.alpha, args.kmax,
                                    samples=args.samples, outdir=_outdir(args))
    print(f"wrote dispersion curves for {args.model} "
          f"(alpha={args.alpha:g}, K={args.kmax:g})")
    return EXIT_OK


def _cmd_optimize_alpha(args) -> int:
    model = scenarios.dispersion_model(args.model)
    alpha_opt, err_min = optimize_alpha(model, args.kmax)
    print(f"model {args.model}, K = {args.kmax:g}: "
          f"alpha* = {alpha_opt:.4f}, error = {err_min:.4e}")
    return EXIT_OK


def _cmd_stability(args) -> int:
    variant = ModelVariant(args.variant)
    ks = [float(v) for v in args.k.split(",")]
    for k in ks:
        bound = stability_bound(variant, k, args.alpha)
        print(f"k = {k:6g}: stable for background deformation < {float(bound):.6g}")
    return EXIT_OK


def _cmd_stability_demo(args) -> int:
    code = EXIT_OK
    for name, result in scenarios.stability_demo(outdir=_outdir(args)).items():
        if result.blew_up and result.config.expect_blowup:
            print(f"{name}: blow-up at t = {result.blowup_time:.3f} (expected)")
        elif result.failure:
            code = _report(result.failure, f"{name}: ")
        else:
            amp = max(float(np.max(np.abs(s.zeta))) for s in result.snapshots)
            print(f"{name}: bounded, max |zeta| = {amp:.3f}")
    return code


def _cmd_self_test(args) -> int:
    from .core import Grid, State
    from .splitting import ConversionOperator, RunState, StrangSolver

    failures = []

    def check(label, ok):
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
        if not ok:
            failures.append(label)

    model = scenarios.dispersion_model("eb_unfactorized")
    alpha_opt, _ = optimize_alpha(model, 1.0)
    check("alpha optimum near 0.8351 (K=1)", abs(alpha_opt - 0.8351) < 5e-3)

    conv = ConversionOperator(128)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(128)
    check("conversion round trip", np.max(np.abs(conv.inverse(conv.forward(x)) - x)) < 1e-12)

    grid = Grid(0.0, 10.0, 64)
    solver = StrangSolver(grid, PhysParams(0.1))
    run = RunState.initial(State(0.25 * np.ones(64), np.zeros(64)), grid.dx)
    for _ in range(20):
        run = solver.strang_step(run, 0.05)
    check("steady state preserved",
          float(np.max(np.abs(run.cells.zeta - 0.25))) < 1e-13
          and float(np.max(np.abs(run.cells.v))) < 1e-13)

    bound = float(stability_bound(ModelVariant.FIFTH_ONLY_FACTORIZED, 10.0))
    check("fifth-only stability bound at k=10", abs(bound - 21545.0 / 103000.0) < 1e-12)

    return EXIT_SELFTEST if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ebwave",
        description="Extended Boussinesq wave simulations and dispersion tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario (built-in name or config file)")
    p.add_argument("config")
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("converge", help="refinement study against the analytic wave")
    p.add_argument("config")
    p.add_argument("--n", required=True, help="comma list of cell counts")
    p.add_argument("--t-final", type=float, default=1.0, dest="t_final")
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("dispersion", help="velocity curves and alpha error scan")
    p.add_argument("--model", default="eb_factorized")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--kmax", type=float, default=10.0)
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=_cmd_dispersion)

    p = sub.add_parser("optimize-alpha", help="minimize the velocity error over alpha")
    p.add_argument("--model", default="eb_unfactorized")
    p.add_argument("--kmax", type=float, default=1.0)
    p.set_defaults(func=_cmd_optimize_alpha)

    p = sub.add_parser("stability", help="print linear stability bounds")
    p.add_argument("--variant", default="unfactorized",
                   choices=[v.value for v in ModelVariant])
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--k", default="0.5,1,2,5,10", help="comma list of wavenumbers")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("stability-demo",
                       help="run the unstable heap through all three variants")
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=_cmd_stability_demo)

    p = sub.add_parser("self-test", help="quick built-in sanity checks")
    p.set_defaults(func=_cmd_self_test)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(ERRORS) as exc:
        return _report(exc)


if __name__ == "__main__":
    sys.exit(main())
