import io
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ebwave import hyperbolic, scenarios
from ebwave.cli import EXIT_BLOWUP, EXIT_CONFIG, EXIT_OK, EXIT_SELFTEST, main
from ebwave.core import ModelVariant
from ebwave.scenarios import ScenarioConfig, builtin_scenario
from ebwave.splitting import StrangSolver
from drivers import write_config


def mini_config(tmp_path, **overrides):
    base = dict(
        name="mini",
        x_min=-2.0, x_max=2.0, n_cells=64,
        epsilon=0.5, alpha=1.0, gravity=1.0, depth=1.0,
        variant="factorized_all", initial="heap_low_freq",
        t_end=0.2, output_times=(0.0, 0.2))
    base.update(overrides)
    config = ScenarioConfig(**base)
    path = tmp_path / f"{config.name}.cfg"
    write_config(config, path)
    return path


def edited_config(tmp_path, name, **edits):
    """The built-in ``name`` written to a file with each line of ``edits``
    set to its value (dropped when None); returns the path and the line
    number of each edited key."""
    path = tmp_path / f"{name}.cfg"
    write_config(builtin_scenario(name), path)
    lines = path.read_text().splitlines()
    linenos = {key: next(i for i, line in enumerate(lines, 1) if line.startswith(f"{key} "))
               for key in edits}
    for key, value in edits.items():
        lines[linenos[key] - 1] = None if value is None else f"{key} = {value}"
    path.write_text("".join(f"{line}\n" for line in lines if line is not None))
    return path, linenos


def test_simulate_config_file(tmp_path, capsys):
    path = mini_config(tmp_path)
    code = main(["simulate", str(path), "--outdir", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "mini.csv").exists()
    assert "mass drift" in capsys.readouterr().out


def test_simulate_missing_config(tmp_path):
    assert main(["simulate", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG


def test_simulate_bad_config_file(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("name = broken\nunits = imperial\n")
    assert main(["simulate", str(bad)]) == EXIT_CONFIG


@pytest.mark.parametrize("key,value", [
    ("n_cells", "64.5"), ("cfl", "abc"), ("units", "si"), ("corr_center", "abc"),
    ("fixed_dt", "0.01"), ("n_disp", "2"), ("dam_amplitude", "0.2"), ("cfl", "0.3")])
def test_simulate_bad_entry_names_key_and_line(tmp_path, capsys, key, value):
    path = mini_config(tmp_path)
    lines = [line for line in path.read_text().splitlines()
             if not line.startswith(f"{key} ")]
    lines.append(f"{key} = {value}")
    path.write_text("\n".join(lines) + "\n")
    assert main(["simulate", str(path), "--outdir", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"configuration error: line {len(lines)}: ")
    assert key in err[0]
    assert not (tmp_path / "mini.csv").exists()


def test_simulate_unexpected_blowup_exit_code(tmp_path, capsys):
    config = replace(builtin_scenario("stability_fifth_only_factorized"),
                     name="surprise", n_cells=256, expect_blowup=False)
    path = tmp_path / "surprise.cfg"
    write_config(config, path)
    assert main(["simulate", str(path), "--outdir", str(tmp_path)]) == EXIT_BLOWUP
    captured = capsys.readouterr()
    assert "blow-up" not in captured.out
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("blow-up: amplitude")
    assert (tmp_path / "surprise.csv").exists()


def test_simulate_expected_blowup_is_success(tmp_path):
    config = replace(builtin_scenario("stability_fifth_only_factorized"),
                     name="expected", n_cells=256)
    path = tmp_path / "expected.cfg"
    write_config(config, path)
    assert main(["simulate", str(path), "--outdir", str(tmp_path)]) == EXIT_OK


def test_simulate_dry_bed_exit_code(tmp_path, capsys):
    # dry at t = 0: the initial state is rejected as a configuration error
    config = replace(builtin_scenario("dam_break"), name="dry", ic_scale=-0.6)
    path = tmp_path / "dry.cfg"
    write_config(config, path)
    assert main(["simulate", str(path), "--outdir", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: dry bed at t = 0")
    assert not (tmp_path / "dry.csv").exists()


# mini_config overrides of a heap that is wet at t = 0 (h >= 1) and dries in
# the flux after 765 steps, at t = 1.883
DRY_BED = dict(name="dry", x_min=-3.0, x_max=3.0, epsilon=1.0, ic_scale=20.0,
               blowup_threshold=1e6, t_end=3.0, output_times=(0.0, 3.0))


def test_simulate_dry_bed_during_the_run_exit_code(tmp_path, capsys):
    path = mini_config(tmp_path, **DRY_BED)
    assert main(["simulate", str(path), "--outdir", str(tmp_path)]) == EXIT_BLOWUP
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["dry bed (water column h0 + eps*zeta <= 0): "
                   "nonpositive water column in flux evaluation"]
    # the t = 0 snapshot, taken before the bed dried
    assert len((tmp_path / "dry.csv").read_text().splitlines()) == 1 + 64


def test_simulate_stall_exit_code(tmp_path, capsys):
    # with the blow-up guard raised, the fifth-only heap's CFL step first
    # falls below 1/100 of the first one at t = 0.506, step 486
    config = replace(builtin_scenario("stability_fifth_only_factorized"),
                     name="stall", blowup_threshold=1e6)
    path = tmp_path / "stall.cfg"
    write_config(config, path)
    assert main(["simulate", str(path), "--outdir", str(tmp_path)]) == EXIT_BLOWUP
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("stall: CFL step")
    assert "t = 0.505763" in err[0] and "after 485 steps" in err[0]
    # the t = 0 snapshot, taken before the stall
    assert len((tmp_path / "stall.csv").read_text().splitlines()) == 1 + 512


def test_stability_demo_reports_a_dried_member_and_runs_the_others(tmp_path, capsys,
                                                                    monkeypatch):
    dry = scenarios.read_config(mini_config(tmp_path, **DRY_BED))
    wet = scenarios.read_config(mini_config(tmp_path))
    monkeypatch.setattr(scenarios, "_stability", lambda variant: replace(
        dry if variant is ModelVariant.FACTORIZED_ALL else wet,
        name=variant.value, variant=variant.value))
    assert main(["stability-demo", "--outdir", str(tmp_path)]) == EXIT_BLOWUP
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [
        "dry bed (water column h0 + eps*zeta <= 0): factorized_all: "
        "nonpositive water column in flux evaluation"]
    out = captured.out.strip().splitlines()
    assert [line.split(":")[0] for line in out] == ["unfactorized", "fifth_only_factorized"]
    assert all("bounded" in line for line in out)
    assert all((tmp_path / f"{v.value}.csv").exists() for v in ModelVariant)


@pytest.mark.parametrize("key,value,message", [
    ("blowup_threshold", "-1", "blowup_threshold must be positive, got -1.0"),
    ("output_times", "0.2,0.1", "output_times must be sorted"),
    ("output_times", "0,5", "output_times must lie in [0, t_end]"),
    ("output_times", "0,0.01,0.01,0.02",
     "output_times must not repeat a time, got (0.0, 0.01, 0.01, 0.02)"),
    ("initial", "vortex", "initial must be one of ['solitary', 'heap_high_freq', "
                          "'heap_low_freq', 'dam_break'], got 'vortex'")])
def test_simulate_out_of_range_value_exit_code(tmp_path, capsys, key, value, message):
    path = mini_config(tmp_path)
    lines = path.read_text().splitlines()
    lineno = next(i for i, line in enumerate(lines, 1) if line.startswith(f"{key} "))
    lines[lineno - 1] = f"{key} = {value}"
    path.write_text("\n".join(lines) + "\n")
    assert main(["simulate", str(path), "--outdir", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"configuration error: line {lineno}: {message}"]
    assert not (tmp_path / "mini.csv").exists()


@pytest.mark.parametrize("name", ["../escaped", "a/b", ""])
def test_simulate_rejects_a_name_that_is_not_a_plain_file_name(tmp_path, capsys, name):
    # the run's CSV is {outdir}/{name}.csv, so such a name would write
    # beside or below the output directory
    path = mini_config(tmp_path)
    lines = path.read_text().splitlines()
    assert lines[0] == "name = mini"
    lines[0] = f"name = {name}"
    path.write_text("\n".join(lines) + "\n")
    outdir = tmp_path / "runs" / "out"
    assert main(["simulate", str(path), "--outdir", str(outdir)]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["configuration error: line 1: name must be a plain file name, not "
                   f"empty, '.', '..' or a path, got {name!r}"]
    assert list(tmp_path.rglob("*")) == [path]


def test_simulate_non_finite_config_value(tmp_path, capsys):
    path = mini_config(tmp_path)
    text = path.read_text().splitlines()
    text = [("ic_scale = nan" if line.startswith("ic_scale") else line)
            for line in text]
    path.write_text("\n".join(text) + "\n")
    assert main(["simulate", str(path), "--outdir", str(tmp_path)]) == EXIT_CONFIG
    assert "ic_scale must be finite" in capsys.readouterr().err
    assert not (tmp_path / "mini.csv").exists()


def test_simulate_unknown_variant(tmp_path, capsys):
    path = mini_config(tmp_path)
    path.write_text(path.read_text().replace("variant = factorized_all", "variant = spectral"))
    assert main(["simulate", str(path), "--outdir", str(tmp_path)]) == EXIT_CONFIG
    assert "variant must be one of" in capsys.readouterr().err


def test_converge_mismatched_solitary_lists_exit_code(tmp_path, capsys):
    # the constructor rejects the config, so the file is edited as text
    path, linenos = edited_config(tmp_path, "solitary", centers="")
    code = main(["converge", str(path), "--n", "64,128", "--t-final", "0.1",
                 "--outdir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        f"configuration error: line {linenos['centers']}: centers: solitary initial data "
        "needs matching amplitudes/centers/directions"]


@pytest.mark.parametrize("name,edits,message", [
    ("heap_hf", dict(t_end="-1", output_times=""), "t_end must be nonnegative, got -1.0"),
    ("solitary", dict(amplitudes="200"),
     "amplitudes: need 0 <= a*eps < 1 for a real wave speed"),
    ("solitary", dict(directions="0.5"), "directions: direction must be +1 or -1"),
    # the model and grid rules, met before the waves: epsilon, not amplitudes
    ("solitary", dict(epsilon="-0.5"), "epsilon must be in [0, 1], got -0.5"),
    ("solitary", dict(epsilon="2"), "epsilon must be in [0, 1], got 2.0"),
    ("heap_hf", dict(alpha="0"), "alpha must be positive, got 0.0"),
    ("heap_hf", dict(n_cells="4"), "n_cells = 4 is below the minimum of 8"),
    ("heap_hf", dict(x_max="-5"), "x_max must exceed x_min"),
    # the variant's rules, which the operators of a run rely on
    ("stability_fifth_only_factorized", dict(alpha="1.1"),
     "the fifth-only factorized variant is defined for alpha = 1"),
    ("stability_unfactorized", dict(n_cells="8"), "unfactorized needs at least 9 points, got 8"),
    # magnitudes whose operators would overflow or divide by zero
    ("heap_hf", dict(alpha="1e200"), "alpha must lie in [1e-30, 1e+30], got 1e+200"),
    ("heap_hf", dict(x_max="1e-298", x_min="0"),
     "x_max - x_min gives a cell size of 1.95312e-301, outside [1e-30, 1e+30]"),
    ("heap_hf", dict(x_max="1e300", x_min="-1e300"),
     "x_max - x_min gives a cell size of 3.90625e+297, outside [1e-30, 1e+30]")])
def test_config_that_cannot_run_names_its_line(tmp_path, capsys, name, edits, message):
    path, linenos = edited_config(tmp_path, name, **edits)
    assert main(["simulate", str(path), "--outdir", str(tmp_path)]) == EXIT_CONFIG
    lineno = linenos[next(iter(edits))]
    assert capsys.readouterr().err.splitlines() == [
        f"configuration error: line {lineno}: {message}"]
    assert not (tmp_path / f"{name}.csv").exists()


def test_solitary_config_without_centers_names_the_key(tmp_path, capsys):
    path, _ = edited_config(tmp_path, "solitary", centers=None)
    assert main(["simulate", str(path), "--outdir", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "configuration error: centers: solitary initial data needs matching "
        "amplitudes/centers/directions"]


@pytest.mark.parametrize("argv", [
    ["converge", "solitary", "--n", "64,128", "--t-final", "1e300"],
    ["simulate", "heap_hf"]])
def test_run_past_the_step_limit_is_a_configuration_error(tmp_path, capsys, monkeypatch, argv):
    # found before the first step: heap_hf does not step to its output time
    # t = 3 first, only to throw those steps away
    steps = []
    step = StrangSolver.strang_step
    monkeypatch.setattr(StrangSolver, "strang_step",
                        lambda *args: steps.append(args) or step(*args))
    if argv[0] == "simulate":
        argv = ["simulate", str(edited_config(tmp_path, "heap_hf", t_end="1e300")[0])]
    assert main(argv + ["--outdir", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: the remaining time 1e+300")
    assert f"STEP_LIMIT = {scenarios.STEP_LIMIT:g} CFL steps" in err[0]
    csv = tmp_path / ("heap_hf.csv" if argv[0] == "simulate" else "convergence_solitary.csv")
    assert steps == [] and not csv.exists()
    # a rerun that fails the same way keeps the CSV of an earlier run
    csv.write_text("an earlier run\n")
    assert main(argv + ["--outdir", str(tmp_path)]) == EXIT_CONFIG
    assert steps == [] and csv.read_text() == "an earlier run\n"


def test_outdir_from_environment(tmp_path, monkeypatch):
    out = tmp_path / "envout"
    monkeypatch.setenv("EBWAVE_OUTDIR", str(out))
    path = mini_config(tmp_path)
    assert main(["simulate", str(path)]) == EXIT_OK
    assert (out / "mini.csv").exists()


def test_converge_subcommand(tmp_path, capsys):
    code = main(["converge", "solitary", "--n", "100,200",
                 "--t-final", "0.25", "--outdir", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "slopes" in out
    csv = (tmp_path / "convergence_solitary.csv").read_text().splitlines()
    assert csv[0] == "n,err_zeta,err_v"
    assert len(csv) == 3


def test_converge_blowup_exit_code(tmp_path, capsys):
    config = replace(builtin_scenario("solitary"), blowup_threshold=0.01)
    path = tmp_path / "fragile.cfg"
    write_config(config, path)
    code = main(["converge", str(path), "--n", "64,128", "--t-final", "0.5",
                 "--outdir", str(tmp_path)])
    assert code == EXIT_BLOWUP
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("blow-up") and "N=64" in err[0]


@pytest.mark.parametrize("levels", ["64", "64,64"])
def test_converge_rejects_fewer_than_two_levels(tmp_path, capsys, levels):
    code = main(["converge", "solitary", "--n", levels, "--t-final", "0.25",
                 "--outdir", str(tmp_path)])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error") and "two" in err[0]
    assert "slopes" not in captured.out
    assert not (tmp_path / "convergence_solitary.csv").exists()


@pytest.mark.parametrize("t_final", ["0", "1e-300"])
def test_converge_rejects_vanishing_errors(tmp_path, capsys, t_final):
    # a zero error has no logarithm, so there is no slope to fit
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["converge", "solitary", "--n", "64,128", "--t-final", t_final,
                     "--outdir", str(tmp_path)])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: ")
    assert "N=64" in err[0] and f"t_final = {float(t_final):g}" in err[0]
    assert [str(w.message) for w in caught] == []
    assert "slopes" not in captured.out
    assert not (tmp_path / "convergence_solitary.csv").exists()


def test_simulate_outdir_the_os_refuses_stops_before_the_run(tmp_path, capsys, monkeypatch):
    def run_scenario(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(scenarios, "run_scenario", run_scenario)
    (tmp_path / "file").write_text("")
    outdir = tmp_path / "file" / "out"      # below a regular file
    assert main(["simulate", "heap_hf", "--outdir", str(outdir)]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("i/o error: ") and str(outdir) in err[0]


@pytest.mark.parametrize("command, base, length, csv", [
    ("simulate", "heap_hf", 300, "{}.csv"),
    # 245 characters make a valid '{name}.csv' but too long a 'convergence_{name}.csv'
    ("converge", "solitary", 245, "convergence_{}.csv")])
def test_csv_path_the_os_refuses_stops_before_the_first_step(tmp_path, capsys, monkeypatch,
                                                             command, base, length, csv):
    steps = []
    step = StrangSolver.strang_step
    monkeypatch.setattr(StrangSolver, "strang_step",
                        lambda *args: steps.append(args) or step(*args))
    path = tmp_path / "long.cfg"
    name = "x" * length
    write_config(replace(builtin_scenario(base), name=name), path)
    argv = [command, str(path), "--outdir", str(tmp_path)]
    if command == "converge":
        argv += ["--n", "64,128", "--t-final", "0.1"]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("i/o error: ") and csv.format(name) in err[0]
    assert captured.out == "" and steps == []


def test_stability_demo_checks_its_csv_paths_before_the_first_run(tmp_path, capsys,
                                                                  monkeypatch):
    def run_scenario(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(scenarios, "run_scenario", run_scenario)
    # the second run's CSV path is a directory
    (tmp_path / "stability_unfactorized.csv").mkdir()
    assert main(["stability-demo", "--outdir", str(tmp_path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("i/o error: [Errno 21] Is a directory")
    assert "stability_unfactorized.csv" in err[0] and captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["stability_unfactorized.csv"]


def test_simulate_directory_as_config_is_an_io_error(tmp_path, capsys):
    assert main(["simulate", str(tmp_path), "--outdir", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("i/o error: ") and str(tmp_path) in err[0]


def test_dispersion_rejects_zero_samples(tmp_path, capsys):
    code = main(["dispersion", "--samples", "0", "--outdir", str(tmp_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "sample" in err[0]
    assert not any(tmp_path.iterdir())


def test_dispersion_without_a_real_branch_exit_code(tmp_path, capsys):
    code = main(["dispersion", "--model", "eb_factorized", "--alpha", "0.5",
                 "--kmax", "100", "--outdir", str(tmp_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["dispersion error: complex frequency (instability) near k = 3.25"]
    assert not any(tmp_path.iterdir())


def test_dispersion_checks_both_csv_paths_before_writing_either(tmp_path, capsys):
    (tmp_path / "alpha_scan_eb_factorized_K10.csv").mkdir()
    assert main(["dispersion", "--outdir", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("i/o error: ")
    assert list(tmp_path.glob("dispersion_*.csv")) == []


def test_a_missing_compiler_fails_only_the_commands_that_step(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(hyperbolic, "COMPILE_COMMAND",
                        ("ebwave-no-such-compiler", *hyperbolic.COMPILE_COMMAND[1:]))
    hyperbolic.kernel.cache_clear()
    assert main(["simulate", "solitary", "--outdir", str(tmp_path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1
    assert err[0].startswith("kernel build error: ") and "ebwave-no-such-compiler" in err[0]
    assert not any(tmp_path.iterdir())
    # the analysis commands build no solver, so they never compile
    assert main(["stability"]) == EXIT_OK
    assert main(["dispersion", "--outdir", str(tmp_path)]) == EXIT_OK
    assert main(["optimize-alpha"]) == EXIT_OK


@pytest.mark.parametrize("alpha", ["-1", "0", "nan"])
def test_stability_rejects_nonpositive_alpha(capsys, alpha):
    code = main(["stability", "--variant", "factorized_all", "--alpha", alpha])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and "alpha must be positive" in err[0]
    assert captured.out == ""


@pytest.mark.parametrize("argv, name", [
    (["stability", "--k", "nan"], "k"),
    (["stability", "--k", "inf"], "k"),
    (["stability", "--variant", "factorized_all", "--alpha", "inf"], "alpha"),
    (["dispersion", "--alpha", "nan"], "alpha"),
    (["dispersion", "--kmax", "nan"], "k_max"),
    (["dispersion", "--kmax", "inf"], "k_max"),
    (["optimize-alpha", "--kmax", "nan"], "K"),
    (["optimize-alpha", "--kmax", "inf"], "K")])
def test_non_finite_arguments_are_named(tmp_path, capsys, argv, name):
    if argv[0] == "dispersion":
        argv = argv + ["--outdir", str(tmp_path)]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and f"{name} must be finite" in err[0]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, name", [
    (["stability", "--k", "1e200"], "k"),
    (["stability", "--k=1e-200"], "k"),
    (["stability", "--variant", "factorized_all", "--alpha", "1e200"], "alpha"),
    (["dispersion", "--kmax", "1e200"], "k_max"),
    (["optimize-alpha", "--kmax", "1e200"], "K")])
def test_extreme_magnitudes_are_named(tmp_path, capsys, argv, name):
    if argv[0] == "dispersion":
        argv = argv + ["--outdir", str(tmp_path)]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"configuration error: {name} must lie in [1e-30, 1e+30]")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["optimize-alpha", "--kmax=1e-30"],
    ["dispersion", "--kmax=1e-7"]])
def test_error_integral_needs_k_above_its_lower_limit(tmp_path, capsys, argv):
    # the integral of weighted_error starts at 1e-6: below it, it ran backwards
    # and gave a negative error
    if argv[0] == "dispersion":
        argv = argv + ["--outdir", str(tmp_path)]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: K must exceed 1e-06")
    assert not any(tmp_path.iterdir())


ARGUMENT = st.one_of(st.sampled_from(["nan", "inf", "-inf", "0", "-1", "abc", ""]),
                     st.floats(1e-300, 1e300).map(repr))
MODEL = st.sampled_from(["eb_unfactorized", "eb_factorized"])


@st.composite
def analysis_argvs(draw):
    """Arguments of the three analysis subcommands, values as ``--opt=value``
    so that one starting with a minus reaches the command."""
    command = draw(st.sampled_from(["stability", "dispersion", "optimize-alpha"]))
    if command == "stability":
        ks = ",".join(draw(st.lists(ARGUMENT, min_size=1, max_size=3)))
        variant = draw(st.sampled_from([v.value for v in ModelVariant]))
        return [command, f"--variant={variant}", f"--alpha={draw(ARGUMENT)}", f"--k={ks}"]
    if command == "dispersion":
        return [command, f"--model={draw(MODEL)}", f"--alpha={draw(ARGUMENT)}",
                f"--kmax={draw(ARGUMENT)}", f"--samples={draw(st.integers(-2, 64))}"]
    return [command, f"--model={draw(MODEL)}", f"--kmax={draw(ARGUMENT)}"]


@settings(max_examples=200, deadline=None)
@given(analysis_argvs())
def test_analysis_commands_exit_0_or_2_without_warnings(argv):
    out = io.StringIO()
    with (tempfile.TemporaryDirectory() as outdir,
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        if argv[0] == "dispersion":
            argv = argv + [f"--outdir={outdir}"]
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = main(argv)
        except SystemExit as exc:          # argparse rejects the text
            code = exc.code
            assert code == EXIT_CONFIG
    assert code in (EXIT_OK, EXIT_CONFIG)
    assert [str(w.message) for w in caught] == []
    if code == EXIT_OK:
        assert "nan" not in out.getvalue()


@st.composite
def run_configs(draw):
    """The fields of small configs of every variant and initial condition,
    as the attributes that ``write_config`` reads: no constructor checks
    them before the command does."""
    t_end = draw(st.floats(0.0, 0.05))
    return SimpleNamespace(
        name="fuzz", x_min=-2.0, x_max=2.0, n_cells=draw(st.integers(4, 64)),
        epsilon=draw(st.floats(-0.5, 1.5)), alpha=1.0, gravity=1.0, depth=1.0,
        variant=draw(st.sampled_from([v.value for v in ModelVariant])),
        initial=draw(st.sampled_from(scenarios.INITIAL_CONDITIONS)),
        t_end=t_end, output_times=(0.0, t_end),
        blowup_threshold=draw(st.floats(1.0, 1e3)), expect_blowup=False,
        amplitudes=(0.2,), centers=(0.0,), directions=(1.0,),
        ic_scale=draw(st.floats(-2.0, 2.0)))


def assert_simulate_exits_0_2_or_3_with_one_line(config):
    err = io.StringIO()
    with (tempfile.TemporaryDirectory() as outdir,
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        path = f"{outdir}/fuzz.cfg"
        write_config(config, path)
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["simulate", path, "--outdir", outdir])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_BLOWUP)
    assert len(err.getvalue().splitlines()) <= 1 and "Traceback" not in err.getvalue()
    assert [str(w.message) for w in caught] == []


@settings(max_examples=40, deadline=None)
@given(run_configs())
def test_simulate_exits_0_2_or_3_with_one_line(config):
    assert_simulate_exits_0_2_or_3_with_one_line(config)


LOG_UNIFORM = st.floats(-300.0, 300.0).map(lambda exponent: 10.0 ** exponent)


@st.composite
def setup_configs(draw):
    """Small configs of every variant and initial condition whose alpha,
    gravity, depth and domain length are drawn log-uniformly over
    1e-300 .. 1e300, with t_end = 0: the run takes no step but builds its
    solver, so every magnitude reaches the operators' set-up."""
    length = draw(LOG_UNIFORM)
    return SimpleNamespace(
        name="setup", x_min=-0.5 * length, x_max=0.5 * length,
        n_cells=draw(st.integers(8, 64)), epsilon=draw(st.floats(0.0, 1.0)),
        alpha=draw(LOG_UNIFORM), gravity=draw(LOG_UNIFORM), depth=draw(LOG_UNIFORM),
        variant=draw(st.sampled_from([v.value for v in ModelVariant])),
        initial=draw(st.sampled_from(scenarios.INITIAL_CONDITIONS)),
        t_end=0.0, output_times=(0.0,), blowup_threshold=100.0, expect_blowup=False,
        amplitudes=(0.2,), centers=(0.0,), directions=(1.0,), ic_scale=1.0)


@settings(max_examples=100, deadline=None)
@given(setup_configs())
def test_simulate_set_up_exits_0_2_or_3_with_one_line(config):
    assert_simulate_exits_0_2_or_3_with_one_line(config)


def test_dispersion_subcommand(tmp_path):
    code = main(["dispersion", "--model", "eb_unfactorized", "--alpha", "0.8351",
                 "--kmax", "1.0", "--samples", "20", "--outdir", str(tmp_path)])
    assert code == EXIT_OK
    assert any(p.name.startswith("dispersion_") for p in tmp_path.iterdir())


def test_optimize_alpha_subcommand(capsys):
    code = main(["optimize-alpha", "--model", "eb_unfactorized", "--kmax", "1.0"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "alpha* = 0.835" in out


def test_optimize_alpha_at_the_bracket_edge_exit_code(capsys):
    code = main(["optimize-alpha", "--kmax", "50"])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: alpha optimum 1.99")
    assert "[0.1, 2]" in err[0] and "K = 50" in err[0]


def test_stability_subcommand(capsys):
    code = main(["stability", "--variant", "fifth_only_factorized", "--k", "10"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "0.209" in out


def test_stability_rejects_bad_alpha(capsys):
    code = main(["stability", "--variant", "unfactorized", "--alpha", "1.2"])
    assert code == EXIT_CONFIG


def test_self_test(capsys):
    assert main(["self-test"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_self_test_fails_where_the_compiled_faces_change_bits(capsys, monkeypatch):
    # faces one ulp off, as a compiler that fuses a multiply-add would give
    faces = hyperbolic.limited_faces
    monkeypatch.setattr(hyperbolic, "limited_faces",
                        lambda u: tuple(np.nextafter(f, np.inf) for f in faces(u)))
    assert main(["self-test"]) == EXIT_SELFTEST
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("FAIL")] == [
        "FAIL  compiled FV faces match the numpy limiter"]


def test_self_test_fails_where_the_csv_formatter_loses_digits(capsys, monkeypatch):
    assert main(["self-test"]) == EXIT_OK
    assert "PASS  CSV formatter matches FLOAT_FMT" in capsys.readouterr().out
    # products that keep only the leading double of each power of ten, as
    # arithmetic that breaks the fast path's error-free product would
    hi, head, tail, lo = scenarios._TEN
    monkeypatch.setattr(scenarios, "_TEN", (hi, head, tail, 0.0 * lo))
    assert main(["self-test"]) == EXIT_SELFTEST
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("FAIL")] == [
        "FAIL  CSV formatter matches FLOAT_FMT"]
