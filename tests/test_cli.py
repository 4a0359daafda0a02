import numpy as np
import pytest
from dataclasses import replace

from ebwave.cli import EXIT_BLOWUP, EXIT_CONFIG, EXIT_OK, main
from ebwave.scenarios import ScenarioConfig, builtin_scenario, write_config


def mini_config(tmp_path, **overrides):
    base = dict(
        name="mini", units="nondimensional",
        x_min=-2.0, x_max=2.0, n_cells=64,
        epsilon=0.5, alpha=1.0, gravity=1.0, depth=1.0,
        variant="factorized_all", initial="heap_low_freq",
        t_end=0.2, output_times=(0.0, 0.2))
    base.update(overrides)
    config = ScenarioConfig(**base)
    path = tmp_path / f"{config.name}.cfg"
    write_config(config, path)
    return path


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


def test_simulate_unexpected_blowup_exit_code(tmp_path):
    config = replace(builtin_scenario("stability_fifth_only_factorized"),
                     name="surprise", n_cells=256, expect_blowup=False)
    path = tmp_path / "surprise.cfg"
    write_config(config, path)
    assert main(["simulate", str(path), "--outdir", str(tmp_path)]) == EXIT_BLOWUP


def test_simulate_expected_blowup_is_success(tmp_path):
    config = replace(builtin_scenario("stability_fifth_only_factorized"),
                     name="expected", n_cells=256)
    path = tmp_path / "expected.cfg"
    write_config(config, path)
    assert main(["simulate", str(path), "--outdir", str(tmp_path)]) == EXIT_OK


def test_simulate_dry_bed_exit_code(tmp_path, capsys):
    config = replace(builtin_scenario("dam_break"), name="dry", dam_amplitude=-0.6)
    path = tmp_path / "dry.cfg"
    write_config(config, path)
    assert main(["simulate", str(path), "--outdir", str(tmp_path)]) == EXIT_BLOWUP
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("dry bed")


def test_simulate_non_finite_config_value(tmp_path, capsys):
    path = mini_config(tmp_path)
    text = path.read_text().splitlines()
    text = [("dam_amplitude = nan" if line.startswith("dam_amplitude") else line)
            for line in text]
    path.write_text("\n".join(text) + "\n")
    assert main(["simulate", str(path), "--outdir", str(tmp_path)]) == EXIT_CONFIG
    assert "dam_amplitude must be finite" in capsys.readouterr().err
    assert not (tmp_path / "mini.csv").exists()


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
