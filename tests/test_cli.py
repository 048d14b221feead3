"""CLI surface tests: subcommands, exit codes, CSV determinism."""

import numpy as np
import pytest

from ac_diamond import cli
from ac_diamond.cli import CSV_VERSION, main
from ac_diamond.sequence import MAX_ROTATIONS

DEFAULT_CFG = "configs/default.cfg"
PHI10_CFG = "configs/phi10.cfg"


def read_csv(path):
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == CSV_VERSION
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestPhase:
    def test_prints_headline_phase(self, capsys):
        assert main(["phase", "--config", DEFAULT_CFG]) == 0
        out = capsys.readouterr().out
        value = float(out.split("phase:")[1].split("rad")[0])
        assert 16.7 <= value <= 17.1

    def test_csv_output(self, tmp_path):
        out = tmp_path / "phase.csv"
        assert main(["phase", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["r_m", "E0_V_per_m", "n_rotations", "g", "phase_rad"]
        assert float(rows[0][4]) == pytest.approx(16.908058, abs=1e-5)


class TestSweep:
    def test_phi10_curve(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", PHI10_CFG, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        lag = float(stdout.split("readout lag:")[1].split("rad")[0])
        assert lag == pytest.approx(2.146, abs=1e-3)
        header, rows = read_csv(out)
        assert header == ["E_V_per_m", "phase_rad", "p1", "p1_with_decoherence"]
        assert len(rows) == 201
        assert float(rows[-1][1]) == pytest.approx(10.0, rel=1e-9)

    def test_grid_flag(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", PHI10_CFG, "--grid", "41",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 41

    def test_fractional_n_is_config_error(self, capsys):
        # the shipped default carries n = 7.2, unusable for schedule commands
        assert main(["sweep", "--config", DEFAULT_CFG]) == 2
        assert "'n'" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", "--config", PHI10_CFG, "--out", str(out1)])
        main(["sweep", "--config", PHI10_CFG, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestHolonomy:
    def test_diagnostics_csv(self, tmp_path):
        out = tmp_path / "hol.csv"
        assert main(["holonomy", "--config", PHI10_CFG, "--steps", "4000",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["steps", "planar_phase_error", "offdiag_norm",
                          "path_dep_norm"]
        steps = [int(r[0]) for r in rows]
        assert steps == sorted(steps)
        errors = [float(r[1]) for r in rows]
        # second-order convergence: each doubling divides the error by ~4
        assert errors[0] / errors[-1] == pytest.approx(16 * 16, rel=0.2)
        assert all(float(r[2]) < 1e-10 for r in rows)

    def test_step_precondition_exit_code(self, capsys):
        assert main(["holonomy", "--steps", "1"]) == 3
        assert "precondition" in capsys.readouterr().err


class TestSensitivity:
    def test_report_values(self, tmp_path, capsys):
        out = tmp_path / "sens.csv"
        assert main(["sensitivity", "--config", DEFAULT_CFG, "--out",
                     str(out)]) == 0
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["C"]) == pytest.approx(0.05, rel=1e-9)
        assert float(row["eta_rad_per_sqrt_hz"]) == pytest.approx(666.6667,
                                                                  abs=0.1)
        assert float(row["eta_ensemble_rad_per_sqrt_hz"]) == pytest.approx(
            2.108e-3, abs=1e-5
        )
        hours = float(row["T_to_1rad_s"]) / 3600.0
        assert 100.0 <= hours <= 140.0


class TestMonteCarlo:
    def test_csv_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "mc1.csv", tmp_path / "mc2.csv"
        assert main(["montecarlo", "--config", PHI10_CFG, "--out", str(out1),
                     "--seed", "99"]) == 0
        assert main(["montecarlo", "--config", PHI10_CFG, "--out", str(out2),
                     "--seed", "99"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header, rows = read_csv(out1)
        assert header == ["shots", "phase_mean_rad", "phase_std_rad"]
        assert [int(r[0]) for r in rows] == [2500, 10000, 40000]

    def test_seed_changes_output(self, tmp_path):
        out1, out2 = tmp_path / "mc1.csv", tmp_path / "mc2.csv"
        main(["montecarlo", "--config", PHI10_CFG, "--out", str(out1),
              "--seed", "1"])
        main(["montecarlo", "--config", PHI10_CFG, "--out", str(out2),
              "--seed", "2"])
        assert out1.read_bytes() != out2.read_bytes()


class TestStark:
    def test_report(self, capsys):
        assert main(["stark", "--config", DEFAULT_CFG]) == 0
        out = capsys.readouterr().out
        assert "6.0000 MHz" in out
        assert "adiabatic: yes" in out

    def test_zero_field_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "b0.cfg"
        cfg.write_text("B_z = 0\n")
        assert main(["stark", "--config", str(cfg)]) == 3


class TestEchoCheck:
    def test_residuals(self, tmp_path):
        out = tmp_path / "echo.csv"
        assert main(["echo-check", "--config", PHI10_CFG, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["detuning_hz", "residual_phase_rad", "abs_p1_change"]
        for row in rows:
            assert abs(float(row[1])) < 1e-9
            assert abs(float(row[2])) < 1e-9
        assert float(rows[-1][0]) == 1e7


class TestErrors:
    def test_missing_config_file(self, capsys):
        assert main(["phase", "--config", "does/not/exist.cfg"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("r = -5\n")
        assert main(["phase", "--config", str(cfg)]) == 2
        assert "'r'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, config_text",
    [
        (["sweep", "--grid", "0"], ""),
        (["sweep", "--grid", "-3"], ""),
        (["montecarlo"], "seed = -1\n"),
        (["montecarlo", "--seed", "-5"], ""),
        (["holonomy", "--steps", "0"], ""),
        (["holonomy", "--steps", "-5"], ""),
    ],
    ids=["grid-0", "grid-neg", "config-seed-neg", "flag-seed-neg", "steps-0", "steps-neg"],
)
def test_bad_flags_and_seeds_exit_2(argv, config_text, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 7\n" + config_text)
    try:
        code = main([*argv, "--config", str(cfg)])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, config_text, codes",
    [
        (["holonomy", "--steps", "16"], "r = 1e300\nn = 1\n", (0, 3)),
        (["stark"], "g = 1e-300\n", (0, 3)),
        (["sensitivity"], "alpha0 = 1e300\nalpha1 = 0\n", (0, 3)),
        (["sensitivity"], "alpha0 = 5e-324\nalpha1 = 0\n", (0, 3)),
        (["sensitivity"], "alpha0 = 1.7e308\nalpha1 = 1.6e308\n", (0, 3)),
        (["sensitivity"], "alpha0 = 1e-160\nalpha1 = 0\nT2 = 1e-300\n", (0, 3)),
        # closed-form phases ~2e302 rad, far beyond what cos resolves
        (["sweep"], "r = 1e300\nn = 1\n", (3,)),
        (["echo-check"], "r = 1e300\nn = 1\n", (3,)),
        (["montecarlo"], "r = 1e300\nn = 1\n", (3,)),
        # linspace(0, 5e-324, 201) repeats field values
        (["sweep"], "E0 = 5e-324\nn = 7\n", (3,)),
    ],
    ids=["holonomy-huge-radius", "stark-tiny-g", "sensitivity-huge-counts",
         "sensitivity-tiny-counts", "sensitivity-overflowing-sum",
         "sensitivity-overflowing-time", "sweep-huge-radius",
         "echo-check-huge-radius", "montecarlo-huge-radius",
         "sweep-unresolvable-grid"],
)
def test_extreme_values_exit_0_or_3(argv, config_text, codes, tmp_path, capsys):
    cfg = tmp_path / "extreme.cfg"
    cfg.write_text(config_text)
    code = main([*argv, "--config", str(cfg), "--out", str(tmp_path / "out.csv")])
    assert code in codes
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "montecarlo", "echo-check", "phase"])
def test_rotation_count_above_cap_exits_2(command, tmp_path, monkeypatch, capsys):
    def no_schedule(*args, **kwargs):
        raise AssertionError("schedule built for a rotation count above the cap")

    monkeypatch.setattr(cli, "build_echo_schedule", no_schedule)
    cfg = tmp_path / "many.cfg"
    cfg.write_text(f"n = {MAX_ROTATIONS + 1}\n")
    assert main([command, "--config", str(cfg)]) == 2
    assert "'n' must be at most" in capsys.readouterr().err


def test_csv_floats_are_full_precision(tmp_path):
    out = tmp_path / "sweep.csv"
    main(["sweep", "--config", PHI10_CFG, "--grid", "11", "--out", str(out)])
    _, rows = read_csv(out)
    values = np.array([float(r[2]) for r in rows])
    assert np.all((values >= 0.0) & (values <= 1.0))
    # round-trippable formatting: 17 significant digits
    assert any("." in r[2] and len(r[2]) > 10 for r in rows)
