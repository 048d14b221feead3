"""CLI surface tests: subcommands, exit codes, CSV determinism."""

import contextlib
import importlib.util
import io
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ac_diamond import cli
from ac_diamond.cli import CSV_VERSION, main
from ac_diamond.config import MAX_ROTATIONS, ExperimentConfig, load_config
from ac_diamond.geometry import FieldConfig, station_trajectory
from ac_diamond.holonomy import PathSampling, path_ordered_propagator
from ac_diamond.physics import total_rectified_phase
from ac_diamond.sequence import simulate_run

DEFAULT_CFG = "configs/default.cfg"
PHI10_CFG = "configs/phi10.cfg"
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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

    @staticmethod
    def counted_propagator(monkeypatch):
        """Patch the CLI's propagator; returns the list of each call's ``reverse``."""
        calls = []

        def counted(sampling, params, **kwargs):
            calls.append(kwargs.get("reverse", False))
            return path_ordered_propagator(sampling, params, **kwargs)

        monkeypatch.setattr(cli, "path_ordered_propagator", counted)
        return calls

    def test_planar_run_takes_no_reverse_product(self, tmp_path, monkeypatch):
        calls = self.counted_propagator(monkeypatch)
        out = tmp_path / "hol.csv"
        assert main(["holonomy", "--config", PHI10_CFG, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 5
        assert calls == [False] * 5  # one half-turn propagator per rung
        assert all(float(r[3]) == 0.0 for r in rows)

    def test_planar_run_gates_only_the_half_turn(self, tmp_path):
        # each rung's half turn is inside the step gate at 2000 steps; a full
        # turn at the same step count would not be
        cfg = tmp_path / "strong.cfg"
        cfg.write_text("n = 1\nE0 = 6e8\n")
        out = tmp_path / "hol.csv"
        assert main(["holonomy", "--config", str(cfg), "--steps", "2000",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [int(r[0]) for r in rows] == [125, 250, 500, 1000, 2000]

    def test_phase_error_past_pi_converges_at_second_order(self, tmp_path, capsys):
        # the half-turn phase is 3.52 rad, past pi, where abelian_phase wraps
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("r = 0.03\n")
        out = tmp_path / "hol.csv"
        assert main(["holonomy", "--config", str(cfg), "--out", str(out)]) == 0
        assert "planar segment phase (analytic): 3.522512130 rad" in capsys.readouterr().out
        _, rows = read_csv(out)
        errors = [float(r[1]) for r in rows]
        assert all(e < 1e-6 for e in errors)
        assert all(3.5 <= a / b <= 4.5 for a, b in zip(errors, errors[1:]))

    def test_tilted_run_takes_the_reverse_product(self, tmp_path, monkeypatch):
        cfg = tmp_path / "tilted.cfg"
        cfg.write_text(Path(PHI10_CFG).read_text() + "tilt = 0.3\n")
        calls = self.counted_propagator(monkeypatch)
        out = tmp_path / "hol.csv"
        assert main(["holonomy", "--config", str(cfg), "--steps", "2000",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(calls) == 3 * len(rows) == 15
        assert calls.count(True) == len(rows)
        loaded = load_config(cfg)
        traj = station_trajectory(loaded.r, loaded.f, tilt=0.3)
        field = FieldConfig(magnitude=loaded.E0)
        params = cli._nv_params(loaded)
        for row in rows:
            samp = PathSampling(0.0, 2.0 * (1.0 / (2.0 * loaded.f)), int(row[0]),
                                traj, field)
            fwd = path_ordered_propagator(samp, params)
            rev = path_ordered_propagator(samp, params, reverse=True)
            assert float(row[3]) == float(np.linalg.norm(fwd.U - rev.U, 2))
            assert float(row[3]) > 0.0

    def test_worst_defect_includes_the_reverse_product(self, tmp_path, monkeypatch, capsys):
        def flawed_reverse(sampling, params, **kwargs):
            prop = path_ordered_propagator(sampling, params, **kwargs)
            if kwargs.get("reverse"):
                prop.defect = 9e-11  # below the 1e-10 refusal, above every true defect
            return prop

        monkeypatch.setattr(cli, "path_ordered_propagator", flawed_reverse)
        assert main(["holonomy", "--config", "tests/golden/tilted.cfg", "--steps", "2000",
                     "--out", str(tmp_path / "hol.csv")]) == 0
        assert "worst unitarity defect: 9.000e-11\n" in capsys.readouterr().out

    def test_float_overflow_exits_3(self, monkeypatch, capsys, tmp_path):
        # a tilted run is under np.errstate, so a numpy overflow raises, not warns
        def overflowing(*args, **kwargs):
            return np.float64(1e308) * 10.0

        cfg = tmp_path / "tilted.cfg"
        cfg.write_text(Path(PHI10_CFG).read_text() + "tilt = 0.3\n")
        monkeypatch.setattr(cli, "segment_phase", overflowing)
        assert main(["holonomy", "--config", str(cfg), "--steps", "16"]) == 3
        assert "overflow encountered" in capsys.readouterr().err

    def test_planar_sum_overflow_exits_3(self, tmp_path, capsys):
        # g = 2e6 makes each midpoint rate about 6e304 rad/s, finite and within
        # the step bound at 8192 steps, yet their sum overflows a Python float
        cfg = tmp_path / "huge-g.cfg"
        cfg.write_text("g = 2e6\nr = 1e-10\nf = 1e301\nE0 = 5.13e12\nn = 1\n")
        assert main(["holonomy", "--config", str(cfg), "--steps", "131072"]) == 3
        err = capsys.readouterr().err
        assert err == ("numeric precondition violated: "
                       "sum of the midpoint rates k*E*v_y overflows a float\n")

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

    def test_runs_each_detuning_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("detuning_hz", 0.0))
            return simulate_run(*args, **kwargs)

        monkeypatch.setattr(cli, "simulate_run", counted)
        out = tmp_path / "echo.csv"
        assert main(["echo-check", "--config", PHI10_CFG, "--out", str(out)]) == 0
        assert cli.ECHO_DETUNINGS[0] == 0.0  # the first run is the baseline
        assert calls == list(cli.ECHO_DETUNINGS)
        _, rows = read_csv(out)
        assert float(rows[0][0]) == 0.0 and float(rows[0][2]) == 0.0

    @pytest.mark.parametrize("lag, phases", [("1.0", 0), ("auto", 1)])
    def test_forms_the_headline_phase_only_for_the_auto_lag(self, lag, phases, tmp_path,
                                                             monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return total_rectified_phase(*args)

        monkeypatch.setattr(cli, "total_rectified_phase", counted)
        cfg = tmp_path / "lag.cfg"
        cfg.write_text(f"n = 7\nlag = {lag}\n")
        assert main(["echo-check", "--config", str(cfg),
                     "--out", str(tmp_path / "echo.csv")]) == 0
        assert len(calls) == phases


class TestErrors:
    def test_missing_config_file(self, capsys):
        assert main(["phase", "--config", "does/not/exist.cfg"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["phase", "--config", DEFAULT_CFG], ["sweep", "--config", PHI10_CFG]],
        ids=["phase", "sweep"],
    )
    def test_out_into_missing_directory_exits_1(self, argv, tmp_path, capsys):
        out = tmp_path / "missing" / "out.csv"
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("I/O failure:")
        assert str(out) in err
        assert "Traceback" not in err

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("r = -5\n")
        assert main(["phase", "--config", str(cfg)]) == 2
        assert "'r'" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", [b"r = 0.01\n# caf\xe9\n", b"\xff"],
                             ids=["latin-1-comment", "lone-ff"])
    def test_non_utf8_config_exits_2(self, raw, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(raw)
        assert main(["phase", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"config error: config file {cfg} is not UTF-8" in err
        assert "Traceback" not in err

    def test_zero_field_splitting_key_is_unknown(self, tmp_path, capsys):
        # D never entered a rotating-frame result, so it is no longer a key
        cfg = tmp_path / "old.cfg"
        cfg.write_text("D = 2.88e9\n")
        assert main(["phase", "--config", str(cfg)]) == 2
        assert "unknown config key 'D'" in capsys.readouterr().err


# name -> (argv, config text); tests/test_golden.py pins each one's exit code and
# refusal text
BAD_FLAGS_AND_SEEDS = {
    "grid-0": (["sweep", "--grid", "0"], "n = 7\n"),
    "grid-neg": (["sweep", "--grid", "-3"], "n = 7\n"),
    "config-seed-neg": (["montecarlo"], "n = 7\nseed = -1\n"),
    "flag-seed-neg": (["montecarlo", "--seed", "-5"], "n = 7\n"),
    "steps-0": (["holonomy", "--steps", "0"], "n = 7\n"),
    "steps-neg": (["holonomy", "--steps", "-5"], "n = 7\n"),
}


@pytest.mark.parametrize("argv, config_text", list(BAD_FLAGS_AND_SEEDS.values()),
                         ids=list(BAD_FLAGS_AND_SEEDS))
def test_bad_flags_and_seeds_exit_2(argv, config_text, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text)
    try:
        code = main([*argv, "--config", str(cfg)])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


# name -> (argv, config text, allowed exit codes); tests/test_golden.py pins
# each one's exit code and output
EXTREME_VALUES = {
    "holonomy-huge-radius": (["holonomy", "--steps", "16"], "r = 1e300\nn = 1\n", (0, 3)),
    "stark-tiny-g": (["stark"], "g = 1e-300\n", (0, 3)),
    "sensitivity-huge-counts": (["sensitivity"], "alpha0 = 1e300\nalpha1 = 0\n", (0, 3)),
    "sensitivity-tiny-counts": (["sensitivity"], "alpha0 = 5e-324\nalpha1 = 0\n", (0, 3)),
    "sensitivity-overflowing-sum": (["sensitivity"], "alpha0 = 1.7e308\nalpha1 = 1.6e308\n",
                                    (0, 3)),
    "sensitivity-overflowing-time": (["sensitivity"],
                                     "alpha0 = 1e-160\nalpha1 = 0\nT2 = 1e-300\n", (0, 3)),
    # closed-form phases ~2e302 rad, far beyond what cos resolves
    "sweep-huge-radius": (["sweep"], "r = 1e300\nn = 1\n", (3,)),
    "echo-check-huge-radius": (["echo-check"], "r = 1e300\nn = 1\n", (3,)),
    "montecarlo-huge-radius": (["montecarlo"], "r = 1e300\nn = 1\n", (3,)),
    # linspace(0, 5e-324, 201) repeats field values
    "sweep-unresolvable-grid": (["sweep"], "E0 = 5e-324\nn = 7\n", (3,)),
    # floating-point overflow or invalid operations: exit 3, no warning
    "holonomy-tiny-frequency": (["holonomy", "--steps", "16"], "f = 5e-324\nn = 1\n",
                                (3,)),  # period inf
    "sweep-max-radius": (["sweep"], "r = 1.7976931348623157e308\nn = 1\n",
                         (3,)),  # diameter inf
    "montecarlo-overflowing-phase": (["montecarlo"], "r = 1e303\nn = 2\n",
                                     (3,)),  # r*E overflows
    # grid steps whose squares (or doubles) under- or overflow: the closed
    # form takes no finite difference, so these sweeps return
    "sweep-underflowing-spacing": (["sweep"], "E0 = 1e-213\nn = 7\n",
                                   (0,)),  # spacing^2 underflows
    "sweep-overflowing-spacing": (["sweep"], "r = 1e-300\nE0 = 1e308\nn = 1\n",
                                  (0,)),  # spacing^2 overflows
    "sweep-overflowing-two-point-spacing": (["sweep", "--grid", "2"],
                                            "r = 1e-300\nE0 = 1e308\nn = 1\n",
                                            (0,)),  # 2*spacing overflows
    # the last point of linspace, (grid - 1)*(E0/(grid - 1)), overflows
    "sweep-overflowing-grid": (["sweep", "--grid", "4"],
                               "r = 1e-300\nE0 = 1.7976931348623157e308\nn = 1\n", (3,)),
    "echo-check-overflowing-segment": (["echo-check"], "r = 1e300\nE0 = 1e10\nn = 1\n",
                                       (3,)),  # 2r*E0 overflows
    # a mean count beyond the Poisson sampler's int64 range
    "montecarlo-huge-counts": (["montecarlo"], "alpha0 = 1e30\nn = 2\n", (3,)),
    # Python-float products that overflow to inf without a numpy error
    "phase-overflowing-phase": (["phase"], "r = 1e200\nE0 = 1e200\n", (3,)),
    "stark-overflowing-shift": (["stark"], "E0 = 1e200\n", (3,)),
}


@pytest.mark.parametrize("argv, config_text, codes", list(EXTREME_VALUES.values()),
                         ids=list(EXTREME_VALUES))
def test_extreme_values_exit_0_or_3(argv, config_text, codes, tmp_path, capsys):
    cfg = tmp_path / "extreme.cfg"
    cfg.write_text(config_text)
    code = main([*argv, "--config", str(cfg), "--out", str(tmp_path / "out.csv")])
    assert code in codes
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, config_text, named",
    [
        (["holonomy", "--steps", "16"], "f = 5e-324\nn = 1\n", "rotation frequency 5e-324 Hz"),
        (["sweep"], "r = 1.7976931348623157e308\nn = 1\n",
         "disk radius 1.7976931348623157e+308 m"),
    ],
    ids=["holonomy-tiny-frequency", "sweep-max-radius"],
)
def test_unrepresentable_motion_message_names_the_input(argv, config_text, named,
                                                        tmp_path, capsys):
    cfg = tmp_path / "extreme.cfg"
    cfg.write_text(config_text)
    assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 3
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "montecarlo", "echo-check", "phase"])
def test_rotation_count_above_cap_exits_2(command, tmp_path, monkeypatch, capsys):
    def no_schedule(*args, **kwargs):
        raise AssertionError("schedule built for a rotation count above the cap")

    monkeypatch.setattr(cli, "build_echo_schedule", no_schedule)
    cfg = tmp_path / "many.cfg"
    cfg.write_text(f"n = {MAX_ROTATIONS + 1}\n")
    assert main([command, "--config", str(cfg)]) == 2
    assert "'n' must be at most" in capsys.readouterr().err


def test_fmt_writes_integers_bools_and_full_precision_floats():
    assert cli._fmt(np.int64(5)) == "5"
    assert cli._fmt(np.int64(2**62 + 1)) == "4611686018427387905"  # not through a float
    assert cli._fmt(7) == "7"
    assert cli._fmt(True) == "true"
    assert cli._fmt(False) == "false"
    assert cli._fmt(np.float64(0.1)) == "0.10000000000000001"
    assert cli._fmt(np.float64(1e300)) == "1.0000000000000001e+300"


def test_csv_floats_are_full_precision(tmp_path):
    out = tmp_path / "sweep.csv"
    main(["sweep", "--config", PHI10_CFG, "--grid", "11", "--out", str(out)])
    _, rows = read_csv(out)
    values = np.array([float(r[2]) for r in rows])
    assert np.all((values >= 0.0) & (values <= 1.0))
    # round-trippable formatting: 17 significant digits
    assert any("." in r[2] and len(r[2]) > 10 for r in rows)


def test_reproduction_script_reruns_byte_identical(tmp_path):
    # the headline reproduction is a pure function of the shipped configs
    script = SCRIPTS / "reproduce_headline_numbers.py"
    spec = importlib.util.spec_from_file_location("reproduce_headline_numbers", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    trees = []
    for name in ("first", "second"):
        assert module.run(tmp_path / name) == 0
        trees.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
    assert sorted(trees[0]) == sorted(
        f"{stem}.csv" for stem in ("phase", "sensitivity", "sweep", "holonomy",
                                   "stark", "echo_check", "montecarlo")
    )
    assert trees[0] == trees[1]


# Config values: each key's default (or a typical value) times a scale that is
# mostly ordinary and sometimes extreme, zero or negative; or a junk token.
_TYPICAL = {**vars(ExperimentConfig()), "tilt": 0.3, "lag": 2.0}
_SCALES = st.one_of(
    st.floats(min_value=0.5, max_value=2.0),
    st.sampled_from([0.0, -1.0, 1e-300, 1e-12, 1e12, 1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_KEYS = [f.name for f in fields(ExperimentConfig) if f.name not in ("n", "seed")]
_JUNK = st.sampled_from(["auto", "x", "nan", "inf", "", "5e-324", "1e999", "1.7976931348623157e308"])
_VALUE_LINES = st.dictionaries(st.sampled_from(_KEYS), _SCALES, max_size=4).map(
    lambda scales: [f"{key} = {_TYPICAL[key] * scale!r}" for key, scale in scales.items()])
_BAD_LINES = st.one_of(
    st.just([]),
    st.tuples(st.sampled_from(_KEYS), _JUNK).map(lambda kv: [" = ".join(kv)]),
    st.sampled_from(["seed = -1", "seed = 3", "seed = 1.5", "bogus = 1", "no equals"]).map(
        lambda line: [line]),
)
_ROTATIONS = st.one_of(
    st.sampled_from(["n = 1\n", "n = 2\n", "n = 7\n"]),
    st.sampled_from(["", "n = 0\n", "n = 7.5\n", "n = 10001\n", "n = -1\n"]),
)
_FLAG_VALUES = st.one_of(
    st.integers(min_value=16, max_value=1024).map(str),
    st.integers(min_value=-2, max_value=16).map(str),
    st.sampled_from(["x", "1.5", ""]),
)


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["phase", "sweep", "holonomy", "sensitivity",
                             "montecarlo", "stark", "echo-check"]),
    lines=st.tuples(_VALUE_LINES, _BAD_LINES).map(lambda pair: pair[0] + pair[1]),
    n=_ROTATIONS,
    steps=_FLAG_VALUES,
    grid=_FLAG_VALUES,
    seed=st.one_of(st.none(), st.integers(min_value=-2, max_value=2**64).map(str)),
)
def test_fuzzed_config_and_flags_exit_0_2_or_3(command, lines, n, steps, grid, seed):
    # n <= 7, --steps <= 1024 and --grid <= 1024 keep each run to milliseconds
    text = n + "".join(line + "\n" for line in lines)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text(text)
        argv = [command, "--config", str(cfg), "--out", str(Path(tmp) / "out.csv")]
        if command == "holonomy":
            argv += ["--steps", steps]
        if command == "sweep":
            argv += ["--grid", grid]
        if seed is not None:
            argv += ["--seed", seed]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses a malformed flag
                code = exc.code
    assert code in (0, 2, 3), (argv, text, err.getvalue())
    assert "Traceback" not in err.getvalue()
