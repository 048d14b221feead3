"""Tests for the line-based configuration format."""

import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from ac_diamond.config import (
    AUTO_LAG,
    MAX_ROTATIONS,
    ExperimentConfig,
    integer_rotations,
    load_config,
)
from ac_diamond.errors import ConfigError

DEFAULT_CFG = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"


def write(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


class TestDefaults:
    def test_single_key_file_fills_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, "E0 = 3.0e7\n"))
        assert cfg.E0 == 3.0e7
        assert cfg.r == 0.01
        assert cfg.f == 4000.0
        assert cfg.n == 7.2
        assert cfg.T2 == 1.8e-3
        assert cfg.lag == AUTO_LAG

    def test_default_instance_is_reference_parameters(self):
        cfg = ExperimentConfig()
        assert (cfg.r, cfg.f, cfg.E0, cfg.T2) == (0.01, 4000.0, 3.0e7, 1.8e-3)
        assert (cfg.g, cfg.B_z, cfg.R2E) == (2.0, 1.0e-3, 20.0)

    def test_shipped_default_config_is_the_default_instance(self):
        assert load_config(DEFAULT_CFG) == ExperimentConfig()

    def test_shipped_default_config_sets_and_documents_every_key(self):
        keys = {f.name for f in fields(ExperimentConfig)}
        lines = DEFAULT_CFG.read_text().splitlines()
        assigned = {line.split("=")[0].strip() for line in lines
                    if line and not line.startswith("#")}
        documented = {line.split()[1] for line in lines if line.startswith("#   ")
                      and line.split()[1] in keys}
        assert assigned == keys
        assert documented == keys


class TestParsing:
    def test_comments_and_blank_lines(self, tmp_path):
        cfg = load_config(write(tmp_path, "\n# comment\nr = 0.02  # inline\n\n"))
        assert cfg.r == 0.02

    def test_numeric_lag(self, tmp_path):
        cfg = load_config(write(tmp_path, "lag = 1.57\n"))
        assert cfg.lag == 1.57

    def test_seed_is_integer(self, tmp_path):
        cfg = load_config(write(tmp_path, "seed = 42\n"))
        assert cfg.seed == 42 and isinstance(cfg.seed, int)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    def test_parse_error_reports_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line 2"):
            load_config(write(tmp_path, "r = 0.01\nr 0.02\n"))

    def test_bad_number_reports_key(self, tmp_path):
        with pytest.raises(ConfigError, match="'f'"):
            load_config(write(tmp_path, "f = fast\n"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config key 'radius'"):
            load_config(write(tmp_path, "radius = 0.01\n"))

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate config key 'r'"):
            load_config(write(tmp_path, "r = 0.01\nr = 0.02\n"))

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "E0 = inf\n"))

    def test_utf8_comment_is_read_as_utf8(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes("r = 0.02  # café\n".encode("utf-8"))
        assert load_config(path).r == 0.02

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xef\xbb\xbfr = 0.02\n")
        assert load_config(path).r == 0.02

    def test_bad_byte_after_byte_order_mark_names_the_file_offset(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xef\xbb\xbfr = 0.01\n# caf\xe9\n")
        message = f"config file {path} is not UTF-8: byte 0xe9 at offset 17"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(path)

    def test_non_utf8_file_names_the_file_and_byte(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"r = 0.01\n# caf\xe9\n")
        message = f"config file {path} is not UTF-8: byte 0xe9 at offset 14"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(path)


class TestConstraints:
    def test_negative_radius_names_key(self, tmp_path):
        with pytest.raises(ConfigError, match="'r'"):
            load_config(write(tmp_path, "r = -1\n"))

    def test_alpha_ordering(self, tmp_path):
        with pytest.raises(ConfigError, match="alpha0"):
            load_config(write(tmp_path, "alpha0 = 0.01\nalpha1 = 0.02\n"))

    def test_bad_lag_string(self):
        with pytest.raises(ConfigError, match="lag"):
            ExperimentConfig(lag="sideways")

    def test_integer_rotations_accepts_integral_float(self):
        cfg = ExperimentConfig(n=7.0)
        assert cfg.integer_rotations() == 7

    def test_integer_rotations_rejects_fraction(self):
        cfg = ExperimentConfig()  # default n = 7.2 is fractional
        assert math.isclose(cfg.n, 7.2)
        with pytest.raises(ConfigError, match="'n'"):
            cfg.integer_rotations()

    def test_rotation_count_cap(self):
        assert ExperimentConfig(n=MAX_ROTATIONS).integer_rotations() == MAX_ROTATIONS
        for n in (MAX_ROTATIONS + 1, math.nextafter(MAX_ROTATIONS, math.inf)):
            with pytest.raises(ConfigError, match="'n' must be at most"):
                ExperimentConfig(n=n)

    @pytest.mark.parametrize("key, value", [
        ("n", math.nan), ("B_z", math.nan), ("R2E", math.nan), ("alpha1", math.nan),
        ("seed", math.nan), ("tilt", math.nan), ("tilt", math.inf), ("tilt", -math.inf),
        ("lag", math.nan), ("lag", math.inf),
    ])
    def test_non_finite_value_refused_by_name(self, key, value):
        # load_config refuses these first; the Python API reaches the record
        with pytest.raises(ConfigError, match=f"'{key}'"):
            ExperimentConfig(**{key: value})

    @pytest.mark.parametrize("n", [math.nan, -math.inf, math.inf])
    def test_integer_rotations_refuses_non_finite_by_name(self, n):
        # NaN and -inf used to end in round()'s bare "cannot convert float
        # NaN to integer" and OverflowError
        with pytest.raises(ValueError, match="rotation count"):
            integer_rotations(n)


class TestShippedConfigs:
    def test_default_cfg_round_trips(self):
        cfg = load_config("configs/default.cfg")
        assert cfg == ExperimentConfig()

    def test_phi10_cfg_phase_is_ten(self):
        from ac_diamond.phase import total_rectified_phase

        cfg = load_config("configs/phi10.cfg")
        phi = total_rectified_phase(cfg.r, cfg.E0, cfg.n, cfg.g)
        assert phi == pytest.approx(10.0, abs=1e-9)
