import dataclasses
import json

import numpy as np
import pytest

from priofd.cli import main
from priofd.config import (SystemConfig, build_preset, decode_matrix,
                           encode_matrix)
from priofd.errors import ConfigError


def test_matrix_codec_roundtrip(rng):
    mat = rng.normal(size=(3, 5))
    doc = encode_matrix(mat)
    assert doc["rows"] == 3 and doc["cols"] == 5
    assert np.array_equal(decode_matrix(doc, "m"), mat)


def test_matrix_codec_rejects_wrong_count():
    with pytest.raises(ConfigError):
        decode_matrix({"rows": 2, "cols": 2, "data": [1, 2, 3]}, "m")


def test_preset_roundtrip(tmp_path, desk_cfg):
    path = tmp_path / "cfg.json"
    desk_cfg.save(path)
    back = SystemConfig.load(path)
    assert back.hash() == desk_cfg.hash()
    assert np.array_equal(back.A, desk_cfg.A)
    assert np.array_equal(back.F_cross, desk_cfg.F_cross)
    assert back.quant_scale == desk_cfg.quant_scale
    assert (back.eta, back.d, back.b) == (desk_cfg.eta, desk_cfg.d, desk_cfg.b)


def test_hash_sensitivity(desk_cfg, tmp_path):
    path = tmp_path / "cfg.json"
    desk_cfg.save(path)
    doc = json.loads(path.read_text())
    doc["detector"]["eta"] = 0.02
    other = SystemConfig.from_dict(doc)
    assert other.hash() != desk_cfg.hash()


def test_models_fleet_structure(desk_cfg):
    models = desk_cfg.models()
    assert [m.id for m in models] == list(range(1, 7))
    for m in models:
        assert set(m.F_cross) == set(range(1, 7)) - {m.id}
        assert np.array_equal(m.F_cross[(m.id % 6) + 1], desk_cfg.F_cross)


def test_unstable_gains_refused(desk_cfg):
    cfg = SystemConfig(
        name="broken", n_agents=2, bandwidth=1, A=desk_cfg.A, B=desk_cfg.B,
        F_self=np.zeros((1, 4)), F_cross=np.zeros((1, 4)),
        noise_cov=desk_cfg.noise_cov, priority_weight=np.eye(4),
        quant_scale=1.0)
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg.allow_unstable = True
    cfg.validate()  # warning-only mode for deliberate fault studies


def test_validation_catches_bad_fields(desk_cfg):
    bad = SystemConfig(
        name="x", n_agents=2, bandwidth=1, A=desk_cfg.A, B=desk_cfg.B,
        F_self=desk_cfg.F_self, F_cross=desk_cfg.F_cross,
        noise_cov=desk_cfg.noise_cov, priority_weight=np.eye(4),
        quant_scale=1.0, eta=1.5)
    with pytest.raises(ConfigError):
        bad.validate()


def test_require_scale(desk_cfg):
    cfg = build_preset("desk", fit_scale=False)
    assert cfg.quant_scale is None
    with pytest.raises(ConfigError):
        cfg.require_scale()


def test_unknown_preset():
    with pytest.raises(ConfigError):
        build_preset("galaxy")


def test_missing_file():
    with pytest.raises(ConfigError):
        SystemConfig.load("/nonexistent/config.json")


def test_full_preset_shape():
    cfg = build_preset("full", fit_scale=False)
    assert cfg.n_agents == 20 and cfg.bandwidth == 2
    assert cfg.rounds == 300
    assert np.allclose(np.diag(cfg.noise_cov), 3e-4)
    cfg.validate()


SHORT = r"is shorter than warmup_discard \+ d = "


@pytest.mark.parametrize("fields, message", [
    ({"rounds": 59}, SHORT + "60"),
    ({"rounds": 40}, SHORT + "60"),
    ({"warmup_discard": 295}, SHORT + "305"),
    ({"warmup_discard": -5}, "warmup_discard must be >= 0"),
], ids=["rounds59", "rounds40", "warmup295", "warmup-5"])
def test_run_length_and_warmup_refused(desk_cfg, tmp_path, fields, message):
    bad = dataclasses.replace(desk_cfg, **fields)
    with pytest.raises(ConfigError, match=message):
        bad.validate()
    path = tmp_path / "cfg.json"
    bad.save(path)
    with pytest.raises(ConfigError, match=message):
        SystemConfig.load(path)


def test_shortest_valid_run_accepted(desk_cfg):
    dataclasses.replace(desk_cfg, rounds=60).validate()
    dataclasses.replace(desk_cfg, warmup_discard=0, rounds=10).validate()


def test_make_config_short_run_refused(tmp_path, capsys):
    out = tmp_path / "cfg.json"
    assert main(["make-config", "--rounds", "40", "--scale-fit-runs", "2",
                 "-o", str(out)]) == 2
    assert "rounds=40 is shorter than warmup_discard + d = 60" in \
        capsys.readouterr().err
    assert not out.exists()

