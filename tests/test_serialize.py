"""JSON parameter and design file round-trips."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import raschdesign as rd
from raschdesign._lattice import _BLOCK
from raschdesign.serialize import save_design, write_json


def test_parameter_round_trip(tmp_path):
    m = rd.InteractionModel(3, 2)
    theta = rd.ParameterVector.from_dict(m, {"1": -0.3, "1,2": -0.1})
    path = tmp_path / "params.json"
    rd.save_parameters(theta, path)
    back = rd.load_parameters(path)
    assert back.model == m
    assert_allclose(back.values, theta.values)


def test_parameter_defaults_to_zero(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"k": 2, "d": 1, "beta": {"2": 0.5}}))
    theta = rd.load_parameters(path)
    assert theta.beta(()) == 0.0
    assert theta.beta((1,)) == 0.0
    assert theta.beta((2,)) == 0.5


def test_parameter_file_validation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(rd.InputFormatError):
        rd.load_parameters(path)
    path.write_text(json.dumps({"k": 2, "beta": {}}))
    with pytest.raises(rd.InputFormatError):
        rd.load_parameters(path)
    path.write_text(json.dumps({"k": 2, "d": 1, "beta": {"1,2": 0.1}}))
    with pytest.raises(rd.InputFormatError):
        rd.load_parameters(path)


def test_design_round_trip(tmp_path):
    w = rd.Design.from_weights(4, {"0110": 0.25, "0000": 0.75})
    path = tmp_path / "design.json"
    rd.save_design(w, path)
    back = rd.load_design(path)
    assert back.k == 4
    assert back.weights == w.weights


def test_design_k_cross_check(tmp_path):
    path = tmp_path / "design.json"
    path.write_text(json.dumps({"k": 3, "weights": {"000": 1.0}}))
    with pytest.raises(rd.InputFormatError):
        rd.load_design(path, k=2)


def test_design_weight_validation(tmp_path):
    path = tmp_path / "design.json"
    path.write_text(json.dumps({"k": 2, "weights": {"00": 0.4, "11": 0.4}}))
    with pytest.raises(rd.InputFormatError):
        rd.load_design(path)


@pytest.mark.parametrize("design", [
    rd.Design.uniform(1), rd.Design.uniform(11), rd.Design(3, {5: 1.0}),
    rd.Design(4, {0: 0.25, 3: 0.5, 15: 0.25}), rd.Design(6, {1: 0.1, 2: 0.2, 63: 0.7}),
], ids=["uniform-1", "uniform-11", "point", "three-points", "uneven"])
def test_save_design_writes_the_bytes_of_write_json(design, tmp_path):
    save_design(design, tmp_path / "streamed.json")
    write_json(tmp_path / "whole.json", {"k": design.k, "weights": design.as_dict()})
    assert (tmp_path / "streamed.json").read_bytes() == (tmp_path / "whole.json").read_bytes()
    assert json.loads((tmp_path / "streamed.json").read_text())["k"] == design.k


def test_save_design_of_many_blocks(tmp_path):
    rng = np.random.default_rng(3)
    support = rng.choice(1 << 14, 5 * _BLOCK + 7, replace=False)
    weights = rng.random(support.size)
    design = rd.Design(14, dict(zip(support.tolist(), (weights / weights.sum()).tolist())))
    save_design(design, tmp_path / "streamed.json")
    write_json(tmp_path / "whole.json", {"k": design.k, "weights": design.as_dict()})
    assert (tmp_path / "streamed.json").read_bytes() == (tmp_path / "whole.json").read_bytes()
