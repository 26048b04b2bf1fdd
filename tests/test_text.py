"""Block text kernels: each row's bytes equal the Python formatting they replace."""

import contextlib
import io
import math
import sys

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import raschdesign as rd
from raschdesign import _text
from raschdesign._lattice import corner_index, corner_labels
from raschdesign.cli import main
from raschdesign.regions import _VERDICTS, _slice_grid


def lines(rows):
    """The text of each row of a field, without its padding."""
    return _text.join(rows, b"\x1e").decode().split("\x1e")[:-1]


def g12_lines(values):
    return lines(_text.g12(np.asarray(values, dtype=float)))


def python_g12(values):
    return ["%.12g" % v for v in np.asarray(values, dtype=float).tolist()]


class TestG12:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=40))
    def test_equals_python_for_any_float(self, values):
        assert g12_lines(values) == python_g12(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=60))
    def test_equals_python_for_any_bit_pattern(self, patterns):
        # uniform over bit patterns: both signs, every exponent, subnormals,
        # infinities and nans with any payload
        values = np.array(patterns, dtype=np.uint64).view(float)
        assert g12_lines(values) == python_g12(values)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-330, 310), st.integers(1, 10**12 - 1), st.booleans())
    def test_equals_python_at_twelve_digit_boundaries(self, exponent, digits, negative):
        # a 12-digit decimal and the floats next to it, at any decimal exponent
        value = float(f"{'-' if negative else ''}{digits}e{exponent - 11}")
        values = [value, math.nextafter(value, -math.inf), math.nextafter(value, math.inf)]
        assert g12_lines(values) == python_g12(values)

    def test_edge_list(self):
        powers = [float(f"1e{q}") for q in range(-323, 309)]
        edges = [
            *powers, *(math.nextafter(p, 0.0) for p in powers),
            *(math.nextafter(p, math.inf) for p in powers),
            999999999999.5, 9.9999999999995, 0.000099999999999995, 1e16,
            5e-324, sys.float_info.max, sys.float_info.min, 0.0, -0.0,
            math.inf, -math.inf, math.nan, 0.5, 123456789012.0, 1234567890123.0,
            0.0001, 0.00001, 99999999999.95, 1.5e-5,
        ]
        values = [*edges, *(-v for v in edges)]
        assert g12_lines(values) == python_g12(values)

    @pytest.mark.parametrize("n", [1, _text.PASS, 2 * _text.PASS + 3])
    def test_passes_and_end_byte(self, n):
        values = -np.exp(np.random.default_rng(n).uniform(-40, 40, n))
        rows = _text.g12(values, end=b",")
        assert _text.join(rows) == "".join(v + "," for v in python_g12(values)).encode()


class TestSetRows:
    @pytest.mark.parametrize("sep", [b",", b",\n        "])
    def test_matches_joined_labels(self, sep):
        masks = corner_index(rd.InteractionModel(8, 3))
        expected = [sep.decode().join(map(str, c)) for c in corner_labels(8, 3)]
        assert lines(_text.set_rows(masks, 8, sep)) == expected

    def test_every_set_at_k_20_spells_its_rules(self):
        masks = np.random.default_rng(20).integers(1, 1 << 20, 3000)
        expected = [",".join(map(str, rd.mask_subset(int(x)))) for x in masks]
        assert lines(_text.set_rows(masks, 20, b",")) == expected


class TestOtherFields:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1,
                    max_size=30))
    def test_repr_rows_are_float_reprs(self, values):
        # -0.0 and 0.0 are distinct values here, though they compare equal
        values = values + [-v for v in values]
        assert lines(_text.repr_rows(values)) == [float.__repr__(v) for v in values]

    def test_join_lays_fields_and_separators_side_by_side(self):
        left = _text.text_rows([b"a", b"bcd", b""])
        right = _text.text_rows([b"12", b"3", b"45"])
        assert _text.join(b"<", left, b"|", right, b">\n") == b"<a|12>\n<bcd|3>\n<|45>\n"


def test_region_slice_csv_equals_python_formatting(tmp_path):
    # values from 1e-30 to 1e22: fixed and scientific notation, both ways
    s_grid = np.geomspace(0.001, 3.0, 45)
    t_grid = np.geomspace(0.2, 2.5, 50)
    m = rd.InteractionModel(12, 2)
    out = tmp_path / "slice.csv"
    result = CliRunner().invoke(main, [
        "region-slice", "--k", "12", "--d", "2",
        "--s-grid", ",".join(map(repr, s_grid.tolist())),
        "--t-grid", ",".join(map(repr, t_grid.tolist())), "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    expected = ["s,t," + ",".join(f"lhs_{c}" for c in range(3, 13)) + ",binding_c,verdict"]
    notation = set()
    for ss, tt, values, binding, verdict in _slice_grid(m, s_grid, t_grid):
        for j, point in enumerate(values.T.tolist()):
            notation.update("e" in "%.12g" % v for v in point)
            expected.append(",".join([
                "%.12g" % ss[j], "%.12g" % tt[j], *("%.12g" % v for v in point),
                str(binding[j]), _VERDICTS[verdict[j]],
            ]))
    assert notation == {True, False}
    assert out.read_text() == "\n".join(expected) + "\n"


def test_cli_import_loads_no_text_module(fresh_python):
    out = fresh_python("-c", "import raschdesign.cli, sys; print('raschdesign._text' in sys.modules)")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_listing_goes_to_a_text_only_stdout():
    # an in-process caller may swap stdout for a stream with no binary buffer
    argv = ["inequalities", "--k", "5", "--d", "2", "--symmetric", "s=0.5556,t=0.8"]
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        main.main(argv, prog_name="raschdesign", standalone_mode=False)
    assert captured.getvalue() == CliRunner().invoke(main, argv).output
    assert captured.getvalue().startswith("C={1,2,3}  lhs=")
