import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherefit._files import read_csv, write_csv, write_json

EDGE_FLOATS = np.array([-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3, -2.5, 7.0])


def per_row(header, rows):
    """The per-row writer the CSV files had before: each value formatted on its
    own, numbers as %.17g, strings as they are."""
    lines = [header] + [
        ",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row) for row in rows
    ]
    return "\n".join(lines) + "\n"


class TestWriteCsv:
    def test_numpy_floats_and_ints_match_the_per_row_writer(self, tmp_path):
        k = np.arange(EDGE_FLOATS.size)
        path = tmp_path / "a.csv"
        write_csv(path, "k,x,y", [k, EDGE_FLOATS, -EDGE_FLOATS])
        expected = per_row("k,x,y", zip(k, EDGE_FLOATS, -EDGE_FLOATS))
        assert path.read_bytes() == expected.encode()
        assert path.read_text().splitlines()[1] == "0,-0,0"

    def test_mixed_columns_match_the_per_row_writer(self, tmp_path):
        # the experiment curves: int index, method name, float error
        rows = [(0, "plain-ls", 0.1), (12, "bp", 1 / 3), (3, "best", 5e-324)]
        path = tmp_path / "curves.csv"
        write_csv(path, "sim_index,method,rel_error", zip(*rows))
        assert path.read_bytes() == per_row("sim_index,method,rel_error", rows).encode()

    def test_no_rows_writes_the_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(path, "sim_index,method,rel_error", zip(*[]))
        assert path.read_bytes() == b"sim_index,method,rel_error\n"

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_read_returns_every_finite_double_bit_for_bit(self, tmp_path_factory, data):
        n_rows = data.draw(st.integers(1, 20), label="rows")
        n_cols = data.draw(st.integers(1, 4), label="columns")
        floats = st.floats(allow_nan=False, allow_infinity=False)
        values = np.array(
            data.draw(st.lists(floats, min_size=n_rows * n_cols, max_size=n_rows * n_cols)),
            dtype=float,
        ).reshape(n_rows, n_cols)
        header = ",".join(f"c{i}" for i in range(n_cols))
        path = tmp_path_factory.mktemp("csv") / "values.csv"
        write_csv(path, header, values.T)
        back = read_csv(path, header)
        assert back.shape == values.shape
        assert back.tobytes() == values.tobytes()


class TestReadCsv:
    def test_names_compared_with_spaces_stripped(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text(" x1, x2 ,x3,value\r\n1,2,3,4\n")
        assert read_csv(path, "value", "x1,x2,x3,value").tolist() == [[1, 2, 3, 4]]

    def test_other_header_rejected_naming_the_expected_ones(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("v\n1\n")
        with pytest.raises(ValueError, match="header 'v', expected value or x1,x2,x3,value"):
            read_csv(path, "value", "x1,x2,x3,value")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("body", ["", "\n", "\n  \n"])
    def test_header_without_rows_rejected(self, tmp_path, body):
        path = tmp_path / "a.csv"
        path.write_text("k,j,value\n" + body)
        with pytest.raises(ValueError, match="header k,j,value and no rows"):
            read_csv(path, "k,j,value")

    def test_column_count_must_match_the_header(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("x1,x2,x3,w\n1,2,3\n4,5,6\n")
        with pytest.raises(ValueError, match="3 columns under the header x1,x2,x3,w"):
            read_csv(path, "x1,x2,x3,w")

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("k,j,value\n0,1,1\n1,1\n")
        with pytest.raises(ValueError):
            read_csv(path, "k,j,value")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="expected k,j,value"):
            read_csv(path, "k,j,value")


def test_write_json_layout(tmp_path):
    path = tmp_path / "a.json"
    write_json({"b": 1, "a": [0.1, True]}, path)
    assert path.read_text() == '{\n  "a": [\n    0.1,\n    true\n  ],\n  "b": 1\n}\n'
