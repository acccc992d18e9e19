import re

import numpy as np
import pytest

from linkbridge.errors import DataError
from linkbridge.graph import build_graph
from linkbridge.io import (
    _read_features_csv,
    graph_inputs,
    load_graph,
    read_graph,
    read_edge_tsv,
    read_features,
    read_scores_tsv,
    save_graph,
    write_edge_tsv,
    write_features_bin,
    write_features_csv,
    write_scores_tsv,
    write_sides_tsv,
)


def test_edge_tsv_round_trip(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("# comment\na\tb\t1999\nb\tc\n\nc\td\t2005\n")
    pairs, years = read_edge_tsv(path)
    assert pairs == [("a", "b"), ("b", "c"), ("c", "d")]
    assert years == [1999, None, 2005]
    out = tmp_path / "out.tsv"
    write_edge_tsv(out, pairs)
    pairs2, _ = read_edge_tsv(out)
    assert pairs2 == pairs


def test_edge_tsv_bad_rows(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("only_one_column\n")
    with pytest.raises(DataError):
        read_edge_tsv(path)
    path.write_text("a\tb\tnot_a_year\n")
    with pytest.raises(DataError):
        read_edge_tsv(path)


def test_features_csv_round_trip(tmp_path):
    keys = ["a", "b"]
    matrix = np.array([[1.25, -0.5], [0.0, 3.75]], dtype=np.float32)
    path = tmp_path / "features.csv"
    write_features_csv(path, keys, matrix)
    loaded = read_features(path)
    assert set(loaded) == {"a", "b"}
    assert loaded["a"].tolist() == [1.25, -0.5]
    assert loaded["b"].tolist() == [0.0, 3.75]


# +-0, +-FLT_MAX, FLT_MIN, the smallest subnormal and 2**24 + 1
_FLOAT32_EDGE_BITS = [0x00000000, 0x80000000, 0x7F7FFFFF, 0xFF7FFFFF,
                      0x00800000, 0x00000001, 0x4B800001]


def _read_back_bits(path, matrix):
    write_features_csv(path, [f"n{i}" for i in range(len(matrix))], matrix)
    keys, loaded = _read_features_csv(path)
    assert keys == [f"n{i}" for i in range(len(matrix))]
    assert loaded.dtype == np.float32
    return loaded.view(np.uint32)


def test_features_csv_reads_back_every_float32_bitwise(tmp_path):
    edge = np.array(_FLOAT32_EDGE_BITS, dtype=np.uint32).reshape(1, -1)
    assert np.array_equal(_read_back_bits(tmp_path / "edge.csv", edge.view(np.float32)), edge)
    bits = np.random.default_rng(0).integers(0, 2**32, size=120_000, dtype=np.uint32)
    bits = bits[np.isfinite(bits.view(np.float32))]
    bits = bits[: bits.size - bits.size % 16].reshape(-1, 16)
    assert bits.size >= 100_000
    assert np.array_equal(_read_back_bits(tmp_path / "random.csv", bits.view(np.float32)), bits)


def test_features_csv_writes_float64_matrices_as_their_float32_cast(tmp_path):
    matrix = np.random.default_rng(1).normal(0.0, 3.0, size=(500, 8))
    matrix[0, :4] = [0.1, 1.0 / 3.0, 2.0**-140, 3.0e38]
    want = matrix.astype(np.float32).view(np.uint32)
    assert np.array_equal(_read_back_bits(tmp_path / "f64.csv", matrix), want)


def test_features_csv_writes_float64_beyond_float32_range_as_a_refused_row(tmp_path):
    path = tmp_path / "features.csv"
    # pytest turns warnings into errors, so the cast to inf must not warn
    write_features_csv(path, ["a", "b"], np.array([[1.0, 2.0], [0.5, 1e39]]))
    assert path.read_text().splitlines()[1] == "b,0.5,inf"
    with pytest.raises(DataError, match=re.escape(f"{path}:2: feature values must be finite")):
        read_features(path)


def test_features_bin_round_trip(tmp_path):
    keys = ["n1", "n2", "n3"]
    matrix = np.arange(6, dtype=np.float32).reshape(3, 2)
    sidecar = tmp_path / "features.json"
    write_features_bin(sidecar, keys, matrix)
    loaded = read_features(sidecar)
    assert np.allclose(loaded["n2"], [2.0, 3.0])
    # header/blob mismatch detected
    (tmp_path / "features.bin").write_bytes(b"\x00" * 4)
    with pytest.raises(DataError):
        read_features(sidecar)


def test_graph_dir_round_trip(tmp_path):
    g = build_graph(
        [("a", "b"), ("b", "c")],
        features={"a": [1.0], "b": [2.0], "c": [3.0], "iso": [4.0]},
        sides={"a": 0, "b": 1, "c": 0, "iso": 1},
        extra_nodes=["iso"],
    )
    save_graph(g, tmp_path / "gdir")
    g2 = load_graph(tmp_path / "gdir")
    assert set(g2.keys) == set(g.keys)
    assert g2.num_edges == g.num_edges
    assert np.allclose(g2.features[g2.key_to_id["iso"]], [4.0])
    assert g2.sides[g2.key_to_id["b"]] == 1


def test_graph_dir_bin_features(tmp_path):
    g = build_graph([("a", "b")], features={"a": [1.0, 2.0], "b": [3.0, 4.0]})
    save_graph(g, tmp_path / "gdir", feature_format="bin")
    g2 = load_graph(tmp_path / "gdir")
    assert np.allclose(g2.features[g2.key_to_id["b"]], [3.0, 4.0])


def test_graph_inputs_are_the_files_load_graph_reads(tmp_path):
    write_edge_tsv(tmp_path / "g.tsv", [("a", "b")])
    assert graph_inputs(tmp_path / "g.tsv") == [tmp_path / "g.tsv"]
    write_features_bin(tmp_path / "g.features.json", ["a", "b"], np.eye(2))
    write_sides_tsv(tmp_path / "g.sides.tsv", ["a", "b"], np.array([0, 1]))
    assert graph_inputs(tmp_path / "g.tsv") == [
        tmp_path / name for name in
        ("g.tsv", "g.features.json", "g.keys", "g.bin", "g.sides.tsv")
    ]
    assert load_graph(tmp_path / "g.tsv").sides.tolist() == [0, 1]
    # a graph directory stands for every file in it
    save_graph(load_graph(tmp_path / "g.tsv"), tmp_path / "gdir")
    assert graph_inputs(tmp_path / "gdir") == [tmp_path / "gdir"]
    with pytest.raises(DataError, match="no such edge list"):
        graph_inputs(tmp_path / "missing.tsv")


def test_load_graph_file_with_sibling_features(tmp_path):
    write_edge_tsv(tmp_path / "source.tsv", [("a", "b")])
    write_features_csv(tmp_path / "source.features.csv", ["a", "b"], np.eye(2))
    g = load_graph(tmp_path / "source.tsv")
    assert g.features is not None
    assert g.feature_dim == 2


def test_load_graph_missing(tmp_path):
    with pytest.raises(DataError):
        load_graph(tmp_path / "nope.tsv")
    (tmp_path / "emptydir").mkdir()
    with pytest.raises(DataError):
        load_graph(tmp_path / "emptydir")


def test_scores_tsv_round_trip(tmp_path):
    pairs = [("a", "b"), ("c", "d")]
    scores = np.array([0.125, -3.5])
    path = tmp_path / "scores.tsv"
    write_scores_tsv(path, pairs, scores)
    table = read_scores_tsv(path)
    assert table[("a", "b")] == 0.125
    assert table[("c", "d")] == -3.5


@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-Infinity"])
def test_scores_tsv_non_finite_score_names_its_line(tmp_path, value):
    path = tmp_path / "scores.tsv"
    path.write_text(f"a\tb\t0.5\nc\td\t{value}\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:2: non-finite score")):
        read_scores_tsv(path)


@pytest.mark.parametrize("second", ["a\tb", "b\ta"])
def test_scores_tsv_repeated_pair_names_both_lines(tmp_path, second):
    """A pair scored twice, in either order, does not let the later score
    win silently."""
    path = tmp_path / "scores.tsv"
    path.write_text(f"# u v score\na\tb\t0.1\nc\td\t0.5\n{second}\t0.9\n")
    with pytest.raises(DataError, match=re.escape(
            f"{path}:4: pair ('a', 'b') repeats line 2")):
        read_scores_tsv(path)


@pytest.mark.parametrize("value", ["nan", "-inf", "Infinity", "1e39"])
def test_features_csv_non_finite_value_names_its_line(tmp_path, value):
    # 1e39 is finite in float64 but beyond float32's range
    path = tmp_path / "features.csv"
    path.write_text(f"# header\na,1.0,2.0\nb,0.5,{value}\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:3: feature values must be finite")):
        read_features(path)


@pytest.mark.parametrize("side", ["2", "-1"])
def test_sides_tsv_value_other_than_0_or_1_names_its_line(tmp_path, side):
    write_edge_tsv(tmp_path / "g.tsv", [("a", "b")])
    path = tmp_path / "g.sides.tsv"
    path.write_text(f"a\t0\nb\t{side}\n")
    with pytest.raises(DataError, match=re.escape(
            f"{path}:2: side of node 'b' is {side}, not 0 or 1")):
        load_graph(tmp_path / "g.tsv")


def test_features_bin_non_finite_value_names_its_row(tmp_path):
    matrix = np.arange(6, dtype=np.float32).reshape(3, 2)
    matrix[2, 1] = np.nan
    sidecar = tmp_path / "features.json"
    write_features_bin(sidecar, ["n1", "n2", "n3"], matrix)
    with pytest.raises(DataError, match=r"features.bin: row 2 \(node 'n3'\) holds a non-finite"):
        read_features(sidecar)


def test_features_csv_rows_of_another_length_name_their_line(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text("a,1.0,2.0\nb,1.0\n")
    message = f"{path}:2: 1 feature values, the first row has 2"
    with pytest.raises(DataError, match=re.escape(message)):
        read_features(path)


def test_repeated_feature_key_keeps_its_first_position_and_last_row(tmp_path):
    first, second = tmp_path / "one.csv", tmp_path / "two.csv"
    first.write_text("b,1.0\na,2.0\nb,3.0\n")
    second.write_text("c,4.0\na,5.0\n")
    (tmp_path / "edges.tsv").write_text("a\tc\n")
    g = read_graph([tmp_path / "edges.tsv"], [first, second], None)
    assert g.keys == ("a", "c", "b")
    assert g.features[:, 0].tolist() == [5.0, 4.0, 3.0]
    loaded = read_features(first)
    assert list(loaded) == ["b", "a"] and loaded["b"].tolist() == [3.0]


def test_feature_files_of_two_dimensions_are_refused(tmp_path):
    first, second = tmp_path / "one.csv", tmp_path / "two.csv"
    first.write_text("a,1.0\n")
    second.write_text("b,1.0,2.0\n")
    (tmp_path / "edges.tsv").write_text("a\tb\n")
    with pytest.raises(DataError, match=r"inconsistent feature dimensions: \[1, 2\]"):
        read_graph([tmp_path / "edges.tsv"], [first, second], None)


def test_text_writers_match_per_value_formatting(tmp_path):
    keys = ["a", "b"]
    matrix = np.array([[0.1, -2.5e-8], [1e30, 3.0]], dtype=np.float32)
    write_features_csv(tmp_path / "f.csv", keys, matrix)
    want = "".join(k + "," + ",".join("%.9g" % float(x) for x in row) + "\n"
                   for k, row in zip(keys, matrix))
    assert (tmp_path / "f.csv").read_text() == want
    pairs = [("a", "b"), ("c", "d")]
    write_edge_tsv(tmp_path / "e.tsv", pairs)
    assert (tmp_path / "e.tsv").read_text() == "a\tb\nc\td\n"
    scores = np.array([0.1, -3.0], dtype=np.float32)
    write_scores_tsv(tmp_path / "s.tsv", pairs, scores)
    assert (tmp_path / "s.tsv").read_text() == "".join(
        f"{a}\t{b}\t{float(s)!r}\n" for (a, b), s in zip(pairs, scores))
