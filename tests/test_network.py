import io

import numpy as np
import pytest

from commscale.network import (
    EdgeListError,
    WeightedAdjacency,
    binarize,
    load_edge_list,
    regularize,
)


def test_load_basic_triangle():
    text = "0 1 2.5\n0 2 1\n1 2 3\n"
    adj = load_edge_list(io.StringIO(text))
    expected = np.array([[0, 2.5, 1], [2.5, 0, 3], [1, 3, 0]])
    assert np.array_equal(adj.weights, expected)
    assert adj.n == 3


def test_load_skips_comments_blanks_and_crlf():
    text = "# header\n\n0 1 1\r\n   \n# tail comment\n1 2 4\n"
    adj = load_edge_list(io.StringIO(text))
    assert adj.weights[0, 1] == 1
    assert adj.weights[1, 2] == 4


def test_load_one_indexed():
    adj = load_edge_list(io.StringIO("1 2 7\n"), indexing=1)
    assert adj.n == 2
    assert adj.weights[0, 1] == 7
    assert adj.node_names == ("1", "2")
    assert adj.to_edge_list() == "0 1 7.0\n"
    assert np.array_equal(load_edge_list(io.StringIO(adj.to_edge_list())).weights, adj.weights)
    for bad in (-1, 2):
        with pytest.raises(ValueError, match="indexing must be 0 or 1"):
            load_edge_list(io.StringIO("1 2 7\n"), indexing=bad)


def test_duplicate_edges_accumulate():
    adj = load_edge_list(io.StringIO("0 1 1\n1 0 2\n0 0 1\n0 0 4\n"))
    assert adj.weights[0, 1] == adj.weights[1, 0] == 3
    assert adj.weights[0, 0] == 5


def test_self_loop_set_once():
    adj = load_edge_list(io.StringIO("0 0 5\n0 1 1\n"))
    assert adj.weights[0, 0] == 5


def test_negative_weight_reports_line_number():
    with pytest.raises(EdgeListError, match="line 2"):
        load_edge_list(io.StringIO("0 1 1\n1 2 -3\n"))


def test_malformed_line_reports_line_number():
    with pytest.raises(EdgeListError, match="line 1"):
        load_edge_list(io.StringIO("0 1\n"))
    for text, message in (("0 1 1\n0 x 1\n", "line 2: could not parse '0 x 1'"),
                          ("0 1 abc\n", "line 1: could not parse '0 1 abc'"),
                          ("0 1 1\n1 2 inf\n", "line 2: non-finite weight"),
                          ("0 1 nan\n", "line 1: non-finite weight")):
        with pytest.raises(EdgeListError, match=message):
            load_edge_list(io.StringIO(text))


def test_declared_n_pads_isolated_nodes():
    adj = load_edge_list(io.StringIO("0 1 1\n"), n=4)
    assert adj.n == 4
    assert adj.weights.sum(axis=1)[3] == 0


def test_declared_n_range_check():
    with pytest.raises(EdgeListError, match="out of declared range"):
        load_edge_list(io.StringIO("0 3 1\n"), n=2)
    with pytest.raises(EdgeListError, match="node id 0 below indexing base 1"):
        load_edge_list(io.StringIO("1 2 1\n0 2 1\n"), indexing=1)


def test_empty_list_needs_declared_n():
    adj = load_edge_list(io.StringIO("# no records\n\n"), indexing=1, n=3)
    assert np.array_equal(adj.weights, np.zeros((3, 3)))
    assert adj.node_names == ("1", "2", "3")
    with pytest.raises(EdgeListError, match="empty edge list"):
        load_edge_list(io.StringIO("# no records\n"))
    with pytest.raises(EdgeListError, match="at least 2 nodes"):
        load_edge_list(io.StringIO(""), n=1)


def test_all_zero_network_round_trips():
    adj = WeightedAdjacency(np.zeros((4, 4)))
    assert adj.to_edge_list() == "0 0 0.0\n1 1 0.0\n2 2 0.0\n3 3 0.0\n"
    for declared in (4, None):
        again = load_edge_list(io.StringIO(adj.to_edge_list()), n=declared)
        assert np.array_equal(again.weights, adj.weights)


def test_noncontiguous_ids_relabel_and_keep_names():
    adj = load_edge_list(io.StringIO("10 30 1\n30 20 2\n"))
    assert adj.n == 3
    assert adj.node_names == ("10", "20", "30")
    # 10->0, 20->1, 30->2 by sorted original id
    assert adj.weights[0, 2] == 1
    assert adj.weights[2, 1] == 2


def test_round_trip_is_bit_identical():
    rng = np.random.default_rng(3)
    w = np.triu(rng.random((6, 6)) * (rng.random((6, 6)) < 0.5), 1)
    w = w + w.T
    adj = WeightedAdjacency(w)
    again = load_edge_list(io.StringIO(adj.to_edge_list()), n=6)
    assert np.array_equal(adj.weights, again.weights)


def test_adjacency_validation():
    with pytest.raises(ValueError):
        WeightedAdjacency(np.ones((2, 3)))
    with pytest.raises(ValueError):
        WeightedAdjacency(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        WeightedAdjacency(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError):
        WeightedAdjacency(np.array([[np.nan, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        WeightedAdjacency(np.ones((1, 1)))
    with pytest.raises(ValueError, match="node_names length does not match matrix size"):
        WeightedAdjacency(np.ones((2, 2)), node_names=("a", "b", "c"))


def test_weights_are_read_only():
    adj = WeightedAdjacency(np.ones((2, 2)))
    with pytest.raises(ValueError):
        adj.weights[0, 0] = 3


def test_regularize():
    adj = WeightedAdjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))
    reg = regularize(adj, 0.25)
    assert np.array_equal(reg.weights, np.array([[0.25, 1.25], [1.25, 0.25]]))
    assert regularize(adj, 0.0) is adj
    with pytest.raises(ValueError):
        regularize(adj, -0.1)


def test_binarize_and_degrees():
    adj = WeightedAdjacency(np.array([[0.0, 3.5], [3.5, 2.0]]))
    flat = binarize(adj)
    assert np.array_equal(flat.weights, np.array([[0.0, 1.0], [1.0, 1.0]]))
    assert np.array_equal(adj.weights.sum(axis=1), np.array([3.5, 5.5]))
