import math

import numpy as np
import pytest

from percwalk import _kernels, graph
from percwalk.graph import (
    Graph,
    graph_from_spec,
    make_complete,
    make_lattice2d,
    make_ring,
    read_edge_file,
    rng_from_seed,
    sample_keep_bits,
    write_edge_file,
)

from helpers import count_lattice_edges, enumerate_realizations, traced_peak

# uniforms per block of ``sample_keep_bits``, a quarter of BLOCK_BYTES of float64: a block ends
# inside a row of 180 edges, and a ring of DRAW_BLOCK + 5 nodes has rows wider than one block
DRAW_BLOCK = _kernels.BLOCK_BYTES // 32


class TestGenerators:
    def test_ring4_edges(self):
        g = make_ring(4)
        assert set(g.edges) == {(0, 1), (1, 2), (2, 3), (3, 0)}
        assert g.edge_count == 4

    def test_ring15_degrees(self):
        g = make_ring(15)
        assert g.node_count == 15
        assert g.edge_count == 15
        assert np.all(g.degrees() == 2)

    def test_ring2_single_edge(self):
        g = make_ring(2)
        assert g.edges == ((0, 1),)
        assert g.edge_count == 1

    def test_ring_too_small(self):
        with pytest.raises(ValueError):
            make_ring(1)

    def test_lattice_10x10(self):
        g = make_lattice2d(10, 10)
        assert g.node_count == 100
        assert g.edge_count == 180
        assert g.edge_count == count_lattice_edges(10, 10)

    def test_lattice_1x1(self):
        g = make_lattice2d(1, 1)
        assert g.node_count == 1
        assert g.edge_count == 0

    def test_lattice_2x2(self):
        g = make_lattice2d(2, 2)
        assert g.node_count == 4
        assert g.edge_count == count_lattice_edges(2, 2) == 4

    @pytest.mark.parametrize("w,h", [(3, 2), (5, 4), (1, 7)])
    def test_lattice_counts_match_bruteforce(self, w, h):
        assert make_lattice2d(w, h).edge_count == count_lattice_edges(w, h)

    def test_lattice_node_indexing(self):
        g = make_lattice2d(3, 2)
        # node r*width+c: (0,1),(1,2) horizontal in row 0; (0,3) vertical
        assert (0, 1) in g.edges and (1, 2) in g.edges and (0, 3) in g.edges

    def test_lattice_zero_dimension(self):
        with pytest.raises(ValueError):
            make_lattice2d(0, 3)

    def test_complete_counts(self):
        assert make_complete(15).edge_count == 105
        assert make_complete(2).edge_count == 1
        g4 = make_complete(4)
        assert g4.edge_count == 6
        assert np.all(g4.degrees() == 3)

    def test_complete_too_small(self):
        with pytest.raises(ValueError):
            make_complete(1)

    @pytest.mark.parametrize(
        "g",
        [make_ring(7), make_lattice2d(4, 5), make_complete(6), make_ring(2)],
        ids=["ring7", "lattice4x5", "complete6", "ring2"],
    )
    def test_handshake_identity(self, g):
        assert g.degrees().sum() == 2 * g.edge_count


class TestGraphValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(node_count=3, edges=((0, 0),))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(node_count=3, edges=((0, 1), (1, 0)))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(node_count=2, edges=((0, 5),))

    def test_edge_array_matches_order(self):
        g = make_ring(5)
        assert g.edge_array.shape == (5, 2)
        assert [tuple(e) for e in g.edge_array] == list(g.edges)


class TestRealization:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            sample_keep_bits(make_ring(4), 1.5, rng_from_seed(0))
        with pytest.raises(ValueError):
            rng_from_seed(-1)


class TestSampling:
    def test_lambda_one_all_edges(self):
        g = make_ring(6)
        assert np.all(sample_keep_bits(g, 1.0, rng_from_seed(0), steps=20) == 1)

    def test_lambda_zero_no_edges(self):
        g = make_ring(6)
        assert np.all(sample_keep_bits(g, 0.0, rng_from_seed(0), steps=20) == 0)

    def test_mean_kept_count(self):
        # binomial mean N*lam = 2.0 for ring(4) at lam=0.5; tol 3 sigma/sqrt(M)
        g = make_ring(4)
        bits = sample_keep_bits(g, 0.5, rng_from_seed(123), steps=100_000)
        assert abs(bits.sum(axis=1).mean() - 2.0) < 0.02

    def test_per_edge_frequency(self):
        g = make_ring(5)
        lam, m = 0.3, 20_000
        bits = sample_keep_bits(g, lam, rng_from_seed(7), steps=m)
        freq = bits.mean(axis=0)
        bound = 4 * math.sqrt(lam * (1 - lam) / m)
        assert np.all(np.abs(freq - lam) < bound)

    def test_seed_reproducibility(self):
        g = make_lattice2d(4, 4)
        a = sample_keep_bits(g, 0.4, rng_from_seed(42), steps=100)
        b = sample_keep_bits(g, 0.4, rng_from_seed(42), steps=100)
        assert np.array_equal(a, b)

    def test_bulk_matches_single_step_stream(self):
        g = make_ring(5)
        bulk = sample_keep_bits(g, 0.37, rng_from_seed(99), steps=30)
        rng = rng_from_seed(99)
        singles = np.concatenate([sample_keep_bits(g, 0.37, rng, steps=1) for _ in range(30)])
        assert np.array_equal(bulk, singles)

    @pytest.mark.parametrize("edges,steps", [
        (e, s) for e in (0, 1, 4, 180)
        for s in (0, 1, DRAW_BLOCK // max(e, 1) - 1, DRAW_BLOCK // max(e, 1), DRAW_BLOCK // max(e, 1) + 1, 10_003)
    ] + [(DRAW_BLOCK + 5, s) for s in (0, 1, 2, 3)])
    def test_blocked_draw_equals_the_one_shot_draw(self, edges, steps):
        g = {0: Graph(node_count=1, edges=()), 1: make_ring(2), 180: make_lattice2d(10, 10)}.get(edges)
        g = g or make_ring(edges)
        assert g.edge_count == edges
        for lam in (0.0, 0.37, 1.0):
            rng, one_shot = rng_from_seed(31), rng_from_seed(31)
            bits = sample_keep_bits(g, lam, rng, steps)
            want = (one_shot.random((steps, edges)) < lam).astype(np.uint8)
            assert bits.dtype == want.dtype and bits.shape == want.shape
            assert np.array_equal(bits, want)
            assert rng.bit_generator.state == one_shot.bit_generator.state

    def test_draw_keeps_a_byte_per_edge_step(self):
        # 10^5 steps of lattice2d:10x10: 18 MB of bits; the one-shot draw's uniforms peaked at 162 MB
        bits, peak = traced_peak(lambda: sample_keep_bits(make_lattice2d(10, 10), 0.5, rng_from_seed(1), 100_000))
        assert bits.nbytes == 18_000_000
        assert peak <= bits.nbytes + 2 * _kernels.BLOCK_BYTES

    def test_stream_split_independent(self):
        a = rng_from_seed(5, stream=0).random(8)
        b = rng_from_seed(5, stream=1).random(8)
        assert not np.allclose(a, b)
        assert np.array_equal(a, rng_from_seed(5, stream=0).random(8))


class TestEnumeration:
    def test_ring4_count_and_full_probability(self):
        g = make_ring(4)
        items = list(enumerate_realizations(g, 0.2))
        assert len(items) == 16
        full = dict(items)[0b1111]
        assert full == pytest.approx(0.2**4, abs=1e-15)

    def test_single_edge_two_outcomes(self):
        g = make_ring(2)
        items = dict(enumerate_realizations(g, 0.3))
        assert items == {0: pytest.approx(0.7), 1: pytest.approx(0.3)}

    @pytest.mark.parametrize("lam", [0.0, 0.2, 0.5, 0.9, 1.0])
    def test_probabilities_sum_to_one(self, lam):
        g = make_ring(6)
        total = sum(p for _, p in enumerate_realizations(g, lam))
        assert abs(total - 1.0) < 1e-12

    def test_masks_distinct_and_degeneracy(self):
        g = make_ring(5)
        masks = [m for m, _ in enumerate_realizations(g, 0.5)]
        assert len(set(masks)) == 2**5
        by_k = {}
        for m in masks:
            by_k[m.bit_count()] = by_k.get(m.bit_count(), 0) + 1
        for k, count in by_k.items():
            assert count == math.comb(5, k)


class TestEdgeFiles:
    def test_roundtrip(self, tmp_path):
        g = make_lattice2d(3, 3)
        path = tmp_path / "g.edges"
        write_edge_file(g, path)
        g2 = read_edge_file(path)
        assert g2.node_count == g.node_count
        assert g2.edges == g.edges

    def test_isolated_nodes_preserved(self, tmp_path):
        g = Graph(node_count=4, edges=((0, 1),))
        path = tmp_path / "g.edges"
        write_edge_file(g, path)
        assert read_edge_file(path).node_count == 4

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# a comment\nnodes 3\n\n0 1\n# another\n1 2\n")
        g = read_edge_file(path)
        assert g.edges == ((0, 1), (1, 2))

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\n")
        with pytest.raises(ValueError, match="nodes"):
            read_edge_file(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("nodes 3\n0 1 2\n")
        with pytest.raises(ValueError):
            read_edge_file(path)


class TestGraphSpecs:
    def test_ring_spec(self):
        assert graph_from_spec("ring:15").edge_count == 15

    def test_lattice_spec(self):
        g = graph_from_spec("lattice2d:10x10")
        assert g.node_count == 100 and g.edge_count == 180

    def test_complete_spec(self):
        assert graph_from_spec("complete:15").edge_count == 105

    def test_file_spec(self, tmp_path):
        path = tmp_path / "g.edges"
        write_edge_file(make_ring(4), path)
        assert graph_from_spec(f"file:{path}").edges == make_ring(4).edges

    @pytest.mark.parametrize("bad", ["ring", "ring:", "tree:4", "lattice2d:3", "lattice2d:3x"])
    def test_bad_specs(self, bad):
        with pytest.raises(ValueError):
            graph_from_spec(bad)
