import hashlib

import numpy as np
import pytest

from hamlv.model import (InteractionSystem, NetworkTopology, SignPattern,
                         classify_signs, connectance, generate_scale_free,
                         overlap_count, powerlaw_exponent)


def make_system(r, rbar, A, B, **kw):
    return InteractionSystem(r=r, rbar=rbar, A=A, B=B, **kw)


class TestSignClassification:
    def test_pp(self):
        sys = make_system([1.0], [1.0], [[1.0]], [[1.0]])
        assert classify_signs(sys) is SignPattern.PP

    def test_mf(self):
        sys = make_system([-1.0], [1.0], [[1.0]], [[-1.0]])
        assert classify_signs(sys) is SignPattern.MF

    def test_mo(self):
        sys = make_system([1.0], [-1.0], [[1.0]], [[-1.0]])
        assert classify_signs(sys) is SignPattern.MO

    def test_competition(self):
        sys = make_system([1.0], [1.0], [[-1.0]], [[1.0]])
        assert classify_signs(sys) is SignPattern.C

    def test_mixed_interaction_signs(self):
        sys = make_system([1.0, 1.0], [1.0], [[1.0], [-1.0]], [[1.0, 1.0]])
        assert classify_signs(sys) is SignPattern.MIXED

    def test_zero_entries_count_as_weak(self):
        sys = make_system([1.0, 1.0], [1.0], [[1.0], [0.0]], [[0.0, 1.0]])
        assert classify_signs(sys) is SignPattern.PP

    def test_invariant_under_positive_rescaling(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n, m = rng.integers(1, 4, size=2)
            sys = make_system(rng.normal(size=n), rng.normal(size=m),
                              rng.normal(size=(n, m)), rng.normal(size=(m, n)))
            scale = float(rng.uniform(0.1, 10.0))
            scaled = make_system(scale * sys.r, scale * sys.rbar,
                                 scale * sys.A, scale * sys.B)
            assert classify_signs(sys) is classify_signs(scaled)


class TestInteractionSystem:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            make_system([1.0, 2.0], [1.0], [[1.0]], [[1.0]])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            make_system([np.nan], [1.0], [[1.0]], [[1.0]])

    def test_limitation_free_predicate(self):
        free = make_system([1.0], [1.0], [[1.0]], [[1.0]])
        assert free.is_limitation_free()
        limited = make_system([1.0], [1.0], [[1.0]], [[1.0]], Gamma=[[0.1]])
        assert not limited.is_limitation_free()

    def test_json_round_trip(self, tmp_path):
        sys = make_system([1.0, 2.0], [3.0], [[1.0], [0.5]], [[2.0, 0.0]],
                          Gamma=[[0.1, 0.0], [0.0, 0.2]], D=[[0.3]])
        path = tmp_path / "sys.json"
        sys.save(path)
        loaded = InteractionSystem.load(path)
        for name in ("r", "rbar", "A", "B", "Gamma", "D"):
            np.testing.assert_array_equal(getattr(sys, name),
                                          getattr(loaded, name))

    def test_saved_bytes(self, tmp_path):
        # N, M and every field, with arrays as lists
        sys = make_system([1.0, 2.0], [3.0], [[1.0], [0.5]], [[2.0, 0.0]],
                          Gamma=[[0.1, 0.0], [0.0, 0.2]], D=[[0.3]])
        path = tmp_path / "sys.json"
        sys.save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "d6c33b9878c7a3da1b4952d1109663b0a15f6a708df8b2f6be0fe15c72975b81")

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"N": 1, "M": 1, "r": [1.0]}')
        with pytest.raises(ValueError, match="rbar"):
            InteractionSystem.load(path)

    def test_malformed_file_names_the_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[]")
        with pytest.raises(ValueError, match="must be a JSON object"):
            InteractionSystem.load(path)
        path.write_text('{"N": null, "M": 1, "r": [1.0], "rbar": [1.0], '
                        '"A": [[1.0]], "B": [[1.0]]}')
        with pytest.raises(ValueError, match="missing field 'N'"):
            InteractionSystem.load(path)
        path.write_text('{"N": 1, "M": 1, "r": [1.0], "rbar": [1.0], '
                        '"A": [[1.0]], "B": [["x"]]}')
        with pytest.raises(ValueError, match="'B' must be a number"):
            InteractionSystem.load(path)


class TestConnectance:
    def test_three_nodes_two_edges(self):
        top = NetworkTopology(n_nodes=3, edges=frozenset({(0, 1), (1, 2)}))
        assert connectance(top) == pytest.approx(2.0 / 3.0)

    def test_complete_graph(self):
        k = 6
        edges = frozenset((i, j) for i in range(k) for j in range(i + 1, k))
        assert connectance(NetworkTopology(n_nodes=k, edges=edges)) == 1.0

    def test_empty(self):
        assert connectance(NetworkTopology(n_nodes=4)) == 0.0

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            connectance(NetworkTopology(n_nodes=1))

    def test_range_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
            take = rng.random(len(possible)) < 0.4
            edges = frozenset(e for e, t in zip(possible, take) if t)
            assert 0.0 <= connectance(NetworkTopology(n_nodes=n, edges=edges)) <= 1.0


class TestTopologyInvariants:
    def test_no_self_loops(self):
        with pytest.raises(ValueError):
            NetworkTopology(n_nodes=3, edges=frozenset({(1, 1)}))

    def test_duplicate_edges_collapse(self):
        top = NetworkTopology(n_nodes=3, edges=frozenset({(0, 1), (1, 0)}))
        assert top.n_edges == 1

    def test_edge_file_round_trip(self, tmp_path):
        top = generate_scale_free(30, 2, seed=5)
        path = tmp_path / "edges.txt"
        top.save_edges(path)
        loaded = NetworkTopology.load_edges(path, n_nodes=30)
        assert loaded.edges == top.edges


class TestScaleFree:
    def test_saturated_attachment_gives_complete_graph(self):
        top = generate_scale_free(5, 4, seed=0)
        assert top.n_edges == 10  # K5

    def test_edge_count_formula(self):
        for n, m, seed in ((50, 2, 1), (200, 3, 2), (77, 1, 3)):
            top = generate_scale_free(n, m, seed)
            expected = (m + 1) * m // 2 + (n - m - 1) * m
            assert top.n_edges == expected

    def test_determinism(self):
        a = generate_scale_free(300, 2, seed=42)
        b = generate_scale_free(300, 2, seed=42)
        assert a.edges == b.edges
        c = generate_scale_free(300, 2, seed=43)
        assert c.edges != a.edges

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            generate_scale_free(3, 3, seed=0)
        with pytest.raises(ValueError):
            generate_scale_free(10, 0, seed=0)

    def test_tail_exponent_in_range(self):
        # oracle: independent log-log regression on the tail CCDF; MLE and
        # regression must agree on an exponent in the scale-free band
        top = generate_scale_free(1000, 2, seed=42)
        degrees = top.degrees()
        s_mle = powerlaw_exponent(degrees, x_min=5)
        assert 2.0 < s_mle < 3.5

        tail = np.sort(degrees[degrees >= 5])
        ccdf = 1.0 - np.arange(tail.size) / tail.size
        keep = ccdf > 0
        slope = np.polyfit(np.log(tail[keep]), np.log(ccdf[keep]), 1)[0]
        s_regression = 1.0 - slope
        assert 1.8 < s_regression < 3.7
        assert abs(s_regression - s_mle) < 1.0


class TestOverlap:
    def test_single_hub_star(self):
        edges = frozenset((0, i) for i in range(1, 8))
        top = NetworkTopology(n_nodes=8, edges=edges)
        assert overlap_count(top, [0]) == 0

    def test_two_hubs_sharing_one_leaf(self):
        edges = frozenset({(0, 2), (1, 2), (0, 3), (1, 4)})
        top = NetworkTopology(n_nodes=5, edges=edges)
        assert overlap_count(top, [0, 1]) == 1

    def test_scale_free_overlap_small(self):
        # oracle: exhaustive adjacency scan, independent of the implementation
        top = generate_scale_free(1000, 2, seed=42)
        degrees = top.degrees()
        hubs = list(np.argsort(degrees)[-5:])
        neigh = {h: top.neighbors(h) for h in hubs}
        expected = 0
        for node in range(top.n_nodes):
            if node in hubs:
                continue
            expected += sum(node in neigh[h] for h in hubs) >= 2
        got = overlap_count(top, hubs)
        assert got == expected
        assert got < top.n_nodes / 10

    def test_invalid_hub(self):
        top = NetworkTopology(n_nodes=3, edges=frozenset({(0, 1)}))
        with pytest.raises(ValueError):
            overlap_count(top, [7])
