import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquefarm.graph import (
    DimacsParseError,
    Graph,
    GraphError,
    brute_force_omega,
    degree_sort,
    generate_gnp,
    is_clique,
    load_dimacs,
    parse_dimacs,
    to_dimacs,
)

from conftest import complete_graph, cycle_graph, empty_graph, path_graph, star_graph


class TestParseDimacs:
    def test_triangle(self):
        g = parse_dimacs("p edge 3 3\ne 1 2\ne 2 3\ne 1 3")
        assert g.n == 3
        assert g.degree == [2, 2, 2]

    def test_duplicate_edges_collapse(self):
        g = parse_dimacs("p edge 4 2\ne 1 2\ne 1 2")
        assert g.edge_count() == 1

    def test_vertex_out_of_range(self):
        with pytest.raises(DimacsParseError, match="line 2.*out of range"):
            parse_dimacs("p edge 2 1\ne 2 3")

    def test_comments_ignored(self):
        g = parse_dimacs("c hello\nc world\np edge 2 1\ne 1 2")
        assert g.adj[0] >> 1 & 1

    def test_missing_p_line(self):
        with pytest.raises(DimacsParseError, match="missing p line"):
            parse_dimacs("c nothing here")

    def test_e_before_p(self):
        with pytest.raises(DimacsParseError, match="line 1"):
            parse_dimacs("e 1 2\np edge 2 1")

    def test_duplicate_p_line(self):
        with pytest.raises(DimacsParseError, match="duplicate p"):
            parse_dimacs("p edge 2 1\np edge 2 1\ne 1 2")

    def test_self_loop_rejected(self):
        with pytest.raises(DimacsParseError, match="self-loop"):
            parse_dimacs("p edge 3 1\ne 2 2")

    def test_malformed_line_names_line_number(self):
        with pytest.raises(DimacsParseError, match="line 3"):
            parse_dimacs("p edge 3 2\ne 1 2\ne 1")

    def test_unknown_line_type(self):
        with pytest.raises(DimacsParseError, match="unrecognised"):
            parse_dimacs("p edge 2 1\nq 1 2")

    def test_comment_may_hold_any_byte(self, tmp_path):
        path = tmp_path / "g.clq"
        path.write_bytes("c café\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n".encode("utf-8"))
        assert load_dimacs(path) == complete_graph(3)

    def test_non_ascii_byte_on_an_edge_line_names_its_line(self, tmp_path):
        path = tmp_path / "g.clq"
        path.write_bytes(b"p edge 3 2\ne 1 2\ne 2 3\xe9\n")
        with pytest.raises(DimacsParseError, match="line 3: bad edge endpoints"):
            load_dimacs(path)

    def test_edge_count_advisory(self):
        # m on the p line is not validated
        g = parse_dimacs("p edge 3 99\ne 1 2")
        assert g.edge_count() == 1


class TestRoundTrip:
    def test_small_graphs(self):
        for g in [complete_graph(4), path_graph(5), cycle_graph(6), empty_graph(3)]:
            assert parse_dimacs(to_dimacs(g)) == g

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 20), p=st.floats(0, 1), seed=st.integers(0, 2**32))
    def test_random_graphs(self, n, p, seed):
        g = generate_gnp(n, p, seed)
        assert parse_dimacs(to_dimacs(g)) == g

    def test_serializer_includes_comment(self):
        text = to_dimacs(complete_graph(3), comment="three")
        assert text.startswith("c three\n")
        assert parse_dimacs(text) == complete_graph(3)


class TestFingerprint:
    def test_equal_graphs_equal_prints(self):
        g = generate_gnp(40, 0.3, 5)
        assert parse_dimacs(to_dimacs(g)).fingerprint() == g.fingerprint()

    def test_same_n_other_edges_differ(self):
        sparse, dense = generate_gnp(30, 0.5, 1), generate_gnp(30, 0.9, 2)
        assert sparse.fingerprint() != dense.fingerprint()
        assert path_graph(4).fingerprint() != star_graph(3).fingerprint()

    def test_isolated_vertex_counts(self):
        assert Graph(3, [(0, 1)]).fingerprint() != Graph(4, [(0, 1)]).fingerprint()


class TestGenerateGnp:
    def test_p_zero_empty(self):
        g = generate_gnp(5, 0.0, 123)
        assert g.edge_count() == 0
        assert brute_force_omega(g)[0] == 1

    def test_p_one_complete(self):
        g = generate_gnp(5, 1.0, 9)
        assert g == complete_graph(5)
        assert brute_force_omega(g)[0] == 5

    def test_deterministic(self):
        assert generate_gnp(50, 0.3, 7) == generate_gnp(50, 0.3, 7)

    def test_seed_changes_graph(self):
        assert generate_gnp(50, 0.3, 7) != generate_gnp(50, 0.3, 8)

    def test_bad_arguments(self):
        with pytest.raises(GraphError):
            generate_gnp(0, 0.5, 1)
        with pytest.raises(GraphError):
            generate_gnp(5, 1.5, 1)
        with pytest.raises(GraphError):
            generate_gnp(5, -0.1, 1)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 40), p=st.floats(0, 1), seed=st.integers(0, 2**32))
    def test_invariants(self, n, p, seed):
        g = generate_gnp(n, p, seed)
        for v in range(g.n):
            assert not g.adj[v] >> v & 1  # irreflexive
            assert g.degree[v] == g.adj[v].bit_count()
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert g.adj[u] >> v & 1 == g.adj[v] >> u & 1


class TestDegreeSort:
    def test_star_centre_first(self):
        order = degree_sort(star_graph(3))
        assert order[0] == 0

    def test_complete_graph_index_tiebreak(self):
        assert degree_sort(complete_graph(4)) == [0, 1, 2, 3]

    def test_path_hand_case(self):
        # degrees (1,2,2,1) so the middle vertices lead, ties by index
        assert degree_sort(path_graph(4)) == [1, 2, 0, 3]

    def test_permutation_and_monotone(self):
        g = generate_gnp(30, 0.4, 3)
        order = degree_sort(g)
        assert sorted(order) == list(range(30))
        degrees = [g.degree[v] for v in order]
        assert degrees == sorted(degrees, reverse=True)


class TestIsClique:
    def test_subset_of_k5(self, k5):
        assert is_clique(k5, [0, 1, 2])

    def test_non_adjacent_pair(self):
        assert not is_clique(path_graph(3), [0, 2])

    def test_vacuous(self, k5):
        assert is_clique(k5, [])
        assert is_clique(k5, [3])

    def test_vertex_outside_graph(self, k5):
        with pytest.raises(GraphError):
            is_clique(k5, [0, 7])


class TestBruteForce:
    def test_empty_graph(self):
        size, witness = brute_force_omega(empty_graph(6))
        assert size == 1
        assert len(witness) == 1

    def test_five_cycle_triangle_free(self, c5):
        size, witness = brute_force_omega(c5)
        assert size == 2
        assert is_clique(c5, witness)

    def test_witness_is_clique_and_maximum(self):
        g = generate_gnp(12, 0.5, 11)
        size, witness = brute_force_omega(g)
        assert len(witness) == size
        assert is_clique(g, witness)
        # no larger clique exists: every (size+1)-subset fails
        from itertools import combinations

        assert not any(
            is_clique(g, s) for s in combinations(range(g.n), size + 1)
        )

    def test_guard(self):
        with pytest.raises(GraphError, match="limited to 32"):
            brute_force_omega(empty_graph(33))
