import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquefarm.core import SearchContext, colour_sort, expand, mc, renumber
from cliquefarm.graph import brute_force_omega, degree_sort, generate_gnp, is_clique

from conftest import complete_graph, cycle_graph, path_graph


# the sorted clique mc returns on each golden instance
GOLDEN_WITNESS = {
    (1000, 0.1, 0): [112, 180, 261, 262, 329, 602],
    (200, 0.5, 1): [19, 22, 35, 49, 64, 80, 93, 95, 119, 167, 173],
    (120, 0.9, 7): [
        5, 13, 14, 16, 18, 29, 30, 32, 36, 37, 39, 41, 42, 44, 48, 49,
        51, 56, 59, 60, 61, 67, 69, 73, 74, 76, 88, 89, 94, 107, 108, 117,
    ],
    (150, 0.9, 7): [
        0, 8, 9, 10, 11, 13, 17, 27, 31, 35, 36, 39, 43, 50, 58, 60, 61,
        70, 71, 72, 76, 81, 91, 93, 97, 102, 104, 106, 114, 117, 118, 121,
        131, 132, 142, 143, 145,
    ],
}


def colour_of(stack, colours):
    return dict(zip(stack, colours))


def greedy_colouring(p, g):
    """Vertex-by-vertex greedy colouring: each vertex of P in turn joins the
    first class holding none of its neighbours; the classes, in order, make
    the stack."""
    class_masks, class_members = [], []
    for v in p:
        for k in range(len(class_masks)):
            if not g.adj[v] & class_masks[k]:
                class_masks[k] |= 1 << v
                class_members[k].append(v)
                break
        else:
            class_masks.append(1 << v)
            class_members.append([v])
    stack = [v for members in class_members for v in members]
    colours = [k for k, members in enumerate(class_members, 1) for _ in members]
    return stack, colours


def colour_list(p, g):
    """colour_sort of the vertex list P in its given order, in g's ids: g is
    renumbered so that P comes first, in order, and P is the mask of those
    first len(P) ids."""
    rest = set(range(g.n)).difference(p)
    order = list(p) + sorted(rest)
    stack, colours = colour_sort((1 << len(p)) - 1, renumber(g, order))
    return [order[v] for v in stack], colours


def root_of(g):
    """expand's arguments at the root of mc's search: (P, adj)."""
    return (1 << g.n) - 1, renumber(g, degree_sort(g))


class TestColourSort:
    def test_empty(self, k5):
        assert colour_sort(0, k5.adj) == ([], [])

    def test_complete_graph_distinct_colours(self):
        k4 = complete_graph(4)
        stack, colours = colour_list([0, 1, 2, 3], k4)
        assert [colour_of(stack, colours)[v] for v in (0, 1, 2, 3)] == [1, 2, 3, 4]
        assert list(reversed(stack)) == [3, 2, 1, 0]

    def test_path_hand_case(self):
        # vertices 1..4 are internal 0..3; P = (2,3,1,4) is internal (1,2,0,3)
        g = path_graph(4)
        stack, colours = colour_list([1, 2, 0, 3], g)
        assert colours[-1] == 2
        colour = colour_of(stack, colours)
        assert {v for v, k in colour.items() if k == 1} == {1, 3}
        assert {v for v, k in colour.items() if k == 2} == {2, 0}
        assert list(reversed(stack)) == [0, 2, 3, 1]

    def test_pop_order_non_increasing_colour(self):
        g = generate_gnp(40, 0.5, 2)
        _, colours = colour_list(degree_sort(g), g)
        popped = list(reversed(colours))
        assert popped == sorted(popped, reverse=True)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 25), p=st.floats(0, 1), seed=st.integers(0, 10**6))
    def test_validity(self, n, p, seed):
        g = generate_gnp(n, p, seed)
        stack, colours = colour_list(degree_sort(g), g)
        assert sorted(stack) == list(range(n))  # permutation
        assert len(colours) == n
        assert sorted(set(colours)) == list(range(1, colours[-1] + 1))
        colour = colour_of(stack, colours)
        for u in stack:
            for v in stack:
                if g.adj[u] >> v & 1:
                    assert colour[u] != colour[v]

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 40),
        p=st.floats(0, 1),
        seed=st.integers(0, 10**6),
        data=st.data(),
    )
    def test_matches_vertex_by_vertex_greedy(self, n, p, seed, data):
        g = generate_gnp(n, p, seed)
        shuffled = data.draw(st.permutations(range(n)))
        subset = shuffled[: data.draw(st.integers(0, n))]
        assert colour_list(subset, g) == greedy_colouring(subset, g)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 40), p=st.floats(0, 1), seed=st.integers(0, 10**6), mask=st.integers(0))
    def test_mask_is_coloured_in_ascending_bit_order(self, n, p, seed, mask):
        g = generate_gnp(n, p, seed)
        mask &= (1 << n) - 1
        bits = [v for v in range(n) if mask >> v & 1]
        assert colour_sort(mask, g.adj) == greedy_colouring(bits, g)

    def test_bound_soundness(self):
        # the number of colours is an upper bound on the clique number of P
        for seed in range(10):
            g = generate_gnp(18, 0.6, seed)
            _, colours = colour_list(degree_sort(g), g)
            assert colours[-1] >= brute_force_omega(g)[0]

    def test_bound_soundness_on_induced_subsets(self):
        import random

        from cliquefarm.graph import Graph

        rng = random.Random(0)
        for seed in range(10):
            g = generate_gnp(20, 0.6, seed)
            subset = sorted(rng.sample(range(g.n), 12))
            _, colours = colour_list([v for v in degree_sort(g) if v in subset], g)
            induced = Graph(
                len(subset),
                [
                    (i, j)
                    for i in range(len(subset))
                    for j in range(i + 1, len(subset))
                    if g.adj[subset[i]] >> subset[j] & 1
                ],
            )
            assert colours[-1] >= brute_force_omega(induced)[0]


class TestRenumber:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 40), p=st.floats(0, 1), seed=st.integers(0, 10**6), data=st.data())
    def test_vertex_order_i_becomes_i(self, n, p, seed, data):
        g = generate_gnp(n, p, seed)
        order = data.draw(st.permutations(range(n)))
        adj = renumber(g, order)
        assert [[adj[i] >> j & 1 for j in range(n)] for i in range(n)] == [
            [g.adj[order[i]] >> order[j] & 1 for j in range(n)] for i in range(n)
        ]


class TestExpand:
    def test_k5_from_scratch(self, k5):
        ctx = SearchContext()
        p, adj = root_of(k5)
        expand([], p, ctx, adj)
        assert ctx.best_size == 5
        assert ctx.nodes >= 1

    def test_c5_triangle_free(self, c5):
        ctx = SearchContext()
        p, adj = root_of(c5)
        expand([], p, ctx, adj)
        assert ctx.best_size == 2

    def test_oracle_equivalence_seed42(self):
        g = generate_gnp(20, 0.5, 42)
        ctx = SearchContext()
        p, adj = root_of(g)
        expand([], p, ctx, adj)
        assert ctx.best_size == brute_force_omega(g)[0]

    def test_incumbent_not_replaced_on_tie(self, k5):
        # strict inequality: an equal-sized clique must not displace the incumbent
        ctx = SearchContext(best_clique=[9, 9, 9, 9, 9], best_size=5)
        p, adj = root_of(k5)
        expand([], p, ctx, adj)
        assert ctx.best_clique == [9, 9, 9, 9, 9]

    def test_keep_filters_this_node_only(self, k5):
        # the root keeps only its first branch; the children search unfiltered
        # and find the whole clique, which then cuts the root's next branch
        labels = []

        def keep(label, ctx):
            labels.append(label)
            return label == 4

        ctx = SearchContext()
        p, adj = root_of(k5)
        expand([], p, ctx, adj, keep)
        assert labels == [4]
        assert ctx.best_size == 5

    def test_rejected_branches_stay_out_of_later_candidates(self, k5):
        labels = []

        def keep(label, ctx):
            labels.append(label)
            return label == 0

        ctx = SearchContext()
        p, adj = root_of(k5)
        expand([], p, ctx, adj, keep)
        assert labels == [4, 3, 2, 1, 0]
        assert ctx.best_size == 1

    def test_bound_rechecked_after_keep(self, k5):
        def keep(label, ctx):
            ctx.best_size = 5
            return True

        ctx = SearchContext()
        p, adj = root_of(k5)
        expand([], p, ctx, adj, keep)
        assert ctx.nodes == 1
        assert ctx.best_clique == []


class TestMc:
    def test_single_vertex(self):
        clique, ctx = mc(complete_graph(1))
        assert clique == [0]
        assert ctx.nodes == 1

    def test_k5(self, k5):
        clique, _ = mc(k5)
        assert clique == [0, 1, 2, 3, 4]

    def test_deterministic(self):
        g = generate_gnp(30, 0.5, 5)
        c1, s1 = mc(g)
        c2, s2 = mc(g)
        assert c1 == c2
        assert s1.nodes == s2.nodes

    @pytest.mark.parametrize("seed", range(15))
    def test_oracle_equivalence(self, seed):
        g = generate_gnp(5 + seed, 0.4 + 0.03 * seed, seed)
        clique, _ = mc(g)
        assert len(clique) == brute_force_omega(g)[0]
        assert is_clique(g, clique)

    @pytest.mark.parametrize(
        "n, p, seed, omega, nodes",
        [
            (1000, 0.1, 0, 6, 3359),
            (200, 0.5, 1, 11, 7527),
            (120, 0.9, 7, 32, 82460),
            (150, 0.9, 7, 37, 634672),
        ],
    )
    def test_golden_node_counts(self, n, p, seed, omega, nodes):
        # pinned search: any change to ordering, colouring or pruning shows here
        clique, ctx = mc(generate_gnp(n, p, seed))
        assert (len(clique), ctx.nodes) == (omega, nodes)
        assert clique == GOLDEN_WITNESS[n, p, seed]
