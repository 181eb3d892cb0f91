import dataclasses
import zlib
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquefarm import distkernel
from cliquefarm.core import colour_sort, mc, renumber
from cliquefarm.distkernel import JobSpec, colour_root, job_membership, mc_dist
from cliquefarm.graph import degree_sort, generate_gnp, is_clique

from conftest import all_jobs, complete_graph, cycle_graph, empty_graph

GOLDEN = [(200, 0.5, 1, 8, 0, 40506), (200, 0.5, 1, 8, 10, 13079), (60, 0.9, 3, 8, 0, 7525)]


def raising_refresher(after: int, to: int):
    """A refresher that raises the bound to `to` on its `after`-th call, as a
    shared incumbent found by another worker would."""
    calls = 0

    def refresh(ctx):
        nonlocal calls
        calls += 1
        if calls == after:
            ctx.best_size = max(ctx.best_size, to)

    return refresh


def assert_shared_root_changes_nothing(g):
    """Every job, with and without a shared root, for f in {1, 3, 8} and every
    c in [0, omega+1], and once more with a refresher raising the bound to
    omega - 1 on its second call: equal (clique, nodes, best_size)."""
    order = degree_sort(g)
    root = colour_root(g, order)
    omega = len(mc(g)[0])
    for f in (1, 3, 8):
        for c in range(omega + 2):
            for spec in all_jobs(g.n, f, c):
                runs = [mc_dist(g, spec, order, root=r) for r in (None, root)]
                runs += [
                    mc_dist(g, spec, order, raising_refresher(2, omega - 1), root=r)
                    for r in (None, root)
                ]
                got = [(clique, ctx.nodes, ctx.best_size) for clique, ctx in runs]
                assert got[0] == got[1] and got[2] == got[3], (f, c, spec.t)


class TestJobSpec:
    def test_out_of_range(self):
        with pytest.raises(ValueError):
            JobSpec(t=80, n=10, f=8)
        with pytest.raises(ValueError):
            JobSpec(t=-1, n=10, f=8)

    def test_negative_bound(self):
        with pytest.raises(ValueError):
            JobSpec(t=0, n=10, c=-1)

    def test_decomposition(self):
        spec = JobSpec(t=13, n=10, f=8)
        assert spec.first_level == 3
        assert spec.second_level_residue == 1


class TestJobMembership:
    def test_t_zero(self):
        spec = JobSpec(t=0, n=10, f=8)
        for second in (0, 8, 16):
            assert job_membership(spec, 0, second)
        assert not job_membership(spec, 0, 1)
        assert not job_membership(spec, 1, 0)

    def test_t_thirteen(self):
        spec = JobSpec(t=13, n=10, f=8)
        assert job_membership(spec, 3, 1)
        assert job_membership(spec, 3, 9)
        assert not job_membership(spec, 3, 2)

    def test_every_address_covered_exactly_once(self):
        n, f = 10, 8
        specs = all_jobs(n, f)
        for first in range(n):
            for second in range(24):
                owners = [
                    s.t for s in specs if job_membership(s, first, second)
                ]
                assert len(owners) == 1, (first, second, owners)


class TestMcDist:
    def test_bound_saturation_returns_empty(self, c5):
        for spec in all_jobs(5, c=10):
            clique, _ = mc_dist(c5, spec, degree_sort(c5))
            assert clique == []

    def test_k5_single_covering_job(self, k5):
        # root stack is [0..4]; first pop is vertex 4 with label 4, its depth-1
        # stack is [0..3] whose first pop has label 3, so t = 3*5 + 4 covers the
        # branch that contains the whole 5-clique
        clique, _ = mc_dist(k5, JobSpec(t=19, n=5, f=8), degree_sort(k5))
        assert len(clique) == 5

    def test_union_over_jobs_equals_mc(self):
        g = generate_gnp(25, 0.5, 3)
        want, _ = mc(g)
        sizes = [len(mc_dist(g, spec, degree_sort(g))[0]) for spec in all_jobs(g.n)]
        assert max(sizes) == len(want)

    def test_wrong_graph_size_rejected(self, k5):
        with pytest.raises(ValueError, match="n=10"):
            mc_dist(k5, JobSpec(t=0, n=10), degree_sort(k5))

    def test_bound_injection_soundness(self):
        g = generate_gnp(20, 0.6, 9)
        omega = len(mc(g)[0])
        order = degree_sort(g)
        for c in range(omega):
            best = max(len(mc_dist(g, spec, order)[0]) for spec in all_jobs(g.n, c=c))
            assert best == omega
        for spec in all_jobs(g.n, c=omega):
            assert mc_dist(g, spec, order)[0] == []

    def test_empty_cover_terminates(self):
        # a bound so high that every branch is cut immediately still terminates
        g = generate_gnp(15, 0.3, 1)
        clique, ctx = mc_dist(g, JobSpec(t=0, n=15, c=100), degree_sort(g))
        assert clique == []
        assert ctx.nodes >= 1

    def test_witnesses_are_cliques(self):
        g = generate_gnp(20, 0.7, 4)
        for spec in all_jobs(g.n)[:40]:
            clique, _ = mc_dist(g, spec, degree_sort(g))
            assert is_clique(g, clique)

    def test_refresher_can_tighten_bound(self, k5):
        # a refresher that raises the bound to 5 prevents any improvement
        def refresh(ctx):
            ctx.best_size = max(ctx.best_size, 5)

        clique, _ = mc_dist(k5, JobSpec(t=19, n=5), degree_sort(k5), refresher=refresh)
        assert clique == []

    def test_depth2_filter_is_job_membership(self, k5, monkeypatch):
        seen = []

        def membership(spec, first, second):
            seen.append((first, second))
            return False

        monkeypatch.setattr(distkernel, "job_membership", membership)
        clique, _ = mc_dist(k5, JobSpec(t=19, n=5), degree_sort(k5))
        assert clique == []
        assert seen == [(4, label) for label in (3, 2, 1, 0)]

    def test_partition_completeness_several_graphs(self):
        for seed in range(5):
            g = generate_gnp(30, 0.5, seed)
            omega = len(mc(g)[0])
            order = degree_sort(g)
            best = max(len(mc_dist(g, spec, order)[0]) for spec in all_jobs(g.n))
            assert best == omega

    @pytest.mark.parametrize("n, p, seed, f, c, nodes", GOLDEN)
    def test_golden_node_counts(self, n, p, seed, f, c, nodes):
        # pinned sum over the whole partition: any change to a job's slice,
        # its root handling or its pruning shows here
        g = generate_gnp(n, p, seed)
        order = degree_sort(g)
        total = sum(mc_dist(g, spec, order=order)[1].nodes for spec in all_jobs(g.n, f, c))
        assert total == nodes

    @pytest.mark.parametrize("n, p, seed, f, c, nodes", GOLDEN)
    def test_golden_node_counts_with_shared_root(self, n, p, seed, f, c, nodes):
        g = generate_gnp(n, p, seed)
        order = degree_sort(g)
        root = colour_root(g, order)
        total = sum(
            mc_dist(g, spec, order=order, root=root)[1].nodes
            for spec in all_jobs(g.n, f, c)
        )
        assert total == nodes

    def test_golden_per_job_results(self):
        # every job of G(60,0.9,3), f=8, c=0 on one shared root: the CRC-32 of
        # repr([(t, nodes, clique), ...]) pins each job's count and witness
        g = generate_gnp(60, 0.9, 3)
        order = degree_sort(g)
        root = colour_root(g, order)
        runs = []
        for spec in all_jobs(g.n, 8, 0):
            clique, ctx = mc_dist(g, spec, order, root=root)
            runs.append((spec.t, ctx.nodes, clique))
        assert sum(nodes for _, nodes, _ in runs) == 7525
        assert zlib.crc32(repr(runs).encode()) == 921880917


class TestSharedRoot:
    def test_root_indexes_stack_and_order(self):
        g = generate_gnp(30, 0.5, 2)
        order = degree_sort(g)
        root = colour_root(g, order)
        assert sorted(root.stack) == list(range(g.n))
        assert root.adj == renumber(g, order)
        assert (root.stack, root.colours) == colour_sort((1 << g.n) - 1, root.adj)
        for i in range(g.n):
            assert root.below[i] == reduce(or_, (1 << root.stack[j] for j in range(i)), 0)

    def test_root_is_frozen(self, k5):
        root = colour_root(k5, degree_sort(k5))
        with pytest.raises(dataclasses.FrozenInstanceError):
            root.stack = []

    @pytest.mark.parametrize(
        "g",
        [
            empty_graph(10),
            complete_graph(6),
            cycle_graph(7),
            generate_gnp(25, 0.5, 3),
            generate_gnp(30, 0.8, 2),
        ],
        ids=["empty10", "k6", "c7", "gnp25", "gnp30"],
    )
    def test_same_results_with_and_without_root(self, g):
        assert_shared_root_changes_nothing(g)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 14), p=st.floats(0, 1), seed=st.integers(0, 10**6))
    def test_same_results_with_and_without_root_random(self, n, p, seed):
        assert_shared_root_changes_nothing(generate_gnp(n, p, seed))

    def test_root_of_another_size_rejected(self, k5):
        root = colour_root(complete_graph(6), degree_sort(complete_graph(6)))
        with pytest.raises(ValueError, match="root has 6 vertices"):
            mc_dist(k5, JobSpec(t=0, n=5), degree_sort(k5), root=root)
