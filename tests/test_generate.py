import itertools

import pytest

import _brute
from pathgraph.chordal import is_chordal
from pathgraph.errors import InputError
from pathgraph.generate import SplitMix64, gen_chordal, gen_path_graph, k4_hub
from pathgraph.graphs import MAX_VERTICES, Graph, is_connected
from pathgraph.obstructions import build_family
from pathgraph.oracle import _decode_pruefer
from pathgraph.realize import verify_realization
from pathgraph.recognize import recognize_path_graph


def test_splitmix64_reference_sequence():
    # published output for seed 0
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(4)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    ]


def test_splitmix64_seed_masking_and_ranges():
    assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()
    rng = SplitMix64(42)
    draws = [rng.randrange(7) for _ in range(200)]
    assert set(draws) <= set(range(7))
    with pytest.raises(ValueError):
        rng.randrange(0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: k4_hub(4.0),
        lambda: k4_hub("4"),
        lambda: gen_chordal(5.5, 1),
        lambda: gen_chordal(5, 1.5),
        lambda: gen_chordal(5, True),
        lambda: gen_path_graph(5.0, 4, 1),
        lambda: gen_path_graph(5, 4, 2.5),
        lambda: gen_path_graph(True, 3, 1),
        lambda: build_family("W0", 1.5),
        lambda: build_family("W0", True),
        lambda: SplitMix64(1.5),
    ],
    ids=[
        "k4_hub_float", "k4_hub_str", "gen_chordal_float_n", "gen_chordal_float_seed",
        "gen_chordal_bool_seed", "gen_path_graph_float_nodes", "gen_path_graph_float_seed",
        "gen_path_graph_bool_nodes", "build_family_float", "build_family_bool",
        "splitmix_float_seed",
    ],
)
def test_sizes_and_seeds_must_be_ints(make):
    with pytest.raises(InputError, match="is not an int"):
        make()


def test_generators_are_deterministic():
    assert gen_chordal(10, 5).edges() == gen_chordal(10, 5).edges()
    g1, h1 = gen_path_graph(6, 5, 9)
    g2, h2 = gen_path_graph(6, 5, 9)
    assert g1.edges() == g2.edges()
    assert h1 == h2


def test_gen_path_graph_output():
    for seed in range(60):
        g, host = gen_path_graph(7, 6, seed)
        assert is_connected(g)
        assert verify_realization(g, host)
        assert recognize_path_graph(g).is_path_graph


def test_gen_chordal_output():
    for seed in range(120):
        g = gen_chordal(4 + seed % 9, seed)
        assert g.n == 4 + seed % 9
        assert is_chordal(g)
        assert is_connected(g)


def test_generator_input_errors():
    with pytest.raises(InputError):
        gen_chordal(0, 1)
    with pytest.raises(InputError):
        gen_path_graph(0, 3, 1)
    with pytest.raises(InputError):
        gen_path_graph(3, 0, 1)


# (tree nodes, paths): sizes 1 and 2, more nodes than paths and fewer
PATH_GRID = [(1, 1), (1, 2), (2, 1), (2, 2), (5, 1), (1, 6), (7, 3), (3, 9), (12, 12),
             (30, 10), (10, 30), (60, 60)]


def test_gen_path_graph_equals_the_reference():
    for (nodes, paths), seed in itertools.product(PATH_GRID, range(12)):
        want = _brute.gen_path_graph_by_search(nodes, paths, seed)
        assert gen_path_graph(nodes, paths, seed) == want, (nodes, paths, seed)


def test_gen_path_graph_resamples_as_the_reference_does():
    # this seed's first sample is disconnected, so the graph is a later one
    first = next(_brute.path_graph_samples(20, 5, 1))
    assert not is_connected(first[0])
    assert gen_path_graph(20, 5, 1) == _brute.gen_path_graph_by_search(20, 5, 1) != first


def test_gen_chordal_equals_the_reference():
    for n, seed in itertools.product((1, 2, 3, 5, 8, 13, 21, 40), range(12)):
        assert gen_chordal(n, seed) == _brute.gen_chordal_by_pairs(n, seed), (n, seed)


def test_gen_path_graph_builds_no_edge_list(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Graph.from_edges called")

    monkeypatch.setattr(Graph, "from_edges", staticmethod(refuse))
    for s in range(3):
        assert gen_path_graph(300, 300, s)[0].n == 300
    assert gen_chordal(60, 1).n == 60


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_path_graph(MAX_VERTICES + 1, 3, 1),
        lambda: gen_path_graph(3, MAX_VERTICES + 1, 1),
        lambda: gen_chordal(MAX_VERTICES + 1, 1),
        lambda: k4_hub(MAX_VERTICES // 2 + 1),  # 2t - 1 vertices
    ],
    ids=["path_tree_nodes", "path_paths", "chordal", "k4_hub"],
)
def test_oversized_generators_refuse_before_any_work(make):
    with pytest.raises(InputError, match="too large"):
        make()


def test_k4_hub_shape():
    g = k4_hub()
    assert g.n == 7
    assert g.labels == ("1", "2", "3", "4", "a", "b", "c")
    assert is_chordal(g)
    assert not recognize_path_graph(g).is_path_graph
    with pytest.raises(InputError):
        k4_hub(2)
    # the smallest hub is still a path graph
    assert recognize_path_graph(k4_hub(3)).is_path_graph


def test_k4_hub_grows():
    for t in (4, 5, 6):
        g = k4_hub(t)
        assert g.n == 2 * t - 1
        assert not recognize_path_graph(g).is_path_graph


def test_decode_pruefer_exhaustive_small():
    c = 5
    for seq in itertools.product(range(c), repeat=c - 2):
        assert _decode_pruefer(list(seq), c) == _brute.pruefer_decode_reference(seq, c)


def test_decode_pruefer_random_larger():
    rng = SplitMix64(7)
    for _ in range(200):
        c = 8
        seq = [rng.next_u64() % c for _ in range(c - 2)]
        assert _decode_pruefer(seq, c) == _brute.pruefer_decode_reference(seq, c)


def test_decode_pruefer_matches_the_heap_decoder():
    # every sequence for c <= 7, then random ones up to c = 59, edge order included
    for c in range(2, 8):
        for seq in itertools.product(range(c), repeat=c - 2):
            assert _decode_pruefer(list(seq), c) == _brute.pruefer_decode_by_heap(seq, c)
    rng = SplitMix64(59)
    for _ in range(500):
        c = 2 + rng.randrange(58)
        seq = [rng.randrange(c) for _ in range(c - 2)]
        assert _decode_pruefer(seq, c) == _brute.pruefer_decode_by_heap(seq, c)
