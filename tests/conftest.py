import importlib.util
import random
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import strategies as st

from gbs import embeddings
from gbs.bs_arith import embeds_bs
from gbs.embeddings import embed_bs_construct
from gbs.graphs import LabelledGraph, _Work, graph_from_edges, reduce_graph
from gbs.words import Presentation

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def small_connected_graph(rng: random.Random, max_vertices=4, max_extra=2, max_label=9):
    """Random small connected labelled graph (tree plus a few extra edges)."""
    n = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    rows = []

    def lab():
        v = rng.randint(1, max_label)
        return v if rng.random() < 0.8 else -v

    for i in range(1, n):
        rows.append((f"e{i - 1}", vertices[rng.randrange(i)], vertices[i], lab(), lab()))
    for j in range(rng.randint(0, max_extra)):
        a, b = rng.choice(vertices), rng.choice(vertices)
        rows.append((f"x{j}", a, b, lab(), lab()))
    return graph_from_edges(rows, extra_vertices=vertices)


@pytest.fixture
def rng():
    return random.Random(0xB5CF)


@st.composite
def graphs(draw, max_vertices=4, max_extra=2, max_label=9):
    seed = draw(st.integers(min_value=0, max_value=2**30))
    return small_connected_graph(
        random.Random(seed), max_vertices=max_vertices, max_extra=max_extra, max_label=max_label
    )


def factorize_uncapped(n) -> dict[int, int]:
    """Prime factorization of |n| by plain trial division, with no cap, for
    the oracles: their values have only small primes."""
    if n == 0:
        raise ValueError("cannot factor 0")
    out, n, p = {}, abs(n), 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def same_group(a, b) -> bool:
    """Two finitely generated subgroups of Q* are equal when each holds the
    other's generators."""
    return all(b.contains(q) for q in a.generators) and all(a.contains(q) for q in b.generators)


def random_letters(rng: random.Random, pres, length=4, max_exp=4):
    gens = pres.generators()
    out = []
    for _ in range(rng.randint(1, length)):
        kind, name = rng.choice(gens)
        exp = rng.randint(-max_exp, max_exp) or 1
        out.append((kind, name, exp))
    return tuple(out)


def criterion_6_circles():
    """The 196 reduced two-edge circles of criterion 6 (the quot_certs
    benchmark's epi-equivalence decisions), as (alpha, beta, gamma, graph)."""
    out = []
    for alpha in range(1, 8):
        for beta in range(1, 8):
            for gamma in range(1, 8, 2):
                g = graph_from_edges([("e0", "w0", "w1", 2 * beta, 2), ("e1", "w1", "w0", gamma, 2 * alpha)])
                out.append((alpha, beta, gamma, reduce_graph(g)[0]))
    return out


def count_calls(monkeypatch, targets) -> Counter:
    """Replace each (owner, attribute) by a wrapper counting its calls under
    the attribute's name; the returned Counter fills as they run."""
    calls = Counter()
    for owner, name in targets:
        fn = getattr(owner, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def count_graph_builds(monkeypatch) -> Counter:
    """Count graph builds by both routes: the checking constructor
    (`LabelledGraph.__init__`) and a move's unchecked result (`_Work.graph`).
    Sum the Counter's values for the number of graphs built."""
    return count_calls(monkeypatch, [(LabelledGraph, "__init__"), (_Work, "graph")])


def random_presentation(g, rng: random.Random, keep=()) -> Presentation:
    """A presentation of g on a random spanning tree that holds the non-loop
    edges `keep`, based at a random vertex other than the canonical one
    (when g has another)."""
    root = {v: v for v in g.vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    tree = set()
    for e in list(keep) + rng.sample(g.sorted_edges(), len(g.edges)):
        a, b = map(find, g.edges[e].endpoints)
        if a != b:
            root[a] = b
            tree.add(e)
    return Presentation(g, frozenset(tree), rng.choice(g.sorted_vertices()[1:] or g.sorted_vertices()))


def load_script(name):
    """scripts/<name>.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def grid_certificates(bound):
    """((r, s, m, n), embed_bs_construct(r, s, m, n)) for every
    BS(r, s) < BS(m, n) of the box |.| <= bound, in grid order."""
    for params in load_script("cert_digest").criterion3_grid(bound):
        if embeds_bs(*params):
            yield params, embed_bs_construct(*params)


@pytest.fixture(scope="session")
def grid12():
    """The 9,668 certificates of the 12-box grid (acceptance criterion 3),
    built once for the session: `certs` as grid_certificates yields them,
    `block_circle` the arguments of each `_block_circle` attempt and
    `checks` the `check_weakly_admissible` calls made while building."""
    attempts = []
    with pytest.MonkeyPatch.context() as mp:
        block_circle = embeddings._block_circle
        mp.setattr(embeddings, "_block_circle", lambda *args: attempts.append(args) or block_circle(*args))
        checks = count_calls(mp, [(embeddings, "check_weakly_admissible")])
        certs = list(grid_certificates(12))
    return SimpleNamespace(certs=certs, block_circle=attempts, checks=checks["check_weakly_admissible"])
