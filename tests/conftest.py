import pathlib
import random
import re
from itertools import combinations

import pytest
from hypothesis import strategies as st

from kplanar.graph import Graph


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def random_graph(n: int, p: float, seed: int) -> Graph:
    rnd = random.Random(seed)
    return Graph(n, [e for e in combinations(range(n), 2) if rnd.random() < p])


def readme_commands() -> list[str]:
    """Every `kplanar ...` command in README.md's sh blocks, with backslash
    continuations joined and comments dropped."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```sh\n(.*?)^```", readme.read_text(), re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line.split("#")[0].strip() for line in lines
            if line.strip().startswith("kplanar ")]


@st.composite
def simple_edge_lists(draw):
    """(n, pairs): distinct non-loop pairs on 0..n-1, each either way round,
    in random order."""
    n = draw(st.integers(0, 12))
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return n, [(v, u) if draw(st.booleans()) else (u, v) for u, v in chosen]


@pytest.fixture
def k4():
    return complete_graph(4)


@pytest.fixture
def c6():
    return cycle_graph(6)


@pytest.fixture
def petersen():
    return petersen_graph()
