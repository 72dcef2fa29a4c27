import pytest
from hypothesis import strategies as st

from ospds.diagram import (CROSS, GT, LT, WeightDiagram, build,
                           enumerate_corefree, parse, validate)
from ospds.howl import unhowl


def P(text: str, t: int):
    return parse(text, t)


@pytest.fixture(scope="session")
def corefree_pool():
    """Every core-free diagram with up to 4 crosses and width 8, all types."""
    pool = []
    for t in (0, 1, 2):
        for k in range(0, 5):
            pool.extend(enumerate_corefree(t, k, 8))
    return pool


@pytest.fixture(scope="session")
def small_cores():
    """A spread of core diagrams per type, up to three core symbols."""
    return {
        0: [P("o", 0), P("+o>", 0), P("+oo>>", 0), P("+o><", 0),
            P("o<", 0), P("+o>o<", 0)],
        1: [P("o", 1), P("<", 1), P(">", 1), P("o><", 1), P("<o<", 1),
            P(">><", 1)],
        2: [P(">", 2), P(">o<", 2), P(">><", 2), P(">o>o<", 2)],
    }


@st.composite
def diagrams(draw):
    """Core-free diagrams of width up to 40 with k <= 8, zero stacks and
    signs, lifted into cores of '>' and '<' at zero and in the tail."""
    t = draw(st.sampled_from([0, 1, 2]))
    k = draw(st.integers(0, 8))
    stack = draw(st.integers(0, k))
    crosses = draw(st.lists(st.integers(1, 39), min_size=k - stack,
                            max_size=k - stack, unique=True))
    body = build(t, stack, GT if t == 2 else None, {p: CROSS for p in crosses})
    signs = [sg for sg in (None, "+", "-") if not validate(body.with_sign(sg))]
    h = body.with_sign(draw(st.sampled_from(signs)))
    tail = draw(st.text(alphabet="oo>>", max_size=8)) + draw(st.sampled_from(["", "", "<"]))
    zero = GT if t == 2 else draw(st.sampled_from([None, None, GT, LT] if t == 1 else [None]))
    core = WeightDiagram(t, 0, zero, tail, "+" if t == 0 and GT in tail else None)
    return draw(st.sampled_from(unhowl(core, h)))
