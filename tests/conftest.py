from __future__ import annotations

from hypothesis import strategies as st

from floordiagrams.core import FloorDiagram


@st.composite
def small_diagrams(draw, max_d: int = 4, max_edges: int = 6):
    """Valid floor diagrams of small degree, connected or not.

    Edges are drawn under the running divergence budget, so every draw is
    structurally valid and no filtering is needed.
    """
    d = draw(st.integers(1, max_d))
    edges = []
    div = [0] * (d + 1)
    if d > 1:
        for _ in range(draw(st.integers(0, max_edges))):
            s = draw(st.integers(1, d - 1))
            cap = 1 - div[s]
            if cap < 1:
                continue
            t = draw(st.integers(s + 1, d))
            w = draw(st.integers(1, min(cap, 3)))
            div[s] += w
            div[t] -= w
            edges.append((s, t, w))
    return FloorDiagram(d, tuple(edges))
