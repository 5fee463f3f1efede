from collections import Counter

import pytest

from usev import autodiff as ad


@pytest.fixture
def plant_backward(monkeypatch):
    """plant_backward(op, scale): every `op` node built afterwards hands
    scale * its incoming gradient to its backward rule. That is a wrong
    backward rule, which a finite-difference check must catch."""

    def plant(op: str, scale: float) -> None:
        node = ad._node

        def planted(data, parents, backward_fn, name):
            if name == op:
                return node(data, parents,
                            lambda g: backward_fn(g * scale), name)
            return node(data, parents, backward_fn, name)

        monkeypatch.setattr(ad, "_node", planted)

    return plant


@pytest.fixture
def backward_runs(monkeypatch):
    """A Counter, keyed by node, of how many times each node built
    afterwards has run its backward rule."""
    runs = Counter()
    node = ad._node

    def counting(data, parents, backward_fn, op):
        def counted(g):
            runs[out] += 1
            backward_fn(g)

        out = node(data, parents, counted, op)
        return out

    monkeypatch.setattr(ad, "_node", counting)
    return runs
