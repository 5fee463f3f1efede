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
