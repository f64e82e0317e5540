import pytest

from glnz.exactmat import IntMatrix


@pytest.fixture
def refuse_det(monkeypatch):
    def refuse(self):
        raise AssertionError("a determinant was computed")

    monkeypatch.setattr(IntMatrix, "det", refuse)
