import pytest

from commscale import selection


@pytest.fixture(autouse=True)
def empty_step_memo(monkeypatch):
    """Start every test with an empty step memo, so that no test sees the
    assignments an earlier test clustered and the outcome does not depend
    on the order the tests run in."""
    monkeypatch.setattr(selection, "_steps", (None, {}))
