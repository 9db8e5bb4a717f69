import pytest

from cyclomac.cli import DEFAULT_ORDER_ENV
from helpers import sweep_inputs


@pytest.fixture(autouse=True)
def _no_default_order(monkeypatch):
    # A run without --order reads $CYCLOMAC_ORDER, and the golden digests
    # pin the built-in default; tests that want the variable set it.
    monkeypatch.delenv(DEFAULT_ORDER_ENV, raising=False)


@pytest.fixture(scope="session")
def full_sweep():
    return sweep_inputs()
