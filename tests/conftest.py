import pytest

from kfsslab import riccati


@pytest.fixture(scope="session", autouse=True)
def warm_kernel():
    # pay numpy's first-call costs once, so timed sections measure solving
    riccati.warmup()
