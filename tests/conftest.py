"""Session-wide fixtures shared by several test files."""

import pytest

from uvi.analysis import adapter_invariants
from uvi.operators import builtin_problems, make_problem


@pytest.fixture(scope="session")
def catalog_adapter_invariants():
    """``adapter_invariants(make_problem(name), 17)`` per catalog problem,
    computed once for the catalog test and acceptance criterion 9."""
    return {name: adapter_invariants(make_problem(name), 17)
            for name in sorted(builtin_problems())}
