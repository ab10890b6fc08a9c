"""Fixtures shared by more than one test module."""

import pytest

from porolab.pipeline import default_test_set, solve_unit_load


@pytest.fixture
def residual_inputs():
    """Problem -> (test set, operator), the two inputs ``converge`` hands to
    ``weak_residual``, built the way ``converge`` builds them."""

    def build(problem):
        op, v1 = solve_unit_load(problem)
        return default_test_set(v1), op

    return build
