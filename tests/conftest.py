"""Stop the test session at its start when a test dependency is missing.

mpmath is the reference of many tests (the Euler-integral oracle and the
30-digit 2F1 values); without it they would each fail with an ImportError.
"""

import pytest


def pytest_configure(config):
    try:
        import mpmath  # noqa: F401
    except ImportError:
        raise pytest.UsageError(
            "the tests need mpmath, part of the `test` extra: pip install -e .[test]"
        ) from None
