"""Collects acceptance-criterion results and prints them after the run."""

import sys

import pytest

acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def default_digit_cap():
    """Run the test under CPython's default int<->str digit cap of 4300 digits, then restore it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(limit)
