import pytest

from abtaut import TautRing

_ACCEPTANCE: dict[str, str] = {}


def pytest_configure(config):
    config.addinivalue_line("markers", "criterion(number, title): acceptance criterion metadata")


@pytest.fixture(scope="session")
def ring_cache():
    """Build each genus at most once per test session, past the CLI cap if asked."""
    cache = {}

    def get(g: int):
        if g not in cache:
            cache[g] = TautRing(g)
        return cache[g]

    return get


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    if report.when == "call" or (report.when == "setup" and report.skipped):
        _ACCEPTANCE[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_ACCEPTANCE):
        outcome = _ACCEPTANCE[nodeid]
        word = {"passed": "PASS", "failed": "FAIL"}.get(outcome, outcome.upper())
        terminalreporter.write_line(f"{word}  {nodeid.split('::')[-1]}")
