import pytest

try:
    from hypothesis import settings
except ImportError:  # each property module skips itself
    pass
else:
    # the one definition every property module's settings start from: the
    # same examples on every run, none stored, no deadline; a module sets
    # only its max_examples
    settings.register_profile("diskapprox", derandomize=True, database=None, deadline=None)
    settings.load_profile("diskapprox")


def pytest_configure(config):
    config._criterion_lines = []
    # hypothesis imports libcst to suggest a patch once a property fails,
    # and libcst's import warns; under -W error that warning would replace
    # the report of the falsifying example
    config.addinivalue_line("filterwarnings", "ignore::DeprecationWarning:libcst")


@pytest.fixture
def criterion(request):
    """Record one pass/fail line per acceptance criterion, then assert it."""

    def record(name: str, passed: bool, detail: str = ""):
        verdict = "PASS" if passed else "FAIL"
        line = f"{verdict}  {name}" + (f"  [{detail}]" if detail else "")
        request.config._criterion_lines.append(line)
        assert passed, f"{name}: {detail}"

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
