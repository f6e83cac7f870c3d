"""Root pytest configuration.

Loads the chaos-recovery runner as a plugin so its session-scoped
``chaos_report`` fixture (one shared fault-injection + crash-resume run)
is available to every test module, and turns double-releases of memory
handles, saved and transient alike, into
:class:`repro.obs.mem.ReleaseError` for the whole suite — accounting bugs
should fail tests, not just bump the ``memory.release_errors`` counter
they bump in production.
"""

import pytest

pytest_plugins = ("repro.resilience.chaos",)


@pytest.fixture(autouse=True)
def _strict_memory_release():
    from repro.nn.memory import set_strict_release

    prev = set_strict_release(True)
    try:
        yield
    finally:
        set_strict_release(prev)
