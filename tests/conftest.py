import faulthandler
import os
import tempfile

import pytest

os.environ.setdefault("RAY_DEDUP_LOGS", "1")

# Hang watchdog: a Ray local-mode streaming-executor deadlock was observed
# once in ~10 full-suite runs (driver blocked on a socket read, all workers
# IDLE, no errors in any Ray log).  No single test legitimately exceeds
# ~2 minutes; if one runs 10x that, dump every thread's stack and hard-exit
# so the hang surfaces as a diagnosable failure instead of a silent stall.
# The stacks go to a per-session file, not fd 2: pytest captures fd 2 and
# the hard exit discards the capture.  The file is removed if it stays
# empty; the report header names it.
_TEST_TIMEOUT_S = 1200
_WATCHDOG_LOG = os.path.join(tempfile.gettempdir(),
                             f"pytest-hang-stacks-{os.getpid()}.txt")
_watchdog_file = open(_WATCHDOG_LOG, "w")


def pytest_report_header(config):
    return f"hang watchdog: stacks of a test running over " \
           f"{_TEST_TIMEOUT_S}s go to {_WATCHDOG_LOG}"


def pytest_sessionfinish(session, exitstatus):
    _watchdog_file.close()
    if os.path.getsize(_WATCHDOG_LOG) == 0:
        os.remove(_WATCHDOG_LOG)


@pytest.fixture(autouse=True)
def _hang_watchdog():
    faulthandler.dump_traceback_later(_TEST_TIMEOUT_S, exit=True,
                                      file=_watchdog_file)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def ray_session():
    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_small():
    """sf0.001 fixtures root (deterministic, idempotent)."""
    from engine.fixtures import ensure_fixtures
    return ensure_fixtures("sf0.001")
