import os
import sys

import pytest


@pytest.fixture(scope="session")
def spark():
    """One local-mode SparkSession for the whole test session (see
    :mod:`repro.session`)."""
    from repro.session import session

    s = session("repro")
    # one line in the test output that says which driver memory and master
    # the run got
    print(
        f"[conftest] PYSPARK_SUBMIT_ARGS={os.environ['PYSPARK_SUBMIT_ARGS']!r} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
