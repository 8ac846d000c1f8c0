import contextlib
import warnings

import numpy as np
import pytest
from hypothesis import settings


@pytest.fixture
def rng():
    # counter-based generator so fixtures are reproducible across platforms
    return np.random.Generator(np.random.Philox(key=20240811))


def random_series(rng, d, N, hermitian=False, scale=1.0):
    c = rng.standard_normal((2 * N + 1, d, d)) + 1j * rng.standard_normal((2 * N + 1, d, d))
    c *= scale / np.sqrt(c.size)
    if hermitian:
        c = 0.5 * (c + np.conj(np.transpose(c[::-1], (0, 2, 1))))
    from hwmlab.hardy import FourierSeries

    return FourierSeries(d, N, c)


def random_hardy(rng, d, N, zero_top=False):
    from hwmlab.hardy import HardyElement

    c = rng.standard_normal((N + 1, d, d)) + 1j * rng.standard_normal((N + 1, d, d))
    c /= np.sqrt(c.size)
    if zero_top:
        c[-1] = 0.0
    return HardyElement(d, N, c)


# derandomized, so Tier-1 runs the same examples every time; no example database on disk
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=30, database=None)
settings.load_profile("tier1")

# On a failure, hypothesis's pytest plugin imports libcst to print the failing
# example as a patch, and that import raises a DeprecationWarning, which
# filterwarnings = ["error"] turns into an internal error that hides the failure.
# Import it once here, with that warning silenced.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
