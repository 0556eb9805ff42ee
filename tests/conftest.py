import numpy as np
import pytest

from qhyp.qcore import _CONSECUTIVE_SMALL, QContext, _tail_state


@pytest.fixture
def ctx():
    return QContext(0.45)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def rand_complex(rng, lo=0.4, hi=1.6, phase=0.85):
    return rng.uniform(lo, hi) * np.exp(1j * rng.uniform(-phase * np.pi, phase * np.pi))


class _Tail:
    """The truncation rule of qhyp.qcore as a scalar monitor, with its running
    maximum and its count of consecutive small terms: the reference that the
    term-by-term loops of the tests stop by.

    :meth:`done` is fed one term magnitude at a time; :meth:`first_stop` one
    chunk of magnitudes, through the kernel's own :func:`_tail_state`.  Both
    carry the state across calls, so any split of a magnitude sequence into
    scalars and chunks stops at the same term.
    """

    __slots__ = ("tol", "scale", "run")

    def __init__(self, ctx: QContext):
        self.tol = ctx.tail_tol
        self.scale = 1.0
        self.run = 0

    def done(self, mag: float) -> bool:
        """Feed the magnitude of the term just added; True once the sum stops."""
        if mag > self.scale:
            self.scale = mag
        if mag < self.tol * self.scale:
            self.run += 1
            return self.run >= _CONSECUTIVE_SMALL
        self.run = 0
        return False

    def first_stop(self, mags: np.ndarray) -> int | None:
        """Index of the term of a non-empty chunk at which the sum stops, or
        None when it runs on past the chunk."""
        prior = np.array([self.run >= 2, self.run >= 1])
        scale, small, stop = _tail_state(mags, self.scale, prior, self.tol)
        hit = stop.argmax()
        if stop[hit]:
            return int(hit)
        self.scale = float(scale[-1])
        self.run = int(small[-1]) + int(small[-1] and small[-2])
        return None
