from typing import NamedTuple

import numpy as np
import pytest

from powemb import lpengine, norms
from powemb.lpengine import Grid, make_dyadic


@pytest.fixture(autouse=True)
def empty_norm_memo():
    """Start every test with the norms' one-field memo empty, so no test
    depends on which field an earlier test normed last.

    The numbers a field's norms measure stay on the field itself, so a test
    that counts transforms or cell sums builds its fields afresh rather than
    taking a module- or session-scoped one (or a kept window member, unless
    it empties ``verify._sys_cache`` first)."""
    norms._memo = (None, {})


@pytest.fixture(scope="session")
def grid1d():
    return Grid(1, 16.0, 2 ** 13)


@pytest.fixture(scope="session")
def grid1d_fine():
    return Grid(1, 16.0, 2 ** 14)


@pytest.fixture(scope="session")
def grid2d():
    return Grid(2, 8.0, 2 ** 7)


@pytest.fixture(scope="session")
def sys1d(grid1d):
    return make_dyadic(grid1d)


@pytest.fixture(scope="session")
def sys1d_fine(grid1d_fine):
    return make_dyadic(grid1d_fine)


@pytest.fixture(scope="session")
def sys2d(grid2d):
    return make_dyadic(grid2d)


class FFTCall(NamedTuple):
    name: str
    blocks: int


class FFTCalls(list):
    """The recorded calls; ``blocks`` is the number of single-field
    transforms they stand for."""

    @property
    def blocks(self) -> int:
        return sum(call.blocks for call in self)


@pytest.fixture
def fft_calls(monkeypatch):
    """Record every numpy.fft transform made while the test runs, with the
    number of fields (blocks) it transforms: a call made inside
    ``upsample_stack`` carries every spectrum of that stack, any other call
    one field."""
    calls, stack = FFTCalls(), [1]
    for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
        orig = getattr(np.fft, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls.append(FFTCall(_name, stack[-1]))
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)

    orig_stack = lpengine.upsample_stack

    def stacked(spectra, *args, **kwargs):
        stack.append(len(spectra))
        try:
            return orig_stack(spectra, *args, **kwargs)
        finally:
            stack.pop()

    # norms binds the routine by name; upsample_values reads the module's.
    monkeypatch.setattr(lpengine, "upsample_stack", stacked)
    monkeypatch.setattr(norms, "upsample_stack", stacked)
    return calls


@pytest.fixture
def cell_sums(monkeypatch):
    """Record every weighted cell sum the norms make while the test runs."""
    calls = []
    orig = norms.weighted_cell_sum

    def counted(*args, **kwargs):
        calls.append(args[2:])  # (p, gamma, factor)
        return orig(*args, **kwargs)

    monkeypatch.setattr(norms, "weighted_cell_sum", counted)
    return calls


@pytest.fixture(scope="session")
def bump_hat_reference():
    """``xi ->`` bump_hat as a / (a + b), a = chi(3/2 - xi), b = chi(xi - 1),
    chi(t) = exp(-1/t) for t > 0 and 0 else, evaluated at every entry, and 0
    where a + b = 0: the generator's definition, for bit-for-bit checks."""
    def chi(t):
        t = np.asarray(t, dtype=np.float64)
        out = np.zeros_like(t)
        pos = t > 0
        with np.errstate(over="ignore"):
            out[pos] = np.exp(-1.0 / t[pos])
        return out

    def bump(xi):
        xi = np.asarray(xi, dtype=np.float64)
        a, b = chi(1.5 - xi), chi(xi - 1.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(a + b > 0, a / np.where(a + b > 0, a + b, 1.0), 0.0)

    return bump


@pytest.fixture(scope="session")
def max_coeff_outside():
    """``(field, radius) ->`` the largest |coefficient| of the field's
    spectrum at lattice frequencies with |xi| > radius."""
    def largest(field, radius):
        mask = field.grid.freq_magnitude() > radius
        if not mask.any():
            return 0.0
        return float(np.max(np.abs(field.spectrum[mask])))

    return largest
