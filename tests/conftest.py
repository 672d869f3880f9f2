"""Shared fixtures and the acceptance summary hook.

Grids, kernels, and the reference solve are session scoped: the m=256
kernel and the multistart descent are the two expensive objects in the
suite, and every test that wants them gets the same instance.  The hook
at the bottom prints one PASS/FAIL line per numbered acceptance check
after the usual pytest summary.
"""

from collections import Counter

import numpy as np
import pytest
import scipy.fft

from choqlab import (
    Grid,
    ProblemParams,
    SolveOptions,
    build_bundle,
    build_kernel,
    make_nonlinearity,
    solve,
)

# G used by the reference problem throughout the suite.
PRESET_TERMS = ((70.0, 2.0), (1.0, 8.0 / 3.0))


@pytest.fixture(scope="session")
def grid32():
    return Grid(3, 32, 24.0)


@pytest.fixture(scope="session")
def grid64():
    return Grid(3, 64, 24.0)


@pytest.fixture(scope="session")
def grid128():
    return Grid(3, 128, 24.0)


@pytest.fixture(scope="session")
def grid256():
    return Grid(3, 256, 24.0)


@pytest.fixture(scope="session")
def kernel32(grid32):
    return build_kernel(grid32, 2.0)


@pytest.fixture(scope="session")
def kernel64(grid64):
    return build_kernel(grid64, 2.0)


@pytest.fixture(scope="session")
def kernel128(grid128):
    return build_kernel(grid128, 2.0)


@pytest.fixture(scope="session")
def kernel256(grid256):
    return build_kernel(grid256, 2.0)


@pytest.fixture(scope="session")
def preset(grid64, kernel64):
    """Reference problem at half its threshold mass, with bundle."""
    probe = ProblemParams(N=3, alpha=2.0, b=0, rho=1.0)
    nl0 = make_nonlinearity(probe, PRESET_TERMS)
    rho0 = build_bundle(probe, nl0, grid64, kernel64).rho0
    params = ProblemParams(N=3, alpha=2.0, b=0, rho=0.5 * rho0)
    nl = make_nonlinearity(params, PRESET_TERMS)
    bundle = build_bundle(params, nl, grid64, kernel64)
    return params, nl, bundle


@pytest.fixture(scope="session")
def preset_report(preset, grid64, kernel64):
    """One multistart solve of the reference problem, shared by all tests."""
    params, nl, bundle = preset
    return solve(params, nl, grid64, kernel64, bundle, SolveOptions())


FFT_ND = ("fftn", "ifftn", "rfftn", "irfftn")


@pytest.fixture
def fft_calls(monkeypatch):
    """Count 3-D calls of the scipy.fft and numpy.fft n-D transforms."""
    calls = Counter()
    for module, prefix in ((scipy.fft, "scipy"), (np.fft, "numpy")):
        for name in FFT_ND:
            def counted(x, *args, _fn=getattr(module, name),
                        _key=f"{prefix}.{name}", **kwargs):
                if np.ndim(x) == 3:
                    calls[_key] += 1
                return _fn(x, *args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    return calls


def smooth_noise(grid, rng, k_damp=18.0):
    """Low-pass filtered white noise; k_damp is in squared index units."""
    white = rng.standard_normal(grid.shape)
    spec = np.fft.rfftn(white)
    m = grid.m
    kf = np.fft.fftfreq(m) * m
    kh = np.fft.rfftfreq(m) * m
    k2 = (kf[:, None, None] ** 2 + kf[None, :, None] ** 2
          + kh[None, None, :] ** 2)
    return np.fft.irfftn(spec * np.exp(-k2 / k_damp), s=grid.shape,
                         axes=range(grid.dim))


# ----------------------------------------------------------------------
# Acceptance summary: one line per numbered check.
# ----------------------------------------------------------------------

ACCEPTANCE_LABELS = {
    1: "kernel and convolution constants vs independent gamma evaluation",
    2: "FFT convolution vs radial quadrature oracle",
    3: "potential scaling law and bilinear symmetry",
    4: "lower-critical quotient at the known extremal",
    5: "threshold geometry and barrier comparison",
    6: "energy gradient vs finite differences",
    7: "certified local minimization at the reference preset",
    8: "least-energy monotonicity and subadditivity",
    9: "dilation-curve diagnostics at the minimizer",
    10: "determinism, field round-trip, verify",
}

_acceptance_outcomes: dict[int, str] = {}


def _criterion_number(nodeid: str) -> int | None:
    if "test_acceptance" not in nodeid:
        return None
    name = nodeid.rsplit("::", 1)[-1]
    if not name.startswith("test_criterion_"):
        return None
    try:
        return int(name.split("_")[2])
    except (IndexError, ValueError):
        return None


def pytest_runtest_logreport(report):
    num = _criterion_number(report.nodeid)
    if num is None:
        return
    if report.when == "call" or (report.when == "setup"
                                 and report.outcome != "passed"):
        prev = _acceptance_outcomes.get(num)
        if prev != "failed":
            _acceptance_outcomes[num] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    tr = terminalreporter
    tr.write_sep("-", "acceptance checks")
    word = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}
    for num in sorted(_acceptance_outcomes):
        outcome = _acceptance_outcomes[num]
        label = ACCEPTANCE_LABELS.get(num, "")
        tr.write_line(
            f"criterion {num:2d}: {word.get(outcome, outcome.upper()):4s}  {label}"
        )
