"""Grid geometry, spectral norms, and the field file format."""

import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

import choqlab
from choqlab import (
    CHQF_MAGIC,
    Evaluation,
    Field,
    FieldIOError,
    Grid,
    GridError,
    ProblemParams,
    grad_norm_sq,
    inner,
    integrate,
    make_nonlinearity,
    mass,
    read_field,
    rescale_mass,
    write_field,
)
from choqlab.grid import _grad_norm_sq_rfft, _inner_rfft, _omega_sq_rfft
from choqlab.grid import _outer_sum, resample


def neg_laplacian(kernel, u):
    """-Lap u: the L2 gradient of the energy with no nonlinearity."""
    params = ProblemParams(N=3, alpha=kernel.alpha, b=0, rho=1.0)
    nl = make_nonlinearity(params, [])
    return Evaluation(params, nl, kernel, u).gradient()


def test_grid_validation():
    with pytest.raises(GridError, match="dim"):
        Grid(4, 32, 24.0)
    with pytest.raises(GridError, match="power of two"):
        Grid(3, 12, 24.0)
    with pytest.raises(GridError, match="power of two"):
        Grid(3, 4, 24.0)
    with pytest.raises(GridError, match="L"):
        Grid(3, 32, 0.0)
    with pytest.raises(GridError, match="L"):
        Grid(3, 32, math.inf)
    with pytest.raises(GridError, match="budget"):
        Grid(3, 512, 24.0)
    # 256^3 is exactly the cap and must be allowed
    Grid(3, 256, 24.0)


def test_grid_geometry():
    g = Grid(3, 32, 24.0)
    assert g.spacing == 0.75
    assert g.shape == (32, 32, 32)
    assert g.npoints == 32**3
    assert g.cell_volume == 0.75**3
    ax = g.axis()
    assert len(ax) == 32
    assert ax[0] == -12.0
    assert ax[-1] == pytest.approx(12.0 - 0.75)


def test_radius_minimum_image():
    """Distances wrap around the box, so a center near the face sees its
    nearest periodic copy."""
    g = Grid(1, 16, 16.0)
    r = np.sqrt(g.radius_sq(center=(7.0,)))
    # the point at x = -8 is 15 away directly but 1 away through the wrap
    assert r[0] == pytest.approx(1.0)
    with pytest.raises(GridError, match="components"):
        Grid(2, 16, 8.0).radius_sq(center=(1.0,))


def test_field_shape_and_dtype():
    g = Grid(2, 16, 8.0)
    with pytest.raises(GridError, match="shape"):
        Field(g, np.zeros((16, 8)))
    f = Field(g, np.ones((16, 16), dtype=np.int64))
    assert f.values.dtype == np.float64
    c = f.copy()
    c.values[0, 0] = 5.0
    assert f.values[0, 0] == 1.0


def test_gaussian_closed_forms():
    """Integral, mass, and gradient norm of a Gaussian against the exact
    expressions; the tails are far below double precision at this box."""
    g = Grid(3, 64, 24.0)
    sigma = 2.0
    f = Field(g, np.exp(-g.radius_sq() / sigma**2))

    vol = math.pi**1.5 * sigma**3
    assert integrate(f) == pytest.approx(vol, rel=1e-12)

    m2 = (math.pi / 2.0) ** 1.5 * sigma**3
    assert mass(f) == pytest.approx(math.sqrt(m2), rel=1e-12)

    gn = (3.0 / sigma**2) * (math.pi * sigma**2 / 2.0) ** 1.5
    assert grad_norm_sq(f) == pytest.approx(gn, rel=1e-10)


def test_plane_wave_gradient():
    g = Grid(3, 32, 24.0)
    x = g.axis()[:, None, None]
    k = 2.0 * math.pi * 3.0 / g.L
    f = Field(g, np.cos(k * x) * np.ones(g.shape))
    exact = k**2 * g.L**3 / 2.0
    assert grad_norm_sq(f) == pytest.approx(exact, rel=1e-12)


def test_gradient_vs_laplacian_pairing(grid32, kernel32):
    """Integration by parts: <u, -Lap u> equals the squared gradient norm.
    The two sides go through different spectral code paths."""
    g = grid32
    rng = np.random.default_rng(3)
    spec = np.fft.rfftn(rng.standard_normal(g.shape))
    kf = np.fft.fftfreq(32) * 32
    kh = np.fft.rfftfreq(32) * 32
    k2 = kf[:, None, None] ** 2 + kf[None, :, None] ** 2 + kh[None, None, :] ** 2
    u = Field(g, np.fft.irfftn(spec * np.exp(-k2 / 12.0), s=g.shape,
                               axes=range(g.dim)))
    lhs = inner(u, neg_laplacian(kernel32, u))
    assert lhs == pytest.approx(grad_norm_sq(u), rel=1e-11)


def test_laplacian_eigenmode(grid32, kernel32):
    g = grid32
    x = g.axis()
    kx = 2.0 * math.pi / g.L
    ky = 4.0 * math.pi / g.L
    vals = (np.sin(kx * x)[:, None, None] * np.cos(ky * x)[None, :, None]
            * np.ones(g.shape))
    u = Field(g, vals)
    out = neg_laplacian(kernel32, u)
    np.testing.assert_allclose(out.values, (kx**2 + ky**2) * vals,
                               rtol=1e-10, atol=1e-12)


def test_rescale_mass():
    g = Grid(1, 64, 10.0)
    f = Field(g, np.exp(-g.radius_sq()))
    r = rescale_mass(f, 0.7)
    assert mass(r) == pytest.approx(0.7, rel=1e-14)

    z = Field(g, np.zeros(g.shape))
    back = rescale_mass(z, 0.0)
    assert np.array_equal(back.values, z.values)
    with pytest.raises(GridError, match="zero field"):
        rescale_mass(z, 0.5)
    with pytest.raises(GridError, match="target"):
        rescale_mass(f, -1.0)
    with pytest.raises(GridError, match="target"):
        rescale_mass(f, math.nan)


def test_inner_grid_mismatch():
    a = Field(Grid(1, 16, 8.0), np.ones(16))
    b = Field(Grid(1, 16, 4.0), np.ones(16))
    with pytest.raises(GridError, match="different grids"):
        inner(a, b)


INNER_PRODUCT_BITS = """
import numpy as np, scipy.fft
from choqlab.grid import Field, Grid, _inner_rfft, inner, mass
g = Grid(3, 64, 24.0)
rng = np.random.default_rng(7)
a, b = (Field(g, rng.standard_normal(g.shape)) for _ in range(2))
sa, sb = scipy.fft.rfftn(a.values), scipy.fft.rfftn(b.values)
print(inner(a, b).hex(), mass(a).hex(), _inner_rfft(g, sa, sb).hex())
"""


def test_inner_products_ignore_blas_threads():
    """inner, mass and _inner_rfft give the same bits whatever the BLAS
    thread setting: a threaded BLAS dot changes its summation order."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(choqlab.__file__).resolve().parents[1]),
                    env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS"):
        env.pop(var, None)
    out = []
    for blas_threads in (None, "1"):
        run_env = dict(env)
        if blas_threads is not None:
            run_env["OPENBLAS_NUM_THREADS"] = blas_threads
        proc = subprocess.run([sys.executable, "-c", INNER_PRODUCT_BITS],
                              capture_output=True, text=True, timeout=120,
                              env=run_env)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout)
    assert out[0] == out[1]


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 3), m=st.sampled_from([8, 16, 32]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_half_spectrum_rules_agree(dim, m, seed):
    """_inner_rfft's plane corrections and _rfft_weights count the k_z = 0
    and Nyquist planes alike: the descent reads the first, the kinetic
    energy the second."""
    g = Grid(dim, m, 24.0)
    rng = np.random.default_rng(seed)
    a, b = (Field(g, rng.standard_normal(g.shape)) for _ in range(2))
    sa, sb = scipy.fft.rfftn(a.values), scipy.fft.rfftn(b.values)
    assert abs(_inner_rfft(g, sa, sb) - inner(a, b)) <= 1e-12 * mass(a) * mass(b)

    k2s = _omega_sq_rfft(g) * sa
    norms = math.sqrt(_inner_rfft(g, sa, sa) * _inner_rfft(g, k2s, k2s))
    assert abs(_grad_norm_sq_rfft(g, sa) - _inner_rfft(g, sa, k2s)) <= 1e-12 * norms


def trig_sum(grid, waves):
    """sum of a cos(2 pi k.x / L + phase) over (k, a, phase), sampled."""
    x = grid.axis()
    total = np.zeros(grid.shape)
    for k, a, phase in waves:
        arg = _outer_sum([2.0 * math.pi * ki * x / grid.L for ki in k], np.add)
        total += a * np.cos(arg + phase)
    return total


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 3), m=st.sampled_from([8, 16]),
       factor=st.sampled_from([2, 4]), L=st.floats(0.5, 50.0),
       data=st.data())
def test_resample_round_trips_band_limited_fields(dim, m, factor, L, data):
    """A field whose modes lie below the coarse Nyquist frequency is
    sampled exactly on either grid: restriction, prolongation and the
    round trip reproduce its samples, and keep its mass."""
    coarse, fine = Grid(dim, m, L), Grid(dim, factor * m, L)
    band = st.integers(1 - m // 2, m // 2 - 1)
    waves = data.draw(st.lists(st.tuples(
        st.tuples(*[band] * dim), st.floats(-1.0, 1.0),
        st.floats(0.0, 2.0 * math.pi)), min_size=1, max_size=4))
    u_fine = Field(fine, trig_sum(fine, waves) + 1.5)  # never the zero field
    u_coarse = Field(coarse, trig_sum(coarse, waves) + 1.5)
    scale = np.abs(u_fine.values).max()

    down = resample(u_fine, coarse)
    up = resample(u_coarse, fine)
    back = resample(down, fine)
    for got, want in ((down, u_coarse), (up, u_fine), (back, u_fine)):
        assert got.grid == want.grid
        assert np.abs(got.values - want.values).max() <= 1e-12 * scale
        assert mass(got) == pytest.approx(mass(want), rel=1e-12)

    for other in (Grid(dim % 3 + 1, m, L), Grid(dim, m, 2.0 * L)):
        with pytest.raises(GridError, match="differ in dim or L"):
            resample(u_fine, other)


def test_field_file_roundtrip(tmp_path):
    g = Grid(3, 16, 24.0)
    rng = np.random.default_rng(5)
    f = Field(g, rng.standard_normal(g.shape))
    path = tmp_path / "field.chqf"
    write_field(path, f)

    raw = path.read_bytes()
    assert raw.startswith(CHQF_MAGIC)

    back = read_field(path)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)

    # a second write of the same field is byte-identical
    path2 = tmp_path / "field2.chqf"
    write_field(path2, f)
    assert path2.read_bytes() == raw


def test_write_field_is_durable(tmp_path, monkeypatch):
    """The samples reach the disk before the rename, and the parent
    directory is created."""
    synced = []

    def fsync(fd, _real=os.fsync):
        synced.append(fd)
        _real(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    f = Field(Grid(1, 8, 4.0), np.arange(8.0))
    write_field(tmp_path / "f.chqf", f)
    assert len(synced) == 1
    path = tmp_path / "new" / "f.chqf"
    write_field(path, f)
    assert len(synced) == 2
    assert np.array_equal(read_field(path).values, f.values)
    assert os.listdir(path.parent) == ["f.chqf"]  # no temp file left


def test_read_field_error_paths(tmp_path):
    g = Grid(1, 8, 4.0)
    f = Field(g, np.arange(8.0))
    good = tmp_path / "good.chqf"
    write_field(good, f)
    raw = good.read_bytes()

    p = tmp_path / "magic.chqf"
    p.write_bytes(b"JUNK1\n" + raw[len(CHQF_MAGIC):])
    with pytest.raises(FieldIOError, match="not a CHQF1"):
        read_field(p)

    p = tmp_path / "trunc.chqf"
    p.write_bytes(CHQF_MAGIC + b"dim=1\n")
    with pytest.raises(FieldIOError, match="truncated header"):
        read_field(p)

    p = tmp_path / "malformed.chqf"
    p.write_bytes(CHQF_MAGIC + b"dim 1\nend\n")
    with pytest.raises(FieldIOError, match="malformed header"):
        read_field(p)

    p = tmp_path / "badfields.chqf"
    p.write_bytes(CHQF_MAGIC + b"dim=1\nm=12\nL=4.0\nend\n" + b"\x00" * 96)
    with pytest.raises(FieldIOError, match="bad header fields"):
        read_field(p)

    p = tmp_path / "missing.chqf"
    p.write_bytes(CHQF_MAGIC + b"dim=1\nend\n")
    with pytest.raises(FieldIOError, match="bad header fields"):
        read_field(p)

    p = tmp_path / "short.chqf"
    p.write_bytes(raw[:-8])
    with pytest.raises(FieldIOError, match="payload shorter"):
        read_field(p)

    p = tmp_path / "long.chqf"
    p.write_bytes(raw + b"\x00")
    with pytest.raises(FieldIOError, match="trailing bytes"):
        read_field(p)


def _field_bytes():
    """A small CHQF1 file's bytes and the length of its header."""
    g = Grid(3, 8, 24.0)
    f = Field(g, np.random.default_rng(3).standard_normal(g.shape))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "f.chqf")
        write_field(path, f)
        with open(path, "rb") as fh:
            raw = fh.read()
    return raw, len(raw) - 8 * g.npoints


FIELD_RAW, FIELD_HEADER = _field_bytes()


def _read_bytes(tmp_path_factory, data: bytes):
    path = tmp_path_factory.getbasetemp() / "corrupt.chqf"
    path.write_bytes(data)
    return read_field(path)


@settings(max_examples=150, deadline=None)
@given(cut=st.integers(0, len(FIELD_RAW) - 1))
def test_truncated_field_file(tmp_path_factory, cut):
    with pytest.raises(FieldIOError):
        _read_bytes(tmp_path_factory, FIELD_RAW[:cut])


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_non_finite_field_file(tmp_path_factory, bad):
    """A NaN or infinite sample is a format error naming the file."""
    data = bytearray(FIELD_RAW)
    at = FIELD_HEADER + 8 * 5
    data[at:at + 8] = np.array(bad, dtype="<f8").tobytes()
    with pytest.raises(FieldIOError, match="corrupt.chqf: non-finite"):
        _read_bytes(tmp_path_factory, bytes(data))


@settings(max_examples=300, deadline=None)
@given(flips=st.lists(st.tuples(
    st.one_of(st.integers(0, FIELD_HEADER - 1),
              st.integers(0, len(FIELD_RAW) - 1)),
    st.integers(0, 7)), min_size=1, max_size=3))
def test_bit_flipped_field_file(tmp_path_factory, flips):
    """A flipped bit either still reads as a field or raises FieldIOError,
    never anything else."""
    data = bytearray(FIELD_RAW)
    for pos, bit in flips:
        data[pos] ^= 1 << bit
    try:
        f = _read_bytes(tmp_path_factory, bytes(data))
    except FieldIOError:
        return
    assert f.values.shape == f.grid.shape
