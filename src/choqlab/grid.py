"""Uniform periodic box, spectral norms, and field storage.

The box [-L/2, L/2)^dim is sampled with m points per axis (m a power of
two), so every field is a real array of shape (m,)*dim laid out row-major.
Integrals are plain rectangle sums, which for smooth periodic data are
spectrally accurate; gradient norms are evaluated through the FFT.
"""

from __future__ import annotations

import functools
import os
import tempfile
from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.fft

# Hard caps on total sample count so a typo in m cannot eat the machine,
# and on the samples of one sampled curve (8 MB a float array).
MAX_POINTS = 2 ** 24
MAX_SAMPLES = 10 ** 6

CHQF_MAGIC = b"CHQF1\n"


class GridError(ValueError):
    pass


class FieldIOError(OSError):
    pass


@dataclass(frozen=True)
class Grid:
    """Cubic periodic grid: dim axes, m samples per axis, side length L."""

    dim: int
    m: int
    L: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise GridError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.m < 8 or (self.m & (self.m - 1)) != 0:
            raise GridError(f"m must be a power of two >= 8, got {self.m}")
        if not (self.L > 0.0 and np.isfinite(self.L)):
            raise GridError(f"L must be positive and finite, got {self.L}")
        if self.m ** self.dim > MAX_POINTS:
            raise GridError(
                f"grid of {self.m}^{self.dim} points exceeds the "
                f"{MAX_POINTS}-point budget"
            )

    @property
    def spacing(self) -> float:
        return self.L / self.m

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.m,) * self.dim

    @property
    def npoints(self) -> int:
        return self.m ** self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.dim

    def axis(self) -> np.ndarray:
        """Coordinates along one axis: -L/2, -L/2+h, ..., L/2-h."""
        return -self.L / 2.0 + self.spacing * np.arange(self.m)

    def radius_sq(self, center=None) -> np.ndarray:
        """|x - center|^2 on the full grid, distances taken minimum-image."""
        if center is None:
            center = (0.0,) * self.dim
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if center.shape != (self.dim,):
            raise GridError(f"center must have {self.dim} components")
        x = self.axis()
        # minimum-image convention keeps radial profiles periodic
        d2 = [((x - c + self.L / 2.0) % self.L - self.L / 2.0) ** 2
              for c in center]
        return _outer_sum(d2, np.add)


def _outer_sum(parts, op):
    """op-reduction of 1-D arrays laid along successive axes of the grid."""
    return functools.reduce(op, np.meshgrid(*parts, indexing="ij", sparse=True))


@functools.lru_cache(maxsize=32)
def _omega_sq_rfft(grid: Grid) -> np.ndarray:
    """|2 pi k|^2 over the half-complex (rfftn) spectral layout."""
    m, h = grid.m, grid.spacing
    w_full = 2.0 * np.pi * scipy.fft.fftfreq(m, d=h)
    w_half = 2.0 * np.pi * scipy.fft.rfftfreq(m, d=h)
    return _outer_sum([w_full ** 2] * (grid.dim - 1) + [w_half ** 2], np.add)


@functools.lru_cache(maxsize=32)
def _rfft_weights(grid: Grid) -> np.ndarray:
    """Multiplicity of each half-complex mode in the full spectrum."""
    m = grid.m
    w_last = np.full(m // 2 + 1, 2.0)
    w_last[0] = 1.0
    w_last[-1] = 1.0  # Nyquist plane is self-conjugate for even m
    return np.broadcast_to(w_last, (m,) * (grid.dim - 1) + (m // 2 + 1,))


@dataclass
class Field:
    """Real scalar samples on a Grid."""

    grid: Grid
    values: np.ndarray = dataclass_field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise GridError(
                f"values shape {v.shape} does not match grid shape {self.grid.shape}"
            )
        self.values = v

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())


def integrate(f: Field) -> float:
    """Rectangle-rule integral over the box."""
    return float(f.values.sum()) * f.grid.cell_volume


def inner(f: Field, g: Field) -> float:
    """L2 inner product <f, g> on the box."""
    if f.grid != g.grid:
        raise GridError("fields live on different grids")
    return _dot(f.values, g.values) * f.grid.cell_volume


def mass(f: Field) -> float:
    """L2 norm of the field (the 'mass' that the constraint pins)."""
    return float(np.sqrt(_dot(f.values, f.values) * f.grid.cell_volume))


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Re sum(conj(a) * b) by numpy's own reduction: a threaded BLAS dot's
    time and last digits depend on OPENBLAS_NUM_THREADS."""
    if np.iscomplexobj(a):  # Re conj(a)*b sums the float64 views' products
        a = np.ascontiguousarray(a).view(np.float64)
        b = np.ascontiguousarray(b).view(np.float64)
    return float(np.einsum("i,i->", a.reshape(-1), b.reshape(-1)))


def grad_norm_sq(f: Field) -> float:
    """Squared L2 norm of the gradient, evaluated spectrally."""
    return _grad_norm_sq_rfft(f.grid, scipy.fft.rfftn(f.values))


def _grad_norm_sq_rfft(grid: Grid, spec: np.ndarray) -> float:
    """Squared L2 norm of the gradient from the half-complex spectrum."""
    w = _rfft_weights(grid)
    k2 = _omega_sq_rfft(grid)
    total = float(np.sum(w * k2 * (spec.real ** 2 + spec.imag ** 2)))
    return total * grid.cell_volume / grid.npoints


def _inner_rfft(grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    """<f, g> from half-complex spectra: Parseval with the _rfft_weights."""
    full = (2.0 * _dot(a, b) - _dot(a[..., 0], b[..., 0])
            - _dot(a[..., -1], b[..., -1]))
    return full * grid.cell_volume / grid.npoints


def resample(u: Field, grid: Grid) -> Field:
    """u's trigonometric interpolant sampled on another m of the same box.

    Only the modes below both grids' Nyquist frequency carry over; the
    rest, the Nyquist planes included, are dropped.  So a field band-limited
    below the coarser Nyquist frequency goes to either grid and back
    unchanged, with its mass, and a restriction to a coarser grid is the
    spectral truncation of u.
    """
    if (grid.dim, grid.L) != (u.grid.dim, u.grid.L):
        raise GridError(f"cannot resample a field on {u.grid} to {grid}: "
                        "the grids differ in dim or L")
    m, n = u.grid.m, grid.m
    c = min(m, n) // 2  # modes -c < k < c carry over
    full = (np.r_[0:c, m - c + 1:m], np.r_[0:c, n - c + 1:n])
    src = np.ix_(*[full[0]] * (grid.dim - 1), np.arange(c))
    dst = np.ix_(*[full[1]] * (grid.dim - 1), np.arange(c))
    spec = np.zeros((n,) * (grid.dim - 1) + (n // 2 + 1,), dtype=complex)
    spec[dst] = scipy.fft.rfftn(u.values)[src]
    values = scipy.fft.irfftn(spec, s=grid.shape, axes=range(grid.dim))
    return Field(grid, values * (n / m) ** grid.dim)


def rescale_mass(f: Field, target: float) -> Field:
    """Scale the field so that mass(f) == target exactly (in float)."""
    if not (target >= 0.0 and np.isfinite(target)):
        raise GridError(f"target mass must be finite and >= 0, got {target}")
    cur = mass(f)
    if cur == 0.0:
        if target == 0.0:
            return f.copy()
        raise GridError("cannot rescale the zero field to positive mass")
    return Field(f.grid, f.values * (target / cur))


# ----------------------------------------------------------------------
# Field file format: ASCII header, then raw little-endian float64 samples.
# ----------------------------------------------------------------------

def write_atomic(path: str | os.PathLike, *chunks) -> None:
    """Write the byte chunks to path atomically and durably (temp file,
    fsync, rename), creating the parent directory."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_field(path: str | os.PathLike, f: Field) -> None:
    """Write a field atomically; the samples go out without a bytes copy."""
    header = (
        CHQF_MAGIC
        + f"dim={f.grid.dim}\n".encode()
        + f"m={f.grid.m}\n".encode()
        + f"L={f.grid.L!r}\n".encode()
        + b"end\n"
    )
    samples = np.ascontiguousarray(f.values, dtype="<f8")
    write_atomic(path, header, memoryview(samples).cast("B"))


def read_field(path: str | os.PathLike) -> Field:
    with open(path, "rb") as fh:
        magic = fh.read(len(CHQF_MAGIC))
        if magic != CHQF_MAGIC:
            raise FieldIOError(f"{path}: not a CHQF1 field file")
        meta: dict[str, str] = {}
        while True:
            line = fh.readline()
            if not line:
                raise FieldIOError(f"{path}: truncated header")
            text = line.decode("ascii", errors="replace").strip()
            if text == "end":
                break
            if "=" not in text:
                raise FieldIOError(f"{path}: malformed header line {text!r}")
            key, _, val = text.partition("=")
            meta[key.strip()] = val.strip()
        try:
            grid = Grid(dim=int(meta["dim"]), m=int(meta["m"]), L=float(meta["L"]))
        except (KeyError, ValueError) as exc:
            raise FieldIOError(f"{path}: bad header fields ({exc})") from exc
        payload = fh.read(8 * grid.npoints)
        if len(payload) != 8 * grid.npoints:
            raise FieldIOError(f"{path}: payload shorter than m^dim samples")
        extra = fh.read(1)
        if extra:
            raise FieldIOError(f"{path}: trailing bytes after payload")
    values = np.frombuffer(payload, dtype="<f8").reshape(grid.shape)
    if not np.isfinite(values).all():
        raise FieldIOError(f"{path}: non-finite samples")
    return Field(grid, values.copy())
