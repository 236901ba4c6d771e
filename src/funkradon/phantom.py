"""Analytic test objects: sums of Gaussians and mollified discs.

Components evaluate at arbitrary points, so the forward transform can
integrate them along curves without committing to a grid; rasterize produces
the reference field that reconstructions are measured against. Every
evaluation takes a turn: the values at the points turned about the origin by
that angle, obtained by turning the component's centre the other way, so the
forward transform can integrate a turned copy of one set of curve points. A
1-D sequence of turns evaluates every turn in one call, one value array per
turn on a leading axis, so the forward transform evaluates all the columns
that share a block of points at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import Grid, ScalarField

__all__ = ["Gaussian", "Disc", "Phantom", "parse_phantom"]


def _require_finite(what, *values):
    # a NaN or infinite parameter makes the support radius or the values
    # non-finite, and the forward transform would quietly return zeros
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} must be finite")


def _is_sequence(turn):
    """Whether turn is a 1-D sequence of turns (a list, a tuple or a 1-D
    array) rather than one turn; cheaper than np.ndim on a float, which
    every component pays once per call."""
    return isinstance(turn, (list, tuple, np.ndarray)) and np.ndim(turn) == 1


def _turned(center, turn):
    """The centre turned about the origin by -turn, as two floats."""
    cx, cy = center
    if turn:
        c, s = math.cos(turn), math.sin(turn)
        cx, cy = c * cx + s * cy, c * cy - s * cx
    return cx, cy


def _offsets(x, center, turn):
    """x minus the centre turned about the origin by -turn: a component
    depends on a point only through its distance from the centre, and
    |R(turn) x - center| = |x - R(-turn) center|, so turning the centre as
    two floats stands in for turning every point. A 1-D sequence of turns
    turns the centre by each and gives the offsets one turn per slice of a
    leading axis, each the offsets of that scalar turn bit for bit. The two
    offsets are fresh arrays, 0-d at a single point and a scalar turn, which
    the caller may overwrite."""
    x = np.asarray(x, dtype=float)
    if _is_sequence(turn):
        cxy = np.array([_turned(center, t) for t in turn]).reshape(-1, 2)
        cxy = cxy.reshape(cxy.shape[:1] + (1,) * (x.ndim - 1) + (2,))
        return x[..., 0] - cxy[..., 0], x[..., 1] - cxy[..., 1]
    cx, cy = _turned(center, turn)
    if x.ndim == 1:
        return np.array(x[0] - cx), np.array(x[1] - cy)
    return x[..., 0] - cx, x[..., 1] - cy


def _result(v):
    return v if v.ndim else float(v)


@dataclass(frozen=True)
class Gaussian:
    center: tuple[float, float]
    sigma: float
    amplitude: float = 1.0

    def __post_init__(self):
        _require_finite("gaussian centre, sigma and amplitude", *self.center, self.sigma, self.amplitude)
        if not (self.sigma > 0):
            raise ValueError("gaussian sigma must be positive")

    @property
    def support_radius(self) -> float:
        # effectively zero past six sigmas
        return float(np.hypot(*self.center) + 6.0 * self.sigma)

    @property
    def feature_scale(self) -> float:
        return float(self.sigma)

    def eval(self, x, turn=0.0):
        # amplitude * exp(-0.5 * d2 / sigma**2), in place on the offsets
        d2, dy = _offsets(x, self.center, turn)
        d2 *= d2
        dy *= dy
        d2 += dy
        d2 *= -0.5
        d2 /= self.sigma**2
        np.exp(d2, out=d2)
        if self.amplitude != 1.0:
            d2 *= self.amplitude
        return _result(d2)


@dataclass(frozen=True)
class Disc:
    """Flat-top disc of the given radius; the profile rolls off smoothly over
    the band of width w just inside the rim (cubic smoothstep), so the value
    is exactly zero at and beyond the radius. w = 0 gives a sharp indicator.
    """

    center: tuple[float, float]
    radius: float
    amplitude: float = 1.0
    width: float = 0.0

    def __post_init__(self):
        _require_finite(
            "disc centre, radius, amplitude and width", *self.center, self.radius, self.amplitude, self.width
        )
        if not (self.radius > 0):
            raise ValueError("disc radius must be positive")
        if self.width < 0:
            raise ValueError("disc mollification width cannot be negative")

    @property
    def support_radius(self) -> float:
        return float(np.hypot(*self.center) + self.radius)

    @property
    def feature_scale(self) -> float:
        # the rim band; 0 for a sharp disc, which the forward transform
        # integrates analytically rather than by quadrature
        return float(self.width)

    def eval(self, x, turn=0.0):
        # in place on the offsets; the mollified profile is
        # amplitude * u * u * (3 - 2u), u = clip((radius - d) / width, 0, 1)
        d, dy = _offsets(x, self.center, turn)
        np.hypot(d, dy, out=d)
        if self.width == 0.0:
            v = np.less(d, self.radius, out=d)
            if self.amplitude != 1.0:
                v *= self.amplitude
            return _result(v)
        u = np.subtract(self.radius, d, out=d)
        u /= self.width
        np.clip(u, 0.0, 1.0, out=u)
        dy = np.multiply(u, -2.0, out=dy)
        dy += 3.0
        v = u * self.amplitude if self.amplitude != 1.0 else u
        v *= u
        v *= dy
        return _result(v)


@dataclass(frozen=True)
class Phantom:
    components: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))

    @property
    def support_radius(self) -> float:
        if not self.components:
            return 0.0
        return max(c.support_radius for c in self.components)

    @property
    def feature_scale(self) -> float:
        """Length below which the phantom may vary by O(1): the smallest
        component scale. A component that declares none counts as 0, which
        makes the forward quadrature refine its rows to n_max."""
        return min((getattr(c, "feature_scale", 0.0) for c in self.components), default=np.inf)

    def eval(self, x, turn=0.0):
        """The phantom at the points x turned about the origin by turn,
        f(R(turn) x): the phantom turned by -turn, evaluated at x. turn may
        be a 1-D sequence of turns (a list, a tuple or a 1-D array): the
        result then has one leading slice per turn, of shape
        (len(turn),) + x.shape[:-1], and each slice equals the call with
        that turn alone bit for bit. A component takes turn the same way.
        The sum accumulates in the first component's result, so every
        component returns a fresh array (or a float at a single point and a
        scalar turn) of that shape."""
        x = np.asarray(x, dtype=float)
        if not self.components:
            shape = ((len(turn),) if _is_sequence(turn) else ()) + x.shape[:-1]
            return np.zeros(shape) if shape else 0.0
        out = self.components[0].eval(x, turn)
        for c in self.components[1:]:
            out += c.eval(x, turn)
        return out if np.ndim(out) else float(out)

    def rasterize(self, grid: Grid) -> ScalarField:
        return ScalarField(grid, self.eval(grid.points()))


def parse_phantom(text: str) -> Phantom:
    """Parse ``gauss:cx,cy,sigma,amp`` / ``disc:cx,cy,r,amp[,w]`` terms
    joined by semicolons."""
    comps = []
    for term in text.split(";"):
        term = term.strip()
        if not term:
            continue
        shape, _, rest = term.partition(":")
        try:
            nums = [float(v) for v in rest.split(",")] if rest else []
        except ValueError:
            raise ValueError(f"non-numeric parameter in phantom term {term!r}") from None
        if shape == "gauss":
            if len(nums) != 4:
                raise ValueError(f"gauss needs cx,cy,sigma,amp: {term!r}")
            comps.append(Gaussian((nums[0], nums[1]), nums[2], nums[3]))
        elif shape == "disc":
            if len(nums) not in (4, 5):
                raise ValueError(f"disc needs cx,cy,r,amp[,w]: {term!r}")
            w = nums[4] if len(nums) == 5 else 0.0
            comps.append(Disc((nums[0], nums[1]), nums[2], nums[3], w))
        else:
            raise ValueError(f"unknown phantom shape {shape!r}")
    return Phantom(tuple(comps))
