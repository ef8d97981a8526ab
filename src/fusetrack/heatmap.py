"""Center heatmaps: Gaussian rendering, peak decoding, and the focal loss.

A heatmap is a dense per-class grid at 1/R of the image resolution whose
values live in [0, 1]. Object centers are rendered as Gaussian peaks (value
exactly 1.0 at the center cell); decoding inverts the rendering by picking
local maxima. The focal loss scores a predicted heatmap against a rendered
target and is the numeric form used by center-point detectors: positive
cells (target exactly 1) are pulled up, everything else is pushed down with
a penalty that fades near the peaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

# Predictions are clamped into [EPS, 1 - EPS] before logs so that a saturated
# prediction never produces an infinite loss.
EPS = 1e-7


@dataclass(frozen=True)
class HeatmapConfig:
    """Grid geometry: image size in pixels, downsample factor, class count."""

    image_width: int
    image_height: int
    downsample: int
    num_classes: int = 1

    def __post_init__(self):
        if self.downsample <= 0:
            raise ValueError("downsample must be a positive integer")
        if self.image_width % self.downsample or self.image_height % self.downsample:
            raise ValueError("image size must be divisible by the downsample factor")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")

    @property
    def grid_width(self) -> int:
        return self.image_width // self.downsample

    @property
    def grid_height(self) -> int:
        return self.image_height // self.downsample


@dataclass(frozen=True)
class Heatmap:
    """Immutable (grid_height, grid_width, num_classes) array of scores in [0, 1]."""

    config: HeatmapConfig
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        expected = (self.config.grid_height, self.config.grid_width, self.config.num_classes)
        if values.shape != expected:
            raise ValueError(f"values shape {values.shape} does not match config {expected}")
        if not np.isfinite(values).all():
            raise ValueError("heatmap values must be finite")
        if values.min() < 0.0 or values.max() > 1.0:
            raise ValueError("heatmap values must lie in [0, 1]")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class FocalParams:
    """Focal loss exponents. The `_f` suffix keeps them apart from the
    association cost weights, which reuse the same greek letters."""

    alpha_f: float = 2.0
    beta_f: float = 4.0

    def __post_init__(self):
        if self.alpha_f <= 0 or self.beta_f <= 0:
            raise ValueError("focal exponents must be positive")


class Peak(NamedTuple):
    """A decoded center: grid cell (x=column, y=row), class channel, score."""

    x: int
    y: int
    class_id: int
    score: float


def render_gaussian(
    centers: Iterable[Tuple[float, float, int, float]], config: HeatmapConfig
) -> Heatmap:
    """Render Gaussian peaks onto an empty heatmap.

    Args:
        centers: iterable of (x, y, class_id, sigma). x/y are integer grid
            cells (column, row); sigma is the Gaussian std in cells.
        config: grid geometry.

    The value a center contributes at cell q is exp(-|q - p|^2 / (2 sigma^2)),
    evaluated over the whole grid. Same-class peaks combine by element-wise
    maximum, never by sum, so values stay in [0, 1] and the center cell of
    every rendered object is exactly 1.0.
    """
    values = np.zeros((config.grid_height, config.grid_width, config.num_classes))
    ys = np.arange(config.grid_height, dtype=float)[:, None]
    xs = np.arange(config.grid_width, dtype=float)[None, :]
    for x, y, class_id, sigma in centers:
        if float(x) != int(x) or float(y) != int(y):
            raise ValueError(f"center ({x}, {y}) must lie on integer grid cells")
        x, y = int(x), int(y)
        if not (0 <= x < config.grid_width and 0 <= y < config.grid_height):
            raise ValueError(f"center ({x}, {y}) outside the {config.grid_width}x{config.grid_height} grid")
        if not (0 <= class_id < config.num_classes):
            raise ValueError(f"class {class_id} outside [0, {config.num_classes})")
        if not (sigma > 0 and math.isfinite(sigma)):
            raise ValueError("sigma must be positive and finite")
        gauss = np.exp(-((xs - x) ** 2 + (ys - y) ** 2) / (2.0 * sigma * sigma))
        np.maximum(values[:, :, class_id], gauss, out=values[:, :, class_id])
    return Heatmap(config, values)


def extract_peaks(hm: Heatmap, threshold: float, window: int) -> List[Peak]:
    """Decode local maxima from a heatmap.

    A cell is a peak when its value is >= threshold and no cell in its
    window x window neighborhood (same class channel) beats it. Equal-valued
    neighbors are broken deterministically: the cell with the lowest row,
    then lowest column, wins; the others are suppressed.

    Returns peaks sorted by descending score (ties again by row, column,
    class).
    """
    if not (0.0 < threshold < 1.0):
        raise ValueError("threshold must lie in (0, 1)")
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be an odd integer >= 1")
    # Imported here: no command decodes peaks, and scipy.ndimage adds about
    # 27 MB to the peak memory of every import of the package.
    from scipy.ndimage import maximum_filter

    half = window // 2
    peaks: List[Peak] = []
    for class_id in range(hm.config.num_classes):
        channel = hm.values[:, :, class_id]
        neighborhood_max = maximum_filter(channel, size=window, mode="constant", cval=-np.inf)
        rows, cols = np.nonzero((channel >= threshold) & (channel >= neighborhood_max))
        for r, c in zip(rows.tolist(), cols.tolist()):
            value = channel[r, c]
            r0, c0 = max(0, r - half), max(0, c - half)
            win = channel[r0 : r + half + 1, c0 : c + half + 1]
            suppressed = False
            for dr, dc in np.argwhere(win == value):
                rr, cc = r0 + int(dr), c0 + int(dc)
                if (rr, cc) < (r, c):
                    suppressed = True
                    break
            if not suppressed:
                peaks.append(Peak(c, r, class_id, float(value)))
    peaks.sort(key=lambda p: (-p.score, p.y, p.x, p.class_id))
    return peaks


def focal_loss(pred: Heatmap, gt: Heatmap, params: FocalParams, num_objects: int) -> float:
    """Penalty-reduced focal loss between a predicted and a target heatmap.

    Cells where the target is exactly 1 are positives and contribute
    (1 - p)^alpha_f * log(p); every other cell contributes
    (1 - y)^beta_f * p^alpha_f * log(1 - p), which vanishes near rendered
    peaks (y close to 1) and pushes the prediction down elsewhere. The sum
    is negated and divided by num_objects so the result is >= 0 and 0 (up
    to the clamping epsilon) exactly at pred == gt for hard 0/1 targets.

    Predictions are clamped into [EPS, 1 - EPS] before the logs. Summation
    runs through math.fsum in fixed row-major order, so the result does not
    depend on how the grid might be partitioned by a caller.
    """
    if pred.config != gt.config:
        raise ValueError("pred and gt heatmaps must share a config")
    if num_objects < 1:
        raise ValueError("num_objects must be >= 1")
    p = np.clip(pred.values, EPS, 1.0 - EPS)
    y = gt.values
    positive = y == 1.0
    contrib = np.where(
        positive,
        np.power(1.0 - p, params.alpha_f) * np.log(p),
        np.power(1.0 - y, params.beta_f) * np.power(p, params.alpha_f) * np.log1p(-p),
    )
    total = math.fsum(contrib.ravel(order="C").tolist())
    return -total / float(num_objects)
