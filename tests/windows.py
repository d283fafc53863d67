"""The C-infinity plateau window that localizes the tests' tones on a grid."""
import numpy as np

from heatsheet import TimeGrid


def smooth_window(grid: TimeGrid, lo: float, hi: float,
                  ramp: float = 1.0) -> np.ndarray:
    """C-infinity plateau window: 1 on [lo+ramp, hi-ramp], 0 outside [lo, hi]."""
    if not (0.0 <= lo < hi <= grid.t_max):
        raise ValueError("window must sit inside [0, t_max]")
    if 2.0 * ramp >= hi - lo:
        raise ValueError("ramps overlap")

    def S(x):
        out = np.zeros_like(x)
        up = x >= 1.0
        mid = (x > 0.0) & ~up
        out[up] = 1.0
        xm = x[mid]
        a = np.exp(-1.0 / xm)
        b = np.exp(-1.0 / (1.0 - xm))
        out[mid] = a / (a + b)
        return out

    t = grid.nodes
    return S((t - lo) / ramp) * S((hi - t) / ramp)
