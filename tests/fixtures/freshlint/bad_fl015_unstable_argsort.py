"""FL015 fixture: argsorts whose tie order is implementation-defined."""

import numpy as np
from numpy import argsort

__all__ = ["group_by_element"]


def group_by_element(elements: np.ndarray, times: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three unstable groupings of one tape (indices, no units)."""
    default = np.argsort(elements)
    quick = elements.argsort(kind="quicksort")
    imported = argsort(times, kind=None)
    return default, quick, imported
