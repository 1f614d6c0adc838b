"""FL015-clean groupings: stable argsorts and a radix helper."""

import numpy as np

__all__ = ["group_by_element"]


def _stable_element_argsort(elements: np.ndarray) -> np.ndarray:
    """Two stable radix passes over the uint16 halves of each id."""
    order = np.argsort((elements & 0xFFFF).astype(np.uint16),
                       kind="stable")
    high = (elements[order] >> 16).astype(np.uint16)
    return order[np.argsort(high, kind="stable")]


def group_by_element(elements: np.ndarray, times: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Stable groupings of one tape (indices, no units)."""
    by_time = times.argsort(kind="stable")
    return _stable_element_argsort(elements), by_time
