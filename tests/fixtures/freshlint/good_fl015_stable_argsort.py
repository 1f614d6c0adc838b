"""FL015-clean groupings: stable argsorts, a radix helper and a sort of
unique (key, position) keys."""

import numpy as np

__all__ = ["group_by_element"]


def _stable_element_argsort(elements: np.ndarray) -> np.ndarray:
    """Two stable radix passes over the uint16 halves of each id."""
    order = np.argsort((elements & 0xFFFF).astype(np.uint16),
                       kind="stable")
    high = (elements[order] >> 16).astype(np.uint16)
    return order[np.argsort(high, kind="stable")]


def _keyed_element_order(elements: np.ndarray) -> np.ndarray:
    """Sort of unique ``(id << 31) | position`` keys: one answer."""
    keys = elements.astype(np.int64) << 31
    keys |= np.arange(elements.shape[0], dtype=np.int64)
    keys.sort()
    return keys & ((1 << 31) - 1)


def group_by_element(elements: np.ndarray, times: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable groupings of one tape (indices, no units)."""
    by_time = times.argsort(kind="stable")
    return (_stable_element_argsort(elements), by_time,
            _keyed_element_order(elements))
