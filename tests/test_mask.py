"""Windowed attention mask versus a brute-force double-loop definition."""

import numpy as np
import pytest

from svtr.exceptions import ContractError
from svtr.model import local_attention_mask


def brute_force_mask(h, w, wh, ww):
    n = h * w
    mask = np.zeros((n, n), dtype=bool)
    for q in range(n):
        for k in range(n):
            qr, qc = divmod(q, w)
            kr, kc = divmod(k, w)
            if abs(qr - kr) <= (wh - 1) // 2 and abs(qc - kc) <= (ww - 1) // 2:
                mask[q, k] = True
    return mask


@pytest.mark.parametrize("h,w", [(8, 32), (4, 32), (2, 32)])
def test_matches_brute_force_on_stage_grids(h, w):
    np.testing.assert_array_equal(local_attention_mask(h, w, 7, 11),
                                  brute_force_mask(h, w, 7, 11))


@pytest.mark.parametrize("h,w,wh,ww", [(3, 5, 3, 3), (1, 7, 7, 11), (5, 5, 1, 1)])
def test_matches_brute_force_on_small_grids(h, w, wh, ww):
    np.testing.assert_array_equal(local_attention_mask(h, w, wh, ww),
                                  brute_force_mask(h, w, wh, ww))


def test_interior_query_degree():
    mask = local_attention_mask(8, 32, 7, 11)
    interior = 4 * 32 + 16  # row 4, col 16: full window fits
    assert mask[interior].sum() == 77


def test_corner_query_degree():
    mask = local_attention_mask(8, 32, 7, 11)
    assert mask[0].sum() == 4 * 6


def test_single_cell_grid():
    mask = local_attention_mask(1, 1, 7, 11)
    np.testing.assert_array_equal(mask, [[True]])


def test_mask_is_symmetric_and_reflexive():
    mask = local_attention_mask(6, 9, 3, 5)
    np.testing.assert_array_equal(mask, mask.T)
    assert mask.diagonal().all()


def test_even_window_rejected():
    with pytest.raises(ContractError):
        local_attention_mask(4, 4, 4, 11)


@pytest.mark.parametrize("h,w", [(0, 4), (4, -1)])
def test_non_positive_grid_rejected(h, w):
    with pytest.raises(ContractError) as exc:
        local_attention_mask(h, w, 3, 3)
    assert type(exc.value) is ContractError
    assert f"grid {h}x{w} and window 3x3 must be positive" in str(exc.value)
