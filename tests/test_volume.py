"""The in-memory image model."""

import numpy as np

from defacepipe.volume import BinaryMask


def test_binary_mask_keeps_bool_data_and_casts_other_types():
    data = np.zeros((4, 5, 6), dtype=bool)
    data[1:3, 2:4, 3:5] = True
    assert np.shares_memory(BinaryMask(data, np.eye(4)).data, data)

    cast = BinaryMask(data.astype(np.uint8) * 7, np.eye(4)).data
    assert cast.dtype == bool
    np.testing.assert_array_equal(cast, data)
