"""Tests for the payload-size estimate behind byte accounting."""

import numpy as np

from repro.simulator.protocol import estimate_payload_size


class TestEstimatePayloadSize:
    def test_none_is_free(self):
        assert estimate_payload_size(None) == 0

    def test_scalar_is_eight_bytes(self):
        assert estimate_payload_size(3.14) == 8
        assert estimate_payload_size(7) == 8

    def test_bool_is_one_byte(self):
        assert estimate_payload_size(True) == 1

    def test_tuple_sums_elements(self):
        assert estimate_payload_size((1.0, 2.0)) == 16

    def test_numpy_float_array_uses_nbytes(self):
        arr = np.zeros((4, 4), dtype=np.int64)
        assert estimate_payload_size(arr) == arr.nbytes

    def test_numpy_bool_array_is_packed(self):
        arr = np.zeros(16, dtype=bool)
        assert estimate_payload_size(arr) == 2

    def test_dict_sums_values(self):
        assert estimate_payload_size({"a": 1.0, "b": (2.0, 3.0)}) == 24

    def test_string_uses_utf8_length(self):
        assert estimate_payload_size("abc") == 3
