import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from awekit.errors import ValidationError
from awekit.features import FeatureSequence, pad_or_clip


class TestPadOrClip:
    def make(self, t, d=3):
        return FeatureSequence(frames=np.arange(t * d, dtype=np.float32).reshape(t, d) + 1)

    def test_identity(self):
        seq = self.make(5)
        assert pad_or_clip(seq, 5) is seq

    def test_trailing_zero_pad(self):
        seq = self.make(3)
        out = pad_or_clip(seq, 5)
        np.testing.assert_array_equal(out.frames[:3], seq.frames)
        assert (out.frames[3:] == 0).all()

    def test_centered_clip(self):
        seq = self.make(10, d=1)
        out = pad_or_clip(seq, 4)
        # start = floor((10-4)/2) = 3 -> rows 4..7 (1-indexed)
        np.testing.assert_array_equal(out.frames[:, 0], [4, 5, 6, 7])

    def test_invalid_target(self):
        with pytest.raises(ValidationError):
            pad_or_clip(self.make(3), 0)

    @settings(max_examples=30, deadline=None)
    @given(t=st.integers(1, 20), target=st.integers(1, 20))
    def test_idempotent_at_target(self, t, target):
        seq = self.make(t)
        once = pad_or_clip(seq, target)
        twice = pad_or_clip(once, target)
        assert once == twice
