"""Helpers that more than one test module uses."""

import numpy as np
import pytest

from traysight.imaging import GrayImage


def constant_image(value, width=8, height=8):
    return GrayImage(np.full((height, width), value, dtype=np.uint8))


def rejects(match, *calls, error=ValueError):
    """A test that each of ``calls`` raises ``error`` with a message matching ``match``.

    Assigned to a ``test_*`` name in a module or class body, each such line is one
    row of that owner's rejection table, and the name is the test's ID.
    """

    def test(*_):  # *_ takes the instance when the row sits in a class
        for call in calls:
            with pytest.raises(error, match=match):
                call()

    return test
