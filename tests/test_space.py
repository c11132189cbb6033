import json

import numpy as np
import pytest

from mflow import PDPoint, as_vector


def test_as_vector_rejects_non_finite():
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        as_vector([np.inf])
    with pytest.raises(ValueError):
        as_vector([])


def test_pdpoint_flatten_bijection(rng):
    x = PDPoint(rng.standard_normal(3), rng.standard_normal(2))
    back = PDPoint.from_flat(x.flat, 3)
    assert np.array_equal(back.p, x.p)
    assert np.array_equal(back.v, x.v)
    with pytest.raises(ValueError):
        PDPoint.from_flat(x.flat, 5)


def test_pdpoint_immutable():
    x = PDPoint([1.0], [2.0])
    with pytest.raises(ValueError):
        x.p[0] = 3.0


def test_pdpoint_json_round_trip():
    y = PDPoint.from_json_dict(json.loads('{"p": [1.5, -2.0], "v": [0.25]}'))
    assert np.array_equal(y.flat, [1.5, -2.0, 0.25])
