"""Tests for the estimator base protocol (fit/predict/params/validation)."""

import numpy as np
import pytest

from repro.learners.base import (
    BaseClassifier,
    NotFittedError,
    check_array,
    check_X_y,
    clone,
)
from repro.learners.tree import J48
from repro.learners.rules import ZeroR


class TestCheckArray:
    def test_coerces_lists(self):
        out = check_array([[1, 2], [3, 4]])
        assert out.dtype == np.float64
        assert out.shape == (2, 2)

    def test_promotes_1d_to_row(self):
        assert check_array([1.0, 2.0, 3.0]).shape == (1, 3)

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            check_array(np.zeros((2, 2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_array(np.zeros((0, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_array([[1.0, np.nan]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            check_array([[1.0, np.inf]])


class TestCheckXy:
    def test_accepts_integer_like_floats(self):
        X, y = check_X_y([[1.0], [2.0]], [0.0, 1.0])
        assert y.dtype == np.int64

    def test_rejects_non_integer_labels(self):
        with pytest.raises(ValueError):
            check_X_y([[1.0], [2.0]], [0.5, 1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            check_X_y([[1.0], [2.0]], [0, 1, 0])

    def test_rejects_2d_labels(self):
        with pytest.raises(ValueError):
            check_X_y([[1.0], [2.0]], [[0], [1]])


class TestBaseProtocol:
    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            ZeroR().predict([[1.0, 2.0]])

    def test_get_set_params_roundtrip(self):
        model = J48(max_depth=5, min_samples_leaf=3)
        params = model.get_params()
        assert params["max_depth"] == 5
        model.set_params(max_depth=7)
        assert model.get_params()["max_depth"] == 7

    def test_param_names_are_looked_up_once_per_class(self, monkeypatch):
        import inspect

        from repro.learners import base

        class Probe(BaseClassifier):
            def __init__(self, depth=3, *args, rate=0.5, **kwargs):
                super().__init__()
                self.depth = depth
                self.rate = rate

        calls = []
        signature = inspect.signature
        monkeypatch.setattr(
            base.inspect, "signature", lambda fn: calls.append(fn) or signature(fn)
        )
        for _ in range(3):
            assert Probe(depth=4).get_params() == {"depth": 4, "rate": 0.5}
            assert clone(Probe(rate=0.1)).get_params() == {"depth": 3, "rate": 0.1}
        assert len(calls) == 1

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError):
            J48().set_params(bogus=1)

    def test_clone_is_unfitted_copy(self, simple_xy):
        X, y = simple_xy
        model = J48(max_depth=4).fit(X, y)
        copy = clone(model)
        assert copy is not model
        assert copy.get_params()["max_depth"] == 4
        with pytest.raises(NotFittedError):
            copy.predict(X)

    def test_predict_labels_come_from_training_labels(self, simple_xy):
        X, y = simple_xy
        shifted = y + 5  # arbitrary non-contiguous labels
        model = J48().fit(X, shifted)
        predictions = model.predict(X)
        assert set(np.unique(predictions)).issubset(set(np.unique(shifted)))

    def test_predict_proba_rows_sum_to_one(self, simple_xy):
        X, y = simple_xy
        proba = J48().fit(X, y).predict_proba(X)
        assert proba.shape == (X.shape[0], len(np.unique(y)))
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_score_matches_accuracy(self, simple_xy):
        X, y = simple_xy
        model = J48().fit(X, y)
        assert model.score(X, y) == pytest.approx(np.mean(model.predict(X) == y))

    def test_repr_contains_params(self):
        assert "max_depth=3" in repr(J48(max_depth=3))

    def test_n_classes_property(self, simple_xy):
        X, y = simple_xy
        assert J48().fit(X, y).n_classes_ == len(np.unique(y))
