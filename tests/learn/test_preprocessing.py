"""Tests for scalers, normalizers, imputation, encoding, and binning."""

import numpy as np
import pytest

from repro.exceptions import NotFittedError, ValidationError
from repro.learn.preprocessing import (
    IdentityTransform,
    L1Normalizer,
    L2Normalizer,
    MaxAbsScaler,
    MedianImputer,
    MinMaxScaler,
    OrdinalEncoder,
    QuantileBinningTransform,
    StandardScaler,
)


class TestStandardScaler:
    def test_zero_mean_unit_variance(self, rng):
        X = rng.normal(loc=5.0, scale=3.0, size=(200, 4))
        Z = StandardScaler().fit_transform(X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-9)

    def test_constant_feature_not_divided_by_zero(self):
        X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        Z = StandardScaler().fit_transform(X)
        assert np.all(np.isfinite(Z))
        assert np.allclose(Z[:, 1], 0.0)

    def test_rounding_level_spread_is_not_scaled_up(self):
        # Adjacent doubles: their mean is not representable, so scaling
        # by their tiny std would leave the output off-centre by ~0.7.
        X = np.array([[np.nextafter(1e6, 0.0)], [1e6]])
        Z = StandardScaler().fit_transform(X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-6)
        assert np.allclose(Z, 0.0, atol=1e-6)

    def test_transform_uses_training_statistics(self):
        scaler = StandardScaler().fit(np.array([[0.0], [2.0]]))
        assert scaler.transform(np.array([[4.0]]))[0, 0] == pytest.approx(3.0)

    def test_without_mean_or_std(self):
        X = np.array([[1.0], [3.0]])
        no_center = StandardScaler(with_mean=False).fit_transform(X)
        assert no_center.mean() != pytest.approx(0.0)
        no_scale = StandardScaler(with_std=False).fit_transform(X)
        assert no_scale.std() == pytest.approx(1.0)  # 1 and -1 after centering

    def test_requires_fit(self):
        with pytest.raises(NotFittedError):
            StandardScaler().transform([[1.0]])


class TestMinMaxScaler:
    def test_maps_to_unit_interval(self, rng):
        X = rng.normal(size=(100, 3)) * 10
        Z = MinMaxScaler().fit_transform(X)
        assert Z.min() == pytest.approx(0.0)
        assert Z.max() == pytest.approx(1.0)

    def test_custom_range(self):
        Z = MinMaxScaler(feature_range=(-1.0, 1.0)).fit_transform(
            np.array([[0.0], [10.0]])
        )
        assert Z.ravel().tolist() == [-1.0, 1.0]

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            MinMaxScaler(feature_range=(1.0, 0.0)).fit(np.array([[1.0]]))

    def test_constant_feature_safe(self):
        Z = MinMaxScaler().fit_transform(np.array([[3.0], [3.0]]))
        assert np.all(np.isfinite(Z))


class TestMaxAbsScaler:
    def test_bounds(self):
        X = np.array([[-4.0, 2.0], [2.0, -1.0]])
        Z = MaxAbsScaler().fit_transform(X)
        assert np.abs(Z).max() == pytest.approx(1.0)
        assert Z[0, 0] == pytest.approx(-1.0)

    def test_zero_column_safe(self):
        Z = MaxAbsScaler().fit_transform(np.zeros((3, 2)))
        assert np.all(Z == 0.0)


class TestNormalizers:
    def test_l2_rows_have_unit_norm(self, rng):
        X = rng.normal(size=(50, 4))
        Z = L2Normalizer().fit_transform(X)
        assert np.allclose(np.linalg.norm(Z, axis=1), 1.0)

    def test_l1_rows_have_unit_norm(self, rng):
        X = rng.normal(size=(50, 4))
        Z = L1Normalizer().fit_transform(X)
        assert np.allclose(np.abs(Z).sum(axis=1), 1.0)

    def test_zero_row_stays_zero(self):
        Z = L2Normalizer().fit_transform(np.zeros((2, 3)))
        assert np.all(Z == 0.0)


def test_identity_transform_roundtrip(rng):
    X = rng.normal(size=(10, 3))
    assert np.array_equal(IdentityTransform().fit_transform(X), X)


@pytest.mark.parametrize("transformer", [
    StandardScaler, MinMaxScaler, MaxAbsScaler, L1Normalizer, L2Normalizer,
    IdentityTransform,
])
def test_transform_rejects_a_width_other_than_the_fit(transformer, rng):
    fitted = transformer().fit(rng.normal(size=(10, 1)))
    with pytest.raises(ValidationError, match="fitted on 1 features, got 3"):
        fitted.transform(rng.normal(size=(4, 3)))


class TestMedianImputer:
    def test_median_fill(self):
        X = np.array([[1.0, np.nan], [3.0, 4.0], [np.nan, 8.0]])
        Z = MedianImputer().fit_transform(X)
        assert Z[2, 0] == pytest.approx(2.0)   # median of 1, 3
        assert Z[0, 1] == pytest.approx(6.0)   # median of 4, 8

    def test_mean_strategy(self):
        X = np.array([[1.0], [np.nan], [5.0]])
        Z = MedianImputer(strategy="mean").fit_transform(X)
        assert Z[1, 0] == pytest.approx(3.0)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValidationError):
            MedianImputer(strategy="mode").fit(np.array([[1.0]]))

    def test_all_missing_feature_becomes_zero(self):
        X = np.array([[np.nan, 1.0], [np.nan, 2.0]])
        Z = MedianImputer().fit_transform(X)
        assert np.all(Z[:, 0] == 0.0)

    def test_transform_feature_count_checked(self):
        imputer = MedianImputer().fit(np.array([[1.0, 2.0]]))
        with pytest.raises(ValidationError, match="features"):
            imputer.transform(np.array([[1.0]]))

    def test_output_is_nan_free(self, rng):
        X = rng.normal(size=(40, 5))
        X[rng.random(X.shape) < 0.3] = np.nan
        Z = MedianImputer().fit_transform(X)
        assert not np.isnan(Z).any()


class TestOrdinalEncoder:
    def test_maps_categories_to_one_based_integers(self):
        X = np.array([["red"], ["blue"], ["red"], ["green"]], dtype=object)
        Z = OrdinalEncoder().fit_transform(X)
        # Sorted categories: blue=1, green=2, red=3.
        assert Z.ravel().tolist() == [3.0, 1.0, 3.0, 2.0]

    def test_numeric_columns_pass_through(self):
        X = np.array([[1.5, "a"], [2.5, "b"]], dtype=object)
        Z = OrdinalEncoder().fit_transform(X)
        assert Z[:, 0].tolist() == [1.5, 2.5]

    def test_missing_becomes_nan(self):
        X = np.array([["a"], [None], ["b"]], dtype=object)
        Z = OrdinalEncoder().fit_transform(X)
        assert np.isnan(Z[1, 0])

    def test_unseen_category_gets_new_code(self):
        encoder = OrdinalEncoder().fit(np.array([["a"], ["b"]], dtype=object))
        Z = encoder.transform(np.array([["zzz"]], dtype=object))
        assert Z[0, 0] == 3.0  # N + 1 with N = 2


class TestQuantileBinning:
    def test_output_is_one_hot(self, rng):
        X = rng.normal(size=(100, 2))
        Z = QuantileBinningTransform(n_bins=5).fit_transform(X)
        assert set(np.unique(Z)) <= {0.0, 1.0}
        # Each sample activates exactly one indicator per original feature.
        assert np.allclose(Z.sum(axis=1), 2.0)

    def test_enables_linear_model_on_circles(self, circles_data):
        from repro.learn.linear import LogisticRegression
        from repro.learn.metrics import f_score
        from repro.learn.pipeline import Pipeline

        X_train, y_train, X_test, y_test = circles_data
        plain = LogisticRegression().fit(X_train, y_train)
        plain_f = f_score(y_test, plain.predict(X_test))
        binned = Pipeline([
            ("bins", QuantileBinningTransform(n_bins=8)),
            ("clf", LogisticRegression()),
        ]).fit(X_train, y_train)
        binned_f = f_score(y_test, binned.predict(X_test))
        assert binned_f > plain_f + 0.2  # binning unlocks the circle

    def test_rejects_single_bin(self):
        with pytest.raises(ValidationError):
            QuantileBinningTransform(n_bins=1).fit(np.array([[1.0]]))
