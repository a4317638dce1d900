"""Tests for filter scorers, SelectKBest, and the Fisher-LDA transform."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.learn.feature_selection import (
    FILTER_SCORERS,
    FisherLDATransform,
    SelectKBest,
    chi2_score,
    count_score,
    f_classif_score,
    fisher_score,
    kendall_score,
    mutual_info_score,
    pearson_score,
    spearman_score,
)


@pytest.fixture(scope="module")
def informative_data():
    """Feature 0 drives the label; features 1-3 are noise; 4 is constant."""
    rng = np.random.default_rng(5)
    n = 300
    informative = rng.normal(size=n)
    y = (informative > 0).astype(int)
    X = np.column_stack([
        informative + 0.1 * rng.normal(size=n),
        rng.normal(size=n),
        rng.normal(size=n),
        rng.normal(size=n),
        np.full(n, 3.0),
    ])
    return X, y


ALL_SCORERS = [
    pearson_score, spearman_score, kendall_score, chi2_score,
    mutual_info_score, fisher_score, f_classif_score,
]


@pytest.mark.parametrize("scorer", ALL_SCORERS)
def test_informative_feature_ranks_first(scorer, informative_data):
    X, y = informative_data
    scores = scorer(X, y)
    assert scores.shape == (5,)
    assert np.argmax(scores) == 0


@pytest.mark.parametrize("scorer", ALL_SCORERS + [count_score])
def test_scores_are_finite_and_nonnegative(scorer, informative_data):
    X, y = informative_data
    scores = scorer(X, y)
    assert np.all(np.isfinite(scores))
    assert np.all(scores >= 0.0)


@pytest.mark.parametrize(
    "scorer",
    [pearson_score, spearman_score, kendall_score, fisher_score, f_classif_score],
)
def test_constant_feature_scores_zero(scorer, informative_data):
    X, y = informative_data
    assert scorer(X, y)[4] == 0.0


def test_count_score_counts_distinct_values():
    X = np.array([[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]])
    y = np.array([0, 1, 0])
    assert count_score(X, y).tolist() == [3.0, 1.0]


def test_pearson_score_is_absolute():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y_pos = np.array([0, 0, 1, 1])
    y_neg = np.array([1, 1, 0, 0])
    assert pearson_score(X, y_pos) == pytest.approx(pearson_score(X, y_neg))


def test_mutual_info_zero_for_independent_feature():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(500, 1))
    y = rng.integers(0, 2, size=500)
    assert mutual_info_score(X, y)[0] < 0.05


class TestSelectKBest:
    def test_keeps_top_k(self, informative_data):
        X, y = informative_data
        selector = SelectKBest(scorer="f_classif", k=1).fit(X, y)
        assert selector.selected_indices().tolist() == [0]
        assert selector.transform(X).shape == (X.shape[0], 1)

    def test_k_all_keeps_everything(self, informative_data):
        X, y = informative_data
        Z = SelectKBest(scorer="pearson", k="all").fit_transform(X, y)
        assert Z.shape == X.shape

    def test_fractional_k(self, informative_data):
        X, y = informative_data
        selector = SelectKBest(scorer="fisher", k=0.4).fit(X, y)
        assert selector.transform(X).shape[1] == 2  # 40% of 5

    def test_k_larger_than_features_is_clamped(self, informative_data):
        X, y = informative_data
        Z = SelectKBest(scorer="fisher", k=100).fit_transform(X, y)
        assert Z.shape == X.shape

    def test_unknown_scorer_rejected(self, informative_data):
        X, y = informative_data
        with pytest.raises(ValidationError, match="unknown scorer"):
            SelectKBest(scorer="bogus").fit(X, y)

    def test_invalid_k_rejected(self, informative_data):
        X, y = informative_data
        with pytest.raises(ValidationError):
            SelectKBest(k=0).fit(X, y)
        with pytest.raises(ValidationError):
            SelectKBest(k=1.5).fit(X, y)

    def test_transform_checks_feature_count(self, informative_data):
        X, y = informative_data
        selector = SelectKBest(k=2).fit(X, y)
        with pytest.raises(ValidationError, match="features"):
            selector.transform(X[:, :3])

    def test_registry_covers_eight_scorers(self):
        assert len(FILTER_SCORERS) == 8


class TestFisherLDA:
    def test_projection_is_one_dimensional(self, informative_data):
        X, y = informative_data
        Z = FisherLDATransform().fit_transform(X, y)
        assert Z.shape == (X.shape[0], 1)

    def test_projection_separates_classes(self, informative_data):
        X, y = informative_data
        Z = FisherLDATransform().fit_transform(X, y).ravel()
        gap = abs(Z[y == 1].mean() - Z[y == 0].mean())
        pooled_std = Z.std()
        assert gap > pooled_std  # projected classes are well separated

    def test_keep_original_appends_features(self, informative_data):
        X, y = informative_data
        Z = FisherLDATransform(keep_original=2).fit_transform(X, y)
        assert Z.shape == (X.shape[0], 3)

    def test_transform_rejects_a_width_other_than_the_fit(
            self, informative_data):
        X, y = informative_data
        fitted = FisherLDATransform(keep_original=2).fit(X, y)
        with pytest.raises(ValidationError, match="fitted on"):
            fitted.transform(X[:, :-1])
