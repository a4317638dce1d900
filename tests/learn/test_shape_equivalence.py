"""Equivalence of the shape-driven dtype fixes with the original code.

The shape analyzer (S402) flagged builtin ``float``/``int`` dtype names
across the learn substrate — ``astype(float)``, ``dtype=int`` and
friends leave the array width to the platform.  The fixes spell them
``np.float64``/``np.intp``, which on every supported platform name the
*same* dtypes Python's builtins resolve to on 64-bit Linux, so the
rewrites must be bit-for-bit no-ops.  The tests here pin that down
three ways: the dtype aliasing itself, exact learned-state dtypes, and
double-run fit/predict determinism for every estimator family touched.
The boundary tests cover the S406 fixes: ``batch_predict`` and the
auto-selector now normalize client arrays through ``check_array`` /
``check_X_y``, which must not change what already-valid input produces.
"""

import numpy as np
import pytest

from repro.learn import (
    AdaBoostClassifier,
    BaggingClassifier,
    BernoulliNB,
    DecisionJungleClassifier,
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GaussianNB,
    GradientBoostingClassifier,
    KNeighborsClassifier,
    KNeighborsRegressor,
    LinearRegression,
    MLPClassifier,
    OneVsRestClassifier,
    StratifiedKFold,
    roc_auc_score,
)
from repro.learn.feature_selection.filters import mutual_info_score
from repro.learn.feature_selection.fisher_lda import FisherLDATransform
from repro.learn.linear import LogisticRegression
from repro.platforms import LocalLibrary
from repro.platforms.autoselect import AutoClassifierSelector


def make_problem(seed=0, n_samples=120, n_features=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_samples, n_features))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0.0).astype(np.intp)
    if len(np.unique(y)) < 2:  # pragma: no cover - defensive
        y[0] = 1 - y[0]
    return X, y


class TestDtypeAliasing:
    """The rewrite forms are aliases on this platform, not conversions."""

    def test_builtin_float_is_float64(self):
        assert np.dtype(float) == np.dtype(np.float64)
        a = np.arange(5).astype(float)
        b = np.arange(5).astype(np.float64)
        assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_builtin_int_matches_intp_width_here(self):
        # The S402 point: `int` is only 64-bit where the platform says
        # so; np.intp pins what the substrate actually relies on.
        assert np.dtype(int).itemsize == np.dtype(np.intp).itemsize
        a = np.zeros(4, dtype=int)
        b = np.zeros(4, dtype=np.intp)
        assert np.array_equal(a, b) and a.itemsize == b.itemsize

    def test_comparison_mask_round_trip(self):
        # The most common rewritten idiom: (y == c).astype(np.float64).
        y = np.array([0, 1, 1, 0, 1])
        assert np.array_equal((y == 1).astype(np.float64),
                              (y == 1).astype(float))
        assert np.array_equal((y == 1).astype(np.intp),
                              (y == 1).astype(int))


#: Every estimator family with an S402 rewrite in fit/predict paths.
TOUCHED_CLASSIFIERS = [
    ("GaussianNB", lambda: GaussianNB()),
    ("BernoulliNB", lambda: BernoulliNB()),
    ("BaggingClassifier", lambda: BaggingClassifier(random_state=0)),
    ("AdaBoostClassifier", lambda: AdaBoostClassifier(random_state=0)),
    ("GradientBoostingClassifier",
     lambda: GradientBoostingClassifier(random_state=0)),
    ("OneVsRestClassifier", lambda: OneVsRestClassifier(GaussianNB())),
    ("KNeighborsClassifier", lambda: KNeighborsClassifier()),
    ("MLPClassifier", lambda: MLPClassifier(random_state=0)),
    ("DecisionTreeClassifier",
     lambda: DecisionTreeClassifier(random_state=0)),
    ("DecisionJungleClassifier",
     lambda: DecisionJungleClassifier(n_dags=2, random_state=0)),
]


class TestTouchedEstimatorDeterminism:
    @pytest.mark.parametrize(
        "make", [m for _, m in TOUCHED_CLASSIFIERS],
        ids=[n for n, _ in TOUCHED_CLASSIFIERS])
    def test_fit_predict_twice_bit_identical(self, make):
        X, y = make_problem(3)
        pred_a = make().fit(X, y).predict(X)
        pred_b = make().fit(X, y).predict(X)
        assert np.array_equal(pred_a, pred_b)

    @pytest.mark.parametrize(
        "cls", [LinearRegression, DecisionTreeRegressor,
                KNeighborsRegressor], ids=lambda c: c.__name__)
    def test_regressors_deterministic_and_float64(self, cls):
        X, y = make_problem(5)
        y = y.astype(np.float64) + 0.25 * X[:, 0]
        pred_a = cls().fit(X, y).predict(X)
        pred_b = cls().fit(X, y).predict(X)
        assert np.array_equal(pred_a, pred_b)
        assert pred_a.dtype == np.float64


class TestLearnedStateDtypes:
    """Exact dtypes of learned attributes on the rewritten paths."""

    def test_jungle_predictions_deterministic_and_typed(self):
        X, y = make_problem(7, n_samples=80)
        model = DecisionJungleClassifier(
            n_dags=2, random_state=0).fit(X, y)
        pred = model.predict(X)
        assert pred.dtype.kind in "if"
        again = DecisionJungleClassifier(
            n_dags=2, random_state=0).fit(X, y).predict(X)
        assert np.array_equal(pred, again)

    def test_gradient_boosting_probabilities_are_float64(self):
        X, y = make_problem(2, n_samples=90)
        model = GradientBoostingClassifier(random_state=0).fit(X, y)
        proba = model.predict_proba(X)
        assert proba.dtype == np.float64

    def test_mutual_info_scores_float64(self):
        X, y = make_problem(4)
        scores = mutual_info_score(X, y)
        assert scores.dtype == np.float64

    def test_fisher_lda_kept_indices_integer(self):
        X, y = make_problem(6)
        lda = FisherLDATransform().fit(X, y)
        assert lda.kept_indices_.dtype.kind == "i"
        assert lda.kept_indices_.dtype.itemsize == np.dtype(np.intp).itemsize

    def test_stratified_kfold_indices_integer(self):
        X, y = make_problem(8, n_samples=50)
        for train, test in StratifiedKFold(n_splits=3).split(X, y):
            assert train.dtype.kind == "i" and test.dtype.kind == "i"

    def test_roc_auc_unchanged_on_integer_scores(self):
        y = np.array([0, 1, 1, 0, 1, 0, 1, 1])
        scores = np.array([1, 3, 3, 2, 4, 1, 5, 2])  # int input path
        auc = roc_auc_score(y, scores)
        assert auc == roc_auc_score(y, scores.astype(np.float64))


class TestBoundaryValidationEquivalence:
    """S406 fixes: boundary normalization is a no-op for valid input."""

    @staticmethod
    def _trained_platform(X, y):
        platform = LocalLibrary(random_state=0)
        dataset_id = platform.upload_dataset(X, y)
        model_id = platform.create_model(dataset_id)
        platform.await_model(model_id)
        return platform, model_id

    def test_batch_predict_accepts_lists_identically(self):
        X, y = make_problem(1, n_samples=60)
        platform_a, model_a = self._trained_platform(X, y)
        from_array = platform_a.batch_predict(model_a, X[:10])
        platform_b, model_b = self._trained_platform(X, y)
        from_list = platform_b.batch_predict(model_b, X[:10].tolist())
        assert np.array_equal(from_array, from_list)

    def test_batch_predict_rejects_nan_queries(self):
        from repro.exceptions import ValidationError

        X, y = make_problem(1, n_samples=60)
        platform, model_id = self._trained_platform(X, y)
        bad = X[:4].copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValidationError):
            platform.batch_predict(model_id, bad)

    def test_autoselect_identical_for_list_and_array_input(self):
        X, y = make_problem(9, n_samples=100)
        sel_a = AutoClassifierSelector(
            linear_candidate=LogisticRegression(random_state=0),
            nonlinear_candidate=DecisionTreeClassifier(random_state=0),
            random_state=0,
        )
        sel_b = AutoClassifierSelector(
            linear_candidate=LogisticRegression(random_state=0),
            nonlinear_candidate=DecisionTreeClassifier(random_state=0),
            random_state=0,
        )
        winner_a, outcome_a = sel_a.select(X, y)
        winner_b, outcome_b = sel_b.select(X.tolist(), y.tolist())
        assert type(winner_a) is type(winner_b)
        assert outcome_a == outcome_b
