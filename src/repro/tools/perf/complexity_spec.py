"""Checked-in loop-nest complexity spec (regenerate: ``repro check --update-spec perf``).

Static analogue of the paper's Table 1: for every estimator in the
analyzed tree, the derived maximum loop-nest depth of ``fit`` and
``predict`` along the (samples, features, estimators, iterations) axes,
folded over the in-project call graph by
:mod:`repro.tools.perf.complexity`.  A depth of 1 along ``samples``
reads as "one Python-level pass over the rows"; vectorized numpy work
does not count.  P305 fails when a fresh derivation disagrees with this
file, so intentional complexity changes are re-recorded here and show up
in review as a spec diff.

This file is data, not code: edit it only via ``--update-spec``.
"""

__all__ = ["COMPLEXITY"]


COMPLEXITY = {
    'repro.learn.bayes.BernoulliNB': {
        'fit': {},
        'predict': {},
    },
    'repro.learn.bayes.GaussianNB': {
        'fit': {},
        'predict': {},
    },
    'repro.learn.ensemble.bagging.BaggingClassifier': {
        'fit': {'estimators': 1},
    },
    'repro.learn.ensemble.boosting.AdaBoostClassifier': {
        'fit': {'estimators': 1},
        'predict': {},
    },
    'repro.learn.ensemble.boosting.GradientBoostingClassifier': {
        'fit': {'estimators': 1},
        'predict': {},
    },
    'repro.learn.ensemble.forest.RandomForestClassifier': {
        'fit': {'estimators': 1},
    },
    'repro.learn.feature_selection.fisher_lda.FisherLDATransform': {
        'fit': {},
    },
    'repro.learn.feature_selection.selector.SelectKBest': {
        'fit': {},
    },
    'repro.learn.linear.base.LinearBinaryClassifier': {
        'fit': {},
        'predict': {},
    },
    'repro.learn.model_selection.GridSearchCV': {
        'fit': {},
        'predict': {},
    },
    'repro.learn.multiclass.OneVsRestClassifier': {
        'fit': {},
        'predict': {},
    },
    'repro.learn.neighbors.KNeighborsClassifier': {
        'fit': {},
    },
    'repro.learn.neural.MLPClassifier': {
        'fit': {'samples': 1, 'iterations': 1},
    },
    'repro.learn.pipeline.Pipeline': {
        'fit': {},
        'predict': {},
    },
    'repro.learn.preprocessing.binning.QuantileBinningTransform': {
        'fit': {},
    },
    'repro.learn.preprocessing.encoding.OrdinalEncoder': {
        'fit': {'features': 2},
    },
    'repro.learn.preprocessing.imputation.MedianImputer': {
        'fit': {},
    },
    'repro.learn.preprocessing.scalers.IdentityTransform': {
        'fit': {},
    },
    'repro.learn.preprocessing.scalers.MaxAbsScaler': {
        'fit': {},
    },
    'repro.learn.preprocessing.scalers.MinMaxScaler': {
        'fit': {},
    },
    'repro.learn.preprocessing.scalers.StandardScaler': {
        'fit': {},
    },
    'repro.learn.regression.DecisionTreeRegressor': {
        'fit': {},
        'predict': {},
    },
    'repro.learn.regression.KNeighborsRegressor': {
        'fit': {},
        'predict': {'samples': 1},
    },
    'repro.learn.regression.LinearRegression': {
        'fit': {},
        'predict': {},
    },
    'repro.learn.tree.cart.DecisionTreeClassifier': {
        'fit': {},
    },
    'repro.learn.tree.jungle.DecisionJungleClassifier': {
        'fit': {'estimators': 1},
    },
}
