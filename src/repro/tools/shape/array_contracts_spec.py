"""Checked-in estimator array contracts (regenerate: ``repro check --update-spec shape``).

The array-level analogue of the paper's Table 1: for every estimator in
the analyzed tree, the symbolic input shapes of its
``fit``/``predict``/``predict_proba``/``transform`` methods over the
(samples, features, estimators, iterations, classes) dimension
vocabulary, which array parameters each method routes through a
validator (``in`` lists the array parameters, ``validates`` the subset
reaching ``check_X_y``/``check_array``/``asarray`` directly or through a
resolved in-project call), and the derived symbolic shape/dtype of the
return value (``'self'`` for fluent ``fit``, ``None`` when the
interpreter cannot name it).  S405 fails when a fresh derivation
disagrees with this file, so intentional contract changes are
re-recorded here and show up in review as a spec diff.

This file is data, not code: edit it only via ``--update-spec``.
"""

__all__ = ["ARRAY_CONTRACTS"]


ARRAY_CONTRACTS = {
    'repro.learn.bayes.BernoulliNB': {
        'fit': {
            'in': {'X': ('samples', 'features'), 'y': ('samples',)},
            'validates': ('X', 'y'),
            'out': 'self',
            'out_dtype': None,
        },
        'predict': {
            'in': {'X': ('samples', 'features')},
            'validates': ('X',),
            'out': ('samples',),
            'out_dtype': None,
        },
    },
    'repro.learn.bayes.GaussianNB': {
        'fit': {
            'in': {'X': ('samples', 'features'), 'y': ('samples',)},
            'validates': ('X', 'y'),
            'out': 'self',
            'out_dtype': None,
        },
        'predict': {
            'in': {'X': ('samples', 'features')},
            'validates': ('X',),
            'out': (),
            'out_dtype': None,
        },
        'predict_proba': {
            'in': {'X': ('samples', 'features')},
            'validates': ('X',),
            'out': None,
            'out_dtype': None,
        },
    },
    'repro.learn.ensemble.bagging.BaggingClassifier': {
        'fit': {
            'in': {'X': ('samples', 'features'), 'y': ('samples',)},
            'validates': ('X', 'y'),
            'out': 'self',
            'out_dtype': None,
        },
        'predict_proba': {
            'in': {'X': ('samples', 'features')},
            'validates': ('X',),
            'out': ('samples', 2),
            'out_dtype': 'float64',
        },
    },
    'repro.learn.ensemble.boosting.AdaBoostClassifier': {
        'fit': {
            'in': {'X': ('samples', 'features'), 'y': ('samples',)},
            'validates': ('X', 'y'),
            'out': 'self',
            'out_dtype': None,
        },
        'predict': {
            'in': {'X': ('samples', 'features')},
            'validates': ('X',),
            'out': None,
            'out_dtype': None,
        },
        'predict_proba': {
            'in': {'X': ('samples', 'features')},
            'validates': ('X',),
            'out': None,
            'out_dtype': None,
        },
    },
    'repro.learn.ensemble.boosting.GradientBoostingClassifier': {
        'fit': {
            'in': {'X': ('samples', 'features'), 'y': ('samples',)},
            'validates': ('X', 'y'),
            'out': 'self',
            'out_dtype': None,
        },
        'predict': {
            'in': {'X': ('samples', 'features')},
            'validates': ('X',),
            'out': None,
            'out_dtype': None,
        },
        'predict_proba': {
            'in': {'X': ('samples', 'features')},
            'validates': ('X',),
            'out': None,
            'out_dtype': None,
        },
    },
    'repro.learn.ensemble.forest.RandomForestClassifier': {
        'fit': {
            'in': {'X': ('samples', 'features'), 'y': ('samples',)},
            'validates': ('X', 'y'),
            'out': 'self',
            'out_dtype': None,
        },
        'predict_proba': {
            'in': {'X': ('samples', 'features')},
            'validates': ('X',),
            'out': None,
            'out_dtype': None,
        },
    },
    'repro.learn.feature_selection.fisher_lda.FisherLDATransform': {
        'fit': {
            'in': {'X': ('samples', 'features'), 'y': ('samples',)},
            'validates': ('X', 'y'),
            'out': 'self',
            'out_dtype': None,
        },
        'transform': {
            'in': {'X': ('samples', 'features')},
            'validates': ('X',),
            'out': ('?',),
            'out_dtype': 'float64',
        },
    },
    'repro.learn.feature_selection.selector.SelectKBest': {
        'fit': {
            'in': {'X': ('samples', 'features'), 'y': ('samples',)},
            'validates': ('X', 'y'),
            'out': 'self',
            'out_dtype': None,
        },
        'transform': {
            'in': {'X': ('samples', 'features')},
            'validates': ('X',),
            'out': ('samples',),
            'out_dtype': 'float64',
        },
    },
    'repro.learn.linear.base.LinearBinaryClassifier': {
        'fit': {
            'in': {'X': ('samples', 'features'), 'y': ('samples',)},
            'validates': ('X', 'y'),
            'out': 'self',
            'out_dtype': None,
        },
        'predict': {
            'in': {'X': ('samples', 'features')},
            'validates': ('X',),
            'out': None,
            'out_dtype': None,
        },
        'predict_proba': {
            'in': {'X': ('samples', 'features')},
            'validates': ('X',),
            'out': None,
            'out_dtype': None,
        },
    },
    'repro.learn.model_selection.GridSearchCV': {
        'fit': {
            'in': {'X': ('samples', 'features'), 'y': ('samples',)},
            'validates': ('X', 'y'),
            'out': 'self',
            'out_dtype': None,
        },
        'predict': {
            'in': {'X': ('samples', 'features')},
            'validates': (),
            'out': None,
            'out_dtype': None,
        },
    },
    'repro.learn.multiclass.OneVsRestClassifier': {
        'fit': {
            'in': {'X': ('samples', 'features'), 'y': ('samples',)},
            'validates': ('X', 'y'),
            'out': 'self',
            'out_dtype': None,
        },
        'predict': {
            'in': {'X': ('samples', 'features')},
            'validates': ('X',),
            'out': (),
            'out_dtype': None,
        },
        'predict_proba': {
            'in': {'X': ('samples', 'features')},
            'validates': ('X',),
            'out': None,
            'out_dtype': None,
        },
    },
    'repro.learn.neighbors.KNeighborsClassifier': {
        'fit': {
            'in': {'X': ('samples', 'features'), 'y': ('samples',)},
            'validates': ('X', 'y'),
            'out': 'self',
            'out_dtype': None,
        },
        'predict_proba': {
            'in': {'X': ('samples', 'features')},
            'validates': ('X',),
            'out': ('samples', 2),
            'out_dtype': 'float64',
        },
    },
    'repro.learn.neural.MLPClassifier': {
        'fit': {
            'in': {'X': ('samples', 'features'), 'y': ('samples',)},
            'validates': ('X', 'y'),
            'out': 'self',
            'out_dtype': None,
        },
        'predict_proba': {
            'in': {'X': ('samples', 'features')},
            'validates': ('X',),
            'out': None,
            'out_dtype': None,
        },
    },
    'repro.learn.pipeline.Pipeline': {
        'fit': {
            'in': {'X': ('samples', 'features'), 'y': ('samples',)},
            'validates': (),
            'out': 'self',
            'out_dtype': None,
        },
        'predict': {
            'in': {'X': ('samples', 'features')},
            'validates': (),
            'out': None,
            'out_dtype': None,
        },
        'predict_proba': {
            'in': {'X': ('samples', 'features')},
            'validates': (),
            'out': None,
            'out_dtype': None,
        },
    },
    'repro.learn.preprocessing.binning.QuantileBinningTransform': {
        'fit': {
            'in': {'X': ('samples', 'features'), 'y': ('samples',)},
            'validates': ('X',),
            'out': 'self',
            'out_dtype': None,
        },
        'transform': {
            'in': {'X': ('samples', 'features')},
            'validates': ('X',),
            'out': None,
            'out_dtype': None,
        },
    },
    'repro.learn.preprocessing.encoding.OrdinalEncoder': {
        'fit': {
            'in': {'X': ('samples', 'features'), 'y': ('samples',)},
            'validates': ('X',),
            'out': 'self',
            'out_dtype': None,
        },
        'transform': {
            'in': {'X': ('samples', 'features')},
            'validates': ('X',),
            'out': None,
            'out_dtype': 'float64',
        },
    },
    'repro.learn.preprocessing.imputation.MedianImputer': {
        'fit': {
            'in': {'X': ('samples', 'features'), 'y': ('samples',)},
            'validates': ('X',),
            'out': 'self',
            'out_dtype': None,
        },
        'transform': {
            'in': {'X': ('samples', 'features')},
            'validates': ('X',),
            'out': ('samples', 'features'),
            'out_dtype': 'float64',
        },
    },
    'repro.learn.preprocessing.scalers.IdentityTransform': {
        'fit': {
            'in': {'X': ('samples', 'features'), 'y': ('samples',)},
            'validates': ('X',),
            'out': 'self',
            'out_dtype': None,
        },
        'transform': {
            'in': {'X': ('samples', 'features')},
            'validates': ('X',),
            'out': ('samples', 'features'),
            'out_dtype': 'float64',
        },
    },
    'repro.learn.preprocessing.scalers.MaxAbsScaler': {
        'fit': {
            'in': {'X': ('samples', 'features'), 'y': ('samples',)},
            'validates': ('X',),
            'out': 'self',
            'out_dtype': None,
        },
        'transform': {
            'in': {'X': ('samples', 'features')},
            'validates': ('X',),
            'out': ('samples', 'features'),
            'out_dtype': 'float64',
        },
    },
    'repro.learn.preprocessing.scalers.MinMaxScaler': {
        'fit': {
            'in': {'X': ('samples', 'features'), 'y': ('samples',)},
            'validates': ('X',),
            'out': 'self',
            'out_dtype': None,
        },
        'transform': {
            'in': {'X': ('samples', 'features')},
            'validates': ('X',),
            'out': ('samples', 'features'),
            'out_dtype': 'float64',
        },
    },
    'repro.learn.preprocessing.scalers.StandardScaler': {
        'fit': {
            'in': {'X': ('samples', 'features'), 'y': ('samples',)},
            'validates': ('X',),
            'out': 'self',
            'out_dtype': None,
        },
        'transform': {
            'in': {'X': ('samples', 'features')},
            'validates': ('X',),
            'out': ('samples', 'features'),
            'out_dtype': 'float64',
        },
    },
    'repro.learn.regression.DecisionTreeRegressor': {
        'fit': {
            'in': {'X': ('samples', 'features'), 'y': ('samples',)},
            'validates': ('X', 'y'),
            'out': 'self',
            'out_dtype': None,
        },
        'predict': {
            'in': {'X': ('samples', 'features')},
            'validates': ('X',),
            'out': None,
            'out_dtype': None,
        },
    },
    'repro.learn.regression.KNeighborsRegressor': {
        'fit': {
            'in': {'X': ('samples', 'features'), 'y': ('samples',)},
            'validates': ('X', 'y'),
            'out': 'self',
            'out_dtype': None,
        },
        'predict': {
            'in': {'X': ('samples', 'features')},
            'validates': ('X',),
            'out': ('samples',),
            'out_dtype': 'float64',
        },
    },
    'repro.learn.regression.LinearRegression': {
        'fit': {
            'in': {'X': ('samples', 'features'), 'y': ('samples',)},
            'validates': ('X', 'y'),
            'out': 'self',
            'out_dtype': None,
        },
        'predict': {
            'in': {'X': ('samples', 'features')},
            'validates': ('X',),
            'out': None,
            'out_dtype': None,
        },
    },
    'repro.learn.tree.cart.DecisionTreeClassifier': {
        'fit': {
            'in': {'X': ('samples', 'features'), 'y': ('samples',)},
            'validates': ('X', 'y'),
            'out': 'self',
            'out_dtype': None,
        },
        'predict_proba': {
            'in': {'X': ('samples', 'features')},
            'validates': ('X',),
            'out': None,
            'out_dtype': None,
        },
    },
    'repro.learn.tree.jungle.DecisionJungleClassifier': {
        'fit': {
            'in': {'X': ('samples', 'features'), 'y': ('samples',)},
            'validates': ('X', 'y'),
            'out': 'self',
            'out_dtype': None,
        },
        'predict_proba': {
            'in': {'X': ('samples', 'features')},
            'validates': ('X',),
            'out': None,
            'out_dtype': None,
        },
    },
}
