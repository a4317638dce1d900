"""Machine-readable ground truth for the paper's Table 1 control surfaces.

This module is the single source of truth the lint rule R003
diffs every vendor module against: which platforms exist, their position
on the complexity axis, which control dimensions (FEAT / CLF / PARA) each
exposes, the feature-selector inventory, and — classifier by classifier —
the platform-spelled parameter names, defaults, and the §3.2 scan grids
(``D/100, D, 100*D`` for numeric parameters, all options for categorical
ones).

Editing a vendor module without updating this spec (or vice versa) makes
``repro check`` fail with an R003 violation naming the exact mismatch, so
the reproduction cannot silently drift away from the paper's table.

Note on Amazon's dimensions: the paper's Table 1 lists Amazon as
PARA-only, but the simulator exposes its (single, documented) Logistic
Regression classifier as a selectable option so measurement scripts can
name it explicitly; ``ControlSurface.exposed_dimensions`` therefore
reports CLF as well.  The spec records the simulator's surface verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "ClassifierEntry",
    "ParameterEntry",
    "PlatformEntry",
    "TABLE1_SPEC",
]


@dataclass(frozen=True)
class ParameterEntry:
    """One tunable parameter: platform-spelled name, default, scan grid."""

    name: str
    default: object
    values: tuple


@dataclass(frozen=True)
class ClassifierEntry:
    """One classifier row of Table 1 (abbr, marketing label, parameters)."""

    abbr: str
    label: str
    parameters: tuple = ()


@dataclass(frozen=True)
class PlatformEntry:
    """One platform column of Table 1."""

    name: str
    complexity: int
    dimensions: frozenset = field(default_factory=frozenset)
    feature_selectors: tuple = ()
    classifiers: tuple = ()


#: Platform name -> Table 1 entry, ordered by the complexity axis.
TABLE1_SPEC: dict[str, PlatformEntry] = {
    "abm": PlatformEntry(
        name="abm",
        complexity=0,
        dimensions=frozenset(),
        feature_selectors=(),
        classifiers=(),
    ),
    "google": PlatformEntry(
        name="google",
        complexity=1,
        dimensions=frozenset(),
        feature_selectors=(),
        classifiers=(),
    ),
    "amazon": PlatformEntry(
        name="amazon",
        complexity=2,
        dimensions=frozenset(['CLF', 'PARA']),
        feature_selectors=(),
        classifiers=(
            ClassifierEntry(
                abbr='LR',
                label='Logistic Regression',
                parameters=(
                    ParameterEntry('maxIter', 10, (1, 10, 1000)),
                    ParameterEntry('regParam', 0.01, (0.0001, 0.01, 1.0)),
                    ParameterEntry('shuffleType', 'auto', ('auto', 'none')),
                ),
            ),
        ),
    ),
    "predictionio": PlatformEntry(
        name="predictionio",
        complexity=3,
        dimensions=frozenset(['CLF', 'PARA']),
        feature_selectors=(),
        classifiers=(
            ClassifierEntry(
                abbr='LR',
                label='Logistic Regression',
                parameters=(
                    ParameterEntry('maxIter', 10, (1, 10, 1000)),
                    ParameterEntry('regParam', 0.1, (0.001, 0.1, 10.0)),
                    ParameterEntry('fitIntercept', True, (True, False)),
                ),
            ),
            ClassifierEntry(
                abbr='NB',
                label='Naive Bayes',
                parameters=(
                    ParameterEntry('lambda', 1e-06, (1e-08, 1e-06, 0.0001)),
                ),
            ),
            ClassifierEntry(
                abbr='DT',
                label='Decision Tree',
                parameters=(
                    ParameterEntry('numClasses', 2, (2,)),
                    ParameterEntry('maxDepth', 5, (1, 5, 16)),
                ),
            ),
        ),
    ),
    "bigml": PlatformEntry(
        name="bigml",
        complexity=4,
        dimensions=frozenset(['CLF', 'PARA']),
        feature_selectors=(),
        classifiers=(
            ClassifierEntry(
                abbr='LR',
                label='Logistic Regression',
                parameters=(
                    ParameterEntry('regularization', 'l2', ('l1', 'l2')),
                    ParameterEntry('strength', 1.0, (0.01, 1.0, 100.0)),
                    ParameterEntry('eps', 0.0001, (1e-06, 0.0001, 0.01)),
                ),
            ),
            ClassifierEntry(
                abbr='DT',
                label='Decision Tree',
                parameters=(
                    ParameterEntry('node_threshold', 512, (32, 512, 2048)),
                    ParameterEntry('ordering', 'deterministic', ('deterministic', 'random')),
                    ParameterEntry('random_candidates', 0, (0, 2, 8)),
                ),
            ),
            ClassifierEntry(
                abbr='BAG',
                label='Bagging',
                parameters=(
                    ParameterEntry('node_threshold', 512, (32, 512, 2048)),
                    ParameterEntry('number_of_models', 10, (2, 10, 64)),
                    ParameterEntry('ordering', 'deterministic', ('deterministic', 'random')),
                ),
            ),
            ClassifierEntry(
                abbr='RF',
                label='Random Forests',
                parameters=(
                    ParameterEntry('node_threshold', 512, (32, 512, 2048)),
                    ParameterEntry('number_of_models', 10, (2, 10, 64)),
                    ParameterEntry('ordering', 'deterministic', ('deterministic', 'random')),
                ),
            ),
        ),
    ),
    "microsoft": PlatformEntry(
        name="microsoft",
        complexity=5,
        dimensions=frozenset(['CLF', 'FEAT', 'PARA']),
        feature_selectors=('filter_chi', 'filter_count', 'filter_fisher', 'filter_kendall', 'filter_mutual', 'filter_pearson', 'filter_spearman', 'fisher_lda'),
        classifiers=(
            ClassifierEntry(
                abbr='LR',
                label='Two-Class Logistic Regression',
                parameters=(
                    ParameterEntry('optimization_tolerance', 1e-07, (1e-09, 1e-07, 1e-05)),
                    ParameterEntry('l1_weight', 1.0, (0.01, 1.0, 100.0)),
                    ParameterEntry('l2_weight', 1.0, (0.01, 1.0, 100.0)),
                    ParameterEntry('memory_size', 20, (1, 20, 2000)),
                ),
            ),
            ClassifierEntry(
                abbr='SVM',
                label='Two-Class Support Vector Machine',
                parameters=(
                    ParameterEntry('n_iterations', 1, (1, 10, 100)),
                    ParameterEntry('lambda', 0.001, (1e-05, 0.001, 0.1)),
                ),
            ),
            ClassifierEntry(
                abbr='AP',
                label='Two-Class Averaged Perceptron',
                parameters=(
                    ParameterEntry('learning_rate', 1.0, (0.01, 1.0, 100.0)),
                    ParameterEntry('max_iterations', 10, (1, 10, 1000)),
                ),
            ),
            ClassifierEntry(
                abbr='BPM',
                label='Two-Class Bayes Point Machine',
                parameters=(
                    ParameterEntry('n_training_iterations', 30, (1, 30, 100)),
                ),
            ),
            ClassifierEntry(
                abbr='BST',
                label='Two-Class Boosted Decision Tree',
                parameters=(
                    ParameterEntry('max_leaves', 20, (4, 20, 128)),
                    ParameterEntry('min_instances_per_leaf', 10, (1, 10, 50)),
                    ParameterEntry('learning_rate', 0.2, (0.002, 0.2, 1.0)),
                    ParameterEntry('n_trees', 100, (1, 100, 500)),
                ),
            ),
            ClassifierEntry(
                abbr='RF',
                label='Two-Class Decision Forest',
                parameters=(
                    ParameterEntry('resampling', 'bagging', ('bagging', 'replicate')),
                    ParameterEntry('n_trees', 8, (2, 8, 64)),
                    ParameterEntry('max_depth', 32, (4, 32, 64)),
                    ParameterEntry('random_splits', 128, (1, 128, 1024)),
                    ParameterEntry('min_samples_per_leaf', 1, (1, 4, 16)),
                ),
            ),
            ClassifierEntry(
                abbr='DJ',
                label='Two-Class Decision Jungle',
                parameters=(
                    ParameterEntry('resampling', 'bagging', ('bagging', 'replicate')),
                    ParameterEntry('n_dags', 8, (2, 8, 32)),
                    ParameterEntry('max_depth', 32, (4, 32, 64)),
                    ParameterEntry('max_width', 128, (16, 128, 256)),
                    ParameterEntry('optimization_steps', 2048, (64, 2048, 4096)),
                ),
            ),
        ),
    ),
    "local": PlatformEntry(
        name="local",
        complexity=6,
        dimensions=frozenset(['CLF', 'FEAT', 'PARA']),
        feature_selectors=('f_classif', 'gaussian_norm', 'l1_normalization', 'l2_normalization', 'max_abs_scaler', 'min_max_scaler', 'mutual_info_classif', 'standard_scaler'),
        classifiers=(
            ClassifierEntry(
                abbr='LR',
                label='LogisticRegression',
                parameters=(
                    ParameterEntry('penalty', 'l2', ('l1', 'l2', 'none')),
                    ParameterEntry('C', 1.0, (0.01, 1.0, 100.0)),
                    ParameterEntry('solver', 'lbfgs', ('lbfgs', 'sgd')),
                ),
            ),
            ClassifierEntry(
                abbr='NB',
                label='GaussianNB',
                parameters=(
                    ParameterEntry('prior', 'empirical', ('empirical', 'uniform')),
                ),
            ),
            ClassifierEntry(
                abbr='SVM',
                label='LinearSVC',
                parameters=(
                    ParameterEntry('penalty', 'l2', ('l2',)),
                    ParameterEntry('C', 1.0, (0.01, 1.0, 100.0)),
                    ParameterEntry('loss', 'hinge', ('hinge', 'squared_hinge')),
                ),
            ),
            ClassifierEntry(
                abbr='LDA',
                label='LinearDiscriminantAnalysis',
                parameters=(
                    ParameterEntry('solver', 'lsqr', ('lsqr', 'eigen')),
                    ParameterEntry('shrinkage', 'none', ('none', 0.1, 0.5)),
                ),
            ),
            ClassifierEntry(
                abbr='KNN',
                label='KNeighborsClassifier',
                parameters=(
                    ParameterEntry('n_neighbors', 5, (1, 5, 25)),
                    ParameterEntry('weights', 'uniform', ('uniform', 'distance')),
                    ParameterEntry('p', 2.0, (1.0, 2.0, 3.0)),
                ),
            ),
            ClassifierEntry(
                abbr='DT',
                label='DecisionTreeClassifier',
                parameters=(
                    ParameterEntry('criterion', 'gini', ('gini', 'entropy')),
                    ParameterEntry('max_features', 'all', ('all', 'sqrt', 'log2')),
                ),
            ),
            ClassifierEntry(
                abbr='BST',
                label='GradientBoostingClassifier',
                parameters=(
                    ParameterEntry('n_estimators', 50, (5, 50, 200)),
                    ParameterEntry('learning_rate', 0.1, (0.001, 0.1, 1.0)),
                    ParameterEntry('max_features', 'all', ('all', 'sqrt')),
                ),
            ),
            ClassifierEntry(
                abbr='BAG',
                label='BaggingClassifier',
                parameters=(
                    ParameterEntry('n_estimators', 10, (2, 10, 100)),
                    ParameterEntry('max_features', 'all', ('all', 'sqrt')),
                ),
            ),
            ClassifierEntry(
                abbr='RF',
                label='RandomForestClassifier',
                parameters=(
                    ParameterEntry('n_estimators', 50, (5, 50, 200)),
                    ParameterEntry('max_features', 'sqrt', ('sqrt', 'log2', 1.0)),
                ),
            ),
            ClassifierEntry(
                abbr='MLP',
                label='MLPClassifier',
                parameters=(
                    ParameterEntry('activation', 'relu', ('relu', 'tanh', 'logistic')),
                    ParameterEntry('solver', 'adam', ('adam', 'sgd')),
                    ParameterEntry('alpha', 0.0001, (1e-06, 0.0001, 0.01)),
                ),
            ),
        ),
    ),
}
