"""Tree-based classifiers: CART decision trees and Decision Jungles.

Fitted trees are compiled into flat arrays (:mod:`repro.learn.tree.flat`)
and grown by the split engine in :mod:`repro.learn.tree.splitter`.
"""

from repro.learn.tree.cart import DecisionTreeClassifier
from repro.learn.tree.criteria import entropy_impurity, gini_impurity
from repro.learn.tree.flat import FlatForest, FlatTree, flatten_tree, stack_trees
from repro.learn.tree.jungle import DecisionJungleClassifier

__all__ = [
    "DecisionTreeClassifier",
    "DecisionJungleClassifier",
    "gini_impurity",
    "entropy_impurity",
    "FlatTree",
    "FlatForest",
    "flatten_tree",
    "stack_trees",
]
