"""Decision Jungle (Shotton et al., NIPS 2013).

Azure ML Studio's Decision Jungle (Table 1: #DAGs, max depth, max width,
optimization steps per layer).  A jungle is an ensemble of rooted decision
DAGs: each level of the graph is limited to a maximum *width*, and child
nodes are merged so that multiple parents can route into the same child.
The width cap trades a small accuracy loss for a much smaller model — we
reproduce that structure with greedy level-wise training followed by
impurity-driven node merging.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ValidationError
from repro.learn.base import BaseEstimator, ClassifierMixin
from repro.learn.tree.criteria import criterion_function
from repro.learn.tree.splitter import ImpurityCriterion, PresortedSplitEngine
from repro.learn.validation import (
    check_binary_labels,
    check_predict_input,
    check_random_state,
    check_X_y,
)

__all__ = ["DecisionJungleClassifier"]


@dataclass
class _DagLevelNode:
    """One node in one level of a decision DAG."""

    feature: int = -1
    threshold: float = 0.0
    left_child: int = -1   # index into the next level's node list
    right_child: int = -1
    positive_fraction: float = 0.5
    n_samples: int = 0
    extras: dict = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        return self.feature == -1


class _DecisionDAG:
    """A single width-limited decision DAG, trained level by level."""

    def __init__(self, max_depth: int, max_width: int, merge_rounds: int,
                 criterion: str, rng: np.random.Generator):
        self.max_depth = max_depth
        self.max_width = max_width
        self.merge_rounds = merge_rounds
        self.impurity_fn = criterion_function(criterion)
        self.rng = rng
        self.levels: list[list[_DagLevelNode]] = []

    def fit(self, X: np.ndarray, y01: np.ndarray) -> None:
        n_samples = X.shape[0]
        # Presorted once per DAG; each level node's sorted lists are
        # masked out of the root order (merged nodes are unions of
        # slots, so they cannot be partitioned out of one parent).
        engine = PresortedSplitEngine(
            X, ImpurityCriterion(y01, self.impurity_fn), min_samples_leaf=1
        )
        assignments = np.zeros(n_samples, dtype=np.intp)  # node index at level
        self.levels = [[_DagLevelNode(
            positive_fraction=float(y01.mean()), n_samples=n_samples
        )]]
        for depth in range(self.max_depth):
            level = self.levels[depth]
            tentative: list[tuple[int, float]] = []  # per-node split
            child_slots: list[tuple[int, int]] = []  # (parent, side) per slot
            # 1. Propose the best split for each current node.
            for node_index, node in enumerate(level):
                members = np.flatnonzero(assignments == node_index)
                node.n_samples = members.size
                if members.size:
                    node.positive_fraction = float(y01[members].mean())
                split = None
                if members.size >= 2 and 0.0 < node.positive_fraction < 1.0:
                    split = self._propose_split(
                        engine, members, node.positive_fraction
                    )
                if split is None:
                    tentative.append((-1, 0.0))
                else:
                    tentative.append((split[0], split[1]))
            # 2. Allocate child slots, two per split node.
            for node_index, (feature, _) in enumerate(tentative):
                if feature >= 0:
                    child_slots.append((node_index, 0))
                    child_slots.append((node_index, 1))
            if not child_slots:
                break
            # 3. Route samples to their tentative child slot.
            slot_of = {pair: slot for slot, pair in enumerate(child_slots)}
            next_assign = np.full(n_samples, -1, dtype=np.intp)
            for node_index, (feature, threshold) in enumerate(tentative):
                members = np.flatnonzero(assignments == node_index)
                if feature < 0 or members.size == 0:
                    continue
                goes_left = X[members, feature] <= threshold
                next_assign[members[goes_left]] = slot_of[(node_index, 0)]
                next_assign[members[~goes_left]] = slot_of[(node_index, 1)]
            # 4. Merge slots down to max_width by grouping slots with the
            #    most similar class posteriors (the jungle's key step).
            slot_groups = self._merge_slots(child_slots, next_assign, y01)
            # 5. Materialize the new level and rewrite parent pointers.
            new_level: list[_DagLevelNode] = []
            group_index_of_slot = {}
            for group_id, slots in enumerate(slot_groups):
                group_members = np.flatnonzero(np.isin(next_assign, slots))
                fraction = float(y01[group_members].mean()) if group_members.size else 0.5
                new_level.append(_DagLevelNode(
                    positive_fraction=fraction, n_samples=group_members.size
                ))
                for slot in slots:
                    group_index_of_slot[slot] = group_id
            for node_index, (feature, threshold) in enumerate(tentative):
                node = level[node_index]
                if feature < 0:
                    continue
                node.feature = feature
                node.threshold = threshold
                node.left_child = group_index_of_slot[slot_of[(node_index, 0)]]
                node.right_child = group_index_of_slot[slot_of[(node_index, 1)]]
            # Samples whose node became a leaf keep no next-level slot.
            routed = next_assign >= 0
            remapped = np.full(n_samples, -1, dtype=np.intp)
            remapped[routed] = [
                group_index_of_slot[s] for s in next_assign[routed]
            ]
            # Leaf-stuck samples stay out of deeper levels.
            assignments = remapped
            self.levels.append(new_level)
            if not routed.any():
                break

    def _propose_split(
        self, engine: PresortedSplitEngine, members: np.ndarray,
        positive_fraction: float,
    ) -> tuple[int, float, int] | None:
        """Best ``(feature, threshold, split_at)`` for one level node."""
        return engine.best_split(
            engine.node_state(members), np.arange(engine.X.shape[1]),
            float(self.impurity_fn(positive_fraction)),
        )

    def _merge_slots(
        self,
        child_slots: list[tuple[int, int]],
        next_assign: np.ndarray,
        y01: np.ndarray,
    ) -> list[list[int]]:
        """Greedily merge child slots until at most ``max_width`` remain.

        Each merge round joins the pair of groups whose pooled impurity
        increases the least — ``merge_rounds`` controls how many candidate
        pairs are scanned per merge (Azure's "optimization steps").
        """
        n_slots = len(child_slots)
        groups: list[list[int]] = [[slot] for slot in range(n_slots)]
        counts = np.empty(n_slots)
        positives = np.empty(n_slots)
        for slot in range(n_slots):
            members = np.flatnonzero(next_assign == slot)
            counts[slot] = members.size
            positives[slot] = float(y01[members].sum())
        while len(groups) > self.max_width:
            a_idx, b_idx = self._candidate_pairs(len(groups))
            n_a, n_b = counts[a_idx], counts[b_idx]
            n_ab = n_a + n_b
            safe = np.maximum(n_ab, 1.0)
            merged = n_ab * self.impurity_fn((positives[a_idx] + positives[b_idx]) / safe)
            separate = (
                n_a * self.impurity_fn(positives[a_idx] / np.maximum(n_a, 1.0))
                + n_b * self.impurity_fn(positives[b_idx] / np.maximum(n_b, 1.0))
            )
            costs = np.where(n_ab > 0, merged - separate, 0.0)
            best = int(np.argmin(costs))
            a, b = int(a_idx[best]), int(b_idx[best])
            groups[a].extend(groups[b])
            counts[a] += counts[b]
            positives[a] += positives[b]
            del groups[b]
            counts = np.delete(counts, b)
            positives = np.delete(positives, b)
        return groups

    def _candidate_pairs(self, n_groups: int) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized candidate pair indices (a < b), sampled if many."""
        a_idx, b_idx = np.triu_indices(n_groups, k=1)
        if a_idx.size > self.merge_rounds:
            chosen = self.rng.choice(a_idx.size, size=self.merge_rounds, replace=False)
            a_idx, b_idx = a_idx[chosen], b_idx[chosen]
        return a_idx, b_idx

    def predict_fraction(self, X: np.ndarray) -> np.ndarray:
        fractions = np.empty(X.shape[0])
        current = np.zeros(X.shape[0], dtype=np.intp)
        active = np.arange(X.shape[0])
        for depth, level in enumerate(self.levels):
            if active.size == 0:
                break
            # Per-node arrays for vectorized routing of this level.
            features = np.array([node.feature for node in level])
            thresholds = np.array([node.threshold for node in level])
            lefts = np.array([node.left_child for node in level])
            rights = np.array([node.right_child for node in level])
            values = np.array([node.positive_fraction for node in level])
            nodes = current[active]
            at_leaf = (features[nodes] == -1) | (depth + 1 >= len(self.levels))
            leaf_samples = active[at_leaf]
            fractions[leaf_samples] = values[nodes[at_leaf]]
            moving = active[~at_leaf]
            if moving.size:
                moving_nodes = nodes[~at_leaf]
                feature_values = X[moving, features[moving_nodes]]
                goes_left = feature_values <= thresholds[moving_nodes]
                current[moving] = np.where(
                    goes_left, lefts[moving_nodes], rights[moving_nodes]
                )
            active = moving
        return fractions


class DecisionJungleClassifier(BaseEstimator, ClassifierMixin):
    """Ensemble of width-limited decision DAGs.

    Parameters
    ----------
    n_dags : int
        Number of DAGs in the ensemble.
    max_depth : int
        Maximum number of decision levels per DAG.
    max_width : int
        Maximum nodes per level (the memory cap that defines a jungle).
    merge_rounds : int
        Candidate merge pairs examined per merge ("optimization steps per
        DAG layer" in Azure).
    bootstrap : bool
        Train each DAG on a bootstrap resample (Azure's "bagging"
        resampling) instead of the full training set ("replicate").
    random_state : int, Generator, or None
        Seed for bagging and merge sampling.
    """

    def __init__(
        self,
        n_dags: int = 8,
        max_depth: int = 8,
        max_width: int = 16,
        merge_rounds: int = 64,
        bootstrap: bool = True,
        random_state=None,
    ):
        self.n_dags = n_dags
        self.max_depth = max_depth
        self.max_width = max_width
        self.merge_rounds = merge_rounds
        self.bootstrap = bootstrap
        self.random_state = random_state

    def fit(self, X, y) -> "DecisionJungleClassifier":
        X, y = check_X_y(X, y, min_samples=2)
        for name in ("n_dags", "max_depth", "max_width", "merge_rounds"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        self.classes_ = check_binary_labels(y)
        y01 = (y == self.classes_[1]).astype(np.float64)
        rng = check_random_state(self.random_state)
        self.dags_ = []
        n_samples = X.shape[0]
        for _ in range(self.n_dags):
            if self.bootstrap:
                sample = rng.integers(0, n_samples, size=n_samples)
            else:
                sample = rng.permutation(n_samples)
            dag = _DecisionDAG(
                self.max_depth, self.max_width, self.merge_rounds,
                criterion="gini", rng=rng,
            )
            dag.fit(X[sample], y01[sample])
            self.dags_.append(dag)
        self.n_features_in_ = X.shape[1]
        return self

    def predict_proba(self, X) -> np.ndarray:
        X = check_predict_input(self, X, "dags_")
        positive = np.mean(
            [dag.predict_fraction(X) for dag in self.dags_], axis=0
        )
        return np.column_stack([1.0 - positive, positive])
