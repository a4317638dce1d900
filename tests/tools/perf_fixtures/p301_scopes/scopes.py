"""P301 scope corners: array facts seen through nested defs and lambdas.

The loop model reads a function's simple assignments from its own
scope only, not from a nested def's; these functions pin what it reports.
"""

import numpy as np


def outer(rows):
    def helper():
        Z = np.zeros(5)  # the nested def's array, not ``outer``'s ``Z``
        return Z

    Z = list(rows)
    out = []
    for value in Z:  # not flagged: ``outer``'s ``Z`` is a list
        out.append(value * 2)
    return out, helper


def with_lambda(rows):
    scale = lambda row: row * 2  # noqa: E731
    W = np.asarray(rows)
    out = []
    for row in W:  # flagged: a lambda beside the loop changes nothing
        out.append(scale(row))
    return out


class Table:
    def scan(self, X):
        out = []
        for row in X:  # flagged: a method's loop, as in a plain function
            out.append(row.sum())
        return out

    class Inner:
        def scan(self, rows):
            out = []
            for row in rows:  # not flagged: ``rows`` is no array
                out.append(row)
            return out
