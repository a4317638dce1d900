"""Fixture: held-out data handed down a chain of 25 helpers (F102).

Each helper passes its data to the next, callers defined first, and only
the last one fits it, so the summaries must propagate 25 calls deep
before ``main``'s call to ``h0`` shows the leak.
"""

__all__ = ["main"]


def main(X, y, model, train_test_split):
    X_train, X_test, y_train, y_test = train_test_split(X, y, random_state=0)
    h0(model, X_test)  # leak: h24 fits whatever h0 is handed
    return model


def h0(model, data):
    h1(model, data)


def h1(model, data):
    h2(model, data)


def h2(model, data):
    h3(model, data)


def h3(model, data):
    h4(model, data)


def h4(model, data):
    h5(model, data)


def h5(model, data):
    h6(model, data)


def h6(model, data):
    h7(model, data)


def h7(model, data):
    h8(model, data)


def h8(model, data):
    h9(model, data)


def h9(model, data):
    h10(model, data)


def h10(model, data):
    h11(model, data)


def h11(model, data):
    h12(model, data)


def h12(model, data):
    h13(model, data)


def h13(model, data):
    h14(model, data)


def h14(model, data):
    h15(model, data)


def h15(model, data):
    h16(model, data)


def h16(model, data):
    h17(model, data)


def h17(model, data):
    h18(model, data)


def h18(model, data):
    h19(model, data)


def h19(model, data):
    h20(model, data)


def h20(model, data):
    h21(model, data)


def h21(model, data):
    h22(model, data)


def h22(model, data):
    h23(model, data)


def h23(model, data):
    h24(model, data)


def h24(model, data):
    model.fit(data)
