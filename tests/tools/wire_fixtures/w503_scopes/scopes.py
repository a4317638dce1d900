"""W503 scope corners: nested defs, lambdas and class bodies.

Each def, class body and lambda is scanned as a scope of its own, with
its own acquisitions and returns; a ``start()`` anywhere below a scope
still counts for it.  These functions pin what that reports.
"""

import socket
import threading


def shadowed_by_nested_def(path):
    handle = open(path)  # leaks; the nested def's ``handle`` is its own
    text = handle.read()

    def reopen(host, port):
        handle = socket.create_connection((host, port))
        return handle

    return text, reopen


def nested_def_leaks_alone(host, port):
    def connect():
        conn = socket.create_connection((host, port))
        conn.sendall(b"hello")

    return connect


def class_body_acquires(host, port):
    class Holder:
        conn = socket.create_connection((host, port))

    Holder.conn.sendall(b"hello")
    return Holder


def lambda_defers_the_start(work):
    worker = threading.Thread(target=lambda: work())
    starter = lambda: worker.start()  # noqa: E731 - the start runs later
    starter()
    return compute()


def compute():
    return 1
