"""W503 scope corners: nested defs, lambdas and class bodies.

The resource scan walks each function's whole subtree, nested defs and
class bodies included, and keys what it tracks by name; these functions
pin what that reports.
"""

import socket
import threading


def shadowed_by_nested_def(path):
    handle = open(path)  # leaks, but the nested def's ``handle`` wins
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
