"""C205 scope corners: lambdas, nested defs and class bodies under a lock."""

import threading
import time


class Worker:
    def __init__(self):
        self._lock = threading.Lock()

    def run(self):
        with self._lock:
            delay = lambda: time.sleep(1)  # noqa: E731 - deferred, not held

            def later():
                time.sleep(1)  # its own scope: no lock held here

            class Box:
                pause = time.sleep(0)  # class body: outside the model

            time.sleep(0)  # flagged: blocks while holding the lock
        return delay, later, Box

    def configure(self):
        def make():
            self._late = threading.Lock()  # a nested def's lock is the class's

        make()

    def use_late(self):
        with self._late:
            time.sleep(0)  # flagged: ``_late`` is a class lock
