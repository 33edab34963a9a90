"""Test-only switches that arm the access gate, by name, and a gate
controller that parks one thread."""

import threading
from contextlib import contextmanager

from chronocas import instrument, reclaim
from chronocas._gate import StepCounter


@contextmanager
def _switched_on(switch):
    switch(True)
    try:
        yield
    finally:
        switch(False)


# Each value builds a context under which the gate is armed.
ARMED_BY = {
    "instrument": lambda: _switched_on(instrument.enable),
    "poison": lambda: _switched_on(reclaim.enable_poisoning),
    "counter": StepCounter,
}


class PauseAt:
    """Gate controller that suspends ``thread`` at its ``n``-th gated step
    until ``resume`` is set; every other thread passes."""

    def __init__(self, thread, n):
        self.thread, self.n, self.steps = thread, n, 0
        self.paused, self.resume = threading.Event(), threading.Event()

    def on_access(self, thread):
        if thread is self.thread:
            self.steps += 1
            if self.steps == self.n:
                self.paused.set()
                self.resume.wait(10)
