"""Test-only switches that arm the access gate, by name."""

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
