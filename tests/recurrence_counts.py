"""Counts the recurrence runs behind ``forecaster.forward_samples``."""

from turnoutguard import forecaster


def count_recurrences(monkeypatch) -> list:
    """Names, in call order, of the recurrence runs behind forward_samples:
    "build" for a staggered pass over a whole window, "advance" for one step."""
    calls = []
    for name in ("build", "advance"):
        real = getattr(forecaster._Suffixes, name)

        def counting(self, *args, _name=name, _real=real):
            calls.append(_name)
            return _real(self, *args)

        monkeypatch.setattr(forecaster._Suffixes, name, counting)
    return calls
