"""Counts the recurrence steps behind ``forecaster.forward_samples``."""

from turnoutguard import forecaster


def count_advances(monkeypatch) -> list:
    """The sessions, in call order, that ``ForecastSession.advance`` stepped.

    A forecast that rebuilds the suffix states takes ``window`` advances, the
    latest window shifted by one curve takes 1, and a repeated window none.
    """
    calls = []
    real = forecaster.ForecastSession.advance

    def counting(self, a_x):
        calls.append(self)
        return real(self, a_x)

    monkeypatch.setattr(forecaster.ForecastSession, "advance", counting)
    return calls
