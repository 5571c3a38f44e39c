import pytest

from hardsphere.measures import InitialMeasure, get_measure


@pytest.fixture
def normalizations(monkeypatch):
    """The particle numbers of every ``_position_integral`` call, on
    measures built after the measure cache is emptied."""
    calls = []
    integral = InitialMeasure._position_integral

    def counted(self, n, proposals, rng):
        calls.append(n)
        return integral(self, n, proposals, rng)

    monkeypatch.setattr(InitialMeasure, "_position_integral", counted)
    get_measure.cache_clear()
    yield calls
    get_measure.cache_clear()
