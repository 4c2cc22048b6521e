import pytest

from mlca_trends.intervals import EstimateInterval


def test_ordering_enforced():
    EstimateInterval(1.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        EstimateInterval(2.0, 1.0, 3.0)
    with pytest.raises(ValueError):
        EstimateInterval(1.0, 4.0, 3.0)


def test_degenerate_and_candidates():
    d = EstimateInterval.degenerate(5.0)
    assert d.min == d.reference == d.max == 5.0
    env = EstimateInterval.from_candidates([3.0, 1.0, 2.0], reference=2.0)
    assert (env.min, env.reference, env.max) == (1.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        EstimateInterval.from_candidates([], reference=1.0)
