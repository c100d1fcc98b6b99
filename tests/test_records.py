"""The eleven record classes as values.

Each record is a __slots__ class on plant.Record. A copy made by pickle,
copy.copy or copy.deepcopy equals its original, a record equals a twin
built from the same arguments, and the frozen records hash as the tuple of
their fields and refuse assignment. The reprs below were recorded from the
dataclass versions of the records, and they stay as they were.
"""

import copy
import pickle

import pytest

from quantstab.cli import Config
from quantstab.loop import Trajectory
from quantstab.oracle import GridSearchResult
from quantstab.plant import SeedState, UncertainPlant
from quantstab.quantizer import QuantizerSpec
from quantstab.rates import (
    ComparisonBounds,
    RelaxedRateSolution,
    Schedule,
    ScheduleSearchResult,
    StabilityTest,
)

SAMPLE = (0.5, 2, 2.0, -1.0, 0.0, -0.5, 0.5, 0.0)

# record name: (a build of a fresh record, its repr)
RECORDS = {
    "UncertainPlant": (
        lambda: UncertainPlant(2, [0.3, 2], (0.02, 0.2), (1, 0.5)),
        "UncertainPlant(n=2, a_star=(0.3, 2.0), eps=(0.02, 0.2), init_bounds=(1.0, 0.5))",
    ),
    "SeedState": (lambda: SeedState(5, 7), "SeedState(state=5, inc=7)"),
    "QuantizerSpec": (
        lambda: QuantizerSpec(3, [0, 0.25, 0.5]),
        "QuantizerSpec(N=3, h=(0.0, 0.25, 0.5))",
    ),
    "StabilityTest": (lambda: StabilityTest(stable=True), "StabilityTest(stable=True)"),
    "Schedule": (lambda: Schedule([2, 3]), "Schedule(sizes=(2, 3))"),
    "ScheduleSearchResult": (
        lambda: ScheduleSearchResult(Schedule((2, 3)), 1.5, True),
        "ScheduleSearchResult(schedule=Schedule(sizes=(2, 3)), avg_rate=1.5, exact=True)",
    ),
    "RelaxedRateSolution": (
        lambda: RelaxedRateSolution((1.5, 1.5), 1.5, 0.0, -0.25),
        "RelaxedRateSolution(components=(1.5, 1.5), phi=1.5, psi=0.0, multiplier=-0.25)",
    ),
    "ComparisonBounds": (
        lambda: ComparisonBounds(None, 1.5),
        "ComparisonBounds(r_suf=None, r_suf_prime=1.5)",
    ),
    "GridSearchResult": (
        lambda: GridSearchResult((0.0, 0.25, 0.5), 1.25),
        "GridSearchResult(h=(0.0, 0.25, 0.5), value=1.25)",
    ),
    "Trajectory": (
        lambda: Trajectory([SAMPLE], "stabilized", 2.0, 0, 2.0),
        "Trajectory(samples=[(0.5, 2, 2.0, -1.0, 0.0, -0.5, 0.5, 0.0)], "
        "verdict='stabilized', sigma0=2.0, steps=0, min_sigma=2.0)",
    ),
    "Config": (
        lambda: Config({"plant": {"n": ("1", 2)}}),
        "Config(sections={'plant': {'n': ('1', 2)}})",
    ),
}
MUTABLE = {"Trajectory", "Config"}
FROZEN = sorted(set(RECORDS) - MUTABLE)


def fields(record) -> tuple:
    return tuple(getattr(record, name) for name in record.__match_args__)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_round_trips_through_pickle_and_copy(name):
    record = RECORDS[name][0]()
    copies = [pickle.loads(pickle.dumps(record, protocol)) for protocol in (2, pickle.HIGHEST_PROTOCOL)]
    copies += [copy.copy(record), copy.deepcopy(record)]
    for other in copies:
        assert type(other) is type(record) and other is not record
        assert other == record
        assert fields(other) == fields(record)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_equals_its_twin_and_prints_as_the_dataclass_did(name):
    build, text = RECORDS[name]
    record, twin = build(), build()
    assert record == twin and not record != twin
    assert repr(record) == repr(twin) == text
    # a record never equals a tuple of its fields, as a dataclass did not
    assert record != fields(record)
    assert record.__class__.__name__ == name


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_record_hashes_as_its_fields_and_refuses_assignment(name):
    record = RECORDS[name][0]()
    assert hash(record) == hash(RECORDS[name][0]()) == hash(fields(record))
    for field in record.__match_args__:
        before = getattr(record, field)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
        assert getattr(record, field) is before
    with pytest.raises(AttributeError):
        record.unknown = 1


@pytest.mark.parametrize("name", sorted(MUTABLE))
def test_mutable_record_takes_assignment_and_is_unhashable(name):
    record = RECORDS[name][0]()
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)
    field = record.__match_args__[0]
    setattr(record, field, "changed")
    assert getattr(record, field) == "changed"
    assert record != RECORDS[name][0]()


def test_a_copy_is_built_by_the_class():
    # pickling and copying call the class on the fields, so every copy
    # passes the checks of its __init__
    plant = UncertainPlant(1, (2,), (0,), (1,))
    assert plant.__reduce__() == (UncertainPlant, (1, (2.0,), (0.0,), (1.0,)))
    assert Schedule((2, 3)).__reduce__() == (Schedule, ((2, 3),))


def test_quantizer_spec_copy_keeps_its_edges():
    q = QuantizerSpec(4, (0.0, 0.25, 0.5))
    assert q.edges == (-0.5, -0.25, 0.0, 0.25, 0.5)
    other = pickle.loads(pickle.dumps(q))
    assert other == q and other.edges == q.edges
