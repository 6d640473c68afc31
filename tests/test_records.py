"""The public contract of the package's value records: construction with
defaults, immutability, repr, equality and hashing by value, pickling, and
the exact errors of their argument checks."""

import hashlib
import pickle
from datetime import datetime

import numpy as np
import pytest

from chronon_lab.errors import InvalidInput
from chronon_lab.evolution import (DEFAULT_GRID_CAP, NATURAL_UNITS, ChrononParams, Trajectory,
                                   TwoState, UnitSystem)
from chronon_lab.kaon import KaonModel, ModeWidths
from chronon_lab.linalg2 import EigenPair2
from chronon_lab.quantities import ScanAxis, ScanSpec
from chronon_lab.runner import Table, emit, manifest_path_for
from chronon_lab.spectrum import EffectiveSpectrum, ModeRecord

VEC = np.array([1.0, 0.0], dtype=np.complex128)


def mode_record(k):
    return ModeRecord(mode_index=k, eigvec=VEC, h_continuous=1.0 + k,
                      lambda_step=1.0 - 1.0j, h_eff_exact=0.8 + 0.3j,
                      h_first_order=1.0 + 1.0j, step_magnitude=1.4, efold_time=2.9)


AXIS = ScanAxis(name="energy", start=1.0, stop=2.0, count=3, spacing="log")

# record class -> keyword arguments, one per field, in field order
RECORDS = {
    EigenPair2: dict(value=1.0 + 2.0j, vector=VEC, degenerate=False),
    UnitSystem: dict(hbar=2.0),
    ChrononParams: dict(energy=2.0, n=3, tau_scale=0.5),
    TwoState: dict(amplitudes=np.array([0.6, 0.8j])),
    Trajectory: dict(times=np.array([0.0, 1.0, 2.0]),
                     states=np.ones((3, 2), dtype=np.complex128), engine="discrete"),
    KaonModel: dict(mixing_energy=1.0, gamma_short=0.1, gamma_long=0.001, delta=0.01j,
                    units=UnitSystem(hbar=2.0)),
    ModeWidths: dict(h_generator=1.0 - 0.05j, lambda_step=0.9 + 0.1j,
                     gamma_continuous=0.1, gamma_effective=0.12),
    ModeRecord: dict(mode_index=0, eigvec=VEC, h_continuous=1.0, lambda_step=1.0 - 1.0j,
                     h_eff_exact=0.8 + 0.3j, h_first_order=1.0 + 1.0j,
                     step_magnitude=1.4, efold_time=2.9),
    EffectiveSpectrum: dict(modes=(mode_record(0), mode_record(1)), convention="paper",
                            nu_nonhermitian=0.4),
    ScanAxis: dict(name="energy", start=1.0, stop=2.0, count=3, spacing="log"),
    ScanSpec: dict(quantity="mode_report", grid=(AXIS,), fixed={"n": 2}, max_points=10),
}

# the defaults of the fields that have one
DEFAULTS = {
    UnitSystem: (dict(), dict(hbar=1.0)),
    ChrononParams: (dict(energy=2.0), dict(n=1, tau_scale=1.0)),
    KaonModel: (dict(mixing_energy=1.0, gamma_short=0.1, gamma_long=0.001),
                dict(delta=0.0, units=NATURAL_UNITS)),
    ScanAxis: (dict(name="x", start=1.0, stop=2.0, count=3), dict(spacing="linear")),
    ScanSpec: (dict(quantity="mode_report", grid=()),
               dict(fixed={}, max_points=DEFAULT_GRID_CAP)),
}

RECORD_IDS = [cls.__name__ for cls in RECORDS]


def assert_same(a, b):
    """a and b hold equal values of the same types, arrays included."""
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    elif type(a) in RECORDS:
        for name in RECORDS[type(a)]:
            assert_same(getattr(a, name), getattr(b, name))
    elif isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    else:
        assert a == b


def hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls", RECORDS, ids=RECORD_IDS)
def test_record_construction(cls):
    kwargs = RECORDS[cls]
    by_keyword = cls(**kwargs)
    for name, value in kwargs.items():
        assert_same(getattr(by_keyword, name), value)
    assert_same(cls(*kwargs.values()), by_keyword)
    if cls in DEFAULTS:
        given, defaults = DEFAULTS[cls]
        record = cls(**given)
        for name, value in defaults.items():
            assert_same(getattr(record, name), value)


@pytest.mark.parametrize("cls", RECORDS, ids=RECORD_IDS)
def test_record_is_immutable(cls):
    record = cls(**RECORDS[cls])
    for name in [*RECORDS[cls], "not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert_same(record, cls(**RECORDS[cls]))


@pytest.mark.parametrize("cls", RECORDS, ids=RECORD_IDS)
def test_record_repr_shows_field_values(cls):
    record = cls(**RECORDS[cls])
    text = repr(record)
    assert text.startswith(f"{cls.__name__}(") and text.endswith(")")
    for name in RECORDS[cls]:
        assert f"{name}={getattr(record, name)!r}" in text


@pytest.mark.parametrize("cls", RECORDS, ids=RECORD_IDS)
def test_record_equality_and_hash_by_value(cls):
    kwargs = RECORDS[cls]
    a, b = cls(**kwargs), cls(**kwargs)  # equal values; arrays shared
    assert a == b and not a != b
    assert a != object() and a != tuple(kwargs.values())
    first, value = next(iter(kwargs.items()))
    if isinstance(value, (int, float, complex)) and not isinstance(value, bool):
        assert a != cls(**{**kwargs, first: value + 1})
    if all(hashable(getattr(a, name)) for name in kwargs):
        assert hash(a) == hash(b)
    else:  # a dict or array field, as with a frozen dataclass
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("cls", RECORDS, ids=RECORD_IDS)
def test_record_pickle_round_trip(cls):
    record = cls(**RECORDS[cls])
    assert_same(pickle.loads(pickle.dumps(record)), record)


def test_run_manifest_json_field_order(tmp_path, monkeypatch):
    # the run manifest emit writes beside a file, at a fixed clock: its five
    # fields in order, byte for byte
    class FixedClock:
        @staticmethod
        def now(tz):
            return datetime(2026, 1, 1, tzinfo=tz)

    monkeypatch.setattr("chronon_lab.runner.datetime", FixedClock)
    out = tmp_path / "out.csv"
    emit(Table({"i": [1, 2]}), "csv", out, {"command": "modes"})
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert manifest_path_for(out).read_text(encoding="utf-8") == (
        '{\n  "schema_version": 1,\n  "timestamp": "2026-01-01T00:00:00+00:00",\n'
        '  "parameters": {\n    "command": "modes"\n  },\n'
        '  "artifact_version": "0.1.0",\n  "outputs": {\n    "out.csv": "%s"\n  }\n}\n'
        % digest)


def test_scan_specs_do_not_share_fixed():
    a = ScanSpec("mode_report", ())
    b = ScanSpec("mode_report", ())
    assert a.fixed == {} and a.fixed is not b.fixed
    fixed = {"n": 2}
    assert ScanSpec("mode_report", (), fixed).fixed is not fixed


GRID = np.array([0.0, 1.0])
STATES = np.zeros((2, 2))
SCHEMA_ERROR = ("bad value for 'quantity': expected one of ['mode_report', 'epsilon', "
                "'width_shift', 'trajectory-observable'], got 'nonsense'")


@pytest.mark.parametrize("make, message", [
    (lambda: UnitSystem(hbar=0.0), "hbar must be positive and finite"),
    (lambda: ChrononParams(energy=float("inf")), "energy must be positive and finite"),
    (lambda: ChrononParams(energy=1.0, n=1.5), "n must be a positive integer"),
    (lambda: ChrononParams(energy=1.0, n=10 ** 400),
     "n must not exceed the largest double, about 1.8e308"),
    (lambda: ChrononParams(energy=1.0, tau_scale=-1.0),
     "tau_scale must be positive and finite"),
    (lambda: TwoState([1.0, 0.0, 0.0]), "expected 2 amplitudes, got shape (3,)"),
    (lambda: TwoState([1.0, float("nan")]), "amplitudes must be finite"),
    (lambda: Trajectory(GRID, np.zeros((3, 2)), "discrete"),
     "times and states have mismatched shapes"),
    (lambda: Trajectory(GRID, STATES, "sideways"),
     "bad value for 'engine': expected one of ['continuous', 'discrete'], got 'sideways'"),
    (lambda: Trajectory(np.array([0.0, 1.0, 1.5]), np.zeros((3, 2)), "continuous"),
     "time grid must be strictly increasing and uniform"),
    (lambda: KaonModel(0.0, 0.1, 0.0), "mixing_energy must be positive and finite"),
    (lambda: KaonModel(1.0, 0.1, 0.2), "widths must satisfy gamma_short >= gamma_long >= 0"),
    (lambda: KaonModel(1.0, float("inf"), 0.0), "gamma_short and gamma_long must be finite"),
    (lambda: KaonModel(1.0, 0.1, 0.0, delta=complex(0, float("inf"))),
     "delta must be finite"),
    (lambda: ScanAxis("x", float("nan"), 1.0, 2), "axis 'x': start and stop must be finite"),
    (lambda: ScanAxis("x", 0.0, 1.0, 2.5),
     "axis 'x': bad value for 'count': expected an integer, got 2.5"),
    (lambda: ScanAxis("x", 0.0, 1.0, 0), "axis 'x': count must be a positive integer"),
    (lambda: ScanAxis("x", 0.0, 1.0, 2, "cubic"),
     "axis 'x': bad value for 'spacing': expected one of ['linear', 'log'], got 'cubic'"),
    (lambda: ScanAxis("x", 0.0, 1.0, 2, "log"), "axis 'x': log spacing needs positive bounds"),
    (lambda: ScanSpec("nonsense", ()), SCHEMA_ERROR),
    (lambda: ScanSpec("epsilon", (ScanAxis("n", 1, 2, 2), ScanAxis("n", 1, 2, 2))),
     "axis names must be unique"),
    (lambda: ScanSpec("epsilon", (ScanAxis("engine", 0, 1, 2),)),
     "axis 'engine' is not a numeric parameter of 'epsilon'"),
    (lambda: ScanSpec("epsilon", (), {"bogus": 1.0}),
     "unknown parameter 'bogus' for 'epsilon'"),
    (lambda: ScanSpec("epsilon", (), {"n": 1.5}),
     "bad value for 'n': expected an integer, got 1.5"),
    (lambda: ScanSpec("epsilon", (ScanAxis("n", 1, 2, 2),), {"n": 1}),
     "parameters ['n'] both fixed and scanned"),
])
def test_record_checks_keep_their_errors(make, message):
    with pytest.raises(InvalidInput) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("times", [[0.0, np.nan], [0.0, 1.0, np.nan], [np.nan, np.nan],
                                   [0.0, np.inf], [0.0, 1.0, np.inf], [-np.inf, 0.0],
                                   [np.inf, np.inf], [-1.7e308, 1.7e308]])
def test_trajectory_refuses_a_time_grid_that_is_not_finite(times):
    # a NumPy warning fails the test, so the refusal is also quiet
    with pytest.raises(InvalidInput, match="time grid must be strictly increasing and uniform"):
        Trajectory(np.array(times), np.zeros((len(times), 2)), "continuous")


# the records whose fields need no checks, and so have no __init__ of their own
UNCHECKED = [EigenPair2, ModeWidths, ModeRecord, EffectiveSpectrum]


@pytest.mark.parametrize("cls", UNCHECKED, ids=[cls.__name__ for cls in UNCHECKED])
def test_record_fields_by_position_or_name(cls):
    kwargs = RECORDS[cls]
    values, names = list(kwargs.values()), list(kwargs)
    assert "__init__" not in vars(cls)
    assert_same(cls(*values[:2], **dict(list(kwargs.items())[2:])), cls(**kwargs))
    for args, named in [(values[:-1], {}), ([*values, 0], {}), ((), {**kwargs, "bogus": 0}),
                        (values[:1], kwargs), ((), dict(list(kwargs.items())[1:]))]:
        with pytest.raises(TypeError, match=cls.__name__):
            cls(*args, **named)
    assert names == list(cls.__slots__)
