"""The records the closed forms build and return: frozen, comparable, copyable.

NodeParams, ControllerParams, SolvedRates and SojournDistribution keep their
fields in slots and ThroughputResult in its instance dict; each behaves as a
frozen dataclass.  The reprs and error messages below were recorded from the
generated-``__init__`` form of the same records.
"""

import copy
import math
import pickle
import re
import weakref
from dataclasses import FrozenInstanceError, asdict, astuple, fields, replace

import pytest

from sdnqueue.analytic import ControllerParams, NodeParams, solve_rates
from sdnqueue.dimensioning import ThroughputResult
from sdnqueue.distribution import build_distribution

_NODE = NodeParams(2000.0, 102040.8163265306, 0.5)
_CTRL = ControllerParams(4166.666666666667)
_RATES = solve_rates(_NODE, _CTRL)

RECORDS = {
    "NodeParams": (
        _NODE,
        "NodeParams(lam=2000.0, mu_switch=102040.8163265306, q_nf=0.5)"),
    "ControllerParams": (
        _CTRL,
        "ControllerParams(mu_controller=4166.666666666667)"),
    "SolvedRates": (
        _RATES,
        "SolvedRates(gamma_switch=3000.0, gamma_controller=1000.0, "
        "q_jack=0.3333333333333333, rho_switch=0.029400000000000003, "
        "rho_controller=0.24)"),
    "SojournDistribution": (
        build_distribution(_NODE, _CTRL, _RATES),
        "SojournDistribution(a_switch=99040.8163265306, a_controller=3166.666666666667, "
        "b1=0.4829398236530761, b2=-0.016514705360627244, d=0.5335748817075513, "
        "q_nf=0.5, degenerate=False)"),
    "ThroughputResult": (
        ThroughputResult(0.0, False, "bound infeasible"),
        "ThroughputResult(rate=0.0, feasible=False, note='bound infeasible')"),
}
SLOTTED = ("NodeParams", "ControllerParams", "SolvedRates", "SojournDistribution")


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    return RECORDS[request.param]


def test_repr_as_recorded(record):
    rec, text = record
    assert repr(rec) == text


def test_setting_or_deleting_any_name_is_refused(record):
    rec, text = record
    for name in [f.name for f in fields(rec)] + ["other"]:
        with pytest.raises(FrozenInstanceError):
            setattr(rec, name, 1.0)
        with pytest.raises(FrozenInstanceError):
            delattr(rec, name)
    assert repr(rec) == text


def test_positional_and_keyword_construction_agree(record):
    rec, _ = record
    cls = type(rec)
    assert cls(*astuple(rec)) == rec
    assert cls(**asdict(rec)) == rec
    with pytest.raises(TypeError):
        cls(*astuple(rec), 1.0)


def test_copies_equal_and_hash_alike(record):
    rec, _ = record
    for clone in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec),
                  replace(rec)):
        assert type(clone) is type(rec)
        assert clone == rec and hash(clone) == hash(rec)
        assert asdict(clone) == asdict(rec)
        with pytest.raises(FrozenInstanceError):
            setattr(clone, fields(rec)[0].name, 1.0)


# protocol-4 pickles of the records above, written while every record kept its
# fields in the instance dict
_DICT_FORM_PICKLES = {
    "NodeParams": b'\x80\x04\x95`\x00\x00\x00\x00\x00\x00\x00\x8c\x11sdnqueue.analytic\x94\x8c\nNodeParams\x94\x93\x94)\x81\x94}\x94(\x8c\x03lam\x94G@\x9f@\x00\x00\x00\x00\x00\x8c\tmu_switch\x94G@\xf8\xe9\x8d\x0f\xach}\x8c\x04q_nf\x94G?\xe0\x00\x00\x00\x00\x00\x00ub.',
    "ControllerParams": b'\x80\x04\x95J\x00\x00\x00\x00\x00\x00\x00\x8c\x11sdnqueue.analytic\x94\x8c\x10ControllerParams\x94\x93\x94)\x81\x94}\x94\x8c\rmu_controller\x94G@\xb0F\xaa\xaa\xaa\xaa\xabsb.',
    "SolvedRates": b'\x80\x04\x95\xa3\x00\x00\x00\x00\x00\x00\x00\x8c\x11sdnqueue.analytic\x94\x8c\x0bSolvedRates\x94\x93\x94)\x81\x94}\x94(\x8c\x0cgamma_switch\x94G@\xa7p\x00\x00\x00\x00\x00\x8c\x10gamma_controller\x94G@\x8f@\x00\x00\x00\x00\x00\x8c\x06q_jack\x94G?\xd5UUUUUU\x8c\nrho_switch\x94G?\x9e\x1b\x08\x9a\x02u&\x8c\x0erho_controller\x94G?\xce\xb8Q\xeb\x85\x1e\xb8ub.',
    "SojournDistribution": b'\x80\x04\x95\xac\x00\x00\x00\x00\x00\x00\x00\x8c\x15sdnqueue.distribution\x94\x8c\x13SojournDistribution\x94\x93\x94)\x81\x94}\x94(\x8c\x08a_switch\x94G@\xf8.\r\x0f\xach}\x8c\x0ca_controller\x94G@\xa8\xbdUUUUV\x8c\x02b1\x94G?\xde\xe8|o!\xa9z\x8c\x02b2\x94G\xbf\x90\xe9;\x1d\xb57\x99\x8c\x01d\x94G?\xe1\x13\x0b\xa1\\\xd5\x01\x8c\x04q_nf\x94G?\xe0\x00\x00\x00\x00\x00\x00\x8c\ndegenerate\x94\x89ub.',
    "ThroughputResult": b'\x80\x04\x95l\x00\x00\x00\x00\x00\x00\x00\x8c\x15sdnqueue.dimensioning\x94\x8c\x10ThroughputResult\x94\x93\x94)\x81\x94}\x94(\x8c\x04rate\x94G\x00\x00\x00\x00\x00\x00\x00\x00\x8c\x08feasible\x94\x89\x8c\x04note\x94\x8c\x10bound infeasible\x94ub.',
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_pickle_of_the_instance_dict_form_loads(name):
    rec, text = RECORDS[name]
    clone = pickle.loads(_DICT_FORM_PICKLES[name])
    assert clone == rec and repr(clone) == text


def test_weak_reference(record):
    rec, _ = record
    assert weakref.ref(rec)() is rec


@pytest.mark.parametrize("name", SLOTTED)
def test_slotted_records_have_no_instance_dict(name):
    rec, _ = RECORDS[name]
    assert not hasattr(rec, "__dict__")
    with pytest.raises(TypeError):
        vars(rec)


_BAD_RATES = [
    (math.nan, "must be > 0, got nan"),
    (0.0, "must be > 0, got 0.0"),
    (-1.0, "must be > 0, got -1.0"),
    (5e-324, "must have a finite mean time 1/{name}, got 5e-324"),
]


@pytest.mark.parametrize("rate, message", _BAD_RATES)
def test_rate_errors_as_recorded(rate, message):
    def refused(name, build):
        with pytest.raises(ValueError, match="^" + re.escape(f"{name} " + message.format(name=name)) + "$"):
            build()
    refused("lam", lambda: NodeParams(rate, 1.0, 0.5))
    refused("mu_switch", lambda: NodeParams(1.0, rate, 0.5))
    refused("lam", lambda: NodeParams(rate, rate, 2.0))  # lam first, q_nf last
    refused("mu_controller", lambda: ControllerParams(rate))


def test_infinite_rates_are_accepted():
    assert NodeParams(math.inf, math.inf, 1.0).mu_switch == math.inf
    assert ControllerParams(math.inf).mu_controller == math.inf


@pytest.mark.parametrize("q", [-0.1, 1.1, -5e-324, math.nextafter(1.0, 2.0), math.nan])
def test_q_nf_errors_as_recorded(q):
    with pytest.raises(ValueError, match="^" + re.escape(f"q_nf must be in [0, 1], got {q}") + "$"):
        NodeParams(1.0, 2.0, q)
    with pytest.raises(ValueError, match="^lam must be > 0, got -1.0$"):
        NodeParams(-1.0, 2.0, q)

