"""One request schema at every door.

Every way a solve request enters the program — a daemon JSON line,
``StreamRequest`` into ``replay`` / ``schedule_stream``, a typed request
into ``Cluster.submit``, and the ``synthetic_stream`` generator — runs the
field rules of :mod:`repro.util.checking`.  The contract: a field value
is accepted at every door that takes that field (the request runs), or
refused at every one with a ``ParameterError`` naming the field.

Valid ``n``/``k`` stay small here: the daemon's ``MAX_OPERAND_WORDS`` cap
and a pool's capacity (for ``sizes``) are deployment limits, not rules of
the schema.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.cluster import Cluster
from repro.api.online import DaemonConfig, ServeDaemon
from repro.api.online.arrivals import synthetic_stream
from repro.api.requests import InvRequest, TrsmRequest
from repro.api.serve import StreamRequest, replay, schedule_stream
from repro.machine.validate import ParameterError
from repro.util.randmat import random_dense, random_lower_triangular

N, K, P = 16, 4, 4
L = random_lower_triangular(N, seed=0)
B = random_dense(N, K, seed=1)

#: values no field of the schema takes (bar ``None`` for ``deadline`` and
#: ``sizes``); each field's strategy adds its own valid ones
HOSTILE = (
    *(True, False, np.bool_(True), "64", "x", "", None, [], {"a": 1}),
    *(math.nan, math.inf, -math.inf, np.float64(math.nan)),
    *(-1, -2.5, 2.5, np.float64(2.5), np.int64(-3), -(2**63) - 1, -(10**400)),
)


def _json(value):
    """``value`` as a client would spell it in a JSON line."""
    if isinstance(value, np.generic):
        return value.item()
    return list(value) if isinstance(value, tuple) else value


def _daemon(field, value):
    d = ServeDaemon(DaemonConfig(p=P, batch=64, time_scale=1.0), clock=lambda: 0.0)
    lines = (json.dumps({"op": "trsm", "n": N, "k": K, field: _json(value)}), '{"op": "flush"}')
    for out in map(d.handle, lines):
        if not out["ok"]:
            raise ParameterError(out["error"].removeprefix("ParameterError: "))


def _stream(door):
    def run(field, value):
        entry = {"n": N, "k": K, "arrival": 0.0, "seed": 0, field: value}
        door([StreamRequest(**entry)], p=P)

    return run


def _cluster(make):
    def run(field, value):
        cluster = Cluster(P)
        cluster.submit(make(**{field: value}))
        cluster.run()

    return run


def _synthetic(field, value):
    knob = {
        "seed": {"seed": value},
        "priority": {"priorities": (value,)},
        "tenant": {"tenants": (value,)},
    }[field]
    synthetic_stream(2, n_range=(N, N), k_range=(K, K), **knob)


DAEMON = ("daemon line", _daemon)
REPLAY = ("replay", _stream(replay))
SCHEDULE = ("schedule_stream", _stream(schedule_stream))
SUBMIT = ("Cluster.submit(TrsmRequest)", _cluster(lambda **kw: TrsmRequest(L=L, B=B, **kw)))
SUBMIT_INV = ("Cluster.submit(InvRequest)", _cluster(lambda **kw: InvRequest(L=L, n0=8, **kw)))
SYNTHETIC = ("synthetic_stream", _synthetic)

#: every door that takes each field
DOORS = {
    "n": (DAEMON, REPLAY, SCHEDULE),
    "k": (DAEMON, REPLAY, SCHEDULE),
    "seed": (DAEMON, REPLAY, SCHEDULE, SYNTHETIC),
    "arrival": (REPLAY, SCHEDULE, SUBMIT, SUBMIT_INV),
    "deadline": (DAEMON, REPLAY, SCHEDULE, SUBMIT, SUBMIT_INV),
    "priority": (DAEMON, REPLAY, SCHEDULE, SUBMIT, SUBMIT_INV, SYNTHETIC),
    "tenant": (DAEMON, REPLAY, SCHEDULE, SUBMIT, SUBMIT_INV, SYNTHETIC),
    "sizes": (SUBMIT, SUBMIT_INV),
}

_small = st.integers(min_value=-(2**70), max_value=32)
_any_int = st.integers(min_value=-(10**400), max_value=10**400)
_floats = st.floats(allow_nan=True, allow_infinity=True)

#: per field: generated numbers and valid spellings (HOSTILE is drawn too)
VALUES = {
    "n": st.one_of(_small, st.floats(max_value=32), st.sampled_from([16, 16.0, np.int64(8)])),
    "k": st.one_of(_small, st.floats(max_value=32), st.sampled_from([4, 4.0, np.int32(2)])),
    "seed": st.one_of(_any_int, _floats, st.sampled_from([0, 3.0, np.int64(7), 2**64])),
    "arrival": st.one_of(_any_int, _floats, st.sampled_from([1e-6, np.float64(2e-6), 2**64])),
    "deadline": st.one_of(_any_int, _floats, st.sampled_from([1.0, np.float64(1e-3), 2**64])),
    "priority": st.one_of(_any_int, _floats, st.sampled_from([1, -3, 2.0, np.int64(2)])),
    "tenant": st.one_of(st.text(max_size=4), st.sampled_from(["default", "64", 5])),
    "sizes": st.one_of(
        st.lists(st.sampled_from((1, 2, P) + HOSTILE), max_size=3).map(tuple),
        st.sampled_from([(4,), (2, 1), (np.int64(2),), (4.0,), [4], "4", (), (0,)]),
    ),
}


def verdicts(field, value) -> dict[str, str]:
    """Each door's verdict on ``field=value``: ``"accepted"`` (the request
    ran), ``"refused"`` (a ``ParameterError`` naming the field) or what
    went wrong instead."""
    out = {}
    for door, send in DOORS[field]:
        try:
            send(field, value)
        except ParameterError as e:
            out[door] = "refused" if str(e).startswith(f"{field} ") else f"ParameterError: {e}"
        except Exception as e:  # any other failure is a verdict of its own
            out[door] = f"{type(e).__name__}: {e}"
        else:
            out[door] = "accepted"
    return out


def _id(value) -> str:
    text = repr(value)
    return text if len(text) <= 24 else f"{text[:4]}..{len(text)}digits"


@pytest.mark.parametrize(
    "field,value",
    [
        # string counts were read by int() at the daemon
        ("n", "64"),
        ("k", "8"),
        ("seed", "3"),
        ("priority", "1"),
        # a priority is an integer, not a bool or a fraction
        ("priority", True),
        ("priority", 1.5),
        # a tenant is a str
        ("tenant", {"a": 1}),
        ("tenant", 5),
        ("tenant", None),
        # a deadline is None or finite
        ("deadline", math.inf),
        ("deadline", -math.inf),
        # a time past the float range raised OverflowError
        ("arrival", 10**400),
        ("deadline", 10**400),
        # pinned sizes were truncated, read as 1, or read per character
        ("sizes", (2.5,)),
        ("sizes", (True,)),
        ("sizes", "4"),
        ("sizes", (0,)),
        ("sizes", ()),
        # a negative seed reached numpy's generator
        ("seed", -1),
    ],
    ids=_id,
)
def test_door_probe_is_refused_everywhere(field, value):
    got = verdicts(field, value)
    assert got == dict.fromkeys(got, "refused")


@pytest.mark.parametrize(
    "field,value",
    [
        ("n", 16.0),
        ("seed", np.int64(7)),
        ("priority", -3),
        ("priority", 2**64),
        ("deadline", None),
        ("deadline", -1.0),
        ("arrival", 2**64),
        ("tenant", ""),
        ("sizes", (4, 2)),
        ("sizes", (np.int64(2),)),
    ],
    ids=_id,
)
def test_valid_value_is_accepted_everywhere(field, value):
    got = verdicts(field, value)
    assert got == dict.fromkeys(got, "accepted")


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_every_door_gives_one_verdict(data):
    field = data.draw(st.sampled_from(sorted(DOORS)))
    value = data.draw(st.one_of(st.sampled_from(HOSTILE), VALUES[field]), label=field)
    got = verdicts(field, value)
    assert len(set(got.values())) == 1 and got.popitem()[1] in ("accepted", "refused"), got


def test_stored_values_are_normalized_alike():
    """Counts are stored as ``int``, times as ``float`` and sizes as a
    tuple of ``int``, whichever door built the request."""
    entry = StreamRequest(
        n=16.0,
        k=np.int64(4),
        arrival=0,
        seed=np.float64(3.0),
        priority=np.int32(-2),
        deadline=5,
    )
    assert (entry.n, entry.k, entry.seed, entry.priority) == (16, 4, 3, -2)
    assert all(type(v) is int for v in (entry.n, entry.k, entry.seed, entry.priority))
    assert type(entry.arrival) is float and type(entry.deadline) is float
    req = TrsmRequest(L=L, B=B, arrival=np.float64(1e-6), sizes=(np.int64(2), 4.0), deadline=1)
    assert req.sizes == (2, 4) and all(type(s) is int for s in req.sizes)
    assert type(req.arrival) is float and type(req.deadline) is float
