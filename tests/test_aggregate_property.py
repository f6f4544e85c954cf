"""Property tests of the running FedAvg sum.

`run_round` adds each client to the round's mean as soon as every client
with a lower id is in it, holding a client that finishes early until its
turn. Whatever the completion order, that feeds `aggregate_fedavg(...,
into=, total=)` one client at a time in id order, and the result must be
the one-call mean over all clients bit for bit, -0.0 entries included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedconv.federated import aggregate_fedavg


@st.composite
def rounds(draw):
    """Client results (distinct ids, one registry, one dtype) and the order
    in which they finish, as a permutation of id ranks."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    width = 32 if dtype is np.float32 else 64
    values = st.floats(-1e6, 1e6, width=width)
    shapes = draw(st.lists(st.lists(st.integers(1, 4), max_size=3).map(tuple),
                           min_size=1, max_size=3))
    ids = draw(st.lists(st.integers(0, 999), min_size=1, max_size=6, unique=True))
    results = []
    for cid in ids:
        state = {f"p{j}": np.array(draw(st.lists(values, min_size=int(np.prod(s)),
                                                 max_size=int(np.prod(s)))),
                                   dtype=dtype).reshape(s)
                 for j, s in enumerate(shapes)}
        state["zero"] = np.full(shapes[0], -0.0, dtype=dtype)
        results.append((cid, state, draw(st.integers(1, 1000))))
    order = draw(st.permutations(range(len(ids))))
    return results, order


def fold_as_completed(results, order):
    """Feed clients to a running sum as `run_round` does: a client finishing
    in `order` is held until every lower id has been added."""
    ordered = sorted(results, key=lambda r: r[0])
    total = float(sum(nk for _, _, nk in results))
    running, held, turn = {}, {}, 0
    for rank in order:
        held[rank] = ordered[rank]
        while turn in held:
            out = aggregate_fedavg([held.pop(turn)], into=running, total=total)
            assert out is running
            turn += 1
    return running


@settings(max_examples=200)
@given(case=rounds())
def test_running_sum_matches_one_call_bitwise(case):
    results, order = case
    got = fold_as_completed(results, order)
    want = aggregate_fedavg([results[i] for i in order])
    assert list(got) == list(want)
    for key in want:
        assert got[key].dtype == want[key].dtype and got[key].shape == want[key].shape
        assert got[key].tobytes() == want[key].tobytes(), key
    assert np.all(np.signbit(got["zero"])), "a mean of -0.0 entries lost its sign"


def test_running_sum_rejects_mismatched_registry():
    running = {}
    aggregate_fedavg([(0, {"w": np.zeros(2)}, 1)], into=running, total=2.0)
    with pytest.raises(ValueError, match="client 1: mismatched parameter registry"):
        aggregate_fedavg([(1, {"v": np.zeros(2)}, 1)], into=running, total=2.0)
