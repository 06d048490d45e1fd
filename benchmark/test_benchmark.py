"""Tests of the benchmark itself: python3 -m pytest benchmark"""

from __future__ import annotations

import itertools

import pytest

import run
from gate import Gate, argv_key, load_expected
from spans import self_times
from workloads import SLOW_INPUTS, WORKLOADS


@pytest.fixture(scope="module")
def loaded():
    pkg, oracles = run.load_package()
    run.signal.signal(run.signal.SIGALRM, run._on_alarm)
    return pkg, oracles


def test_self_time_subtracts_merged_child_intervals():
    # root 0..10 has children a 1..4 and b 3..6 (overlapping, union 1..6)
    # and c 8..12, which sticks out of root and is clipped to 8..10.
    # a has a child d 2..3; d is a leaf.
    spans = [
        (1, 0, 1, "root", 0.0, 10.0),
        (2, 1, 1, "a", 1.0, 4.0),
        (3, 1, 1, "b", 3.0, 6.0),
        (4, 1, 1, "c", 8.0, 12.0),
        (5, 2, 1, "d", 2.0, 3.0),
    ]
    got = self_times(spans)
    assert got == pytest.approx({1: 10.0 - 5.0 - 2.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 1.0})


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_requests_other_seed_other_requests(name):
    workload = WORKLOADS[name]

    def first(seed):
        return list(itertools.islice(workload.passes(seed), 3))

    assert first(7) == first(7)
    assert first(7) != first(8)
    assert all(len(p) == len(workload.slots) for p in first(7))


def test_every_pool_request_has_a_recorded_hash_and_no_slow_input():
    expected = load_expected()
    pool = {argv_key(a) for w in WORKLOADS.values() for a in w.pool()}
    assert pool == set(expected)
    for slow, _cost in SLOW_INPUTS:
        assert not any(key.startswith(slow + " ") for key in pool)


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_passes_the_gate(loaded, name):
    pkg, oracles = loaded
    gate = Gate(pkg, oracles, load_expected())
    counts, metrics, units, _notes = run.end_to_end(pkg, gate, WORKLOADS[name], 3, 0.0)
    assert counts.attempted == len(WORKLOADS[name].slots)
    assert (counts.failed, counts.mismatched) == (0, 0), counts.notes
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert all(v > 0 for v in metrics.values())


def test_gate_catches_a_wrong_output(loaded):
    pkg, oracles = loaded
    gate = Gate(pkg, oracles, load_expected())
    argv = WORKLOADS["concrete_boundary"].pool()[0]
    out = run.run_request(pkg.cli, argv).out
    assert gate.check(argv, out) == []
    wrong = out.replace("rank = ", "rank = 1", 1)
    assert Gate(pkg, oracles, load_expected()).check(argv, wrong)


def test_traced_smoke_run_repeats_counts(loaded):
    pkg, oracles = loaded
    gate = Gate(pkg, oracles, load_expected())
    workload = WORKLOADS["basis_rewrite"]
    first = run.per_layer(pkg, gate, oracles, workload, 3, 0.0)
    again = run.per_layer(pkg, gate, oracles, workload, 3, 0.0)
    for counts, *_ in (first, again):
        assert (counts.failed, counts.mismatched) == (0, 0), counts.notes

    def counted(metrics):
        return {k: v for k, v in metrics.items()
                if not k.endswith("_s") and k != "trace.overhead_ratio"}

    assert counted(first[1]) == counted(again[1])
    layers = first[1]
    assert layers["algebra.build.calls"] > 0
    assert layers["algebra.map_generators.calls"] > 0
    assert layers["biseries.mul.calls"] == 0


def test_a_stalled_request_is_recorded_as_a_timeout(loaded, monkeypatch):
    pkg, _oracles = loaded
    monkeypatch.setattr(run, "REQUEST_TIMEOUT_S", 0.05)
    res = run.run_request(pkg.cli, ("verify", "--order", "32"))
    assert res.error == "timeout"
    assert 0.05 <= res.wall < 1.0
