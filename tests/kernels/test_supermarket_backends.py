"""Supermarket kernel: golden regression, bit-identity with the oracle,
batch invariance, and a hand-worked schedule.

The contract (``repro.kernels.supermarket``): every run of a
:func:`repro.queueing.simulate_supermarket` batch draws its own schedule
through ``draw_events`` and is bit-identical to the oracle
:func:`repro.kernels.reference.simulate_supermarket_reference` on that
run — every result field, the stability error text and the generator's
state afterwards — whatever else is in the batch and in whatever order.

``tests/data/golden_supermarket.json`` pins the oracle's outputs (float
values stored as exact hex) so the contract is also stable release to
release.  After an intentional change to the schedule, regenerate it by
running each ``CASES`` entry through the oracle and writing the fields
``TestGolden`` reads (``json.dumps(..., indent=2, sort_keys=True)``).

Kernel and oracle share the schedule drawer and the accumulator, so
bit-identity cannot catch a bug in either; ``TestHandWorkedSchedule``
checks both against figures worked out by hand.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import repro.kernels.reference as reference
import repro.kernels.supermarket as supermarket
from repro.certify.tiers import TIERS
from repro.errors import ConfigurationError, StabilityError
from repro.experiments.tables import table8_queueing
from repro.hashing import DoubleHashingChoices, FullyRandomChoices
from repro.kernels import kernel_metrics, simulate_supermarket_reference
from repro.kernels.blockrng import TIE_BITS
from repro.kernels.supermarket import (
    EventBlock,
    SupermarketAccumulator,
    draw_events,
)
from repro.queueing import SupermarketRun, simulate_supermarket

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_supermarket.json"

SCHEMES = {"random": FullyRandomChoices, "double": DoubleHashingChoices}

CASES = {
    "random_n64_d2_lam05_s1": dict(
        scheme="random", n=64, d=2, lam=0.5, seed=1, track_tails=False,
        tie_break="random",
    ),
    "double_n128_d3_lam095_s2_tails": dict(
        scheme="double", n=128, d=3, lam=0.95, seed=2, track_tails=True,
        tie_break="random",
    ),
    "random_n32_d3_lam08_s3_left": dict(
        scheme="random", n=32, d=3, lam=0.8, seed=3, track_tails=False,
        tie_break="left",
    ),
    "random_n48_d1_lam07_s4_tails": dict(
        scheme="random", n=48, d=1, lam=0.7, seed=4, track_tails=True,
        tie_break="random",
    ),
    "double_n256_d4_lam09_s5_tails": dict(
        scheme="double", n=256, d=4, lam=0.9, seed=5, track_tails=True,
        tie_break="random",
    ),
}

BACKENDS = ["reference", "numpy"]


class CollapsedDoubleHashing(DoubleHashingChoices):
    """Double hashing with stride ``g ≡ 0``: an arrival's ``d`` choices
    are one queue, the worst case for windowed commits, and a ball's
    ``d`` choices are one bin, the one-choice process.  Both layouts are
    overridden, since the placement kernel's generic path reads
    ``batch_planar``."""

    def batch(self, trials: int, rng: np.random.Generator) -> np.ndarray:
        return self.batch_planar(trials, rng).T

    def batch_planar(self, trials: int, rng: np.random.Generator) -> np.ndarray:
        f = rng.integers(0, self.n_bins, size=trials, dtype=np.int64)
        return np.repeat(f[None, :], self.d, axis=0)


def _case_run(case: dict) -> SupermarketRun:
    return SupermarketRun(
        SCHEMES[case["scheme"]](case["n"], case["d"]), case["lam"], 60.0,
        burn_in=10.0, seed=case["seed"], track_tails=case["track_tails"],
        tie_break=case["tie_break"],
    )


def _simulate(run: SupermarketRun, backend: str):
    if backend == "reference":
        return simulate_supermarket_reference(run)
    return simulate_supermarket([run], backend=backend)[0]


def _run_case(case: dict, backend: str):
    return _simulate(_case_run(case), backend)


def _exact(value):
    """A field in a form that compares bit for bit (NaN included)."""
    return float(value).hex() if isinstance(value, float) else value


def _assert_results_identical(a, b, *, context: str = ""):
    for field in (
        "mean_sojourn_time",
        "completed_jobs",
        "mean_queue_length",
        "sim_time",
        "n_arrivals",
        "n_departures",
        "busy_fraction",
    ):
        assert _exact(getattr(a, field)) == _exact(getattr(b, field)), (
            f"{field} {context}"
        )
    if a.tail_fractions is None:
        assert b.tail_fractions is None, context
    else:
        assert b.tail_fractions is not None, context
        np.testing.assert_array_equal(
            a.tail_fractions, b.tail_fractions, err_msg=context
        )


def _spec(scheme, n, d, lam, sim_time, seed, **kw):
    """A run description whose generator is built fresh on each call."""
    return lambda: SupermarketRun(
        scheme(n, d), lam, sim_time, seed=np.random.default_rng(seed), **kw
    )


def _assert_batch_matches_oracle(specs, order=None):
    """Run ``specs[i]`` for each ``i`` of ``order`` as one batch, and each
    alone through the oracle; compare every field and the final state of
    every generator.  Returns the oracle's results."""
    order = range(len(specs)) if order is None else order
    pairs = [(specs[i](), specs[i]()) for i in order]
    ref = [simulate_supermarket_reference(alone) for alone, _ in pairs]
    got = simulate_supermarket([batched for _, batched in pairs])
    for i, (a, b, (alone, batched)) in enumerate(zip(ref, got, pairs)):
        _assert_results_identical(a, b, context=f"slot {i}")
        assert (
            alone.seed.bit_generator.state == batched.seed.bit_generator.state
        ), f"generator state diverged: slot {i}"
    return ref


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


class TestGolden:
    def test_golden_file_covers_all_cases(self, golden):
        assert set(golden) == set(CASES)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_backend_matches_golden(self, golden, name, backend):
        res = _run_case(CASES[name], backend)
        want = golden[name]
        assert res.mean_sojourn_time.hex() == want["mean_sojourn_time_hex"]
        assert res.completed_jobs == want["completed_jobs"]
        assert res.mean_queue_length.hex() == want["mean_queue_length_hex"]
        assert res.busy_fraction.hex() == want["busy_fraction_hex"]
        assert res.n_arrivals == want["n_arrivals"]
        assert res.n_departures == want["n_departures"]
        if want["tail_fractions_hex"] is None:
            assert res.tail_fractions is None
        else:
            assert [
                float(v).hex() for v in res.tail_fractions
            ] == want["tail_fractions_hex"]


class TestCrossBackendBitIdentity:
    # Wider geometries than the goldens, including heavy load and d=1.
    GEOMETRIES = [
        ("random", 64, 2, 0.9, True, "random", 11),
        ("double", 100, 3, 0.99, False, "random", 12),
        ("random", 16, 4, 0.6, True, "left", 13),
        ("double", 512, 2, 0.8, False, "random", 14),
        ("random", 24, 1, 0.75, True, "random", 15),
    ]

    @pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "reference"])
    @pytest.mark.parametrize("geom", GEOMETRIES)
    def test_matches_reference_and_rng_state(self, geom, backend):
        kind, n, d, lam, tails, tie, seed = geom
        g_ref = np.random.default_rng(seed)
        g_bk = np.random.default_rng(seed)
        ref = simulate_supermarket_reference(SupermarketRun(
            SCHEMES[kind](n, d), lam, 50.0, burn_in=5.0, seed=g_ref,
            track_tails=tails, tie_break=tie,
        ))
        (res,) = simulate_supermarket([SupermarketRun(
            SCHEMES[kind](n, d), lam, 50.0, burn_in=5.0, seed=g_bk,
            track_tails=tails, tie_break=tie,
        )], backend=backend)
        _assert_results_identical(ref, res, context=f"{geom} {backend}")
        # Post-run generator state is part of the contract: sequential
        # runs off one generator must agree across backends too.
        assert (
            g_ref.bit_generator.state == g_bk.bit_generator.state
        ), f"generator state diverged: {geom} {backend}"

    @pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "reference"])
    def test_sequential_runs_share_one_generator(self, backend):
        """Two calls one after another on one generator agree with two
        oracle runs on one generator (a batch may not share one)."""
        def two_runs(fn):
            rng = np.random.default_rng(77)
            return [
                fn(SupermarketRun(
                    FullyRandomChoices(48, 2), lam, 40.0, burn_in=5.0, seed=rng
                ))
                for lam in (0.7, 0.95)
            ]

        ref = two_runs(simulate_supermarket_reference)
        got = two_runs(
            lambda run: simulate_supermarket([run], backend=backend)[0]
        )
        for a, b in zip(ref, got):
            _assert_results_identical(a, b, context=backend)

    @pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "reference"])
    def test_stability_error_parity(self, backend):
        def run():
            return SupermarketRun(
                FullyRandomChoices(64, 2), 0.9, 200.0, seed=21, max_total_jobs=5
            )

        messages = []
        for fn in (
            lambda: simulate_supermarket_reference(run()),
            lambda: simulate_supermarket([run()], backend=backend),
        ):
            with pytest.raises(StabilityError) as excinfo:
                fn()
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert "appears unstable" in messages[0]


class TestBatches:
    """Every run of a batch equals the oracle's run, alone or batched."""

    def test_random_batch(self):
        rng = np.random.default_rng(2014)
        specs = []
        for i in range(6):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(max(d, 8), 300))
            specs.append(_spec(
                SCHEMES[("random", "double")[i % 2]], n, d,
                float(rng.uniform(0.3, 0.97)), float(rng.uniform(5.0, 40.0)),
                100 + i, burn_in=2.0, track_tails=bool(i % 3),
                tie_break=("random", "left")[i % 4 == 3],
            ))
        _assert_batch_matches_oracle(specs)

    def test_structured_batch(self):
        # Consecutive seeds on one geometry, two queues with d = 2 (every
        # arrival sees both), and d = 1 beside d = 3 and d = 4.
        specs = [
            _spec(DoubleHashingChoices, 128, 3, 0.9, 30.0, s, burn_in=5.0)
            for s in range(3)
        ] + [
            _spec(DoubleHashingChoices, 2, 2, 0.9, 60.0, 7, track_tails=True),
            _spec(FullyRandomChoices, 40, 1, 0.8, 30.0, 8),
            _spec(FullyRandomChoices, 64, 4, 0.9, 30.0, 9, tie_break="left"),
        ]
        _assert_batch_matches_oracle(specs)

    def test_adversarial_batch(self):
        # Collapsed choices (every candidate one queue), d close to n,
        # lambda = 0.3 beside 0.99 (run lengths far apart) and a horizon
        # shorter than one event.
        specs = [
            _spec(CollapsedDoubleHashing, 64, 4, 0.9, 40.0, 31,
                  track_tails=True),
            _spec(FullyRandomChoices, 5, 4, 0.99, 80.0, 32),
            _spec(DoubleHashingChoices, 97, 3, 0.3, 10.0, 33, burn_in=1.0),
            _spec(DoubleHashingChoices, 97, 3, 0.99, 60.0, 34, burn_in=1.0),
            _spec(FullyRandomChoices, 64, 3, 0.9, 1e-9, 35, track_tails=True),
        ]
        ref = _assert_batch_matches_oracle(specs)
        empty = ref[-1]
        assert empty.n_arrivals == empty.n_departures == 0
        assert np.isnan(empty.mean_sojourn_time)

    def test_result_does_not_depend_on_the_batch(self):
        specs = [
            _spec(FullyRandomChoices, 64, 3, 0.9, 20.0, 41),
            _spec(DoubleHashingChoices, 128, 4, 0.99, 20.0, 42, burn_in=4.0),
            _spec(DoubleHashingChoices, 32, 2, 0.5, 20.0, 43,
                  tie_break="left", track_tails=True),
        ]
        for order in ([2, 1, 0], [1, 2, 0], [0], [2], [1, 0]):
            _assert_batch_matches_oracle(specs, order)

    def test_stability_error_in_a_batch(self):
        """Every run is simulated; the first tripping run in batch order
        raises the oracle's exact error."""
        specs = [
            _spec(FullyRandomChoices, 64, 2, 0.9, 30.0, 51),
            _spec(CollapsedDoubleHashing, 32, 3, 0.9, 200.0, 52,
                  max_total_jobs=40),
            _spec(FullyRandomChoices, 64, 2, 0.9, 200.0, 53, max_total_jobs=5),
        ]
        with pytest.raises(StabilityError) as want:
            simulate_supermarket_reference(specs[1]())
        with pytest.raises(StabilityError) as got:
            simulate_supermarket([make() for make in specs], backend="numpy")
        assert str(got.value) == str(want.value)

    def test_runs_must_not_share_a_generator(self):
        rng = np.random.default_rng(3)
        runs = [
            SupermarketRun(FullyRandomChoices(16, 2), 0.5, 5.0, seed=rng)
            for _ in range(2)
        ]
        with pytest.raises(ConfigurationError, match="generator"):
            simulate_supermarket(runs)


def _replay_schedule_block(seed: int, now: float):
    """A block of ``draw_events`` and its draws replayed on a twin
    generator, call by call: gaps, kinds, the arrivals' rows and tie
    keys, then the ticks' queues."""
    run = SupermarketRun(DoubleHashingChoices(128, 3), 0.9, 1e9)
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    block = draw_events(run, rng, now)
    size = supermarket.block_size(128)
    gaps = twin.exponential(1.0, size) / ((1.0 + 0.9) * 128)
    gaps[0] += now
    arrival = twin.random(size) < 0.9 / (1.0 + 0.9)
    a = int(arrival.sum())
    choices = run.scheme.batch(a, twin)
    ties = twin.integers(0, 1 << TIE_BITS, size=(a, 3), dtype=np.int64)
    ticks = twin.integers(0, 128, size=size - a, dtype=np.int64)
    replay = EventBlock(np.cumsum(gaps), arrival, choices, ties, ticks, False)
    return block, replay, rng, twin


class TestSchedule:
    def test_event_block_draw_order(self):
        # Gaps first, kinds second, the ticks' queues last: the replay
        # reproduces the block's events and leaves both generators in
        # the same state.
        block, replay, rng, twin = _replay_schedule_block(7, 2.5)
        assert np.array_equal(block.times, replay.times)
        assert np.array_equal(block.arrival, replay.arrival)
        assert np.array_equal(block.ticks, replay.ticks)
        assert not block.last
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_choice_block_draw_order(self):
        # Between the kinds and the ticks: the arrivals' rows, then one
        # tie key per candidate.
        block, replay, rng, twin = _replay_schedule_block(11, 0.0)
        assert np.array_equal(block.choices, replay.choices)
        assert np.array_equal(block.ties, replay.ties)
        assert block.ties.shape == (block.arrival.sum(), 3)
        assert int(block.ties.max()) < 1 << TIE_BITS
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_tie_keys_drawn_even_for_d1(self):
        # The stream must not depend on whether ties can occur.
        run = SupermarketRun(DoubleHashingChoices(128, 1), 0.9, 1e9)
        block = draw_events(run, np.random.default_rng(3), 0.0)
        assert block.ties.shape == (block.choices.shape[0], 1)

    def test_block_is_cut_at_the_horizon(self):
        run = SupermarketRun(FullyRandomChoices(64, 2), 0.5, 3.0)
        block = draw_events(run, np.random.default_rng(4), 0.0)
        assert block.last
        assert block.times[-1] < 3.0
        assert block.choices.shape[0] == block.arrival.sum()
        assert block.ticks.size == block.times.size - block.arrival.sum()


class TestHandWorkedSchedule:
    """Two queues, burn-in 2, horizon 10, eight events in two blocks.

    ====  ====  ========  =====  ======================================
    t     kind  queue     jobs   note
    ====  ====  ========  =====  ======================================
    1     arr   q0        1      job a, before burn-in
    3     arr   q0        2      job b (both choices q0)
    4     tick  q1        2      q1 empty: nothing happens
    5     tick  q0        1      a leaves (arrived before burn-in)
    6     arr   q1        2      job c (q1 shorter)
    7     tick  q0        1      b leaves: sojourn 4
    8     arr   q1        2      job d (both choices q1)
    9     tick  q1        1      c leaves: sojourn 3; d stays to t=10
    ====  ====  ========  =====  ======================================

    Over [2, 10]: population area 1 + 4 + 1 + 2 + 1 + 2 + 1 = 12; busy
    area 5 (q0 on [2, 7)) + 4 (q1 on [6, 10)) = 9; area with two or more
    jobs 2 (q0 on [3, 5)) + 1 (q1 on [8, 9)) = 3.
    """

    BLOCKS = (
        EventBlock(
            times=np.array([1.0, 3.0, 4.0, 5.0]),
            arrival=np.array([True, True, False, False]),
            choices=np.array([[0, 1], [0, 0]]),
            ties=np.array([[5, 9], [1, 2]]),
            ticks=np.array([1, 0]),
            last=False,
        ),
        EventBlock(
            times=np.array([6.0, 7.0, 8.0, 9.0]),
            arrival=np.array([True, False, True, False]),
            choices=np.array([[0, 1], [1, 1]]),
            ties=np.array([[0, 0], [3, 4]]),
            ticks=np.array([0, 1]),
            last=True,
        ),
    )
    TARGETS = (np.array([0, 0, 1, 0]), np.array([1, 0, 1, 1]))
    BEFORE = (np.array([0, 1, 0, 2]), np.array([0, 1, 1, 2]))

    def _run(self):
        return SupermarketRun(
            FullyRandomChoices(2, 2, replacement=True), 0.5, 10.0,
            burn_in=2.0, track_tails=True,
        )

    def _check(self, res):
        assert res.completed_jobs == 2
        assert res.mean_sojourn_time == (4.0 + 3.0) / 2
        assert res.mean_queue_length == 12.0 / (8.0 * 2)
        assert res.busy_fraction == 9.0 / (8.0 * 2)
        assert res.tail_fractions.tolist() == [1.0, 9.0 / 16, 3.0 / 16, 0.0]
        assert (res.n_arrivals, res.n_departures) == (4, 3)

    def test_accumulator(self):
        acc = SupermarketAccumulator(self._run())
        for block, target, before in zip(self.BLOCKS, self.TARGETS, self.BEFORE):
            acc.add(block, target, before)
        self._check(acc.result())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_decisions(self, monkeypatch, backend):
        """The oracle and the kernel decide the hand-made schedule as the
        table says (arrivals join the shorter queue, ties by key)."""
        def fake_draw(run, rng, now):
            return self.BLOCKS[now > 0]

        monkeypatch.setattr(supermarket, "draw_events", fake_draw)
        monkeypatch.setattr(reference, "draw_events", fake_draw)
        self._check(_simulate(self._run(), backend))


def _block(times, arrival, choices, ties, ticks, last):
    """An ``EventBlock`` of a ``d = 2`` run from plain lists."""
    return EventBlock(
        np.array(times, float), np.array(arrival, bool),
        np.array(choices, np.int64).reshape(-1, 2),
        np.array(ties, np.int64).reshape(-1, 2),
        np.array(ticks, np.int64), last,
    )


class TestCommitRule:
    """When an event commits, on hand-made schedules over four queues.

    A tick commits once no earlier pending event touches its queue; an
    arrival once none touches the queue it picks against the current
    lengths and no earlier pending tick touches any of its candidates.
    Each case checks the kernel's pass count, and that every event went
    to the oracle's queue with the oracle's length before it.
    """

    def _decide(self, monkeypatch, blocks):
        def fake_draw(run, rng, now):
            return blocks[now > 0]

        monkeypatch.setattr(supermarket, "draw_events", fake_draw)
        monkeypatch.setattr(reference, "draw_events", fake_draw)
        seen = []
        add = SupermarketAccumulator.add

        def recording_add(acc, block, target, before):
            seen.append((target.tolist(), before.tolist()))
            add(acc, block, target, before)

        monkeypatch.setattr(SupermarketAccumulator, "add", recording_add)
        run = SupermarketRun(
            FullyRandomChoices(4, 2, replacement=True), 0.5, 10.0
        )
        simulate_supermarket_reference(run)
        want = list(seen)
        seen.clear()
        _, passes = supermarket.simulate_supermarket_numpy(
            [run], [np.random.default_rng(0)]
        )
        return passes, seen, want

    def test_arrival_commits_past_a_shared_candidate_it_does_not_pick(
        self, monkeypatch
    ):
        # t=1 arrival {q0, q1} joins q0 (tie 1 < 2); the t=2 arrival
        # {q1, q2} picks q2 (tie 3 < 5).  The pending first arrival also
        # drew q1, but the second does not pick it: both commit at once.
        block = _block(
            [1.0, 2.0], [True, True], [[0, 1], [1, 2]], [[1, 2], [5, 3]],
            [], True,
        )
        passes, got, want = self._decide(monkeypatch, (block,))
        assert got == want == [([0, 2], [0, 0])]
        assert passes == 1

    def test_arrival_waits_when_its_pick_is_a_pending_candidate(
        self, monkeypatch
    ):
        # t=1 arrival {q0, q1} joins q1 (tie 1 < 5).  Against the lengths
        # before it, the t=2 arrival {q1, q2} would pick q1 (tie 3 < 5),
        # which the pending first arrival drew, so it waits a pass and
        # then joins q2.
        block = _block(
            [1.0, 2.0], [True, True], [[0, 1], [1, 2]], [[5, 1], [3, 5]],
            [], True,
        )
        passes, got, want = self._decide(monkeypatch, (block,))
        assert got == want == [([1, 2], [0, 0])]
        assert passes == 2

    def test_arrival_waits_for_a_pending_tick_on_any_candidate(
        self, monkeypatch
    ):
        # Block one puts a job on q0 and one on q1 (first pass).  In block
        # two a tick at q0 precedes an arrival {q0, q1} that picks q1
        # against the current lengths (tie 1 < 9).  The tick empties q0,
        # a candidate the arrival does not pick, so the arrival waits a
        # pass and then joins q0.
        blocks = (
            _block(
                [1.0, 2.0], [True, True], [[0, 0], [1, 1]], [[0, 0], [0, 0]],
                [], False,
            ),
            _block([3.0, 4.0], [False, True], [[0, 1]], [[9, 1]], [0], True),
        )
        passes, got, want = self._decide(monkeypatch, blocks)
        assert got == want == [([0, 1], [0, 0]), ([0, 0], [1, 0])]
        assert passes == 3

    def test_smoke_table8_pass_count(self):
        # The smoke tier's Table 8 batch at a 40 s horizon took 1,293
        # passes when an arrival waited for every earlier pending event
        # on any of its candidates.  The count is deterministic.
        run = next(r for r in TIERS["smoke"].runs if r.table == "table8")
        spec = run.spec.replace(sim_time=40.0, burn_in=8.0)
        before = _kernel_counters().get("kernel.supermarket_passes", 0)
        table8_queueing(spec, **run.extras)
        passes = _kernel_counters()["kernel.supermarket_passes"] - before
        assert passes <= 1293 // 2

    @pytest.mark.parametrize("window", [1, 2, 5, 300])
    def test_results_do_not_depend_on_the_window(self, monkeypatch, window):
        # Windows far below and above n/d², where nearly every pending
        # event commits each pass or the block runs dry.
        monkeypatch.setattr(supermarket, "window_size", lambda runs: window)
        _assert_batch_matches_oracle([
            _spec(DoubleHashingChoices, 500, 3, 0.99, 5.0, 61, burn_in=1.0),
            _spec(FullyRandomChoices, 64, 2, 0.9, 10.0, 62,
                  tie_break="left", track_tails=True),
            _spec(CollapsedDoubleHashing, 32, 3, 0.9, 10.0, 63),
        ])


def _kernel_counters():
    return dict(kernel_metrics().snapshot()["counters"])


def _supermarket_runs():
    timers = kernel_metrics().snapshot()["timers"]
    return timers.get("kernel.supermarket_seconds", {}).get("count", 0)


class TestDriver:
    def test_validation_errors(self):
        scheme = FullyRandomChoices(16, 2)
        with pytest.raises(ConfigurationError, match="lambda"):
            SupermarketRun(scheme, 1.2, 10.0)
        with pytest.raises(ConfigurationError, match="sim_time"):
            SupermarketRun(scheme, 0.5, -1.0)
        # A horizon that is not finite is blamed on sim_time, not on
        # the burn-in compared against it.
        for horizon in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="^sim_time"):
                SupermarketRun(scheme, 0.5, horizon)
        with pytest.raises(ConfigurationError, match="burn_in"):
            SupermarketRun(scheme, 0.5, 10.0, burn_in=20.0)
        with pytest.raises(ConfigurationError, match="tie_break"):
            SupermarketRun(scheme, 0.5, 10.0, tie_break="up")
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            simulate_supermarket(
                [SupermarketRun(scheme, 0.5, 10.0)], backend="fortran"
            )
        with pytest.raises(ConfigurationError, match="SupermarketRun"):
            simulate_supermarket([])

    def test_event_counts_are_consistent(self):
        (res,) = simulate_supermarket([SupermarketRun(
            FullyRandomChoices(64, 2), 0.8, 100.0, burn_in=10.0, seed=9,
        )], backend="numpy")
        assert res.n_events == res.n_arrivals + res.n_departures
        assert res.n_departures >= res.completed_jobs
        assert res.events_per_time == pytest.approx(
            res.n_events / res.sim_time
        )
        # In steady state the busy fraction approaches lambda.
        assert res.busy_fraction == pytest.approx(0.8, abs=0.1)

    def test_metrics_emitted(self):
        # One call records into the global kernel registry once.
        before, runs = _kernel_counters(), _supermarket_runs()
        res = simulate_supermarket([
            SupermarketRun(FullyRandomChoices(32, 2), 0.7, 50.0, seed=5),
            SupermarketRun(FullyRandomChoices(32, 3), 0.7, 50.0, seed=6),
        ], backend="numpy")
        after = _kernel_counters()

        def delta(name):
            return after.get(name, 0) - before.get(name, 0)

        assert delta("kernel.supermarket_events") == sum(r.n_events for r in res)
        assert delta("kernel.supermarket_completions") == sum(
            r.completed_jobs for r in res
        )
        assert delta("kernel.supermarket_passes") > 0
        assert delta("kernel.calls.numpy") == 1
        assert _supermarket_runs() == runs + 1

    def test_numba_request_fails_loudly(self):
        # No silent downgrade to numpy: the request raises before
        # simulating and logs nothing to the kernel registry.
        before = _kernel_counters()
        events = len(kernel_metrics().events)
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            simulate_supermarket([SupermarketRun(
                FullyRandomChoices(32, 2), 0.6, 40.0, seed=6,
            )], backend="numba")
        assert _kernel_counters() == before
        assert len(kernel_metrics().events) == events
