"""The benchmark's four workloads: serve, table1, reconcile, certify-smoke.

Each workload has the same shape:

- ``setup(seed)`` generates the inputs and builds what the first timed
  call needs; the runner times it several times.
- ``run(inputs, tracer)`` builds fresh per-pass objects (untimed), times
  one pass and checks its output; it returns a :class:`Pass`.
- ``check(inputs)`` is the once-per-run check outside any timing (a
  replay against an oracle, say); it returns ``(attempted, failed)``.
- ``instrument(tracer)`` wraps the layer functions a traced pass times.
- ``context(inputs)`` reports what the program resolved.

README.md says why each workload exists and which layer each metric
belongs to.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from repro.certify import run_certification
from repro.certify.anchors import REGISTRY
from repro.certify.runner import _tol as certify_tolerance
from repro.certify.tiers import TIERS
from repro.experiments import TABLE_DEFAULTS, table1_load_fractions
from repro.extensions.iblt import IBLT
from repro.extensions.reconcile import default_cells, make_parties
from repro.hashing.keyed import DoubleHashedKeyed
from repro.kernels import kernel_metrics, resolve_backend
from repro.kernels.keymap import KeyMap
from repro.metrics import MetricsRegistry
from repro.service import KeyedStore, WorkloadSpec, generate_stream

clock = time.perf_counter


@dataclass
class Pass:
    """One timed pass of a workload.

    ``e2e`` holds the workload's own end-to-end measures of this pass,
    ``layers`` its per-layer values (counters, and span times on traced
    passes), ``covered_s`` the part of ``wall_s`` the top-level spans or
    timers account for (``None`` when nothing measured it) and
    ``step_ms`` the latency of each step of a stepped workload.
    """

    wall_s: float
    attempted: int
    failed: int
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    covered_s: float | None = None
    step_ms: list = field(default_factory=list)


def _timer_total(snapshot: dict, name: str) -> float:
    return snapshot["timers"].get(name, {}).get("total", 0.0)


def _kernel_diff(before: dict, after: dict, timers: dict, counters: dict) -> dict:
    """Per-layer values from two snapshots of the kernels' registry."""
    out = {
        metric: _timer_total(after, name) - _timer_total(before, name)
        for metric, name in timers.items()
    }
    for metric, name in counters.items():
        out[metric] = after["counters"].get(name, 0) - before["counters"].get(
            name, 0
        )
    return out


# ---------------------------------------------------------------------------
# serve: a closed loop from one client into a KeyedStore
# ---------------------------------------------------------------------------


class Serve:
    """The default ``serve`` workload with the stream generated up front."""

    name = "serve"
    N_BINS = 1 << 16
    D = 2
    SPEC = WorkloadSpec(
        n_keys=1_000_000,
        batch=8192,
        churn=0.5,
        lookups=1.0,
        popularity="uniform",
        arrival="constant",
    )
    #: run_service_workload's default SLO cadence.
    SLO_SAMPLES = 32

    def __init__(self) -> None:
        self._expected = None

    def setup(self, seed: int) -> dict:
        t0 = clock()
        steps = [
            (b.inserts, b.deletes, b.lookups)
            for b in generate_stream(self.SPEC, seed=seed)
        ]
        generate_s = clock() - t0
        inputs = {"seed": seed, "steps": steps, "generate_s": generate_s}
        inputs["first"] = self._fresh(seed)
        return inputs

    def _fresh(self, seed: int) -> tuple[KeyedStore, MetricsRegistry]:
        registry = MetricsRegistry()
        return self._store(seed, "numpy", registry), registry

    def _store(
        self, seed: int, backend: str, registry: MetricsRegistry
    ) -> KeyedStore:
        return KeyedStore(
            self.N_BINS,
            self.D,
            scheme="double",
            seed=seed,
            backend=backend,
            expected_keys=self.SPEC.n_keys,
            metrics=registry,
        )

    def instrument(self, tracer) -> None:
        for op in ("insert", "delete", "lookup"):
            tracer.wrap(KeyedStore, f"{op}_many", f"store.{op}")
            tracer.wrap(KeyMap, f"{op}_many", f"keymap.{op}")
        tracer.wrap(KeyedStore, "record_slo", "store.slo")
        tracer.wrap(DoubleHashedKeyed, "choices_planar", "keyed.choices")

    def run(self, inputs: dict, tracer) -> Pass:
        store, registry = inputs.pop("first", None) or self._fresh(inputs["seed"])
        steps = inputs["steps"]
        spec = self.SPEC
        total_ops = int(spec.n_keys * (1 + spec.churn + spec.lookups))
        sample_every = max(1, total_ops // self.SLO_SAMPLES)
        next_sample = sample_every
        ins_s = del_s = look_s = 0.0
        n_del = n_look = 0
        step_s = []
        start = clock()
        for inserts, deletes, lookups in steps:
            t0 = clock()
            store.insert_many(inserts)
            t1 = clock()
            if deletes.size:
                store.delete_many(deletes, missing="ignore")
            t2 = clock()
            if lookups.size:
                store.lookup_many(lookups)
            t3 = clock()
            ins_s += t1 - t0
            del_s += t2 - t1
            look_s += t3 - t2
            n_del += deletes.size
            n_look += lookups.size
            step_s.append(t3 - t0)
            if store.ops >= next_sample:
                store.record_slo()
                next_sample += sample_every
        wall = clock() - start
        spans = _span_layers(tracer, SERVE_SPANS)
        covered = tracer.root_s if tracer else None
        store.record_slo()

        counters = store.counters
        ops = store.ops
        failed = 0 if self._state_ok(store) else ops
        keymap = registry.snapshot()["counters"]
        layers = {
            "kernels.keymap.calls": keymap.get("keymap.calls.numpy", 0),
            "kernels.keymap.probe_rounds": keymap.get("keymap.probe_rounds", 0),
            "kernels.keymap.probes_per_op": keymap.get("keymap.probes", 0) / ops,
            "kernels.keymap.rehashes": keymap.get("keymap.rehashes", 0),
            "service.store.reinsert_frac": counters["reinserts"]
            / counters["inserts"],
            "service.store.delete_hit_frac": counters["deletes"]
            / max(counters["deletes"] + counters["delete_misses"], 1),
            "service.workloads.generate_s": inputs["generate_s"],
            **spans,
        }
        return Pass(
            wall_s=wall,
            attempted=ops,
            failed=failed,
            e2e={
                "ops_per_s": ops / wall,
                "insert_ops_per_s": spec.n_keys / ins_s,
                "delete_ops_per_s": n_del / del_s,
                "lookup_ops_per_s": n_look / look_s,
            },
            layers=layers,
            covered_s=covered,
            step_ms=[s * 1e3 for s in step_s],
        )

    def _state_ok(self, store: KeyedStore) -> bool:
        """Ball conservation, and the same final state on every pass."""
        keys, bins = store.assignments
        loads = store.loads
        conserved = (
            int(loads.sum()) == store.size == keys.size
            and int(loads.min()) >= 0
            and np.array_equal(np.bincount(bins, minlength=self.N_BINS), loads)
        )
        state = (loads.copy(), keys, bins, dict(store.counters))
        if self._expected is None:
            self._expected = state
            return conserved
        return conserved and _same_state(state, self._expected)

    def check(self, inputs: dict) -> tuple[int, int]:
        """Replay the stream through the numpy and the reference stores.

        Every call's returned bins must agree, and the final state must
        equal the one every timed pass ended in.
        """
        seed = inputs["seed"]
        fast = self._store(seed, "numpy", MetricsRegistry())
        ref = self._store(seed, "reference", MetricsRegistry())
        attempted = failed = 0
        for inserts, deletes, lookups in inputs["steps"]:
            for op, keys in (
                ("insert_many", inserts),
                ("delete_many", deletes),
                ("lookup_many", lookups),
            ):
                got = getattr(fast, op)(keys)
                want = getattr(ref, op)(keys)
                attempted += keys.size
                failed += int(np.count_nonzero(got != want))
        final = (fast.loads.copy(), *fast.assignments, dict(fast.counters))
        ref_final = (ref.loads.copy(), *ref.assignments, dict(ref.counters))
        if not (
            _same_state(final, ref_final)
            and self._expected is not None
            and _same_state(final, self._expected)
        ):
            failed = attempted
        return attempted, failed

    def context(self, inputs: dict) -> dict:
        store = inputs["first"][0]
        return {
            "keymap_backend": store.backend,
            "scheme": store.keyed.describe(),
            "scheme_fingerprint": store.keyed.fingerprint(),
        }


def _same_state(a: tuple, b: tuple) -> bool:
    return all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(a, b)
    )


#: Tracer span -> (per-layer metric, "total" or "self").
SERVE_SPANS = {
    "keymap.insert": ("kernels.keymap.insert_s", "total"),
    "keymap.delete": ("kernels.keymap.delete_s", "total"),
    "keymap.lookup": ("kernels.keymap.lookup_s", "total"),
    "keyed.choices": ("hashing.keyed.choices_s", "total"),
    "store.insert": ("service.store.insert_self_s", "self"),
    "store.delete": ("service.store.delete_self_s", "self"),
    "store.lookup": ("service.store.lookup_self_s", "self"),
    "store.slo": ("service.store.slo_s", "total"),
}

RECONCILE_SPANS = {
    "iblt.insert": ("extensions.iblt.insert_s", "total"),
    "iblt.cells": ("extensions.iblt.cells_batch_s", "total"),
    "iblt.subtract": ("extensions.iblt.subtract_s", "total"),
    "iblt.list": ("extensions.iblt.list_s", "total"),
}


def _span_layers(tracer, spans: dict) -> dict:
    if tracer is None:
        return {}
    source = {"total": tracer.total, "self": tracer.self_s}
    return {
        metric: source[kind].get(span, 0.0)
        for span, (metric, kind) in spans.items()
    }


# ---------------------------------------------------------------------------
# table1: the paper's Table 1 through simulate_batch
# ---------------------------------------------------------------------------


class Table1:
    """``table1_load_fractions`` at ``TABLE_DEFAULTS`` with the run's seed."""

    name = "table1"
    #: The certify smoke tier's envelope width, in standard errors.
    ANCHOR_Z = TIERS["smoke"].anchor_z

    def __init__(self) -> None:
        self._rows = None

    def setup(self, seed: int) -> dict:
        spec = TABLE_DEFAULTS["table1"].replace(seed=seed, workers=1)
        # Warm-up: the same geometry at a few trials runs every code path.
        table1_load_fractions(spec.replace(trials=4), metrics=MetricsRegistry())
        return {"spec": spec}

    def instrument(self, tracer) -> None:
        """Nothing to wrap: the layers of this path keep their own timers."""

    def run(self, inputs: dict, tracer) -> Pass:
        spec = inputs["spec"]
        registry = MetricsRegistry()
        before = kernel_metrics().snapshot()
        start = clock()
        table = table1_load_fractions(spec, metrics=registry)
        wall = clock() - start
        after = kernel_metrics().snapshot()
        run = registry.snapshot()
        layers = _kernel_diff(
            before,
            after,
            {
                "kernels.generate_s": "kernel.generate_seconds",
                "kernels.place_s": "kernel.place_seconds",
            },
            {"kernels.balls_placed": "kernel.balls_placed"},
        )
        layers["core.stats.aggregate_s"] = _timer_total(
            run, "experiment.aggregate_seconds"
        )
        layers["parallel.engine.chunk_s"] = _timer_total(run, "engine.chunk_seconds")
        balls = 2 * spec.trials * spec.n
        ok = self._rows_ok(spec, table.rows)
        return Pass(
            wall_s=wall,
            attempted=balls,
            failed=0 if ok else balls,
            e2e={"balls_per_s": balls / wall},
            layers=layers,
            covered_s=layers["core.stats.aggregate_s"]
            + layers["parallel.engine.chunk_s"],
        )

    def _rows_ok(self, spec, rows) -> bool:
        """Conservation, same-seed determinism and the certify envelope."""
        if self._rows is None:
            self._rows = rows
        elif rows != self._rows:
            return False
        n_obs = spec.trials * spec.n
        for col, role in ((1, "random"), (2, "double")):
            fractions = np.array([row[col] for row in rows])
            counts = np.rint(fractions * n_obs)
            loads = np.arange(counts.size)
            if not (
                np.allclose(counts, fractions * n_obs, rtol=0, atol=1e-6)
                and counts.sum() == n_obs
                and (loads * counts).sum() == spec.trials * spec.balls
            ):
                return False
            prefix = f"table1/d{spec.d}/{role}/load"
            for a in REGISTRY.values():
                if not a.anchor_id.startswith(prefix):
                    continue
                load = int(a.anchor_id[len(prefix):])
                measured = float(fractions[load]) if load < fractions.size else 0.0
                tol = certify_tolerance(
                    measured, a.value, n_obs, self.ANCHOR_Z, a.quantum
                )
                if abs(measured - a.value) > tol:
                    return False
        return True

    def check(self, inputs: dict) -> tuple[int, int]:
        return 0, 0  # every pass is checked in full

    def context(self, inputs: dict) -> dict:
        spec = inputs["spec"]
        return {
            "placement_backend": resolve_backend(spec.backend).name,
            "scheme": f"random vs double, n={spec.n}, d={spec.d}, "
            f"trials={spec.trials}, mode={spec.trials_mode}",
        }


# ---------------------------------------------------------------------------
# reconcile: two-party IBLT set reconciliation
# ---------------------------------------------------------------------------


def _values_for(keys: np.ndarray) -> np.ndarray:
    """Per-key values, checkable after recovery."""
    return (keys * 2654435761) & ((1 << 62) - 1)


class Reconcile:
    """Two 1e6-item parties differing in 1e5 keys, d = 3, double mode.

    With a delta-sized table, double hashing gives two delta keys the same
    cell set with probability about ``4/m**2`` per pair; that is Θ(1)
    expected pairs at this density, so such pairs occur on some seeds.
    Their keys can never peel.  The check therefore predicts the exact
    outcome: every delta key outside a repeated cell set is recovered
    with its sign and value, nothing else is listed, and the residue is
    exactly the cells the repeated sets leave behind.
    """

    name = "reconcile"
    N_ITEMS = 1_000_000
    N_DIFF = 100_000
    D = 3
    MODE = "double"

    def __init__(self) -> None:
        self._expected = None

    def setup(self, seed: int) -> dict:
        keys_a, keys_b, a_only, b_only = make_parties(
            self.N_ITEMS, self.N_DIFF, seed=seed
        )
        inputs = {
            "seed": seed,
            "cells": default_cells(self.N_DIFF, self.D),
            "keys_a": keys_a,
            "keys_b": keys_b,
            "vals_a": _values_for(keys_a),
            "vals_b": _values_for(keys_b),
            "a_only": a_only,
            "b_only": b_only,
        }
        inputs["tables"] = self._tables(inputs)
        return inputs

    def _tables(self, inputs: dict) -> tuple[IBLT, IBLT]:
        return tuple(
            IBLT(inputs["cells"], self.D, mode=self.MODE, seed=inputs["seed"] + 1)
            for _ in range(2)
        )

    def instrument(self, tracer) -> None:
        tracer.wrap(IBLT, "insert_many", "iblt.insert")
        tracer.wrap(IBLT, "cells_batch", "iblt.cells")
        tracer.wrap(IBLT, "subtract", "iblt.subtract")
        tracer.wrap(IBLT, "list_entries_batched", "iblt.list")

    def run(self, inputs: dict, tracer) -> Pass:
        table_a, table_b = inputs.pop("tables", None) or self._tables(inputs)
        expected = self._prediction(inputs)
        start = clock()
        table_a.insert_many(inputs["keys_a"], inputs["vals_a"])
        table_b.insert_many(inputs["keys_b"], inputs["vals_b"])
        built = clock()
        listing = table_a.subtract(table_b).list_entries_batched()
        end = clock()
        wall = end - start
        spans = _span_layers(tracer, RECONCILE_SPANS)
        failed = min(self._failures(listing, expected), self.N_DIFF)
        return Pass(
            wall_s=wall,
            attempted=self.N_DIFF,
            failed=failed,
            e2e={
                "items_per_s": self.N_ITEMS / wall,
                "recover_s": end - built,
                "build_s": built - start,
            },
            layers={
                "extensions.iblt.peel_rounds": listing.rounds,
                "extensions.iblt.residue_cells": listing.residue_cells,
                **spans,
            },
            covered_s=tracer.root_s if tracer else None,
        )

    def _prediction(self, inputs: dict) -> dict:
        """Recoverable keys per direction and the residue the rest leave.

        Computed once per run; the runner asks for the context before any
        pass, so this ``cells_batch`` call never lands in a traced span.
        """
        if self._expected is not None:
            return self._expected
        table = self._tables(inputs)[0]
        delta = np.concatenate([inputs["a_only"], inputs["b_only"]])
        signs = np.repeat([1, -1], [inputs["a_only"].size, inputs["b_only"].size])
        cells = np.sort(table.cells_batch(delta), axis=1)
        _, inverse, counts = np.unique(
            cells, axis=0, return_inverse=True, return_counts=True
        )
        stuck = counts[inverse.ravel()] > 1
        count = np.zeros(table.m, dtype=np.int64)
        key_sum = np.zeros(table.m, dtype=np.int64)
        np.add.at(count, cells[stuck].ravel(), np.repeat(signs[stuck], self.D))
        np.bitwise_xor.at(key_sum, cells[stuck].ravel(), np.repeat(delta[stuck], self.D))
        self._expected = {
            "a": np.sort(delta[~stuck & (signs > 0)]),
            "b": np.sort(delta[~stuck & (signs < 0)]),
            "stuck_keys": int(np.count_nonzero(stuck)),
            "residue": int(np.count_nonzero((count != 0) | (key_sum != 0))),
        }
        return self._expected

    def _failures(self, listing, want: dict) -> int:
        """Delta keys whose listing outcome differs from the prediction."""
        n = listing.keys.size
        if listing.values.size != n or listing.signs.size != n or (
            listing.residue_cells != want["residue"]
        ):
            return self.N_DIFF
        failed = int(np.count_nonzero(listing.values != _values_for(listing.keys)))
        for sign, expected in ((1, want["a"]), (-1, want["b"])):
            got = np.sort(listing.keys[listing.signs == sign])
            failed += np.setxor1d(got, expected).size + got.size - np.unique(got).size
        return failed

    def check(self, inputs: dict) -> tuple[int, int]:
        return 0, 0  # every pass is checked in full

    def context(self, inputs: dict) -> dict:
        return {
            "cells": inputs["cells"],
            "scheme": f"IBLT {self.MODE} d={self.D}",
            "scheme_fingerprint": inputs["tables"][0].fingerprint(),
            "unrecoverable_keys": self._prediction(inputs)["stuck_keys"],
        }


# ---------------------------------------------------------------------------
# certify-smoke: the smoke certification tier in-process
# ---------------------------------------------------------------------------


class CertifySmoke:
    """``run_certification("smoke")``; its verdict is the output check.

    The smoke tier pins its own seeds, so the run's ``--seed`` does not
    change this workload's inputs.
    """

    name = "certify-smoke"
    TABLES = ("table1", "table2", "table3", "table8", "peeling", "schemes")

    def setup(self, seed: int) -> dict:
        # Warm-up: the smoke tier's runs at two trials (and a short
        # queueing horizon) run every certifier once.
        smoke = TIERS["smoke"]
        runs = []
        for run in smoke.runs:
            spec = run.spec.replace(trials=2)
            if run.table == "table8":
                spec = spec.replace(sim_time=40.0, burn_in=8.0)
            runs.append(dataclasses.replace(run, spec=spec))
        warmup = dataclasses.replace(smoke, name="smoke-warmup", runs=tuple(runs))
        run_certification(warmup, workers=1)
        return {}

    def instrument(self, tracer) -> None:
        """Nothing to wrap: run records and kernel timers cover the layers."""

    def run(self, inputs: dict, tracer) -> Pass:
        before = kernel_metrics().snapshot()
        start = clock()
        cert = run_certification("smoke", workers=1)
        wall = clock() - start
        after = kernel_metrics().snapshot()
        layers = _kernel_diff(
            before,
            after,
            {
                "kernels.supermarket_s": "kernel.supermarket_seconds",
                "kernels.peel_s": "kernel.peel_seconds",
            },
            {
                "kernels.supermarket_completions": "kernel.supermarket_completions",
                "kernels.edges_peeled": "kernel.edges_peeled",
            },
        )
        for table in self.TABLES:
            layers[f"certify.{table}_s"] = sum(
                r.wall_clock_seconds for r in cert.runs if r.table == table
            )
        return Pass(
            wall_s=wall,
            attempted=len(cert.checks),
            failed=sum(1 for c in cert.checks if not c.passed),
            layers=layers,
            covered_s=sum(r.wall_clock_seconds for r in cert.runs),
        )

    def check(self, inputs: dict) -> tuple[int, int]:
        return 0, 0  # the verdict of every pass is the check

    def context(self, inputs: dict) -> dict:
        return {"scheme": "smoke tier (seed-pinned)"}


WORKLOADS = {w.name: w for w in (Serve, Table1, Reconcile, CertifySmoke)}
