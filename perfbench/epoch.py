"""The epoch-loop workloads: ``fleet-kv`` and ``canary-heavy``.

Both run as repeated *segments*: a fresh system is set up, driven for a
fixed number of rounds, checked and torn down, until the run's seconds
are used. A segment's length never depends on host speed, because the
simulated state grows with every epoch (a fleet-kv tenant's VM state
grows from about 15 KB to 1 MB over 300 rounds): only fixed-length
segments compare like with like. A traced run alternates untraced and
traced segments, so the tracing overhead is measured under the same
conditions as the traced figures.
"""

import gc
import logging
import random
import time

from common import latency_summary, median, metric, percentile, rss_peak_mib
from spans import Recorder, SpanTable

#: fleet-kv shape: 32 stock tenants, one in eight attacked, 40 rounds.
FLEET_TENANTS = 32
FLEET_ATTACKED = FLEET_TENANTS // 8
FLEET_ROUNDS = 40

#: canary-heavy shape: the §5.5 regime of many live canaries over a
#: large guest with a small dirty set per epoch.
CANARY_FRAMES = 16384                 # 64 MiB of guest RAM
CANARY_LIVE_OBJECTS = CANARY_FRAMES * 3 // 2
CANARY_OBJECT_SIZE = 384
CANARY_CHURN = 128                    # objects freed and reallocated
CANARY_WRITES = 192                   # live objects rewritten
CANARY_EPOCHS = 48
CANARY_INTERVAL_MS = 25.0

#: Self times must cover the traced total to within this share.
SELF_SUM_TOLERANCE = 0.03


class CheckFailed(Exception):
    """A correctness check on the program's output did not hold."""


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


def quiet_logging():
    # Attacked tenants log a warning per incident. Writing it to stderr
    # inside a timed round would measure the terminal, not the program.
    logging.disable(logging.WARNING)


class EpochTimer:
    """Times every ``Crimes.run_epoch`` call: the per-tenant commit path.

    One ``perf_counter`` pair per epoch, installed for the whole run so
    untraced and traced segments pay the same.
    """

    def __init__(self):
        from repro.core.crimes import Crimes

        self._cls = Crimes
        self._original = Crimes.__dict__["run_epoch"]
        self.samples = []
        samples = self.samples
        original = self._original

        def run_epoch(crimes):
            start = time.perf_counter()
            try:
                return original(crimes)
            finally:
                samples.append((time.perf_counter() - start) * 1000.0)

        Crimes.run_epoch = run_epoch

    def take(self):
        taken = list(self.samples)
        del self.samples[:]
        return taken

    def remove(self):
        self._cls.run_epoch = self._original


# -- instrumentation -------------------------------------------------------

#: span name -> layer (module of the program the span times).
SPAN_LAYERS = {
    "fleet.run_rounds": "core.fleet",
    "crimes.run_epoch": "core.crimes",
    "guest.step": "workloads",
    "checkpointer.start": "checkpoint.checkpointer",
    "checkpointer.run_checkpoint": "checkpoint.checkpointer",
    "checkpointer.commit": "checkpoint.checkpointer",
    "snapshot.freeze": "sim.clone",
    "snapshot.thaw": "sim.clone",
    "snapshot.clone": "sim.clone",
    "audit.scan": "detectors",
    "netbuf.commit": "netbuf",
    "analyzer.respond": "analyzer",
    "incident.bundle": "analyzer",
}
LEAF_LAYERS = ("obs", "checkpoint.store")
AUDIT_MODULES = ("canary", "malware", "syscall-table")


def instrument_epoch_loop(recorder, program_classes):
    """Wrap the public functions of every layer the epoch loop calls."""
    import repro.checkpoint.checkpointer as checkpointer_module
    import repro.core.crimes as crimes_module
    from repro.checkpoint.checkpointer import Checkpointer
    from repro.checkpoint.store import PageStore
    from repro.core.crimes import Crimes
    from repro.core.fleet import FleetScheduler
    from repro.detectors.base import Detector
    from repro.detectors.canary import CanaryScanModule
    from repro.detectors.malware import MalwareScanModule
    from repro.detectors.syscall_table import SyscallTableModule
    from repro.netbuf.buffer import OutputBuffer
    from repro.obs.flight import FlightRecorder
    from repro.obs.observer import Observer
    from repro.obs.registry import Counter, Gauge, Histogram
    from repro.obs.slo import SLOWatchdog
    from repro.obs.tracer import Tracer
    from repro.sim import clone

    def set_attr(key, value):
        def after(span, _args, result, _token):
            span.attrs = {key: value(result)}
        return after

    recorder.span(FleetScheduler, "run_rounds", "fleet.run_rounds")
    recorder.span(Crimes, "run_epoch", "crimes.run_epoch")
    recorder.span(Crimes, "respond", "analyzer.respond")
    recorder.span(crimes_module, "build_incident_bundle", "incident.bundle")
    for cls in program_classes:
        recorder.span(cls, "step", "guest.step")

    recorder.span(Checkpointer, "start", "checkpointer.start")
    recorder.span(
        Checkpointer, "run_checkpoint", "checkpointer.run_checkpoint",
        after=set_attr("dirty_pages", lambda report: report.dirty_pages))
    recorder.span(Checkpointer, "commit", "checkpointer.commit")
    frozen_size = set_attr(
        "bytes", lambda frozen: len(frozen)
        if isinstance(frozen, (bytes, bytearray)) else 0)
    # The checkpointer binds freeze/thaw at import, so its calls go through
    # its own module; clone_state looks them up in sim.clone at call time,
    # so its frozen sizes come from the program's own calls.
    for module in (checkpointer_module, clone):
        recorder.span(module, "freeze_state", "snapshot.freeze",
                      after=frozen_size)
        recorder.span(module, "thaw_state", "snapshot.thaw")
    recorder.span(crimes_module, "clone_state", "snapshot.clone")

    for attr in ("put", "retain", "release", "release_many", "get",
                 "ingest_frames", "materialize"):
        recorder.leaf(PageStore, attr, "checkpoint.store")

    recorder.span(Detector, "scan", "audit.scan")

    def canaries_before(args):
        return getattr(args[0], "canaries_checked", None)

    def canaries_after(span, args, _result, before):
        if before is not None:
            span.attrs = {"canaries_checked":
                          args[0].canaries_checked - before}

    for cls in (CanaryScanModule, MalwareScanModule, SyscallTableModule):
        recorder.span(cls, "scan", lambda args: "audit." + args[0].name,
                      before=canaries_before, after=canaries_after)

    recorder.span(
        OutputBuffer, "commit", "netbuf.commit",
        after=set_attr("packets", lambda released: released[0]))

    for cls, attr in ((Counter, "inc"), (Gauge, "set"),
                      (Histogram, "observe"), (Tracer, "event"),
                      (FlightRecorder, "record"), (Observer, "journal"),
                      (SLOWatchdog, "evaluate")):
        recorder.leaf(cls, attr, "obs")
    recorder.leaf_context(Tracer, "span", "obs")


def epoch_layer_metrics(table, traced_total_ms, workload):
    """The per-layer figures of the epoch loop from measured spans."""
    epochs = table.named("crimes.run_epoch")
    count = len(epochs)
    check(count > 0, "traced segments ran no epochs")

    def per_epoch(value):
        return value / count

    def self_ms(*names):
        return table.self_ms(names)

    epoch_ms = [span.duration_ns() / 1e6 for span in epochs]
    audit_names = [name for name in table.by_name
                   if name.startswith("audit.") and name != "audit.scan"]
    audit_all = ["audit.scan"] + audit_names
    obs_calls = sum(
        calls for span in table.spans
        if span.measured and span.leaf_calls
        for key, calls in span.leaf_calls.items()
        if not key.startswith("PageStore."))
    # Every snapshot's bytes: checkpointer freezes and the freeze inside
    # each clone_state.
    snapshot_spans = table.named("snapshot.freeze")
    out = {
        "crimes.epoch_ms_p50": metric(percentile(epoch_ms, 50.0), "ms"),
        "crimes.epoch_ms_p99": metric(percentile(epoch_ms, 99.0), "ms"),
        "crimes.self_ms_per_epoch": metric(
            per_epoch(self_ms("crimes.run_epoch")), "ms"),
        "obs.calls_per_epoch": metric(per_epoch(obs_calls), "count"),
        "obs.ms_per_epoch": metric(per_epoch(table.leaf_ms("obs")), "ms"),
        "speculate.ms_per_epoch": metric(
            per_epoch(self_ms("guest.step")), "ms"),
        "checkpointer.run_checkpoint_ms_per_epoch": metric(
            per_epoch(self_ms("checkpointer.run_checkpoint")), "ms"),
        "checkpointer.commit_ms_per_epoch": metric(
            per_epoch(self_ms("checkpointer.commit")), "ms"),
        "checkpointer.dirty_pages_per_epoch": metric(
            per_epoch(sum(span.attrs["dirty_pages"] for span in
                          table.named("checkpointer.run_checkpoint"))),
            "count"),
        "checkpointer.start_ms": metric(median(
            [span.duration_ns() / 1e6 for span in
             table.named("checkpointer.start", measured=False)]), "ms"),
        "snapshot.ms_per_epoch": metric(per_epoch(self_ms(
            "snapshot.freeze", "snapshot.thaw", "snapshot.clone")), "ms"),
        "snapshot.bytes_per_epoch": metric(per_epoch(sum(
            span.attrs["bytes"] for span in snapshot_spans)), "bytes"),
        "store.ms_per_epoch": metric(
            per_epoch(table.leaf_ms("checkpoint.store")), "ms"),
        "store.put_calls_per_epoch": metric(
            per_epoch(table.leaf_calls(["PageStore.put"])), "count"),
        "audit.ms_per_epoch": metric(per_epoch(self_ms(*audit_all)), "ms"),
        "audit.canaries_checked_per_epoch": metric(per_epoch(sum(
            (span.attrs or {}).get("canaries_checked", 0)
            for span in table.named("audit.canary"))), "count"),
        "netbuf.commit_ms_per_epoch": metric(
            per_epoch(self_ms("netbuf.commit")), "ms"),
        "netbuf.packets_released_per_epoch": metric(per_epoch(sum(
            span.attrs["packets"]
            for span in table.named("netbuf.commit"))), "count"),
    }
    for module in AUDIT_MODULES:
        out["audit.%s.ms_per_epoch" % module] = metric(
            per_epoch(self_ms("audit." + module)), "ms")

    incidents = len(table.named("incident.bundle"))
    respond_ms = sum(span.duration_ns() for span in
                     table.named("analyzer.respond")) / 1e6
    out["incidents"] = metric(incidents, "count")
    out["respond.ms_per_incident"] = metric(
        respond_ms / incidents if incidents else 0.0, "ms")

    rounds = table.named("fleet.run_rounds")
    if rounds:
        overhead = (sum(span.duration_ns() for span in rounds) / 1e6
                    - sum(epoch_ms))
        out["fleet.overhead_ms_per_round"] = metric(
            overhead / len(rounds), "ms")
    else:
        out["fleet.overhead_ms_per_round"] = metric(0.0, "ms")

    # First and last round of the traced segments: snapshot bytes per
    # tenant-epoch, which grow with the simulated state.
    round_of = {span.id: span.attrs["round"] for span in table.spans
                if span.measured and span.parent is None}

    def snapshot_bytes(round_no):
        roots = {root for root, index in round_of.items()
                 if index == round_no}
        total = sum(span.attrs["bytes"] for span in snapshot_spans
                    if span.root in roots)
        return total / sum(1 for span in epochs if span.root in roots)

    out["snapshot.bytes_first_round"] = metric(snapshot_bytes(0), "bytes")
    out["snapshot.bytes_last_round"] = metric(
        snapshot_bytes(max(round_of.values())), "bytes")

    self_sum = table.self_sum_ms()
    out["trace.self_sum_ratio"] = metric(self_sum / traced_total_ms, "ratio")
    out["trace.spans"] = metric(
        sum(1 for span in table.spans if span.measured), "count")

    layers = {}
    for name in table.by_name:
        layer = SPAN_LAYERS.get(name, "detectors"
                                if name.startswith("audit.") else name)
        layers[layer] = layers.get(layer, 0.0) + table.self_ms([name])
    for layer in LEAF_LAYERS:
        layers[layer] = layers.get(layer, 0.0) + table.leaf_ms(layer)
    layer_detail = {
        "traced_total_ms": traced_total_ms,
        "self_sum_ms": self_sum,
        "tolerance": SELF_SUM_TOLERANCE,
        "self_ms_per_epoch": {layer: ms / count
                              for layer, ms in sorted(layers.items())},
        "epochs": count,
        "workload": workload,
    }
    check(abs(self_sum / traced_total_ms - 1.0) <= SELF_SUM_TOLERANCE,
          "layer self times sum to %.1f ms of a %.1f ms traced total"
          % (self_sum, traced_total_ms))
    return out, layer_detail


# -- fleet-kv --------------------------------------------------------------

def fleet_kv_specs(seed):
    """32 stock tenants; which four are attacked, and when, comes from seed."""
    from repro.core.fleet import default_tenant_spec

    rng = random.Random("fleet-kv/%d" % seed)
    tenant_seeds = [rng.randrange(1, 2 ** 31) for _ in range(FLEET_TENANTS)]
    attacked = sorted(rng.sample(range(FLEET_TENANTS), FLEET_ATTACKED))
    # Staggered: one attack per quarter of the segment after a warm-up,
    # at a seeded epoch inside its quarter, so every attack lands within
    # the segment and the incident rounds are spread over it.
    stride = (FLEET_ROUNDS - 8) // FLEET_ATTACKED
    epochs = [4 + k * stride + rng.randrange(stride)
              for k in range(FLEET_ATTACKED)]
    rng.shuffle(epochs)
    attack_epoch = dict(zip(attacked, epochs))
    specs = [
        default_tenant_spec("tenant-%02d" % index, seed=tenant_seeds[index],
                            attack_epoch=attack_epoch.get(index))
        for index in range(FLEET_TENANTS)
    ]
    return specs, sorted("tenant-%02d" % index for index in attacked)


def fleet_kv_segment(specs, attacked, recorder, timer):
    """One fleet: admit + start (set-up), fixed rounds, checks."""
    from repro.core.fleet import FleetScheduler

    timer.take()
    start = time.perf_counter()
    fleet = FleetScheduler(backend="inline", store=True)
    try:
        for spec in specs:
            fleet.admit(spec)
        setup_s = time.perf_counter() - start
        timer.take()
        # The inline backend's single shard owns the one PageStore all 32
        # tenants share; the scheduler has no public handle on it.
        store = fleet._shards[0].host.store
        before = store.stats()
        round_ms = []
        for index in range(FLEET_ROUNDS):
            if recorder is not None:
                recorder.measuring = True
                recorder.next_root_attrs = {"round": index}
            begin = time.perf_counter()
            fleet.run_rounds(1)
            round_ms.append((time.perf_counter() - begin) * 1000.0)
            if recorder is not None:
                recorder.measuring = False
        epoch_ms = timer.take()
        rollup = fleet.rollup()
        digests = fleet.tenant_digests()
        incidents = fleet.incidents()
        quarantined = fleet.quarantined()
        stats = store.stats()
        store.verify_integrity()
    finally:
        fleet.shutdown()

    check(incidents == attacked,
          "suspended tenants %s != attacked %s" % (incidents, attacked))
    check(not quarantined, "quarantined tenants: %s" % quarantined)
    for name, digest in digests.items():
        if name in attacked:
            continue
        check(digest["epochs_run"] == FLEET_ROUNDS
              and digest["epochs_held"] == 0 and digest["epochs_shed"] == 0
              and digest["fault_rollbacks"] == 0
              and digest["health"] == "healthy",
              "clean tenant %s did not commit every epoch: %r"
              % (name, digest))
    check(len(epoch_ms) == rollup["epochs_total"],
          "timed %d epochs, fleet ran %d"
          % (len(epoch_ms), rollup["epochs_total"]))
    return {
        "setup_s": setup_s,
        "round_ms": round_ms,
        "epoch_ms": epoch_ms,
        "epochs": rollup["epochs_total"],
        "failed": len(quarantined),
        "virtual_pause_ms_mean": rollup["round_pause_ms"]["mean"],
        "fingerprint": {name: (d["clock_ms"], d["epochs_run"],
                               d["suspended"], d["flight_head"])
                        for name, d in digests.items()},
        "store": dict(stats, round_puts=stats["puts"] - before["puts"],
                      round_dedup_hits=(stats["dedup_hits"]
                                        - before["dedup_hits"])),
    }


# -- canary-heavy ----------------------------------------------------------

def canary_program_class():
    from repro.guest.memory import PAGE_SIZE
    from repro.sim.rng import SeededStream
    from repro.workloads.base import GuestProgram

    class CanaryChurnProgram(GuestProgram):
        """A large tripwired heap with a small, seeded per-epoch churn.

        The guest heap is a bump allocator that never reuses a freed
        chunk, and every free leaves a freed-region tripwire in the
        canary table. Both are therefore sized for the churn of every
        epoch the segment runs, so no epoch runs out of heap or table.
        """

        name = "canary-churn"

        def __init__(self, seed, epochs):
            super().__init__()
            self.epochs = epochs
            self._rng = SeededStream(seed, "canary-churn")
            self._pid = None
            self._addrs = []
            self._epoch = 0

        def bind(self, vm):
            super().bind(vm)
            objects = CANARY_LIVE_OBJECTS + CANARY_CHURN * self.epochs
            heap_pages = (objects * (CANARY_OBJECT_SIZE + 32)
                          // PAGE_SIZE) + 64
            process = vm.create_process(
                "churnd", heap_pages=heap_pages,
                canary_capacity=CANARY_LIVE_OBJECTS + objects + 4096,
            )
            self._pid = process.pid
            payload = b"\x42" * CANARY_OBJECT_SIZE
            for _ in range(CANARY_LIVE_OBJECTS):
                addr = process.malloc(CANARY_OBJECT_SIZE)
                process.write(addr, payload)
                self._addrs.append(addr)

        def step(self, start_ms, interval_ms):
            self._require_bound()
            self._epoch += 1
            process = self.vm.processes[self._pid]
            rng = self._rng
            for _ in range(CANARY_CHURN):
                index = rng.randint(0, len(self._addrs) - 1)
                process.free(self._addrs[index])
                addr = process.malloc(CANARY_OBJECT_SIZE)
                process.write(addr, b"\x17" * CANARY_OBJECT_SIZE)
                self._addrs[index] = addr
            payload = b"%06d" % self._epoch
            for _ in range(CANARY_WRITES):
                addr = self._addrs[rng.randint(0, len(self._addrs) - 1)]
                process.write(addr, payload)
            return {"synthetic_dirty": 0}

        def state_dict(self):
            return {"epoch": self._epoch, "pid": self._pid,
                    "addrs": list(self._addrs)}

        def load_state_dict(self, state):
            self._epoch = state["epoch"]
            self._pid = state["pid"]
            self._addrs = list(state["addrs"])

    return CanaryChurnProgram


def canary_heavy_segment(seed, program_class, recorder):
    """One 64 MiB guest: construct + start (set-up), fixed epochs, checks."""
    from repro.core.config import CrimesConfig
    from repro.core.crimes import Crimes
    from repro.detectors.canary import CanaryScanModule
    from repro.detectors.malware import MalwareScanModule
    from repro.guest.linux import LinuxGuest
    from repro.guest.memory import PAGE_SIZE

    guest_seed = random.Random("canary-heavy/%d" % seed).randrange(1, 2 ** 31)
    vm = LinuxGuest(name="canary-heavy",
                    memory_bytes=CANARY_FRAMES * PAGE_SIZE, seed=guest_seed)
    begin = time.perf_counter()
    crimes = Crimes(vm, CrimesConfig(epoch_interval_ms=CANARY_INTERVAL_MS,
                                     seed=guest_seed,
                                     nominal_frames=CANARY_FRAMES))
    crimes.install_module(CanaryScanModule())
    crimes.install_module(MalwareScanModule(detect_hidden=False))
    construct_s = time.perf_counter() - begin
    # Binding builds the guest's heap of live objects: input, not set-up.
    crimes.add_program(program_class(guest_seed, CANARY_EPOCHS))
    begin = time.perf_counter()
    crimes.start()
    setup_s = construct_s + time.perf_counter() - begin

    epoch_ms = []
    for index in range(CANARY_EPOCHS):
        if recorder is not None:
            recorder.measuring = True
            recorder.next_root_attrs = {"round": index}
        begin = time.perf_counter()
        record = crimes.run_epoch()
        epoch_ms.append((time.perf_counter() - begin) * 1000.0)
        if recorder is not None:
            recorder.measuring = False
        check(record.committed and record.detection is not None
              and not record.detection.findings,
              "epoch %d did not audit clean: %r" % (record.epoch, record))
    return {
        "setup_s": setup_s,
        "round_ms": epoch_ms,
        "epoch_ms": epoch_ms,
        "epochs": len(epoch_ms),
        "failed": 0,
        "virtual_pause_ms_mean": crimes.mean_pause_ms(),
        "fingerprint": (crimes.clock.now, crimes.epochs_run,
                        crimes.observer.flight.head_hash),
        "store": None,
    }


# -- running segments ----------------------------------------------------

def run_epoch_workload(name, seed, seconds, traced, trace_path):
    """Run segments of ``name`` for ``seconds``; returns the run's result."""
    quiet_logging()
    timer = EpochTimer()
    recorder = Recorder() if traced else None
    try:
        if name == "fleet-kv":
            from repro.workloads.attacks import OverflowAttackProgram
            from repro.workloads.kvstore import KeyValueStoreProgram

            specs, attacked = fleet_kv_specs(seed)
            program_classes = (KeyValueStoreProgram, OverflowAttackProgram)

            def segment(rec):
                return fleet_kv_segment(specs, attacked, rec, timer)
        else:
            program_class = canary_program_class()
            program_classes = (program_class,)

            def segment(rec):
                return canary_heavy_segment(seed, program_class, rec)

        segments = []
        deadline = time.perf_counter() + seconds
        minimum = 4 if traced else 2
        while len(segments) < minimum or time.perf_counter() < deadline:
            tracing = traced and len(segments) % 2 == 1
            gc.collect()
            if tracing:
                instrument_epoch_loop(recorder, program_classes)
            try:
                result = segment(recorder if tracing else None)
            finally:
                if tracing:
                    recorder.unpatch_all()
            result["traced"] = tracing
            segments.append(result)
    finally:
        timer.remove()
    return summarize(name, segments, recorder, trace_path)


def summarize(name, segments, recorder, trace_path):
    first = segments[0]
    for segment in segments[1:]:
        check(segment["fingerprint"] == first["fingerprint"],
              "a repeat of the same seed simulated a different run")
        check(segment["virtual_pause_ms_mean"]
              == first["virtual_pause_ms_mean"],
              "a repeat of the same seed modelled a different pause")

    plain = [s for s in segments if not s["traced"]]
    round_ms = [ms for s in plain for ms in s["round_ms"]]
    epoch_ms = [ms for s in plain for ms in s["epoch_ms"]]
    epochs = sum(s["epochs"] for s in plain)
    busy_s = sum(round_ms) / 1000.0
    failed = sum(s["failed"] for s in segments)
    attempted = sum(s["epochs"] for s in segments)
    rounds = latency_summary(round_ms)
    commits = latency_summary(epoch_ms)
    setup_s = median([s["setup_s"] for s in segments])
    rss = rss_peak_mib()

    end_to_end = {
        "setup_s": metric(setup_s, "s"),
        "throughput_per_s": metric(epochs / busy_s, "1/s"),
        "step_ms_p50": metric(rounds["p50"], "ms"),
        "step_ms_tail": metric(rounds["tail"], "ms",
                               percentile=rounds["tail_pct"],
                               samples=rounds["samples"]),
        "commit_ms_p50": metric(commits["p50"], "ms"),
        "rss_peak_mib": metric(rss, "MiB"),
    }
    named = {
        "setup_s": end_to_end["setup_s"],
        "epochs_per_s": metric(epochs / busy_s, "1/s"),
        "round_ms_p50": metric(rounds["p50"], "ms"),
        "round_ms_tail": metric(rounds["tail"], "ms",
                                percentile=rounds["tail_pct"],
                                samples=rounds["samples"]),
        "virtual_pause_ms_mean": metric(first["virtual_pause_ms_mean"],
                                        "ms"),
        "rss_peak_mib": end_to_end["rss_peak_mib"],
        "fail_ratio": metric(failed / attempted, "ratio", failed=failed,
                             attempted=attempted),
    }
    detail = {
        # Printed, not gated: its run-to-run spread exceeds any bound.
        "commit_ms_tail": metric(commits["tail"], "ms",
                                 percentile=commits["tail_pct"],
                                 samples=commits["samples"]),
        "segments": len(segments),
        # Per untraced segment: how steady the host was within the run.
        "segment_epochs_per_s": [s["epochs"] / (sum(s["round_ms"]) / 1000.0)
                                 for s in plain],
        "rounds_per_segment": len(first["round_ms"]),
        "epochs_timed": epochs,
    }
    if first["store"] is not None:
        detail["store"] = {key: first["store"][key] for key in
                           ("unique_pages", "puts", "dedup_hits",
                            "round_puts", "round_dedup_hits",
                            "resident_bytes", "logical_bytes")}

    per_layer = None
    if recorder is not None:
        traced = [s for s in segments if s["traced"]]
        traced_ms = sum(ms for s in traced for ms in s["round_ms"])
        traced_epochs = sum(s["epochs"] for s in traced)
        table = SpanTable(recorder.spans)
        per_layer, layer_detail = epoch_layer_metrics(table, traced_ms, name)
        detail["layers"] = layer_detail
        traced_rate = traced_epochs / (traced_ms / 1000.0)
        per_layer["trace.overhead_ratio"] = metric(
            (epochs / busy_s) / traced_rate, "ratio")
        detail["trace_overhead"] = {"untraced_epochs_per_s": epochs / busy_s,
                                    "traced_epochs_per_s": traced_rate}
        stats = first["store"]
        if stats is not None:
            per_layer["store.dedup_hit_ratio"] = metric(
                stats["dedup_hits"] / stats["puts"], "ratio")
            per_layer["store.resident_mib"] = metric(
                stats["resident_bytes"] / 2.0 ** 20, "MiB")
        else:
            per_layer["store.dedup_hit_ratio"] = metric(0.0, "ratio")
            per_layer["store.resident_mib"] = metric(0.0, "MiB")
        recorder.write_jsonl(trace_path)
        detail["trace_file"] = trace_path

    return {
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "named": named,
        "per_layer": per_layer,
        "detail": detail,
    }
