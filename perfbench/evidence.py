"""The ``evidence-service`` workload: incident -> vault -> query.

The vault is pre-loaded with cases built from seeded attacked tenants
(half canary-overflow, half syscall-table rootkit). The case service
then runs in its own process (``server.py``) and this process drives it
over one keep-alive connection per stream. The session is a row of
one-second cycles, each an ingest block followed by an analyst block:

* **ingest** — open loop: ``POST /cases`` at a fixed rate with fresh
  bundles, each timed from the moment it was due, so a stall also
  charges the requests queued behind it;
* **analyst** — closed loop over the vault as it stands: the next query
  goes out as soon as the last one answered. Queries come from a fixed
  deck (point reads of cases and bundles, ``/findings`` with and without
  filters, ``/cases``, ``/metrics``) shuffled by the seed, so every seed
  asks the same mix. Every answer is kept and checked after the run
  against what the bundles stored before it imply. Back to back on one
  keep-alive connection, a query whose answer the service writes in two
  parts waits out the client's delayed acknowledgement (~40 ms); that
  wait is part of what the analyst sees, so it is measured.

The blocks do not overlap. Run side by side, an ingest that overlapped
a cross-case query took about twice as long as one that did not, so the
ingest median and tail depended on how many collided, which swung with
the host's speed. Apart, ingest still pays for whatever the write path
does (indexing, say) and queries still see its effect. The blocks are
short so that both streams sample the whole run: on a shared host
whose speed drifts over seconds, one contiguous ingest phase landed in
one speed and its median moved with it from run to run.

A traced run serves twice, for half the seconds each, on fresh copies
of the same vault: untraced first, then traced. The ratio of their
query rates is the tracing overhead.
"""

import collections
import http.client
import json
import os
import random
import shutil
import subprocess
import sys
import time

from common import latency_summary, median, metric, percentile
from epoch import check, quiet_logging

BASE_CASES = 100
INGEST_PER_S = 10.0
#: One cycle: an ingest block of :data:`CYCLE_INGESTS` requests at
#: :data:`INGEST_PER_S` (0.4 s), then the analyst for the rest of
#: :data:`CYCLE_S`. At 30 s that is 120 ingests (tail p90) and about 340
#: queries (tail p95).
CYCLE_S = 1.0
CYCLE_INGESTS = 4
#: One analyst deck: (kind, count). Point reads are the majority, so the
#: median is a point read; the cross-case queries make up the tail.
#: Bundle reads outnumber case reads so that the median falls well
#: inside the bundle reads' band (about the 33rd to 72nd percentile)
#: and not on the edge between two kinds, where it would jump between
#: their latencies from run to run. The first query of each analyst
#: block, about one in eleven, meets no delayed-ACK wait and is fast.
QUERY_DECK = (
    ("case", 3),
    ("bundle", 7),
    ("findings", 1),
    ("findings-module", 1),
    ("findings-tenant", 1),
    ("findings-since", 1),
    ("cases", 1),
    ("metrics", 1),
)


def attacked_bundle(name, seed, rootkit):
    """Run one attacked tenant until its incident; returns the bundle."""
    from repro.core.config import CrimesConfig
    from repro.core.crimes import Crimes
    from repro.detectors.canary import CanaryScanModule
    from repro.detectors.syscall_table import SyscallTableModule
    from repro.guest.linux import LinuxGuest
    from repro.workloads.attacks import OverflowAttackProgram, RootkitProgram
    from repro.workloads.kvstore import KeyValueStoreProgram

    vm = LinuxGuest(name=name, memory_bytes=2 * 1024 * 1024, seed=seed)
    crimes = Crimes(vm, CrimesConfig(epoch_interval_ms=50.0, seed=seed,
                                     auto_respond=False))
    if rootkit:
        crimes.install_module(SyscallTableModule())
        crimes.add_program(RootkitProgram(trigger_epoch=2 + seed % 3))
    else:
        crimes.install_module(CanaryScanModule())
        crimes.add_program(OverflowAttackProgram(trigger_epoch=2 + seed % 3))
    crimes.add_program(KeyValueStoreProgram(seed=seed))
    crimes.start()
    crimes.run(max_epochs=8)
    check(crimes.last_incident is not None,
          "attacked tenant %s raised no incident" % name)
    return crimes.last_incident


def make_inputs(seed, ingest_count):
    """Base bundles, ingest bundles in send order, and the seeded stream
    the analyst's query mix draws from."""
    rng = random.Random("evidence-service/%d" % seed)
    total = BASE_CASES + ingest_count
    kinds = [index % 2 == 0 for index in range(total)]
    rng.shuffle(kinds)
    bundles = [attacked_bundle("tenant-%03d" % index,
                               rng.randrange(1, 2 ** 31), kinds[index])
               for index in range(total)]
    return bundles[:BASE_CASES], bundles[BASE_CASES:], rng


#: One ``/findings`` row as the checks compare it.
Row = collections.namedtuple("Row", "case_id tenant t_ms module summary seq")

#: One request as the client saw it; ``body`` is the raw answer.
Ingest = collections.namedtuple("Ingest", "due sent done status body")
#: ``stored`` is how many cases the vault held when the query went out.
Query = collections.namedtuple(
    "Query", "kind target stored sent done status body")


def expected_rows(bundles):
    """The ``/findings`` rows the stored bundles imply, sorted.

    Every journaled ``scan.finding`` flight event is one row; a
    detection finding the journal never recorded adds one more row,
    stamped with the bundle's virtual time.
    """
    from repro.service.ingest import case_id_for

    rows = []
    for bundle in bundles:
        case_id = case_id_for(bundle)
        seen = set()
        for event in bundle["flight"]["events"]:
            if event["kind"] != "scan.finding":
                continue
            attrs = event.get("attrs", {})
            seen.add((attrs.get("module"), attrs.get("summary")))
            rows.append(Row(case_id, event.get("tenant"), event.get("t_ms"),
                            attrs.get("module"), attrs.get("summary"),
                            event.get("seq")))
        detection = bundle.get("detection") or {}
        for finding in detection.get("findings", ()):
            if (finding["module"], finding["summary"]) not in seen:
                rows.append(Row(case_id, bundle.get("tenant"),
                                bundle.get("virtual_time_ms"),
                                finding["module"], finding["summary"], None))
    return sorted(rows, key=repr)


def filter_rows(rows, module=None, since=None, tenant=None):
    """What ``/findings`` with these filters must answer, as documented:
    modules match with ``_`` and ``-`` interchangeable, ``since`` is a
    virtual-time lower bound, ``tenant`` an exact match."""
    def wanted(row):
        if module is not None and (
                row.module is None
                or row.module.replace("_", "-") != module.replace("_", "-")):
            return False
        if since is not None and (row.t_ms is None or row.t_ms < since):
            return False
        return tenant is None or row.tenant == tenant
    return [row for row in rows if wanted(row)]


def answered_rows(body):
    """The rows of one ``/findings`` answer, in the order given."""
    return [Row(row["case_id"], row["tenant"], row["t_ms"], row["module"],
                row["summary"], row["seq"])
            for row in json.loads(body)["findings"]]


def causal_key(row):
    # The order /findings promises: virtual time, tenant, then journal
    # sequence, detection-only rows (no seq) after the journaled ones.
    return (row.t_ms, row.tenant or "", row.seq is None, row.seq or 0)


def build_base_vault(root, bundles):
    from repro.service.vault import CaseVault

    vault = CaseVault(root)
    for bundle in bundles:
        vault.ingest(bundle, source="preload")


def query_paths(rng, base_bundles, case_ids):
    """An endless, seeded stream of analyst requests.

    Yields ``(kind, path, target)``: ``target`` is the case ID of a
    point read, the filter of a ``/findings`` query, else None.
    """
    tenants = sorted({bundle["tenant"] for bundle in base_bundles})
    times = sorted(bundle["virtual_time_ms"] for bundle in base_bundles)
    deck = [kind for kind, count in QUERY_DECK for _ in range(count)]
    while True:
        rng.shuffle(deck)
        for kind in deck:
            if kind in ("case", "bundle"):
                case_id = rng.choice(case_ids)
                path = "/cases/%s" % case_id
                yield kind, path + ("/bundle" if kind == "bundle" else ""), \
                    case_id
            elif kind.startswith("findings"):
                where = {}
                if kind == "findings-module":
                    where["module"] = rng.choice(("canary", "syscall_table"))
                elif kind == "findings-tenant":
                    where["tenant"] = rng.choice(tenants)
                elif kind == "findings-since":
                    where["since"] = rng.choice(
                        times[len(times) // 4:3 * len(times) // 4])
                query = "&".join("%s=%s" % (key, repr(value)
                                            if key == "since" else value)
                                 for key, value in where.items())
                yield kind, "/findings" + ("?" + query if query else ""), \
                    where
            else:
                yield kind, "/" + kind, None


class Connection:
    """One keep-alive HTTP connection; a refused or broken one reconnects."""

    def __init__(self, host, port):
        self.host = host
        self.port = port
        self._conn = None

    def request(self, method, path, body=None):
        """Send one request; returns ``(status or None, body bytes)``."""
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=60)
            headers = {"Content-Type": "application/json"} if body else {}
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return None, b""

    def close(self):
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def wait_until(moment):
    """Busy-wait until ``moment`` (a ``perf_counter`` reading).

    A sleeping load generator lets its virtual CPU halt, and waking it
    costs the host's scheduling latency: on a shared 2-CPU guest the
    ingest p90 was 12-20 ms with ``time.sleep`` pacing and 8.5-10.6 ms
    with this, the median a little lower and steadier.
    """
    while time.perf_counter() < moment:
        pass


def drive(address, bodies, paths, cycles):
    """``cycles`` of an ingest block, then an analyst block.

    Returns the ingest and query records and the analyst's busy
    seconds: the summed length of its blocks, from the first query sent
    to the last one answered.
    """
    ingests, queries = [], []
    analyst_s = 0.0
    ingest_conn = Connection(*address)
    analyst_conn = Connection(*address)
    pending = iter(bodies)
    try:
        for _ in range(cycles):
            start = time.perf_counter()
            for index in range(CYCLE_INGESTS):
                due = start + index / INGEST_PER_S
                wait_until(due)
                sent = time.perf_counter()
                status, answer = ingest_conn.request(
                    "POST", "/cases", next(pending))
                ingests.append(Ingest(due, sent, time.perf_counter(),
                                      status, answer))
            begin = time.perf_counter()
            stop = start + CYCLE_S
            done = begin
            while done < stop:
                kind, path, target = next(paths)
                sent = time.perf_counter()
                status, answer = analyst_conn.request("GET", path)
                done = time.perf_counter()
                queries.append(Query(kind, target, BASE_CASES + len(ingests),
                                     sent, done, status, answer))
            analyst_s += done - begin
    finally:
        ingest_conn.close()
        analyst_conn.close()
    return ingests, queries, analyst_s


class ServerProcess:
    """``server.py`` in a child process, stopped and reaped on close."""

    def __init__(self, vault_root, traced, trace_out):
        command = [sys.executable, os.path.join(os.path.dirname(
            os.path.abspath(__file__)), "server.py"),
            "--vault", vault_root, "--trace", "1" if traced else "0"]
        if trace_out:
            command += ["--trace-out", trace_out]
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.hello = self._read()
        url = self.hello["url"]
        host, port = url[len("http://"):].rsplit(":", 1)
        self.address = (host, int(port))

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("case service process exited early")
        return json.loads(line)

    def call(self, command):
        self.proc.stdin.write(json.dumps({"cmd": command}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def finish(self):
        answer = self.call("finish")
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        return answer

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)


def serve_session(base_root, root, ingest_bundles, bodies, paths,
                  base_bundles, cycles, traced, trace_out):
    """Serve one vault copy for ``cycles``; check it; return the records."""
    from repro.service.vault import CaseVault

    shutil.copytree(base_root, root)
    server = ServerProcess(root, traced, trace_out)
    try:
        ingests, queries, busy_s = drive(server.address, bodies, paths,
                                         cycles)
        layers = server.call("report")

        conn = Connection(*server.address)
        status, cases = conn.request("GET", "/cases")
        check(status == 200, "final GET /cases answered %s" % status)
        case_count = len(json.loads(cases)["cases"])
        status, found = conn.request("GET", "/findings")
        check(status == 200, "final GET /findings answered %s" % status)
        conn.close()
        rss = server.finish()["rss_peak_mib"]
    finally:
        server.close()

    check(len(ingests) == len(bodies), "ingest stream did not finish")
    check(all(record.status == 201 for record in ingests),
          "an ingest did not return 201: %s"
          % sorted({record.status for record in ingests}, key=repr))
    check(case_count == BASE_CASES + len(ingests),
          "vault holds %d cases, expected %d"
          % (case_count, BASE_CASES + len(ingests)))
    stored = base_bundles + ingest_bundles
    rows = expected_rows(stored)
    check(sorted(answered_rows(found), key=repr) == rows,
          "final /findings (%d rows) differs from the %d rows the stored"
          " bundles imply" % (len(answered_rows(found)), len(rows)))
    vault = CaseVault(root)
    audit = vault.verify_audit()
    check(audit["ok"], "vault audit chain: %s" % audit["error"])
    check(len(vault.case_ids()) == case_count, "vault case count drifted")
    check_answers(ingests, ingest_bundles, queries, stored, vault)
    return {
        "setup_s": server.hello["setup_s"],
        "warmup_setup_s": server.hello["warmup_setup_s"],
        "ingests": ingests,
        "queries": queries,
        "busy_s": busy_s,
        "layers": layers,
        "rss_peak_mib": rss,
        "root": root,
    }


def check_answers(ingests, ingest_bundles, queries, stored, vault):
    """Check every ingest and analyst answer against the bundles sent
    and, for case records, against the vault as the run left it.

    Blocks never overlap, so a query sent while the vault held ``n``
    cases sees exactly ``stored[:n]``.
    """
    from repro.service.ingest import case_id_for

    for record, bundle in zip(ingests, ingest_bundles):
        check(json.loads(record.body)["case_id"] == case_id_for(bundle),
              "an ingest answered a different case ID")
    ids = [case_id_for(bundle) for bundle in stored]
    by_id = dict(zip(ids, stored))
    rows_at = {}
    for record in queries:
        if record.status != 200:
            continue  # counted as failed by the caller
        if record.kind == "case":
            check(json.loads(record.body) == vault.case(record.target),
                  "GET /cases/%s differs from the stored case record"
                  % record.target)
        elif record.kind == "bundle":
            check(json.loads(record.body) == json.loads(json.dumps(
                by_id[record.target])),
                "GET /cases/%s/bundle differs from the bundle ingested"
                % record.target)
        elif record.kind.startswith("findings"):
            if record.stored not in rows_at:
                rows_at[record.stored] = expected_rows(
                    stored[:record.stored])
            want = filter_rows(rows_at[record.stored], **record.target)
            got = answered_rows(record.body)
            check(sorted(got, key=repr) == want,
                  "/findings %r (%d rows) differs from the %d rows the"
                  " %d stored bundles imply" % (
                      record.target, len(got), len(want), record.stored))
            check(all(causal_key(a) <= causal_key(b)
                      for a, b in zip(got, got[1:])),
                  "/findings %r is not in causal order" % record.target)
        elif record.kind == "cases":
            check(sorted(case["case_id"] for case in
                         json.loads(record.body)["cases"])
                  == sorted(ids[:record.stored]),
                  "GET /cases does not list exactly the stored cases")


def disk_bytes(root):
    total = 0
    for folder, _dirs, files in os.walk(root):
        total += sum(os.path.getsize(os.path.join(folder, name))
                     for name in files)
    return total


def run_evidence_service(seed, seconds, traced, trace_path, out_dir):
    quiet_logging()
    cycles = max(1, int((seconds / 2.0 if traced else seconds) / CYCLE_S))
    ingest_count = cycles * CYCLE_INGESTS
    base_bundles, ingest_bundles, rng = make_inputs(seed, ingest_count)
    bodies = [json.dumps(bundle).encode("utf-8") for bundle in ingest_bundles]
    work = os.path.join(out_dir, "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    try:
        base_root = os.path.join(work, "base")
        build_base_vault(base_root, base_bundles)
        from repro.service.vault import CaseVault
        case_ids = CaseVault(base_root).case_ids()
        paths = query_paths(rng, base_bundles, case_ids)

        sessions = []
        for index, trace_session in enumerate(
                (False, True) if traced else (False,)):
            sessions.append(serve_session(
                base_root, os.path.join(work, "vault-%d" % index),
                ingest_bundles, bodies, paths, base_bundles, cycles,
                trace_session, trace_path if trace_session else None))
        plain = sessions[0]
        vault_bytes = disk_bytes(os.path.join(sessions[-1]["root"], "cases"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    bundle_bytes = (sum(len(json.dumps(bundle)) for bundle in base_bundles)
                    + sum(len(body) for body in bodies))
    return summarize(plain, sessions, vault_bytes, bundle_bytes, traced,
                     trace_path)


def summarize(plain, sessions, vault_bytes, bundle_bytes, traced,
              trace_path):
    ingests = plain["ingests"]
    queries = plain["queries"]
    ingest_ms = [(record.done - record.due) * 1000.0 for record in ingests]
    query_ms = [(record.done - record.sent) * 1000.0 for record in queries]
    lateness_ms = [(record.sent - record.due) * 1000.0 for record in ingests]
    ingest = latency_summary(ingest_ms)
    query = latency_summary(query_ms)
    query_rate = len(queries) / plain["busy_s"]
    setup_s = median(plain["setup_s"])
    attempted = sum(len(s["ingests"]) + len(s["queries"]) for s in sessions)
    failed = sum(1 for s in sessions for record in s["ingests"] + s["queries"]
                 if record.status is None or not 200 <= record.status < 300)
    check(failed == 0, "%d of %d requests failed" % (failed, attempted))

    end_to_end = {
        "setup_s": metric(setup_s, "s"),
        "throughput_per_s": metric(query_rate, "1/s"),
        "step_ms_p50": metric(query["p50"], "ms"),
        "step_ms_tail": metric(query["tail"], "ms",
                               percentile=query["tail_pct"],
                               samples=query["samples"]),
        "commit_ms_p50": metric(ingest["p50"], "ms"),
        "rss_peak_mib": metric(plain["rss_peak_mib"], "MiB"),
    }
    named = {
        "setup_s": end_to_end["setup_s"],
        "rss_peak_mib": end_to_end["rss_peak_mib"],
        "ingest_ms_p50": end_to_end["commit_ms_p50"],
        "ingest_ms_tail": metric(ingest["tail"], "ms",
                                 percentile=ingest["tail_pct"],
                                 samples=ingest["samples"]),
        "query_ms_p50": end_to_end["step_ms_p50"],
        "query_ms_tail": end_to_end["step_ms_tail"],
        "query_per_s": end_to_end["throughput_per_s"],
        "fail_ratio": metric(failed / attempted, "ratio", failed=failed,
                             attempted=attempted),
    }
    by_kind = {}
    for record in queries:
        by_kind.setdefault(record.kind, []).append(
            (record.done - record.sent) * 1000.0)
    detail = {
        "base_cases": BASE_CASES,
        "ingest_per_s": INGEST_PER_S,
        "cycle_s": CYCLE_S,
        "cycle_ingests": CYCLE_INGESTS,
        "analyst_s": plain["busy_s"],
        "ingests": len(ingests),
        "queries": len(queries),
        "generator_lateness_ms": {
            "p50": percentile(lateness_ms, 50.0),
            "max": max(lateness_ms),
        },
        "ingest_sent_to_done_ms": latency_summary(
            [(record.done - record.sent) * 1000.0 for record in ingests]),
        "query_ms_p50_by_kind": {kind: percentile(values, 50.0)
                                 for kind, values in sorted(by_kind.items())},
        "setup_s_samples": plain["setup_s"],
        "setup_s_warmup": plain["warmup_setup_s"],
    }

    per_layer = None
    if traced:
        traced_session = sessions[1]
        layers = traced_session["layers"]
        per_layer = service_layer_metrics(traced_session, layers)
        per_layer["vault.disk_bytes_per_bundle_byte"] = metric(
            vault_bytes / bundle_bytes, "ratio")
        traced_rate = (len(traced_session["queries"])
                       / traced_session["busy_s"])
        per_layer["trace.overhead_ratio"] = metric(query_rate / traced_rate,
                                                   "ratio")
        per_layer["trace.spans"] = metric(layers["spans"], "count")
        detail["trace_overhead"] = {"untraced_query_per_s": query_rate,
                                    "traced_query_per_s": traced_rate}
        detail["trace_file"] = trace_path

    return {
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "named": named,
        "per_layer": per_layer,
        "detail": detail,
    }


def service_layer_metrics(session, layers):
    """Per-layer figures of the traced session, joined with the client's.

    Each stream uses one keep-alive connection, which the threading
    server serves from one handler thread, so the n-th ``handle_get``
    span is the analyst's n-th query and the n-th ``handle_post`` span
    the n-th ingest.
    """
    queries = session["queries"]
    ingests = session["ingests"]
    check(len(layers["handle_get_ms"]) == len(queries)
          and len(layers["handle_post_ms"]) == len(ingests),
          "server spans do not pair one-to-one with client requests")
    overhead = [(record.done - record.sent) * 1000.0 - handled
                for record, handled in zip(queries + ingests,
                                           layers["handle_get_ms"]
                                           + layers["handle_post_ms"])]
    return {
        "http.overhead_ms_p50": metric(percentile(overhead, 50.0), "ms"),
        "service.handle_get_ms_p50": metric(
            percentile(layers["handle_get_ms"], 50.0), "ms"),
        "service.handle_post_ms_p50": metric(
            percentile(layers["handle_post_ms"], 50.0), "ms"),
        "vault.findings_ms_p50": metric(
            percentile(layers["findings_ms"], 50.0), "ms"),
        "vault.bundle_reads_per_row": metric(
            layers["findings_bundle_reads"] / layers["findings_rows"],
            "ratio"),
        "vault.ingest_ms_p50": metric(
            percentile(layers["ingest_ms"], 50.0), "ms"),
        "ingest.validate_ms_p50": metric(
            percentile(layers["validate_ms"], 50.0), "ms"),
    }
