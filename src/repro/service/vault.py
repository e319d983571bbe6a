"""The case vault: read-only evidence storage with an audited boundary.

Layout (everything under one ``root`` directory)::

    root/
      audit.jsonl            append-only, hash-chained vault audit log
      cases/<case-id>/
        case.json            crimes-case/1 metadata + attached reports
        bundle.json          the validated crimes-obs/2 bundle (0444)
        dump.pkl             optional memory-dump attachment (0444)

Three properties make this a *vault* rather than a directory of JSON:

* **Verified on ingest** — every bundle goes through
  :mod:`repro.service.ingest`, which re-derives the flight hash chain
  and the causal epoch chain; a rejected artifact never touches
  ``cases/``.
* **Read-only evidence** — ``bundle.json`` and ``dump.pkl`` are written
  once and chmod'd read-only; the case ID is derived from the flight
  chain head, so "overwriting" a case with altered evidence is
  structurally impossible (altered evidence hashes to a different ID,
  and re-ingesting identical evidence is a typed duplicate rejection).
* **Append-only audit log** — every ingest, rejection, and report
  attachment appends one hash-chained line to ``audit.jsonl``; the
  chain re-verifies with :meth:`CaseVault.verify_audit`, so the vault's
  own history carries the same tamper evidence as the bundles it holds.

Queries are served from memory. Each ``vault.ingest`` audit entry
carries the case record's fields and the case's finding rows, flattened
and type-checked once at ingest, so the hash chain covers the index
too. Opening a vault parses ``audit.jsonl`` once and rebuilds the case
records in ingest order and every finding row in causal order;
:meth:`CaseVault.ingest` and :meth:`CaseVault.attach_report` keep them
current. A case the log does not fully describe has its ``case.json``
(and, for its rows, its ``bundle.json``) read once at open: a case with
an attached report, a case whose entry predates entries carrying rows,
and a case directory with no entry at all (a crash between the rename
and the audit append). The log is never rewritten. The index assumes
that one process writes each vault directory.

Timestamps in the audit log are *virtual* (the evidence's own timeline)
plus a monotone logical sequence — the vault never reads the wall
clock, which keeps the whole storage layer deterministic and inside the
repo's crimeslint envelope; only the HTTP layer above is "real".
"""

import bisect
import copy
import hashlib
import json
import os
import pickle
import re
import threading

from repro.errors import (
    CaseNotFoundError,
    DuplicateCaseError,
    IngestError,
    ServiceError,
    VaultIntegrityError,
)
from repro.forensics.dumps import MemoryDump
from repro.service.ingest import case_id_for, validate_bundle

#: Schema tag for stored case artifacts.
CASE_SCHEMA = "crimes-case/1"

#: The audit chain's genesis (an empty vault has this head).
AUDIT_GENESIS = hashlib.sha256(b"crimes-case-vault-genesis").hexdigest()

#: The only shape a case ID can have: ``case-`` + 16 hex chars of the
#: flight chain head (:func:`~repro.service.ingest.case_id_for`).
_CASE_ID_RE = re.compile(r"^case-[0-9a-f]{16}$")

_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _chain_digest(prev_hash, payload):
    return hashlib.sha256(
        (prev_hash + _canonical(payload)).encode("utf-8")
    ).hexdigest()


def _normalize_module(name):
    """Query-side module aliasing: ``syscall_table`` == ``syscall-table``."""
    return str(name).replace("_", "-")


#: The fields of one finding row, in the positional order the audit log
#: stores them (the ``case_id`` is the entry's own).
ROW_FIELDS = ("tenant", "t_ms", "epoch", "seq", "module", "kind",
              "severity", "summary", "source")
_ROW_KEYS = ("case_id",) + ROW_FIELDS


def _finding_rows(bundle):
    """Flatten one bundle into positional finding rows (see
    :data:`ROW_FIELDS`); :class:`IngestError` if it cannot be.

    Primary source is the journaled ``scan.finding`` flight events
    (virtual-time stamped, hash-covered); detection-result findings that
    never hit the journal (async verdicts, non-critical severities) ride
    along stamped with the bundle's incident time. Severity is joined in
    from the detection result where the module+summary matches.

    The bundle's validator checks its chains, not these fields, and a
    producer can re-chain whatever it likes, so the fields the index
    sorts by are checked here, before anything is written: a number
    (not NaN) for ``t_ms``, a string or None for ``tenant``, an int or
    None for ``seq``.
    """
    try:
        detection = bundle.get("detection") or {}
        severity_by_key = {
            (finding["module"], finding["summary"]): finding["severity"]
            for finding in detection.get("findings", ())
        }
        rows = []
        seen = set()
        for event in bundle["flight"]["events"]:
            if event["kind"] != "scan.finding":
                continue
            attrs = event.get("attrs", {})
            key = (attrs.get("module"), attrs.get("summary"))
            seen.add(key)
            rows.append([event.get("tenant"), event.get("t_ms"),
                         event.get("epoch"), event.get("seq"),
                         attrs.get("module"), attrs.get("finding_kind"),
                         severity_by_key.get(key), attrs.get("summary"),
                         "flight"])
        for finding in detection.get("findings", ()):
            if (finding["module"], finding["summary"]) in seen:
                continue
            rows.append([bundle.get("tenant"), bundle.get("virtual_time_ms"),
                         detection.get("epoch"), None, finding["module"],
                         finding["kind"], finding["severity"],
                         finding["summary"], "detection"])
    except (AttributeError, KeyError, TypeError) as err:
        raise IngestError("finding-malformed",
                          "bundle findings are malformed: %r" % err) from None
    for tenant, t_ms, _epoch, seq, *_rest in rows:
        if (type(t_ms) not in (int, float) or t_ms != t_ms
                or (tenant is not None and type(tenant) is not str)
                or (seq is not None and type(seq) is not int)):
            raise IngestError(
                "finding-malformed",
                "finding needs a number t_ms, a string tenant and an int "
                "seq, got t_ms=%r tenant=%r seq=%r" % (t_ms, tenant, seq))
    return rows


def _entry_record(entry):
    """The ``crimes-case/1`` record a ``vault.ingest`` entry describes."""
    return {
        "schema": CASE_SCHEMA,
        "case_id": entry["case_id"],
        "tenant": entry["tenant"],
        "reason": entry["reason"],
        "incident_epoch": entry["incident_epoch"],
        "virtual_time_ms": entry["t_ms"],
        "ingested_seq": entry["seq"],
        "source": entry["source"],
        "flight_head": entry["flight_head"],
        "flight_events": entry["flight_events"],
        "findings": len(entry["rows"]),
        "slo_alerts": entry["slo_alerts"],
        "dump": dict(entry["dump"]) if entry["dump"] else None,
        "reports": [],
        "state": "open",
    }


def _index(place, case_id, rows):
    """Index entries for one case's rows; ``place`` is its ingest order.

    Each entry leads with its sort key, so the index sorts with plain
    tuple comparisons: causal order across tenants is virtual time, then
    tenant, then the per-tenant journal sequence (detection-only rows go
    after the journaled rows of the same instant — they carry no seq).
    Ties fall to the case's place in ingest order, then the row's place
    in its case, so a comparison never reaches the case ID or the row.
    """
    return [(row[1], row[0] or "", row[3] is None, row[3] or 0, place,
             index, case_id, row)
            for index, row in enumerate(rows)]


def _copy_record(case):
    # Stored records are replaced, never mutated; a caller gets its own
    # copy. ``dump`` is flat, so only ``reports`` needs a deep copy.
    return dict(case, dump=dict(case["dump"]) if case["dump"] else None,
                reports=copy.deepcopy(case["reports"]))


class CaseVault:
    """Directory-backed case storage; safe for concurrent service use."""

    def __init__(self, root):
        self.root = os.path.abspath(root)
        self.cases_dir = os.path.join(self.root, "cases")
        self.audit_path = os.path.join(self.root, "audit.jsonl")
        self._lock = threading.RLock()
        self._audit_seq = 0
        self._audit_head = AUDIT_GENESIS
        self.rejects = 0
        # The in-memory index. ``_cases`` maps every case ID, in ingest
        # order, to its ``vault.ingest`` entry, which holds its record
        # (see :func:`_entry_record`); ``_records`` holds the record
        # itself where the entry does not (see the module docstring).
        # ``_rows`` holds an :func:`_index` entry for every finding row,
        # in causal order.
        self._cases = {}
        self._records = {}
        self._rows = []
        self._load()

    def _load(self):
        """Recover the audit head and rebuild the index in one pass."""
        entries = self.audit_entries()
        if entries:
            self._audit_seq = entries[-1]["seq"] + 1
            self._audit_head = entries[-1]["hash"]
        logged = {}
        from_file = set()  # cases whose record lives only in case.json
        for entry in entries:
            kind = entry["kind"]
            if kind == "vault.ingest":
                logged[entry["case_id"]] = entry
            elif kind == "vault.report":
                from_file.add(entry["case_id"])
            elif kind == "vault.reject":
                self.rejects += 1
        unlogged = {}
        stored = self._stored_cases(len(logged))
        if stored is not None:
            logged = {case_id: entry for case_id, entry in logged.items()
                      if case_id in stored}
            # A case directory with no ingest entry crashed between its
            # rename and its audit append. It holds the seq the next
            # entry then took, so it goes just before that entry's case.
            for case_id in stored.difference(logged):
                if _CASE_ID_RE.match(case_id):  # else a staging leftover
                    unlogged[case_id] = self._read_json(case_id, "case.json")
        index = []
        for case_id, entry in logged.items():
            rows = entry.get("rows")
            if rows is None:  # logged before entries carried rows
                rows = self._bundle_rows(case_id)
                from_file.add(case_id)
            index += _index(entry["seq"], case_id, rows)
        self._cases = logged
        if unlogged:
            for case_id, case in unlogged.items():
                index += _index(case["ingested_seq"] - 0.5, case_id,
                                self._bundle_rows(case_id))
            places = {case_id: entry["seq"]
                      for case_id, entry in logged.items()}
            places.update((case_id, case["ingested_seq"] - 0.5)
                          for case_id, case in unlogged.items())
            self._cases = {case_id: logged.get(case_id)
                           for case_id in sorted(places, key=places.get)}
        self._records = unlogged
        for case_id in from_file.intersection(self._cases):
            self._records[case_id] = self._read_json(case_id, "case.json")
        index.sort()
        self._rows = index

    def _stored_cases(self, logged):
        """The names in ``cases/``, or None when they can only be the
        ``logged`` cases.

        A directory's link count is 2 (its name and its own ``.``) plus
        one per subdirectory (each one's ``..``). The vault never removes
        a case directory, so a count of exactly 2 + ``logged`` leaves no
        room for a case the log lacks or a staging leftover, and the
        listing (the costliest step of an open) is skipped. Any other
        count, or a filesystem that does not keep one, lists.
        """
        try:
            if os.stat(self.cases_dir).st_nlink == 2 + logged:
                return None
            return set(os.listdir(self.cases_dir))
        except FileNotFoundError:
            os.makedirs(self.cases_dir, exist_ok=True)
            return set()

    def _bundle_rows(self, case_id):
        try:
            return _finding_rows(self._read_json(case_id, "bundle.json"))
        except IngestError as err:
            raise VaultIntegrityError(
                "stored bundle of %s: %s" % (case_id, err)) from None

    # -- audit log ---------------------------------------------------------

    def _audit_append(self, kind, **details):
        """Append one hash-chained line to the vault audit log."""
        payload = {"seq": self._audit_seq, "kind": kind}
        payload.update(details)
        digest = _chain_digest(self._audit_head, payload)
        entry = dict(payload, prev_hash=self._audit_head, hash=digest)
        with open(self.audit_path, "a") as handle:
            handle.write(_canonical(entry) + "\n")
            handle.flush()
        self._audit_seq += 1
        self._audit_head = digest
        return entry

    def audit_entries(self):
        """Every audit-log entry, oldest first (one parse of the log)."""
        try:
            with open(self.audit_path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return []
        return json.loads(b"[%s]" % b",".join(filter(None,
                                                     data.split(b"\n"))))

    def verify_audit(self):
        """Re-derive the audit chain; ``{"ok", "checked", "error"}``."""
        # Snapshot the log and the head in one locked step: verifying
        # against a head an in-flight ingest is about to advance would
        # report a torn chain that never existed on disk.
        with self._lock:
            entries = self.audit_entries()
            head = self._audit_head
        prev = AUDIT_GENESIS
        checked = 0
        for entry in entries:
            payload = {key: value for key, value in entry.items()
                       if key not in ("prev_hash", "hash")}
            if entry["prev_hash"] != prev:
                return {"ok": False, "checked": checked,
                        "error": "audit chain broken at seq=%d"
                                 % entry["seq"]}
            if _chain_digest(prev, payload) != entry["hash"]:
                return {"ok": False, "checked": checked,
                        "error": "audit entry seq=%d hash mismatch"
                                 % entry["seq"]}
            prev = entry["hash"]
            checked += 1
        if prev != head:
            return {"ok": False, "checked": checked,
                    "error": "audit head does not match the log tail"}
        return {"ok": True, "checked": checked, "error": None}

    # -- ingest ------------------------------------------------------------

    def _case_dir(self, case_id):
        # Case IDs arrive off the wire (URL segments, job bodies); one
        # that does not match the content-derived format must never
        # reach os.path.join, or ``../`` walks out of the vault.
        if not isinstance(case_id, str) or not _CASE_ID_RE.match(case_id):
            raise CaseNotFoundError(case_id)
        return os.path.join(self.cases_dir, case_id)

    def ingest(self, bundle, dump=None, source="api"):
        """Validate and store one bundle; returns the case record.

        The bundle is re-verified *before* anything is written; on any
        rejection the vault's case set is untouched and the decision is
        recorded in the audit log. ``dump`` optionally attaches a
        :class:`~repro.forensics.dumps.MemoryDump` for the async
        forensics workers.
        """
        with self._lock:
            try:
                bundle = validate_bundle(bundle)
                rows = _finding_rows(bundle)
            except IngestError as err:
                self.rejects += 1
                self._audit_append(
                    "vault.reject", source=source, code=err.code,
                    detail=str(err),
                )
                raise
            case_id = case_id_for(bundle)
            case_dir = self._case_dir(case_id)
            if os.path.exists(case_dir):
                self.rejects += 1
                err = DuplicateCaseError(case_id)
                self._audit_append(
                    "vault.reject", source=source, code=err.code,
                    case_id=case_id, detail=str(err),
                )
                raise err

            staging = case_dir + ".staging"
            self._clear_staging(staging)  # stale leftover from a crash
            os.makedirs(staging)
            committed = False
            try:
                bundle_path = os.path.join(staging, "bundle.json")
                with open(bundle_path, "w") as handle:
                    handle.write(_canonical(bundle) + "\n")
                os.chmod(bundle_path, 0o444)
                dump_meta = None
                if dump is not None:
                    dump_meta = self._write_dump(staging, dump)
                entry = {
                    "source": source,
                    "case_id": case_id,
                    "tenant": bundle["tenant"],
                    "reason": bundle["reason"],
                    "incident_epoch": bundle["incident_epoch"],
                    "t_ms": bundle["virtual_time_ms"],
                    "flight_head": bundle["flight"]["head_hash"],
                    "flight_events": len(bundle["flight"]["events"]),
                    "slo_alerts": bundle["slo"].get("alerts", 0),
                    "dump": dump_meta,
                    "dump_sha256": dump_meta["sha256"] if dump_meta else None,
                    "rows": rows,
                }
                case = _entry_record(dict(entry, seq=self._audit_seq))
                self._write_case_json(staging, case)
                # Both runs are sorted, so the sort is a linear merge; the
                # new list leaves any snapshot a query holds untouched.
                index = sorted(self._rows + _index(self._audit_seq, case_id,
                                                   rows))
                os.rename(staging, case_dir)
                committed = True
            finally:
                # Leave no half-written case behind, whatever went
                # wrong — OSError, a non-MemoryDump attachment
                # (ServiceError), an unserializable field (TypeError).
                # A surviving staging dir would block every future
                # ingest of this case ID.
                if not committed:
                    self._clear_staging(staging)
            self._cases[case_id] = self._audit_append("vault.ingest",
                                                      **entry)
            self._rows = index
            return case

    def _clear_staging(self, staging):
        """Remove a staging directory, tolerating read-only contents."""
        if not os.path.isdir(staging):
            return
        for name in os.listdir(staging):
            path = os.path.join(staging, name)
            os.chmod(path, 0o644)
            os.remove(path)
        os.rmdir(staging)

    def _write_dump(self, case_dir, dump):
        """Persist a dump attachment; returns its metadata record."""
        if not isinstance(dump, MemoryDump):
            raise ServiceError(
                "dump attachment must be a MemoryDump, got %s"
                % type(dump).__name__
            )
        blob = pickle.dumps({
            "image": dump.image,
            "os_name": dump.os_name,
            "symbols": dump.symbols,
            "guest_state": dump.guest_state,
            "taken_at": dump.taken_at,
            "label": dump.label,
        })
        path = os.path.join(case_dir, "dump.pkl")
        with open(path, "wb") as handle:
            handle.write(blob)
        os.chmod(path, 0o444)
        return {
            "bytes": len(blob),
            "image_bytes": len(dump.image),
            "sha256": hashlib.sha256(blob).hexdigest(),
            "os_name": dump.os_name,
            "label": dump.label,
            "taken_at": dump.taken_at,
        }

    def _write_case_json(self, case_dir, case):
        # Atomic replace: a concurrent reader of case.json must see the
        # old record or the new one — never a torn in-place write.
        path = os.path.join(case_dir, "case.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            handle.write(_canonical(case) + "\n")
        os.replace(tmp, path)

    def _read_json(self, case_id, name):
        path = os.path.join(self._case_dir(case_id), name)
        try:
            with open(path, "r") as handle:
                return json.load(handle)
        except FileNotFoundError:
            raise CaseNotFoundError(case_id) from None

    # -- reading -----------------------------------------------------------

    def _record(self, case_id):
        """A caller-owned copy of the case's record (lock held)."""
        self._case_dir(case_id)  # a malformed ID is a plain not-found
        if case_id not in self._cases:
            raise CaseNotFoundError(case_id)
        record = self._records.get(case_id)
        if record is None:
            return _entry_record(self._cases[case_id])
        return _copy_record(record)

    def case_ids(self):
        """Stored case IDs, in ingest order."""
        with self._lock:
            return list(self._cases)

    def case(self, case_id):
        """The ``crimes-case/1`` record (metadata + attached reports)."""
        with self._lock:
            return self._record(case_id)

    def cases(self):
        """Every case record, in ingest order."""
        with self._lock:
            return [self._record(case_id) for case_id in self._cases]

    def bundle(self, case_id):
        """The stored (already-validated) incident bundle."""
        return self._read_json(case_id, "bundle.json")

    def load_dump(self, case_id):
        """Rehydrate the case's dump attachment (None if it has none).

        The stored blob is re-hashed against the sha256 recorded at
        ingest before a single plugin touches it — evidence is verified
        every time it crosses back out of storage, not just in.
        """
        case = self.case(case_id)
        meta = case.get("dump")
        if meta is None:
            return None
        path = os.path.join(self._case_dir(case_id), "dump.pkl")
        with open(path, "rb") as handle:
            blob = handle.read()
        digest = hashlib.sha256(blob).hexdigest()
        if digest != meta["sha256"]:
            raise VaultIntegrityError(
                "dump for %s fails re-verification: stored sha256 %s, "
                "recorded %s" % (case_id, digest, meta["sha256"])
            )
        data = pickle.loads(blob)
        return MemoryDump(
            image=data["image"], os_name=data["os_name"],
            symbols=data["symbols"], guest_state=data["guest_state"],
            taken_at=data["taken_at"], label=data["label"],
        )

    # -- enrichment --------------------------------------------------------

    def attach_report(self, case_id, report):
        """Attach one worker report to a case (evidence stays untouched).

        Reports land in ``case.json`` sorted by ``job_id`` — the queue's
        seeded-deterministic ordering — never in ``bundle.json``, which
        remains byte-identical to what was ingested.
        """
        if "job_id" not in report:
            raise ServiceError("report needs a job_id to be attachable")
        with self._lock:
            case = self._record(case_id)
            if any(existing["job_id"] == report["job_id"]
                   for existing in case["reports"]):
                raise ServiceError(
                    "case %s already has a report for %s"
                    % (case_id, report["job_id"])
                )
            # The round trip gives the index its own copy of the report
            # and fails on an unserializable one before anything lands.
            case = json.loads(_canonical(dict(
                case, state="enriched",
                reports=sorted(case["reports"] + [report],
                               key=lambda entry: entry["job_id"]))))
            self._write_case_json(self._case_dir(case_id), case)
            self._audit_append(
                "vault.report", case_id=case_id, job_id=report["job_id"],
                report_kind=report.get("kind"),
                virtual_cost_ms=report.get("virtual_cost_ms"),
            )
            self._records[case_id] = case
            return _copy_record(case)

    # -- cross-case query --------------------------------------------------

    def findings(self, module=None, since=None, tenant=None):
        """Query findings across every case, causally ordered.

        ``module`` matches the detector module name (underscores and
        hyphens are interchangeable: ``syscall_table`` finds the
        ``syscall-table`` module); ``since`` is a virtual-time lower
        bound in ms; ``tenant`` filters to one tenant. Rows are ordered
        by ``(t_ms, tenant, seq)`` — the same deterministic causal order
        the fleet merge uses.
        """
        wanted = _normalize_module(module) if module is not None else None
        with self._lock:
            # The rows are in causal order, so ``since`` is a bisection;
            # the slice is this query's snapshot.
            picked = self._rows[0 if since is None
                                else bisect.bisect_left(self._rows, (since,)):]
        return [dict(zip(_ROW_KEYS, (case_id, *row)))
                for *_key, case_id, row in picked
                if (wanted is None or (row[4] is not None and
                                       _normalize_module(row[4]) == wanted))
                and (tenant is None or row[0] == tenant)]

    # -- accounting --------------------------------------------------------

    def stats(self):
        # One locked snapshot: the reject counter, audit sequence, and
        # audit head move together under ingest; reading them unlocked
        # can tear (a head that does not match the sequence).
        with self._lock:
            cases = [self._record(case_id) for case_id in self._cases]
            return {
                "cases": len(cases),
                "rejects": self.rejects,
                "reports": sum(len(case["reports"]) for case in cases),
                "dumps": sum(1 for case in cases if case["dump"]),
                "audit_entries": self._audit_seq,
                "audit_head": self._audit_head,
            }
