"""Case vault tests: adversarial ingest, audit chain, queries, dumps."""

import copy
import hashlib
import itertools
import json
import os
import re
import stat
import threading

import pytest

from repro.errors import (
    CaseNotFoundError,
    DuplicateCaseError,
    IngestError,
    ServiceError,
    VaultIntegrityError,
)
from repro.obs.fleet_merge import merge_flight_snapshots
from repro.service.ingest import case_id_for, verify_fleet_export
from repro.service.vault import AUDIT_GENESIS, CASE_SCHEMA, CaseVault


def assert_vault_unchanged(vault, cases=0):
    """The adversarial invariant: rejected evidence leaves no trace in
    ``cases/`` (the rejection itself is audited)."""
    assert len(vault.cases()) == cases
    assert not [name for name in os.listdir(vault.cases_dir)
                if name.endswith(".staging")]
    assert vault.verify_audit()["ok"]


class TestIngest:
    def test_valid_bundle_becomes_a_case(self, vault, rootkit_bundle):
        case = vault.ingest(rootkit_bundle)
        assert case["schema"] == CASE_SCHEMA
        assert case["case_id"] == case_id_for(rootkit_bundle)
        assert case["tenant"] == "tenant-rk"
        assert case["reason"] == "audit-failed"
        assert case["state"] == "open"
        assert vault.case(case["case_id"]) == case
        assert vault.bundle(case["case_id"]) == rootkit_bundle

    def test_stored_evidence_is_read_only(self, vault, rootkit_bundle):
        case = vault.ingest(rootkit_bundle)
        path = os.path.join(vault.cases_dir, case["case_id"],
                            "bundle.json")
        mode = stat.S_IMODE(os.stat(path).st_mode)
        assert not mode & (stat.S_IWUSR | stat.S_IWGRP | stat.S_IWOTH)
        # Stored compactly (one C-encoder pass), and it parses back equal.
        with open(path) as handle:
            text = handle.read()
        assert text == json.dumps(rootkit_bundle, sort_keys=True,
                                  separators=(",", ":")) + "\n"
        assert json.loads(text) == rootkit_bundle
        with open(os.path.join(os.path.dirname(path), "case.json")) as handle:
            text = handle.read()
        assert "\n " not in text and json.loads(text) == case

    def test_ingest_is_audited(self, vault, rootkit_bundle):
        case = vault.ingest(rootkit_bundle)
        entries = vault.audit_entries()
        assert [entry["kind"] for entry in entries] == ["vault.ingest"]
        assert entries[0]["case_id"] == case["case_id"]
        assert entries[0]["prev_hash"] == AUDIT_GENESIS
        assert entries[0]["t_ms"] == rootkit_bundle["virtual_time_ms"]

    def test_dump_attachment_recorded(self, vault, rootkit_bundle,
                                      rootkit_dump):
        case = vault.ingest(rootkit_bundle, dump=rootkit_dump)
        assert case["dump"]["image_bytes"] == rootkit_dump.size
        restored = vault.load_dump(case["case_id"])
        assert restored.image == rootkit_dump.image
        assert restored.guest_state == rootkit_dump.guest_state
        assert restored.symbols == rootkit_dump.symbols


class TestAdversarialIngest:
    def test_tampered_flight_event_rejected(self, vault, rootkit_bundle):
        tampered = copy.deepcopy(rootkit_bundle)
        tampered["flight"]["events"][3]["attrs"] = {"forged": True}
        with pytest.raises(IngestError) as excinfo:
            vault.ingest(tampered)
        assert excinfo.value.code == "hash-chain-broken"
        assert_vault_unchanged(vault)
        reject = vault.audit_entries()[-1]
        assert reject["kind"] == "vault.reject"
        assert reject["code"] == "hash-chain-broken"

    def test_truncated_epoch_chain_rejected(self, vault, rootkit_bundle):
        truncated = copy.deepcopy(rootkit_bundle)
        del truncated["epoch_chain"][-1]
        with pytest.raises(IngestError) as excinfo:
            vault.ingest(truncated)
        assert excinfo.value.code == "epoch-chain-truncated"
        assert_vault_unchanged(vault)

    def test_empty_epoch_chain_rejected(self, vault, rootkit_bundle):
        gutted = copy.deepcopy(rootkit_bundle)
        gutted["epoch_chain"] = []
        with pytest.raises(IngestError) as excinfo:
            vault.ingest(gutted)
        assert excinfo.value.code == "epoch-chain-empty"
        assert_vault_unchanged(vault)

    def test_duplicate_case_rejected(self, vault, rootkit_bundle):
        vault.ingest(rootkit_bundle)
        with pytest.raises(DuplicateCaseError) as excinfo:
            vault.ingest(copy.deepcopy(rootkit_bundle))
        assert excinfo.value.code == "duplicate-case"
        assert_vault_unchanged(vault, cases=1)
        assert vault.stats()["rejects"] == 1

    def test_wrong_schema_rejected(self, vault, rootkit_bundle):
        wrong = copy.deepcopy(rootkit_bundle)
        wrong["schema"] = "crimes-obs/1"
        with pytest.raises(IngestError) as excinfo:
            vault.ingest(wrong)
        assert excinfo.value.code == "schema-mismatch"
        assert_vault_unchanged(vault)

    def test_traversal_case_id_never_touches_the_filesystem(
            self, tmp_path, vault):
        # Plant a readable case.json *outside* the vault root; a
        # traversal ID that would resolve to it must 404 instead.
        outside = tmp_path / "loot"
        outside.mkdir()
        (outside / "case.json").write_text(json.dumps({"planted": True}))
        (outside / "bundle.json").write_text(json.dumps({"planted": True}))
        for case_id in ("../../loot", "..\\..\\loot", "case-../../loot",
                        "case-FEEDFACEFEEDFACE", "case-feedface", "",
                        None, "cases/../../../loot"):
            with pytest.raises(CaseNotFoundError):
                vault.case(case_id)
            with pytest.raises(CaseNotFoundError):
                vault.bundle(case_id)
            with pytest.raises(CaseNotFoundError):
                vault.load_dump(case_id)
        assert_vault_unchanged(vault)

    def test_bad_dump_attachment_leaves_no_staging(self, vault,
                                                   rootkit_bundle):
        with pytest.raises(ServiceError):
            vault.ingest(copy.deepcopy(rootkit_bundle),
                         dump=object())  # not a MemoryDump
        assert_vault_unchanged(vault)
        # The rejection must not poison the case ID: a later ingest of
        # the same (valid) evidence succeeds.
        case = vault.ingest(rootkit_bundle)
        assert case["case_id"] == case_id_for(rootkit_bundle)
        assert_vault_unchanged(vault, cases=1)

    def test_fleet_export_head_mismatch_rejected(self, rootkit_crimes,
                                                 overflow_crimes):
        snapshots = [rootkit_crimes.observer.flight.snapshot(),
                     overflow_crimes.observer.flight.snapshot()]
        merged = merge_flight_snapshots(snapshots)
        assert verify_fleet_export(merged)["ok"]
        # Swap one tenant's declared head for the other's: each chain
        # is individually intact, but the heads no longer belong.
        forged = copy.deepcopy(merged)
        names = sorted(forged["tenants"])
        forged["tenants"][names[0]]["head_hash"] = \
            merged["tenants"][names[1]]["head_hash"]
        with pytest.raises(IngestError) as excinfo:
            verify_fleet_export(forged)
        assert excinfo.value.code == "fleet-chain-mismatch"
        assert names[0] in str(excinfo.value)


class TestAuditChain:
    def test_chain_survives_reopen(self, tmp_path, rootkit_bundle,
                                   overflow_bundle):
        vault = CaseVault(tmp_path / "v")
        vault.ingest(rootkit_bundle)
        head = vault.stats()["audit_head"]
        reopened = CaseVault(tmp_path / "v")
        assert reopened.stats()["audit_head"] == head
        reopened.ingest(overflow_bundle)
        assert reopened.verify_audit() == {"ok": True, "checked": 2,
                                           "error": None}

    def test_tampered_audit_line_detected(self, vault, rootkit_bundle):
        vault.ingest(rootkit_bundle)
        entries = vault.audit_entries()
        entries[0]["case_id"] = "case-0000000000000000"
        with open(vault.audit_path, "w") as handle:
            for entry in entries:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
        verdict = vault.verify_audit()
        assert not verdict["ok"]
        assert "hash mismatch" in verdict["error"]

    def test_dropped_audit_line_detected(self, vault, rootkit_bundle,
                                         overflow_bundle):
        vault.ingest(rootkit_bundle)
        vault.ingest(overflow_bundle)
        entries = vault.audit_entries()
        with open(vault.audit_path, "w") as handle:
            handle.write(json.dumps(entries[-1], sort_keys=True) + "\n")
        verdict = vault.verify_audit()
        assert not verdict["ok"]
        assert "broken" in verdict["error"]

    def test_tampered_dump_detected(self, vault, rootkit_bundle,
                                    rootkit_dump):
        case = vault.ingest(rootkit_bundle, dump=rootkit_dump)
        path = os.path.join(vault.cases_dir, case["case_id"], "dump.pkl")
        os.chmod(path, 0o644)
        with open(path, "r+b") as handle:
            handle.seek(100)
            handle.write(b"\xff")
        with pytest.raises(VaultIntegrityError):
            vault.load_dump(case["case_id"])


class TestQueries:
    def test_cross_tenant_findings_causally_ordered(self, vault,
                                                    rootkit_bundle,
                                                    overflow_bundle):
        vault.ingest(rootkit_bundle)
        vault.ingest(overflow_bundle)
        rows = vault.findings()
        assert {row["tenant"] for row in rows} == {"tenant-rk",
                                                   "tenant-ov"}
        order = [(row["t_ms"], row["tenant"],
                  1 if row["seq"] is None else 0, row["seq"] or 0)
                 for row in rows]
        assert order == sorted(order)

    def test_module_filter_normalizes_underscores(self, vault,
                                                  rootkit_bundle,
                                                  overflow_bundle):
        vault.ingest(rootkit_bundle)
        vault.ingest(overflow_bundle)
        rows = vault.findings(module="syscall_table")
        assert rows == vault.findings(module="syscall-table")
        assert rows
        assert all(row["module"] == "syscall-table" for row in rows)
        assert all(row["kind"] == "syscall-hijack" for row in rows)
        assert all(row["tenant"] == "tenant-rk" for row in rows)

    def test_since_and_tenant_filters(self, vault, rootkit_bundle,
                                      overflow_bundle):
        vault.ingest(rootkit_bundle)
        vault.ingest(overflow_bundle)
        rows = vault.findings(tenant="tenant-ov")
        assert rows and all(row["tenant"] == "tenant-ov" for row in rows)
        cutoff = rows[0]["t_ms"]
        later = vault.findings(since=cutoff + 0.001)
        assert all(row["t_ms"] > cutoff for row in later)
        assert len(later) < len(vault.findings())

    def test_missing_case_raises(self, vault):
        with pytest.raises(CaseNotFoundError):
            vault.case("case-feedfacefeedface")


class TestConcurrentAudit:
    def test_verify_audit_is_stable_under_concurrent_appends(
            self, tmp_path, rootkit_bundle):
        """Regression: ``verify_audit`` used to read the entry list and
        the head hash in two separate steps; an ingest racing between
        them made a perfectly healthy chain verify as tampered. Every
        duplicate ingest below appends a ``vault.reject`` audit entry
        while the main thread verifies in a loop — each verification
        must see some consistent (entries, head) snapshot and pass."""
        import threading

        vault = CaseVault(tmp_path / "vault")
        vault.ingest(copy.deepcopy(rootkit_bundle))

        stop = threading.Event()
        errors = []

        def hammer():
            while not stop.is_set():
                try:
                    vault.ingest(copy.deepcopy(rootkit_bundle))
                except DuplicateCaseError:
                    pass
                except Exception as err:  # pragma: no cover - fail loud
                    errors.append(err)
                    return

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(50):
                verdict = vault.verify_audit()
                assert verdict["ok"], verdict
                stats = vault.stats()
                # The torn-counter shape: more audited rejects than the
                # audit chain has entries (stats raced the append).
                assert stats["audit_entries"] >= 1
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert errors == []
        assert vault.verify_audit()["ok"]



class TestMalformedFindings:
    def test_bad_sort_fields_are_rejected_before_any_write(
            self, tmp_path, malformed_finding_bundles, fleet_bundles):
        root = tmp_path / "v"
        vault = CaseVault(root)
        for label, bundle in sorted(malformed_finding_bundles.items()):
            with pytest.raises(IngestError) as err:
                vault.ingest(copy.deepcopy(bundle))
            assert err.value.code == "finding-malformed", label
        assert os.listdir(vault.cases_dir) == []
        assert vault.case_ids() == [] and vault.findings() == []
        assert [entry["code"] for entry in vault.audit_entries()] == \
            ["finding-malformed"] * len(malformed_finding_bundles)
        # The vault still opens, and still takes good evidence.
        reopened = CaseVault(root)
        assert reopened.verify_audit()["ok"]
        assert reopened.stats()["rejects"] == len(malformed_finding_bundles)
        reopened.ingest(copy.deepcopy(fleet_bundles[0]))
        assert_index_matches_brute_force(CaseVault(root))


# -- the finding index against the brute force it replaced ----------------

def _oracle_rows(case_id, bundle):
    """Flatten one bundle into finding rows, as ``findings()`` did before
    it had an index."""
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
        rows.append({
            "case_id": case_id, "tenant": event.get("tenant"),
            "t_ms": event.get("t_ms"), "epoch": event.get("epoch"),
            "seq": event.get("seq"), "module": attrs.get("module"),
            "kind": attrs.get("finding_kind"),
            "severity": severity_by_key.get(key),
            "summary": attrs.get("summary"), "source": "flight",
        })
    for finding in detection.get("findings", ()):
        if (finding["module"], finding["summary"]) in seen:
            continue
        rows.append({
            "case_id": case_id, "tenant": bundle.get("tenant"),
            "t_ms": bundle.get("virtual_time_ms"),
            "epoch": detection.get("epoch"), "seq": None,
            "module": finding["module"], "kind": finding["kind"],
            "severity": finding["severity"], "summary": finding["summary"],
            "source": "detection",
        })
    return rows


def _stored(vault, case_id, name):
    with open(os.path.join(vault.cases_dir, case_id, name)) as handle:
        return json.load(handle)


def _stored_cases(vault):
    """Every ``case.json`` on disk, in ``ingested_seq`` order."""
    cases = [_stored(vault, name, "case.json")
             for name in sorted(os.listdir(vault.cases_dir))
             if re.match(r"^case-[0-9a-f]{16}$", name)]
    return sorted(cases, key=lambda case: case["ingested_seq"])


def brute_force_rows(vault):
    """Every finding row re-derived from every stored bundle on disk:
    cases in ``ingested_seq`` order, then a stable causal sort."""
    rows = []
    for case in _stored_cases(vault):
        rows.extend(_oracle_rows(case["case_id"], _stored(
            vault, case["case_id"], "bundle.json")))
    rows.sort(key=lambda row: (row["t_ms"], row["tenant"] or "",
                               1 if row["seq"] is None else 0,
                               row["seq"] or 0))
    return rows


def brute_force_filter(rows, module=None, since=None, tenant=None):
    wanted = module.replace("_", "-") if module is not None else None
    return [row for row in rows
            if (wanted is None or (row["module"] is not None and
                                   row["module"].replace("_", "-") == wanted))
            and (since is None or (row["t_ms"] is not None
                                   and row["t_ms"] >= since))
            and (tenant is None or row["tenant"] == tenant)]


def assert_index_matches_brute_force(vault):
    rows = brute_force_rows(vault)
    assert rows, "the fixture bundles should carry findings"
    stamps = sorted({row["t_ms"] for row in rows})
    modules = (None, "canary", "syscall_table", "syscall-table", "malware",
               "no-such-module")
    tenants = (None, "nobody") + tuple(sorted({row["tenant"]
                                               for row in rows}))
    sinces = (None, stamps[0] - 1.0, stamps[-1] + 1.0) + tuple(stamps) \
        + tuple((a + b) / 2.0 for a, b in zip(stamps, stamps[1:]))
    for module, tenant, since in itertools.product(modules, tenants,
                                                   sinces):
        assert vault.findings(module=module, since=since, tenant=tenant) \
            == brute_force_filter(rows, module, since, tenant), \
            (module, tenant, since)
    cases = _stored_cases(vault)
    assert vault.case_ids() == [case["case_id"] for case in cases]
    assert vault.cases() == cases


def _truncate_audit(vault, lines):
    with open(vault.audit_path) as handle:
        kept = handle.readlines()[:-lines]
    with open(vault.audit_path, "w") as handle:
        handle.writelines(kept)


class TestFindingIndex:
    def test_index_matches_brute_force_through_reopen_and_report(
            self, tmp_path, fleet_bundles):
        vault = CaseVault(tmp_path / "v")
        for bundle in fleet_bundles:
            vault.ingest(copy.deepcopy(bundle))
        assert any(row["source"] == "detection" for row in vault.findings())
        assert_index_matches_brute_force(vault)

        reopened = CaseVault(tmp_path / "v")
        assert reopened.findings() == vault.findings()
        assert_index_matches_brute_force(reopened)

        case_id = reopened.case_ids()[2]
        reopened.attach_report(case_id, {"job_id": "job-0007",
                                         "kind": "bundle-triage"})
        assert reopened.case(case_id)["state"] == "enriched"
        assert_index_matches_brute_force(reopened)
        enriched = CaseVault(tmp_path / "v")
        assert enriched.case(case_id)["reports"] == [
            {"job_id": "job-0007", "kind": "bundle-triage"}]
        assert enriched.stats() == reopened.stats()
        assert_index_matches_brute_force(enriched)

    def test_returned_records_and_rows_are_copies(self, vault,
                                                  rootkit_bundle):
        case = vault.ingest(rootkit_bundle)
        case["reports"].append({"job_id": "forged"})
        vault.case(case["case_id"])["tenant"] = "forged"
        vault.findings()[0]["tenant"] = "forged"
        assert vault.case(case["case_id"])["reports"] == []
        assert vault.case(case["case_id"])["tenant"] == "tenant-rk"
        assert vault.findings()[0]["tenant"] == "tenant-rk"

    def test_crash_before_audit_append_is_recovered(self, tmp_path,
                                                    fleet_bundles):
        """A crash between the rename and the audit append leaves a case
        directory the log never mentions. Reopening lists it in place,
        re-derives its rows from its bundle, and a retry of the same
        evidence is a duplicate, not a stuck case."""
        vault = CaseVault(tmp_path / "v")
        for bundle in fleet_bundles[:4]:
            vault.ingest(copy.deepcopy(bundle))
        _truncate_audit(vault, 1)

        reopened = CaseVault(tmp_path / "v")
        assert reopened.verify_audit()["ok"]
        assert reopened.case_ids() == vault.case_ids()
        assert reopened.findings() == vault.findings()
        assert reopened.stats()["cases"] == 4
        with pytest.raises(DuplicateCaseError):
            reopened.ingest(copy.deepcopy(fleet_bundles[3]))
        assert_index_matches_brute_force(reopened)

    def test_staging_leftover_is_not_a_case(self, tmp_path, fleet_bundles):
        vault = CaseVault(tmp_path / "v")
        for bundle in fleet_bundles[:2]:
            vault.ingest(copy.deepcopy(bundle))
        os.makedirs(os.path.join(vault.cases_dir,
                                 case_id_for(fleet_bundles[2]) + ".staging"))
        reopened = CaseVault(tmp_path / "v")
        assert reopened.case_ids() == vault.case_ids()
        assert reopened.findings() == vault.findings()
        reopened.ingest(copy.deepcopy(fleet_bundles[2]))
        assert_index_matches_brute_force(reopened)

    def test_logged_case_removed_from_outside_is_left_out(
            self, tmp_path, fleet_bundles):
        vault = CaseVault(tmp_path / "v")
        for bundle in fleet_bundles[:3]:
            vault.ingest(copy.deepcopy(bundle))
        gone = vault.case_ids()[1]
        case_dir = os.path.join(vault.cases_dir, gone)
        for name in os.listdir(case_dir):
            os.chmod(os.path.join(case_dir, name), 0o644)
            os.remove(os.path.join(case_dir, name))
        os.rmdir(case_dir)
        reopened = CaseVault(tmp_path / "v")
        assert gone not in reopened.case_ids()
        assert all(row["case_id"] != gone for row in reopened.findings())
        assert_index_matches_brute_force(reopened)

    def test_unlogged_case_goes_before_the_entry_that_took_its_seq(
            self, tmp_path, fleet_bundles):
        vault = CaseVault(tmp_path / "v")
        for bundle in fleet_bundles[:3]:
            vault.ingest(copy.deepcopy(bundle))
        _truncate_audit(vault, 1)
        reopened = CaseVault(tmp_path / "v")
        # The next ingest takes the seq the crashed one was stamped with.
        case = reopened.ingest(copy.deepcopy(fleet_bundles[3]))
        assert case["ingested_seq"] == \
            reopened.case(vault.case_ids()[-1])["ingested_seq"]
        order = vault.case_ids() + [case["case_id"]]
        assert reopened.case_ids() == order
        again = CaseVault(tmp_path / "v")
        assert again.case_ids() == order
        assert again.findings() == reopened.findings()

    def test_legacy_log_without_rows_answers_identically(self, tmp_path,
                                                         fleet_bundles):
        vault = CaseVault(tmp_path / "v")
        for bundle in fleet_bundles:
            vault.ingest(copy.deepcopy(bundle))
        # Rewrite the log the way it was written before entries carried
        # finding rows: same entries, no rows, re-chained, spaced JSON.
        entries = vault.audit_entries()
        prev = AUDIT_GENESIS
        with open(vault.audit_path, "w") as handle:
            for entry in entries:
                payload = {key: value for key, value in entry.items()
                           if key not in ("rows", "prev_hash", "hash")}
                digest = hashlib.sha256((prev + json.dumps(
                    payload, sort_keys=True, separators=(",", ":"))
                ).encode("utf-8")).hexdigest()
                handle.write(json.dumps(dict(payload, prev_hash=prev,
                                             hash=digest),
                                        sort_keys=True) + "\n")
                prev = digest
        legacy = CaseVault(tmp_path / "v")
        assert legacy.verify_audit()["ok"]
        assert all("rows" not in entry for entry in legacy.audit_entries())
        assert legacy.case_ids() == vault.case_ids()
        assert legacy.findings() == vault.findings()
        assert_index_matches_brute_force(legacy)

    def test_snapshots_hold_all_or_none_of_a_case(self, tmp_path,
                                                  fleet_bundles):
        vault = CaseVault(tmp_path / "v")
        order = [case_id_for(bundle) for bundle in fleet_bundles]
        sizes = {case_id_for(bundle): len(_oracle_rows(None, bundle))
                 for bundle in fleet_bundles}
        assert max(sizes.values()) > 1, "need a case with several rows"
        errors = []

        def ingest_all():
            try:
                for bundle in fleet_bundles:
                    vault.ingest(copy.deepcopy(bundle))
            except Exception as err:  # pragma: no cover - fail loud
                errors.append(err)

        writer = threading.Thread(target=ingest_all)
        writer.start()
        snapshots = 0
        while writer.is_alive() or snapshots == 0:
            rows = vault.findings()
            ids = vault.case_ids()
            counts = {}
            for row in rows:
                counts[row["case_id"]] = counts.get(row["case_id"], 0) + 1
            assert all(counts[case_id] == sizes[case_id]
                       for case_id in counts), counts
            assert set(counts) <= set(ids)
            assert ids == order[:len(ids)]
            snapshots += 1
        writer.join()
        assert errors == []
        assert vault.case_ids() == order
        assert_index_matches_brute_force(vault)
