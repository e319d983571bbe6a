"""Shared fixtures: two tenants' worth of real incident evidence.

Session-scoped on purpose — driving a CRIMES guest through an attack is
the expensive part of these tests, and the resulting bundles are plain
data the tests only ever copy, never mutate.
"""

import copy

import pytest

from repro.core.config import CrimesConfig
from repro.core.crimes import Crimes
from repro.detectors.canary import CanaryScanModule
from repro.detectors.syscall_table import SyscallTableModule
from repro.forensics.dumps import MemoryDump
from repro.guest.linux import LinuxGuest
from repro.obs.flight import _payload_digest
from repro.service.vault import CaseVault
from repro.workloads.attacks import OverflowAttackProgram, RootkitProgram
from repro.workloads.webserver import WebServerWorkload


def _attacked_crimes(name, seed, module, program):
    vm = LinuxGuest(name=name, memory_bytes=4 * 1024 * 1024, seed=seed)
    crimes = Crimes(vm, CrimesConfig(epoch_interval_ms=50.0, seed=seed,
                                     auto_respond=False,
                                     history_capacity=4))
    crimes.install_module(module)
    crimes.add_program(WebServerWorkload("light", seed=seed))
    crimes.add_program(program)
    crimes.start()
    crimes.run(max_epochs=8)
    assert crimes.last_incident is not None
    return crimes


@pytest.fixture(scope="session")
def rootkit_crimes():
    """Tenant A: a kernel rootkit caught by the syscall-table module."""
    return _attacked_crimes("tenant-rk", 41, SyscallTableModule(),
                            RootkitProgram(trigger_epoch=3))


@pytest.fixture(scope="session")
def overflow_crimes():
    """Tenant B: a heap overflow caught by the canary scan."""
    return _attacked_crimes("tenant-ov", 42, CanaryScanModule(),
                            OverflowAttackProgram(trigger_epoch=4))


@pytest.fixture(scope="session")
def fleet_bundles(rootkit_crimes, overflow_crimes):
    """Six tenants' incident bundles across both detector modules.

    The last one also carries a detection finding its journal never
    recorded, so the finding index holds a seq-less detection row.
    """
    bundles = [rootkit_crimes.last_incident, overflow_crimes.last_incident]
    for name, seed, rootkit in (("tenant-a", 43, True),
                                ("tenant-b", 44, False),
                                ("tenant-c", 45, True),
                                ("tenant-d", 46, False)):
        if rootkit:
            module, program = SyscallTableModule(), RootkitProgram(
                trigger_epoch=2 + seed % 3)
        else:
            module, program = CanaryScanModule(), OverflowAttackProgram(
                trigger_epoch=2 + seed % 3)
        bundles.append(copy.deepcopy(
            _attacked_crimes(name, seed, module, program).last_incident))
    bundles[-1]["detection"]["findings"].append({
        "module": "malware", "kind": "suspicious-string",
        "severity": "warning", "summary": "late verdict, never journaled",
        "details": {},
    })
    return bundles


def rechain(bundle):
    """Re-derive a bundle's flight chain after an edit. The chain is an
    unkeyed sha256, so any producer can forge a consistent one."""
    events = bundle["flight"]["events"]
    prev = events[0]["prev_hash"]
    for event in events:
        event["prev_hash"] = prev
        event["hash"] = prev = _payload_digest(prev, {
            key: event[key] for key in ("seq", "t_ms", "kind", "tenant",
                                        "epoch", "span_id", "attrs")})
    bundle["flight"]["head_hash"] = prev
    return bundle


@pytest.fixture(scope="session")
def malformed_finding_bundles(fleet_bundles):
    """Bundles whose chains verify but whose finding rows carry a field
    the index sorts by with the wrong type, keyed by what is wrong."""
    forged = {}
    bundle = copy.deepcopy(fleet_bundles[-1])  # has a detection-only row
    bundle["virtual_time_ms"] = "x"
    forged["virtual_time_ms"] = bundle
    for field, value in (("t_ms", "x"), ("t_ms", float("nan")),
                         ("tenant", 7), ("seq", None)):
        bundle = copy.deepcopy(fleet_bundles[0])
        event = next(event for event in bundle["flight"]["events"]
                     if event["kind"] == "scan.finding")
        # A float seq still matches the epoch chain's int references.
        event[field] = float(event["seq"]) if field == "seq" else value
        forged["%s=%r" % (field, event[field])] = rechain(bundle)
    return forged


@pytest.fixture()
def rootkit_bundle(rootkit_crimes):
    return copy.deepcopy(rootkit_crimes.last_incident)


@pytest.fixture()
def overflow_bundle(overflow_crimes):
    return copy.deepcopy(overflow_crimes.last_incident)


@pytest.fixture()
def rootkit_dump(rootkit_crimes):
    return MemoryDump.from_vm(rootkit_crimes.vm, label="incident")


@pytest.fixture()
def vault(tmp_path):
    return CaseVault(tmp_path / "vault")
