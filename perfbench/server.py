"""The case service in its own process, driven over stdin/stdout.

Started by ``evidence.py``; not meant to be run by hand. One JSON
object per line in each direction:

1. On start it sets the service up :data:`SETUPS` times: open the vault,
   build the service, start the listener (timed), then stop it
   (untimed: ``CaseService.stop`` waits out the listener's 0.5 s
   shutdown poll, which no user-facing path pays). The last instance
   keeps serving. It prints ``{"url", "warmup_setup_s", "setup_s":
   [...]}``: the first set-up apart, then the others.
2. With ``--trace 1`` the service, vault and ingest layers are wrapped
   before the first request.
3. ``{"cmd": "report"}`` unwraps them and answers with the recorded
   handler, vault and ingest timings.
4. ``{"cmd": "finish"}`` stops the service, writes the spans, answers
   with the process's peak RSS and exits.
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from common import rss_peak_mib  # noqa: E402
from spans import Recorder, SpanTable  # noqa: E402

#: Set-ups per process. The first is a warm-up: a fresh process's first
#: listener and threads took about twice as long as the rest (4 ms vs
#: 2 ms). ``setup_s`` is the median of the others.
SETUPS = 10


def reply(payload):
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def start_service(root):
    from repro.service.http import CaseService
    from repro.service.vault import CaseVault

    begin = time.perf_counter()
    service = CaseService(CaseVault(root), workers=1, seed=0).start()
    return service, time.perf_counter() - begin


def instrument_service(recorder):
    import repro.service.vault as vault_module
    from repro.service.http import CaseService
    from repro.service.vault import CaseVault

    def rows(span, _args, result, _token):
        span.attrs = {"rows": len(result)}

    recorder.span(CaseService, "handle_get", "service.handle_get")
    recorder.span(CaseService, "handle_post", "service.handle_post")
    recorder.span(CaseVault, "findings", "vault.findings", after=rows)
    recorder.span(CaseVault, "bundle", "vault.bundle")
    recorder.span(CaseVault, "ingest", "vault.ingest")
    recorder.span(vault_module, "validate_bundle", "ingest.validate")


def report(recorder):
    table = SpanTable(recorder.spans)

    def durations(name):
        return [span.duration_ns() / 1e6 for span in
                sorted(table.named(name), key=lambda span: span.start)]

    findings = table.named("vault.findings")
    under_findings = {span.id for span in findings}
    bundle_reads = sum(1 for span in table.named("vault.bundle")
                       if span.parent in under_findings)
    return {
        "handle_get_ms": durations("service.handle_get"),
        "handle_post_ms": durations("service.handle_post"),
        "findings_ms": durations("vault.findings"),
        "findings_rows": sum(span.attrs["rows"] for span in findings),
        "findings_bundle_reads": bundle_reads,
        "ingest_ms": durations("vault.ingest"),
        "validate_ms": durations("ingest.validate"),
        "spans": len(table.spans),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--vault", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    setup_s = []
    service = None
    for _ in range(SETUPS):
        if service is not None:
            service.stop()
        service, elapsed = start_service(args.vault)
        setup_s.append(elapsed)

    recorder = Recorder() if args.trace else None
    if recorder is not None:
        instrument_service(recorder)
        recorder.measuring = True
    reply({"url": service.url, "warmup_setup_s": setup_s[0],
           "setup_s": setup_s[1:]})

    try:
        for line in sys.stdin:
            command = json.loads(line)["cmd"]
            if command == "report":
                payload = {}
                if recorder is not None:
                    recorder.unpatch_all()
                    payload = report(recorder)
                reply(payload)
            elif command == "finish":
                break
    finally:
        service.stop()
    if recorder is not None and args.trace_out:
        recorder.write_jsonl(args.trace_out)
    reply({"rss_peak_mib": rss_peak_mib()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
