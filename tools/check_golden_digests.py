#!/usr/bin/env python3
"""Golden digest gate over the full scenario matrix.

Runs every row of MATRIX through corelite_sim and compares the printed
result digest against the committed manifest (tools/golden_digests.json):

  - fig3/5/7/9 x all nine mechanisms (default durations, seed 1);
  - gen-pl8-300, gen-ft4-300 and gen-isp32-300 x {corelite, csfq, wfq,
    ecnbit} at --duration 10;
  - --lp 2 rows for fig5 and gen-pl8-300 (the partitioned engine's
    digest is a pure function of the spec and the LP count);
  - one --fluid row on gen-pl8-300-steady and one --audit row on fig5
    (both change the digest deterministically: fluid jumps and audit
    sampler events are part of the run).

The plain rows are the bit-identity witness that the fluid machinery,
compiled in but disabled, does not perturb the packet engine, and that
any refactor of the scenario layer rewires every topology and mechanism
exactly as before.

Digests depend on the scenarios' default seeds and durations and on the
engine's event ordering.  After an INTENTIONAL behaviour change (new
default, scheduler fix, ...) regenerate with --update and commit the new
manifest alongside the change that explains it.

Exit status: 0 = all digests match, 1 = any drift (or missing digest).
"""

import argparse
import json
import re
import subprocess
import tempfile
from pathlib import Path

MANIFEST = Path(__file__).resolve().parent / "golden_digests.json"

PAPER = ["fig3", "fig5", "fig7", "fig9"]
MECHANISMS = ["corelite", "csfq", "droptail", "red", "fred", "wfq", "ecnbit", "choke", "sfq"]
GENERATED = ["gen-pl8-300", "gen-ft4-300", "gen-isp32-300"]
GENERATED_MECHANISMS = ["corelite", "csfq", "wfq", "ecnbit"]
SHORT = ["--duration", "10"]


def run_args(scenario, mechanism, *extra):
    return ["--scenario", scenario, "--mechanism", mechanism, *extra]


# One table of (manifest key, corelite_sim arguments).
MATRIX = (
    [(f"{s}/{m}", run_args(s, m)) for s in PAPER for m in MECHANISMS]
    + [(f"{s}/{m}", run_args(s, m, *SHORT)) for s in GENERATED for m in GENERATED_MECHANISMS]
    + [(f"fig5/{m}/lp2", run_args("fig5", m, "--lp", "2")) for m in ["corelite", "csfq"]]
    + [(f"gen-pl8-300/{m}/lp2", run_args("gen-pl8-300", m, *SHORT, "--lp", "2"))
       for m in ["corelite", "csfq"]]
    + [("gen-pl8-300-steady/corelite/fluid",
        run_args("gen-pl8-300-steady", "corelite", "--fluid")),
       ("fig5/corelite/audit", run_args("fig5", "corelite", "--audit"))]
)


def run_digest(binary, key, argv, workdir):
    # The digest line only prints under --telemetry.  Run in a scratch
    # directory so the manifest and audit files it writes go there.
    out = subprocess.run([binary, *argv, "--telemetry", "--quiet"], cwd=workdir,
                         check=True, capture_output=True, text=True).stdout
    m = re.search(r"result digest: ([0-9a-f]+)", out)
    if not m:
        raise SystemExit(f"{key}: no 'result digest:' line in output")
    return m.group(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("binary", help="path to the corelite_sim binary")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the manifest with freshly measured digests")
    args = ap.parse_args()
    binary = str(Path(args.binary).resolve())

    manifest = json.loads(MANIFEST.read_text())
    failed = False
    with tempfile.TemporaryDirectory() as workdir:
        for key, argv in MATRIX:
            got = run_digest(binary, key, argv, workdir)
            if args.update:
                manifest[key] = got
                print(f"{key:36s} {got}")
                continue
            want = manifest.get(key)
            ok = got == want
            print(f"{key:36s} {got}  {'PASS' if ok else f'FAIL (expected {want})'}")
            failed = failed or not ok

    if args.update:
        MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
        print(f"updated {MANIFEST}")
        return
    if failed:
        raise SystemExit(1)
    print(f"golden digests: all {len(MATRIX)} rows bit-identical")


if __name__ == "__main__":
    main()
