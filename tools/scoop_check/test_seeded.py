#!/usr/bin/env python3
"""End-to-end seeded-violation test for the scoop_check CLI.

Copies the real tree (the source and doc directories, DESIGN.md,
METRICS.md, README.md) into a scratch root,
seeds one violation per check into fresh files (README.md gets one
appended line naming a missing src/ file), runs the CLI as a
subprocess, and asserts (a) exit code 1, (b) every seeded check fires,
(c) every finding points into the seeded files — the copied real tree
must stay clean, so a regression that sprays false positives over good
code fails here too. Registered in ctest as `scoop_check_seeded`.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
CLI = REPO_ROOT / "tools" / "scoop_check"

SEEDED_GUARD_H = """\
#ifndef SCOOP_COMMON_ZZ_SEEDED_GUARD_H_
#define SCOOP_COMMON_ZZ_SEEDED_GUARD_H_

#include "common/sync.h"

namespace scoop {

class ZzSeeded {
 public:
  int Get();

 private:
  Mutex mu_{"zz.seeded", lockrank::kLogging};
  int unguarded_count_ = 0;
};

}  // namespace scoop

#endif  // SCOOP_COMMON_ZZ_SEEDED_GUARD_H_
"""

SEEDED_CC = """\
#include "common/zz_seeded_guard.h"

// Layering violation: common may not reach up into csv.
#include "csv/{csv_header}"

namespace scoop {{

int ZzSeeded::Get() {{
  (void)ExternalThing();
  TraceSpan span("zz.bogus_span");
  SCOOP_FAILPOINT("zz.bogus_site");
  registry->GetCounter("zz.bogus_metric")->Increment();
  return 0;
}}

}}  // namespace scoop
"""

SEEDED_WIRE_CC = """\
namespace scoop::net {

void ZzSeededWire(Headers& headers) {
  headers.Set("X-Zz-Bogus-Header", "1");
}

}  // namespace scoop::net
"""

SEEDED_DOC_LINE = "\nThe seeded module lives in `src/zz/ghost_module.h`.\n"

EXPECTED_CHECKS = {"layering", "guarded-by", "status-audit", "lock-rank",
                   "span-name", "failpoint-name", "metric-name",
                   "header-name", "doc-path"}
SEEDED_PATHS = {"src/common/zz_seeded_guard.h", "src/common/zz_seeded.cc",
                "src/net/zz_seeded_wire.cc", "README.md"}


def main():
    with tempfile.TemporaryDirectory(prefix="scoop_check_seeded_") as tmp:
        root = Path(tmp)
        # Every directory the docs may name, so doc-path sees the tree.
        for top in ("src", "tests", "bench", "examples", "perfbench",
                    "tools", "docs"):
            if (REPO_ROOT / top).is_dir():
                shutil.copytree(REPO_ROOT / top, root / top,
                                ignore=shutil.ignore_patterns("__pycache__"))
        for doc in ("DESIGN.md", "METRICS.md", "README.md"):
            shutil.copy2(REPO_ROOT / doc, root / doc)
        with open(root / "README.md", "a", encoding="utf-8") as readme:
            readme.write(SEEDED_DOC_LINE)

        csv_header = sorted(
            p.name for p in (REPO_ROOT / "src" / "csv").glob("*.h"))[0]
        (root / "src" / "common" / "zz_seeded_guard.h").write_text(
            SEEDED_GUARD_H, encoding="utf-8")
        (root / "src" / "common" / "zz_seeded.cc").write_text(
            SEEDED_CC.format(csv_header=csv_header), encoding="utf-8")
        (root / "src" / "net" / "zz_seeded_wire.cc").write_text(
            SEEDED_WIRE_CC, encoding="utf-8")

        artifact = root / "findings.json"
        proc = subprocess.run(
            [sys.executable, str(CLI), "--root", str(root),
             "--engine", "tokens", "--json", str(artifact)],
            capture_output=True, text=True)
        print(proc.stdout, end="")

        failures = []
        if proc.returncode != 1:
            failures.append(f"expected exit 1, got {proc.returncode} "
                            f"(stderr: {proc.stderr.strip()})")
        payload = json.loads(artifact.read_text(encoding="utf-8")) \
            if artifact.is_file() else {"findings": []}
        findings = payload["findings"]

        fired = {f["check"] for f in findings}
        for check in sorted(EXPECTED_CHECKS - fired):
            failures.append(f"seeded violation for `{check}` was not "
                            "detected")
        for f in findings:
            if f["file"] not in SEEDED_PATHS:
                failures.append(
                    f"false positive outside the seeded files: "
                    f"{f['file']}:{f['line']}: [{f['check']}] "
                    f"{f['message']}")

        if failures:
            for failure in failures:
                print(f"seeded-test FAIL: {failure}")
            return 1
        print(f"scoop_check seeded-violation test: OK "
              f"({len(findings)} findings, all in seeded files, "
              f"all {len(EXPECTED_CHECKS)} checks fired)")
        return 0


if __name__ == "__main__":
    sys.exit(main())
