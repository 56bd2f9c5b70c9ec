#!/usr/bin/env python3
"""Fails unless clippy reports every contract lint the fixtures expect.

The fixture modules (compiled only under `--cfg a4_contract_fixture`)
mark each violating line with `//~ <lint>[, <lint>...]`. This script
reads clippy's JSON diagnostics and fails if

* a marked line lacks any of its lints (a ban, lint level or exemption
  check stopped working), or
* a path banned in the root `clippy.toml` is never reported (clippy only
  warns about a path it cannot resolve, so a typo would pass silently).

Usage, from the workspace root:

    cargo clippy -p a4-model -p a4-experiments --lib --message-format=json \\
        -- --cfg a4_contract_fixture > fixture.json
    python3 .github/check_contract_fixture.py fixture.json
"""

import json
import re
import sys
import tomllib

FIXTURES = [
    "crates/model/src/contract_fixture.rs",
    "crates/experiments/src/service/contract_fixture.rs",
]


def main(diagnostics_path):
    reported = set()  # (file, line, lint)
    messages = []
    with open(diagnostics_path) as f:
        for raw in f:
            msg = json.loads(raw)
            if msg.get("reason") != "compiler-message":
                continue
            m = msg["message"]
            code = (m.get("code") or {}).get("code")
            if code in ("clippy::disallowed_types", "clippy::disallowed_methods"):
                messages.append(m["message"])
            for span in m["spans"]:
                if span["is_primary"]:
                    reported.add((span["file_name"], span["line_start"], code))

    failures = []
    expected = 0
    for path in FIXTURES:
        with open(path) as f:
            for lineno, text in enumerate(f, start=1):
                marker = re.search(r"//~ (.+)$", text)
                if not marker:
                    continue
                for lint in marker.group(1).split(","):
                    expected += 1
                    if (path, lineno, lint.strip()) not in reported:
                        failures.append(f"{path}:{lineno}: `{lint.strip()}` not reported")

    with open("clippy.toml", "rb") as f:
        config = tomllib.load(f)
    banned = [e["path"] for key in ("disallowed-types", "disallowed-methods") for e in config[key]]
    for path in banned:
        if not any(f"`{path}`" in m for m in messages):
            failures.append(f"clippy.toml: ban on `{path}` never reported")

    for line in failures:
        print(line)
    print(f"{expected} fixture lint(s), {len(banned)} ban(s), {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
