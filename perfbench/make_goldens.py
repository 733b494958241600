"""Regenerate perfbench/goldens.json from the current sources.

    python3 perfbench/make_goldens.py

Run from the repository root, on a commit whose outputs are trusted.  It runs
every variant of every cli_mix slot, every strata_sweep instance and both
scenario workloads once (cubic3fold takes about 80 s on the pure backend).
A slot whose exit code differs from the documented one is an error, except
for the two known ROADMAP item-5 defects, whose current answer is recorded
as `defect` next to the documented one.
"""

import hashlib
import json
import shutil
import subprocess
import sys
from math import comb

import run


def main():
    work = run.WORK / "goldens"
    shutil.rmtree(work, ignore_errors=True)
    files, cwd = work / "files", work / "cwd"
    files.mkdir(parents=True)
    cwd.mkdir()
    for name, doc in run.BAD_DOCS.items():
        (files / name).write_text(json.dumps(doc))
    env = run.child_env()
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                            text=True, cwd=run.ROOT).stdout.strip()
    goldens = {"commit": commit, "scenarios": {}, "cli": {}, "sweep": {}}

    for slot in run.CLI_SLOTS:
        for template in slot["pool"]:
            res = run.spawn(["-c", run.BOOT] + run.expand_argv(template, files), cwd, env)
            got = {"code": res["code"], "stdout": run.stdout_digest(res["out"])}
            key = " ".join(template)
            if res["code"] == slot["code"]:
                goldens["cli"][key] = got
            elif slot.get("defect"):
                goldens["cli"][key] = {"code": slot["code"],
                                       "stdout": hashlib.sha256(b"").hexdigest(),
                                       "defect": got}
            else:
                sys.exit(f"{key}: exit {res['code']}, documented {slot['code']}\n{res['err']}")

    for name in run.SCENARIO_WORKLOADS:
        res = run.spawn(["-c", run.BOOT, "scenario", "run", name, "--format", "json"], cwd, env)
        report = json.loads(res["out"])
        goldens["scenarios"][name] = {
            "tables": report["tables"],
            "pinned": {s["id"]: s["value"] for s in report["steps"] if s.get("checked")},
        }

    spec = {"instances": [dict(inst, perm=list(range(comb(inst["n"] + inst["d"], inst["d"]))))
                          for inst in run.SWEEP]}
    (files / "sweep.json").write_text(json.dumps(spec))
    res = run.spawn([str(run.CHILD), "sweep", str(files / "sweep.json")], cwd, env)
    for row in json.loads(res["out"].splitlines()[-1]):
        goldens["sweep"][row["id"]] = {k: row[k] for k in ("strata", "checked", "betas")}

    shutil.rmtree(work)
    run.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
