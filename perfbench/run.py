"""End-to-end and per-layer benchmark of the stratify command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root: it puts ``src`` on ``PYTHONPATH`` and runs
the pure backend.  Every pass starts fresh interpreters, as a user of the
CLI would.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, from spans that perfbench/child.py records around the calls
into each layer.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDENS = HERE / "goldens.json"
CHILD = HERE / "child.py"
# what the `stratify` console script runs
BOOT = "import sys; from stratify.cli import main; sys.exit(main())"
SETUP_PROBES = 15
CHILD_TIMEOUT = 150
# Host-speed probe (see measure_speed): while a child runs, the parent, pinned
# to the child's CPU, wakes every PROBE_INTERVAL seconds and times a fixed
# loop.  PROBE_FULL_SPEED_NS is that loop's time when the vCPU runs at full
# speed on the 2-vCPU Xeon (family 6, model 143) KVM guest of baseline.json.
# When the vCPU slows, the loop slows by a little more than stratify does: a
# child whose probes read half speed takes 1.8x, not 2x, its full-speed time.
# SPEED_EXPONENT maps the loop's speed to the program's (0.5 ** 0.85 = 0.55).
PROBE_INTERVAL = 0.01
PROBE_ROUNDS = 800
PROBE_FULL_SPEED_NS = 280_000
SPEED_EXPONENT = 0.85

# strata_sweep instances: hypersurface actions of ranks 2-5, both Weyl modes.
# max_support bounds the oracle where its cost would otherwise dominate.
SWEEP = [
    {"id": "sym-2-8", "weyl": "sym", "n": 2, "d": 8, "max_support": None},
    {"id": "sym-3-4", "weyl": "sym", "n": 3, "d": 4, "max_support": 5},
    {"id": "sym-4-2", "weyl": "sym", "n": 4, "d": 2, "max_support": 5},
    {"id": "sym-5-2", "weyl": "sym", "n": 5, "d": 2, "max_support": 6},
    {"id": "torus-2-6", "weyl": "trivial", "n": 2, "d": 6, "max_support": None},
    {"id": "torus-3-3", "weyl": "trivial", "n": 3, "d": 3, "max_support": 4},
]


def _bad_doc(steps):
    return {"name": "bad", "order": 6, "steps": steps, "outputs": {}}


# Scenario files for the malformed-input slots of cli_mix.
BAD_DOCS = {
    "unknown-op.json": _bad_doc([{"id": "x", "op": "no_such_op", "args": {}}]),
    "wrong-pin.json": _bad_doc([
        {"id": "ws", "op": "hypersurface_weights", "args": {"n": 2, "d": 3}},
        {"id": "bset", "op": "instability_index_set", "args": {"weights": "$ws"}},
        {"id": "min", "op": "min_nonzero_codim", "args": {"strata": "$bset"}, "expect": 99}]),
    # ROADMAP item 5: a string argument and a missing argument are parse errors
    "string-n.json": _bad_doc([
        {"id": "ws", "op": "hypersurface_weights", "args": {"n": "4", "d": 3}}]),
    "missing-d.json": _bad_doc([
        {"id": "ws", "op": "hypersurface_weights", "args": {"n": 4}}]),
}

E3_BOUNDARY = '{{"factors":[{{"lattice":"E3","group":"weyl","count":{}}}]}}'
MOLIEN_GENS = ["[[[0,1],[1,0]],[[-1,1],[-1,0]]]", "[[[0,1],[1,0]]]", "[[[-1,0],[0,-1]]]"]
# exceptional divisor tables with the dimension of their blowup target
EXCEPTIONAL = [('{"complex_dim":3,"even":[1,1,1,1],"odd":[0,0,0]}', "4"),
               ('{"complex_dim":2,"even":[1,2,1],"odd":[0,0]}', "3"),
               ('{"complex_dim":4,"even":[1,1,2,1,1],"odd":[0,0,0,0]}', "5")]

# cli_mix: one call per slot in each pass.  The seed picks each slot's
# variant from a pool of calls of similar cost and shuffles the slot order.
# A slot's expected exit code is the documented one; `defect` marks the two
# ROADMAP item-5 cases, where the seed commit answers otherwise.
CLI_SLOTS = [
    {"slot": "scenario-cubicsurf", "code": 0,
     "pool": [["scenario", "run", "cubicsurf", "--format", f] for f in ("json", "latex")]},
    {"slot": "scenario-cubiccurve", "code": 0,
     "pool": [["scenario", "run", "cubiccurve", "--format", f] for f in ("json", "latex")]},
    {"slot": "scenario-binary12", "code": 0,
     "pool": [["scenario", "run", "binary12", "--format", f] for f in ("json", "latex")]},
    {"slot": "lattice-roots", "code": 0,
     "pool": [["lattice", "roots", n, "--format", "json"] for n in ("E1", "E2", "E3", "E4")]},
    {"slot": "lattice-weyl-order", "code": 0,
     "pool": [["lattice", "weyl-order", n, "--format", "json"] for n in ("E1", "E2", "E3")]},
    {"slot": "lattice-discriminant", "code": 0,
     "pool": [["lattice", "discriminant", n, "--format", "json"]
              for n in ("E1", "E2", "E3", "E4", "H")]},
    {"slot": "lattice-z-form", "code": 0,
     "pool": [["lattice", "z-form", n, "--format", f]
              for n in ("E1", "E3", "E4", "H") for f in ("json", "csv")]},
    {"slot": "molien", "code": 0,
     "pool": [["molien", "--gens", g, "--degree", "2", "--truncate", t, "--format", "json"]
              for g in MOLIEN_GENS for t in ("8", "12")]},
    {"slot": "boundary", "code": 0,
     "pool": [["boundary", E3_BOUNDARY.format(c), "--format", "json"] for c in (1, 2, 3)]},
    {"slot": "blowup", "code": 0,
     "pool": [["blowup", "--exceptional", e, "--dim", dim, "--format", "json"]
              for e, dim in EXCEPTIONAL]},
    {"slot": "strata-sl", "code": 0,
     "pool": [["strata", "--n", "3", "--d", "3", "--format", f] for f in ("json", "csv")]},
    {"slot": "strata-torus", "code": 0,
     "pool": [["strata", "--n", "3", "--d", "3", "--group", "torus", "--format", f]
              for f in ("json", "csv")]},
    {"slot": "unknown-scenario", "code": 3,
     "pool": [["scenario", "run", "no_such_scenario", "--format", "json"]]},
    {"slot": "bad-json", "code": 3,
     "pool": [["boundary", "{not json", "--format", "json"],
              ["blowup", "--exceptional", "[1,", "--dim", "4", "--format", "json"]]},
    {"slot": "unknown-op", "code": 3,
     "pool": [["scenario", "run", "{unknown-op.json}", "--format", "json"]]},
    {"slot": "resource-cap", "code": 4,
     "pool": [["strata", "--n", n, "--d", d, "--format", "json"]
              for n, d in (("5", "3"), ("6", "3"), ("4", "5"))]},
    {"slot": "wrong-pin", "code": 2,
     "pool": [["scenario", "run", "{wrong-pin.json}", "--format", "json"]]},
    {"slot": "string-arg", "code": 3, "defect": True,
     "pool": [["scenario", "run", "{string-n.json}", "--format", "json"]]},
    {"slot": "missing-arg", "code": 3, "defect": True,
     "pool": [["scenario", "run", "{missing-d.json}", "--format", "json"]]},
]

# `cubic3fold` is accepted but not listed in BENCHMARK.json: one cold pass
# takes about 80 s on the pure backend (see README.md).
SCENARIO_WORKLOADS = ("cubicsurf", "cubic3fold")
WORKLOADS = SCENARIO_WORKLOADS + ("strata_sweep", "cli_mix")

# Heaviest scenario steps: cubicsurf's five, then cubic3fold's five.
STEP_METRICS = ("oracle", "bset", "tbl_t3a2", "oracle_3a2", "strata_3a2",
                "quot_e4", "w_e4", "bset_raw", "oracle_check", "glued")

def stdout_digest(text):
    """sha256 of the output, ignoring the report's `backend` field."""
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if isinstance(doc, dict) and "backend" in doc:
        doc.pop("backend")
        text = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def check_scenario(golden, res):
    """The report's tables and every pinned step value."""
    try:
        report = json.loads(res["out"])
        pinned = {s["id"]: s["value"] for s in report["steps"] if s.get("checked")}
        return (res["code"] == 0 and report["tables"] == golden["tables"]
                and pinned == golden["pinned"])
    except (ValueError, KeyError, TypeError):
        return False


def check_cli(golden, res, defects):
    """Exit code and output digest; a seed-commit item-5 answer is a defect."""
    digest = stdout_digest(res["out"])
    if res["code"] == golden["code"] and digest == golden["stdout"]:
        return True
    known = golden.get("defect")
    if known and res["code"] == known["code"] and digest == known["stdout"]:
        defects.append(res)
        return True
    return False


def build_ops(workload, seed, files):
    """(golden key, argv) of each operation of a pass; the same in every pass."""
    rng = random.Random(seed)
    if workload in SCENARIO_WORKLOADS:
        return [(workload, ["scenario", "run", workload, "--format", "json"])]
    if workload == "strata_sweep":
        spec = {"instances": []}
        for inst in SWEEP:
            perm = list(range(math.comb(inst["n"] + inst["d"], inst["d"])))
            rng.shuffle(perm)
            spec["instances"].append(dict(inst, perm=perm))
        path = files / "sweep.json"
        path.write_text(json.dumps(spec))
        return [("strata_sweep", [str(path)])]
    ops = []
    for slot in CLI_SLOTS:
        template = rng.choice(slot["pool"])
        ops.append((" ".join(template), expand_argv(template, files)))
    rng.shuffle(ops)
    return ops


def expand_argv(template, files):
    """Replace `{name.json}` placeholders by the path of that scenario file."""
    return [str(files / a[1:-1]) if a.startswith("{") and a.endswith(".json}") else a
            for a in template]


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("STRATIFY_")}
    env.update(PYTHONPATH=str(SRC), STRATIFY_PURE="1", PYTHONHASHSEED="0")
    return env


def probe_loop():
    """Fixed interpreter work, of the kind stratify does: tuples, dicts, ints."""
    seen = {}
    total = 0
    for i in range(PROBE_ROUNDS):
        key = (i, i * 7 % 13, i ^ 5)
        seen[key] = seen.get(key, 0) + 1
        total += sum(key)
    return total


def measure_speed():
    """The program's current speed as a share of full speed, and the ns the
    probe took."""
    t0 = time.perf_counter_ns()
    probe_loop()
    took = time.perf_counter_ns() - t0
    return (PROBE_FULL_SPEED_NS / took) ** SPEED_EXPONENT, took


def spawn(argv, cwd, env, probe=False):
    """Run one child to its end; wall from spawn to exit, CPU and max RSS.

    With ``probe`` the parent samples the host's speed while the child runs
    (``speed``, the mean share of full speed) and ``wall`` leaves out the
    probes' own time.  Needs the parent and child pinned to one CPU."""
    out_path, err_path = cwd / "stdout", cwd / "stderr"
    speeds, probe_ns = [], 0
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter_ns()
        proc = subprocess.Popen([sys.executable] + argv, cwd=cwd, env=env,
                                stdout=out, stderr=err)
        deadline = t0 + CHILD_TIMEOUT * 10**9
        pidfd = os.pidfd_open(proc.pid)
        try:
            while not select.select([pidfd], [], [],
                                    PROBE_INTERVAL if probe else CHILD_TIMEOUT)[0]:
                if time.perf_counter_ns() > deadline:
                    proc.kill()
                elif probe:
                    speed, took = measure_speed()
                    speeds.append(speed)
                    probe_ns += took
        finally:
            os.close(pidfd)
        _, status, ru = os.wait4(proc.pid, 0)
        t1 = time.perf_counter_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if probe and not speeds:
        speeds.append(measure_speed()[0])
    return {"code": proc.returncode, "out": out_path.read_text(), "err": err_path.read_text(),
            "t0": t0, "t1": t1, "wall": (t1 - t0 - probe_ns) / 1e9,
            "cpu": ru.ru_utime + ru.ru_stime, "rss_kb": ru.ru_maxrss,
            "speed": statistics.fmean(speeds) if probe else 1.0}


def run_pass(workload, ops, cwd, env, trace_dir=None, probe=False):
    """One pass over the workload; returns its timings, results and spans."""
    results = []
    for i, (_, op_argv) in enumerate(ops):
        trace = ["--trace", str(trace_dir / f"{i}.json")] if trace_dir else []
        if workload == "strata_sweep":
            argv = [str(CHILD)] + trace + ["sweep"] + op_argv
        elif trace_dir:
            argv = [str(CHILD)] + trace + ["cli"] + op_argv
        else:
            argv = ["-c", BOOT] + op_argv
        res = spawn(argv, cwd, env, probe)
        if trace_dir:
            path = trace_dir / f"{i}.json"
            # a child killed at its time limit leaves no spans
            res["trace"] = (json.loads(path.read_text()) if path.exists()
                            else {"boot": res["t0"], "end": res["t1"], "spans": []})
        results.append(res)
    return {"wall": sum(r["wall"] for r in results),
            "rss_kb": max(r["rss_kb"] for r in results),
            "results": results}


def at_full_speed(res, key):
    """A child's wall or CPU time scaled to the host's full speed."""
    return res[key] * res["speed"]


def check_pass(workload, ops, p, goldens, defects):
    """Golden checks; returns (attempted, failed)."""
    if workload != "strata_sweep":
        failed = 0
        for (key, _), res in zip(ops, p["results"]):
            if workload in SCENARIO_WORKLOADS:
                failed += not check_scenario(goldens["scenarios"][key], res)
            else:
                failed += not check_cli(goldens["cli"][key], res, defects)
        return len(ops), failed
    res = p["results"][0]
    try:
        rows = json.loads(res["out"].splitlines()[-1]) if res["code"] == 0 else []
    except (ValueError, IndexError):
        rows = []
    failed = len(SWEEP) - len(rows)
    for row in rows:
        golden = goldens["sweep"][row["id"]]
        failed += any(row[k] != golden[k] for k in ("strata", "checked", "betas"))
    return len(SWEEP), failed


def setup_probe(workload, ops, cwd, env):
    """Interpreter start, import and input loading, before the first operation.

    cli_mix probes its scenario-cubicsurf call: a seed may put a malformed
    call first, and its input does not load."""
    mode = "sweep" if workload == "strata_sweep" else "cli"
    argv = CLI_SLOTS[0]["pool"][0] if workload == "cli_mix" else ops[0][1]
    res = spawn([str(CHILD), "setup", mode] + argv, cwd, env, probe=True)
    if res["code"] != 0:
        raise RuntimeError(f"set-up probe failed: {res['err']}")
    return at_full_speed(res, "wall")


def self_times(spans):
    """Self time per span: its duration minus the time its children cover."""
    child_time = [0] * len(spans)
    for s in spans:
        if s[4] >= 0:
            child_time[s[4]] += s[3] - s[2]
    return [(s[3] - s[2] - c) / 1e9 for s, c in zip(spans, child_time)]


def layer_metrics(p):
    """Per-layer numbers of one traced pass."""
    m = defaultdict(float)
    covered = 0.0
    for res in p["results"]:
        tr = res["trace"]
        spans = tr["spans"]
        interp = (tr["boot"] - res["t0"] + res["t1"] - tr["end"]) / 1e9
        m["interp"] += interp
        covered += interp
        for s, self_s in zip(spans, self_times(spans)):
            name, layer, counters = s[0], s[1], s[6] or {}
            m[layer] += self_s
            covered += self_s
            if name.startswith("step."):
                m["steps"] += 1
                m[name] += (s[3] - s[2]) / 1e9
            for k, v in counters.items():
                m[f"{name}.{k}"] += v
            if name.startswith("kernels."):
                m[name] += (s[3] - s[2]) / 1e9
                m[name + ".calls"] += 1
        _cache_hits(spans, m)
    m["coverage"] = covered / p["wall"]
    return m


def _cache_hits(spans, m):
    """A group or character-sum call with no kernel below it was a cache hit."""
    has_kernel = [False] * len(spans)
    for i in range(len(spans) - 1, -1, -1):
        s = spans[i]
        if s[1] == "kernels" or has_kernel[i]:
            if s[4] >= 0:
                has_kernel[s[4]] = True
    for i, s in enumerate(spans):
        if s[0] == "invariants.abelian_quotient_betti":
            m["aqb_calls"] += 1
            m["aqb_hits"] += not has_kernel[i]
        elif s[0] == "eisenstein.weyl_group":
            m["weyl_calls"] += 1
            m["weyl_hits"] += not has_kernel[i]


def per_layer(traced, untraced, defects_per_pass, calls_per_pass):
    n = len(traced)
    tot = defaultdict(float)
    for p in traced:
        for k, v in p["layers"].items():
            tot[k] += v
    avg = {k: v / n for k, v in tot.items()}

    def g(k):
        return avg.get(k, 0.0)

    subsets = g("kernels.projection_candidates.subsets")
    out = {
        "import.s": (g("import"), "s"),
        "interp.s": (g("interp"), "s"),
        "cli.self_s": (g("cli"), "s"),
        "runner.self_s": (g("runner"), "s"),
        "runner.steps": (g("steps"), "count"),
        "serialize.s": (g("serialize"), "s"),
        "weights.self_s": (g("weights"), "s"),
        "orbits.self_s": (g("orbits"), "s"),
        "series.self_s": (g("series"), "s"),
        "assembly.self_s": (g("assembly"), "s"),
        "harness.self_s": (g("harness"), "s"),
        "strata.self_s": (g("strata"), "s"),
        "strata.strata": (g("strata.instability_index_set.strata")
                          + g("strata.normal_rep_strata.strata"), "count"),
        "strata.oracle.s": (g("oracle"), "s"),
        "strata.oracle.checked": (g("strata.verify_strata_against_oracle.checked"), "count"),
        "kernels.projection_candidates.s": (g("kernels.projection_candidates"), "s"),
        "kernels.projection_candidates.calls": (g("kernels.projection_candidates.calls"), "count"),
        "kernels.projection_candidates.subsets": (subsets, "count"),
        "kernels.projection_candidates.candidates":
            (g("kernels.projection_candidates.candidates"), "count"),
        "kernels.projection_candidates.kept_ratio":
            (g("kernels.projection_candidates.candidates") / subsets if subsets else 0.0,
             "ratio"),
        "invariants.self_s": (g("invariants"), "s"),
        "invariants.aqb_calls": (g("aqb_calls"), "count"),
        "invariants.char_sum_cache_hits": (g("aqb_hits"), "count"),
        "kernels.eis_char_sums.s": (g("kernels.eis_char_sums"), "s"),
        "kernels.eis_char_sums.elements": (g("kernels.eis_char_sums.elements"), "count"),
        "kernels.eis_char_sums.entries": (g("kernels.eis_char_sums.entries"), "count"),
        "eisenstein.self_s": (g("eisenstein"), "s"),
        "eisenstein.weyl_group_calls": (g("weyl_calls"), "count"),
        "eisenstein.weyl_cache_hits": (g("weyl_hits"), "count"),
        "kernels.close_eis.s": (g("kernels.close_eis"), "s"),
        "kernels.close_eis.calls": (g("kernels.close_eis.calls"), "count"),
        "kernels.close_eis.elements": (g("kernels.close_eis.elements"), "count"),
        "cli.calls": (calls_per_pass, "count"),
        "cli.defects": (defects_per_pass, "count"),
        "trace.coverage": (statistics.median(p["layers"]["coverage"] for p in traced), "ratio"),
        "trace.overhead": (statistics.median(p["wall"] for p in traced)
                           / statistics.median(p["wall"] for p in untraced) - 1, "ratio"),
    }
    for step in STEP_METRICS:
        out[f"step.{step}.s"] = (g(f"step.{step}"), "s")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "stratify" / "cli.py").is_file():
        sys.exit(f"run.py: no stratify sources under {SRC}; run from the repository root")
    goldens = json.loads(GOLDENS.read_text())

    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    files, cwd = run_dir / "files", run_dir / "cwd"
    files.mkdir(parents=True)
    cwd.mkdir()
    for name, doc in BAD_DOCS.items():
        (files / name).write_text(json.dumps(doc))
    caches_before = set(ROOT.rglob("group-*.json"))
    try:
        result = measure(args, goldens, files, cwd, run_dir)
        # cold isolation: no closure-cache file may appear, in the children's
        # working directory or anywhere else in the checkout
        leftovers = [p for p in cwd.iterdir() if p.name not in ("stdout", "stderr")]
        if leftovers or set(ROOT.rglob("group-*.json")) - caches_before:
            result["correct"] = False
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps(result))


def measure(args, goldens, files, cwd, run_dir):
    # The speed probe measures the CPU it runs on, so the children share it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = child_env()
    ops = build_ops(args.workload, args.seed, files)
    setup_probe(args.workload, ops, cwd, env)  # writes the bytecode caches, untimed
    setup, traced, untraced, defects = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        elapsed = (time.perf_counter() - start) / args.seconds
        # set-up probes spread evenly over the window, so one slow spell of
        # the machine does not take them all
        while not args.trace and len(setup) < min(SETUP_PROBES, 1 + SETUP_PROBES * elapsed):
            setup.append(setup_probe(args.workload, ops, cwd, env))
        if elapsed >= 1 and untraced and (traced or not args.trace):
            break
        trace_dir = None
        if args.trace and len(traced) <= len(untraced):
            trace_dir = run_dir / f"trace-{len(traced)}"
            trace_dir.mkdir()
        p = run_pass(args.workload, ops, cwd, env, trace_dir, probe=not args.trace)
        a, f = check_pass(args.workload, ops, p, goldens, defects)
        attempted += a
        failed += f
        if trace_dir:
            p["layers"] = layer_metrics(p)
            traced.append(p)
        else:
            untraced.append(p)

    passes = len(traced) + len(untraced)
    print(f"workload {args.workload}, seed {args.seed}: {passes} passes, "
          f"{attempted} operations, {failed} failed, {len(defects)} known item-5 defects, "
          f"{len(untraced) * len(ops)} latency samples, {len(setup)} set-up probes; "
          f"python {platform.python_version()}, nproc {os.cpu_count()}, backend pure")
    if args.trace:
        calls = 0 if args.workload == "strata_sweep" else len(ops)
        metrics = per_layer(traced, untraced, len(defects) / passes, calls)
    else:
        # Times are scaled to the host's full speed (see spawn), then medians
        # over the run's passes, or over all its child processes for latency.
        wall, cpu = ([sum(at_full_speed(r, key) for r in p["results"]) for p in untraced]
                     for key in ("wall", "cpu"))
        latencies = [at_full_speed(r, "wall") for p in untraced for r in p["results"]]
        metrics = {
            "wall_s": (statistics.median(wall), "s"),
            "cpu_s": (statistics.median(cpu), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(p["rss_kb"] for p in untraced) / 1024, "MB"),
            "latency_p50_s": (quantile(latencies, 50), "s"),
            "latency_p90_s": (quantile(latencies, 90), "s"),
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def quantile(values, pct):
    """Nearest-rank percentile: a value one of the calls took, never a blend
    of two calls of different kinds."""
    return sorted(values)[math.ceil(pct / 100 * len(values)) - 1]


if __name__ == "__main__":
    main()
