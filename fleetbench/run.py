#!/usr/bin/env python3
"""Cold-fleet benchmark of the FalVolt reproduction.

Run from the root of a checkout:

    python3 fleetbench/run.py --workload eval_mnist --seed 7 --seconds 38 --trace 0

Each run builds sweep_fleet and fleet_probe from source into .bench_build/
(a no-op when up to date), then runs whole cold `sweep_fleet` jobs of the
workload: fresh store, fresh baseline cache, `--fast true`, workers and
threads at min(4, nproc). Every cold job is followed by a warm re-run that
must compute 0 cells and rewrite identical tables. With --trace 0 the run
reports the end-to-end metrics (medians over its cold jobs, with set-up-only
jobs adding set-up samples); with --trace 1 it runs one untraced and one
traced cold job plus fleet_probe and reports the per-layer metrics. The
last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See fleetbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 7
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
OUT_DIR = ".bench_out"
REFERENCE_DIGESTS = os.path.join(HERE, "reference_digests.json")
# A run must end within 180 s of its build; jobs past this are killed and
# fail.
RUN_DEADLINE_S = 170.0
FLEET_WORKERS = max(1, min(4, len(os.sched_getaffinity(0))))


class Workload:
    def __init__(self, grids, datasets, repeats, headline, setups=2):
        self.grids = grids          # grid name -> expected cell count
        self.datasets = datasets    # --datasets value
        self.repeats = repeats      # --repeats value, None = grid default
        self.headline = headline    # (table, column, tag or None)
        # Set-ups a --trace 0 run times at least, topping up its whole cold
        # jobs with set-up-only ones.
        self.setups = setups

    @property
    def cells(self):
        return sum(self.grids.values())


WORKLOADS = {
    # Unmitigated faulty-systolic inference: no backward pass; MNIST frames
    # repeat per time step, so input hoisting and spike lists act here.
    "eval_mnist": Workload(
        {"fig5a_bit_position": 90, "fig5b_fault_count": 45,
         "fig5c_array_size": 30},
        "mnist", 5, ("fig5b_fault_count", "accuracy", None), setups=3),
    # BPTT retraining dominates; cheap FaP cells beside 4/8-epoch retrain
    # cells exercise the cost-ordered queue and the fleet tail.
    "retrain_mnist": Workload(
        {"fig7_mitigation": 9, "fig8_convergence": 2},
        "mnist", None, ("fig7_mitigation", "best_accuracy", "FalVolt")),
    # Serial baseline trainings dominate; N-MNIST's event input bypasses
    # time-invariant hoisting. DVS is left out: its baseline alone trains
    # for 27-40 s, which a run repeated dozens of times cannot afford.
    "cold_fleet": Workload(
        {"fig5b_fault_count": 108},
        "mnist,nmnist", 6, ("fig5b_fault_count", "accuracy", None)),
}

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("cells_per_s", "cells/s"),
              ("cpu_s", "s"), ("peak_rss_mb", "MiB")]

# Layer groups of the digit classifier, as fleet_probe names them.
SNN_GROUPS = ["SEncConv", "Conv1", "Conv2", "FC1", "FC2", "BN", "PLIF", "other"]

PER_LAYER = (
    [("data.gen_s", "s")]
    + [(f"snn.eval.{g}.fwd_ms", "ms") for g in SNN_GROUPS]
    + [(f"snn.train.{g}.{d}_ms", "ms") for g in SNN_GROUPS
       for d in ("fwd", "bwd")]
    + [("snn.eval.sum_ratio", "ratio"), ("snn.train.sum_ratio", "ratio"),
       ("tensor.im2col_ms", "ms"),
       ("compute.pool.calls", "count"), ("compute.pool.chunks", "count"),
       ("compute.pool.inline_frac", "fraction"),
       ("systolic.steps", "count"), ("systolic.vector_cols", "count"),
       ("systolic.fallback_cols", "count"),
       ("systolic.reference_rows", "count"),
       ("fault.prune_ms", "ms"),
       ("core.baseline_s", "s"), ("core.setup_other_s", "s"),
       ("core.faulty_eval_ms", "ms"), ("core.retrain_epoch_s", "s"),
       ("core.cell_s.p50", "s"), ("core.cell_s.tail", "s"),
       ("core.cell_s.tail_pct", "percentile"), ("core.cell_s.count", "count"),
       ("core.sched.util_min", "fraction"),
       ("core.sched.util_mean", "fraction"), ("core.sched.tail_s", "s"),
       ("core.cost_err", "ratio"), ("core.accuracy_pct", "%"),
       ("store.put_ms", "ms"), ("store.put_bytes", "bytes"),
       ("store.get_us.p50", "us"), ("store.replay_s", "s"),
       ("io.publish_us.p50", "us"), ("obs.trace_overhead", "ratio")])

FIRST_CELL_RE = re.compile(r"^\[sweep 1/\d+\] .* \(([0-9]+(?:\.[0-9]+)?) s\)\s*$")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed build)."""


# ------------------------------------------------------------ statistics

def median(values):
    return statistics.median(values) if values else None


def nearest_rank(sorted_values, pct):
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(values, min_beyond=10, candidates=(99, 95, 90, 75, 50)):
    """Highest candidate percentile with at least `min_beyond` samples above
    it, as (percentile, value); None when not even the median qualifies."""
    ordered = sorted(values)
    for pct in candidates:
        value = nearest_rank(ordered, pct)
        if sum(1 for v in ordered if v > value) >= min_beyond:
            return pct, value
    return None


# ---------------------------------------------------------- output parsing

def first_cell(events):
    """(arrival time, printed cell seconds) of the first '[sweep 1/N] ...
    (x s)' line among timestamped stderr lines [(seconds since start,
    line)], or None when no cell completed."""
    for stamp, line in events:
        m = FIRST_CELL_RE.match(line)
        if m:
            return stamp, float(m.group(1))
    return None


def parse_setup_s(events):
    """Set-up time: the arrival of the first cell line minus the cell
    seconds it prints. None when no cell completed."""
    first = first_cell(events)
    return first[0] - first[1] if first else None


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def check_tables(table_dir, workload):
    """Check every table of the workload: present, one row per cell, every
    accuracy in [0, 100]. Returns (digests, failed_cells, problems)."""
    digests, failed, problems = {}, 0, []
    for grid, cells in workload.grids.items():
        path = os.path.join(table_dir, grid + ".csv")
        if not os.path.isfile(path):
            problems.append(f"{grid}: table missing")
            failed += cells
            continue
        digests[grid + ".csv"] = sha256_file(path)
        with open(path, newline="") as f:
            lines = f.read().splitlines()
        rows = [line.split(",") for line in lines[1:] if line]
        header = lines[0].split(",") if lines else []
        bad = len(rows) != cells
        if bad:
            problems.append(f"{grid}: {len(rows)} rows for {cells} cells")
        for row in rows:
            if len(row) != len(header):
                bad = True
                problems.append(f"{grid}: malformed row {row[0]!r}")
                break
            for value in row[3:]:  # key, tag, dataset, then accuracies
                try:
                    acc = float(value)
                except ValueError:
                    acc = float("nan")
                if not 0.0 <= acc <= 100.0:
                    bad = True
                    problems.append(f"{grid}: {row[0]} has accuracy {value!r}")
                    break
        if bad:
            failed += cells
    return digests, failed, problems


def digest_mismatches(digests, reference):
    """Tables whose digest differs from (or is absent in) the reference."""
    names = set(digests) | set(reference)
    return sorted(n for n in names if digests.get(n) != reference.get(n))


def headline_accuracy(table_dir, workload):
    table, column, tag = workload.headline
    with open(os.path.join(table_dir, table + ".csv"), newline="") as f:
        lines = f.read().splitlines()
    header = lines[0].split(",")
    col, tag_col = header.index(column), header.index("tag")
    values = [float(r[col]) for r in (l.split(",") for l in lines[1:] if l)
              if tag is None or r[tag_col] == tag]
    return statistics.mean(values)


# ------------------------------------------------------------- processes

def run_process(cmd, cwd, env, deadline, stdout_path=None, stop=None):
    """Run `cmd` to completion, timestamping each stderr line as it arrives.
    Returns dict(rc, wall, cpu, rss_kib, events). A process still running
    at `deadline` (time.monotonic()) is killed with its process group, and
    so is one that prints a stderr line for which `stop(line)` is true."""
    start = time.monotonic()
    with open(stdout_path or os.devnull, "w") as out:
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out,
                                stderr=subprocess.PIPE, text=True,
                                errors="replace", start_new_session=True)
    watchdog = threading.Timer(max(0.0, deadline - start), os.killpg,
                               args=(proc.pid, signal.SIGKILL))
    watchdog.start()
    events = []
    try:
        for line in proc.stderr:
            events.append((time.monotonic() - start, line.rstrip("\n")))
            if stop and stop(events[-1][1]):
                os.killpg(proc.pid, signal.SIGKILL)
                stop = None
    except BaseException:  # interrupted: never leave the fleet running
        os.killpg(proc.pid, signal.SIGKILL)
        raise
    finally:
        watchdog.cancel()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
    return {"rc": os.waitstatus_to_exitcode(status),
            "wall": time.monotonic() - start,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_kib": usage.ru_maxrss, "events": events}


def clean_env(extra):
    env = {k: v for k, v in os.environ.items() if not k.startswith("FALVOLT_")}
    env.update(extra)
    return env


def fleet_command(binary, workload, seed, job_dir, extra=()):
    cmd = [binary, "--store", os.path.join(job_dir, "store"),
           "--fast", "true", "--workers", str(FLEET_WORKERS),
           "--threads", str(FLEET_WORKERS),
           "--grids", ",".join(workload.grids),
           "--datasets", workload.datasets, "--seed", str(seed),
           "--json", os.path.join(job_dir, "fleet.json")]
    if workload.repeats:
        cmd += ["--repeats", str(workload.repeats)]
    return cmd + list(extra)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def fleet_job(cmd, job_dir, workload, deadline, warm):
    """One sweep_fleet process over `job_dir`. Cold jobs must compute every
    cell, warm jobs none. Returns a result dict with its cell accounting."""
    env = clean_env({"FALVOLT_CACHE_DIR": os.path.join(job_dir, "cache")})
    tag = "warm" if warm else "cold"
    res = run_process(cmd, job_dir, env, deadline,
                      stdout_path=os.path.join(job_dir, tag + ".stdout"))
    with open(os.path.join(job_dir, tag + ".stderr"), "w") as f:
        f.writelines(f"{t:.6f}\t{line}\n" for t, line in res["events"])
    res["attempted"] = workload.cells
    res["problems"] = []
    fleet = load_json(os.path.join(job_dir, "fleet.json"))
    if res["rc"] != 0 or fleet is None:
        res["failed"] = workload.cells
        res["problems"].append(f"{tag} sweep_fleet exited {res['rc']}")
        res["digests"] = {}
        return res
    run = fleet["run"]
    want_computed = 0 if warm else workload.cells
    failed = 0
    if run["cells_computed"] != want_computed:
        res["problems"].append(f"{tag}: {run['cells_computed']} cells "
                               f"computed, expected {want_computed}")
        failed = workload.cells
    cell_failures = fleet.get("metrics", {}).get("sweep.cells.failed", 0)
    if cell_failures:
        res["problems"].append(f"{tag}: {cell_failures} cells failed")
        failed = max(failed, cell_failures)
    digests, bad_cells, problems = check_tables(
        os.path.join(job_dir, "store", "tables"), workload)
    res["problems"] += [f"{tag}: {p}" for p in problems]
    res["failed"] = min(workload.cells, failed + bad_cells)
    res["digests"] = digests
    res["fleet"] = fleet
    res["setup"] = parse_setup_s(res["events"])
    res["computed"] = run["cells_computed"]
    return res


def setup_job(binary, workload, seed, job_dir, deadline):
    """A cold job killed once its first cell is done: one more set-up
    sample. It attempts one operation, reaching that first cell."""
    shutil.rmtree(job_dir, ignore_errors=True)
    os.makedirs(job_dir)
    env = clean_env({"FALVOLT_CACHE_DIR": os.path.join(job_dir, "cache")})
    res = run_process(fleet_command(binary, workload, seed, job_dir),
                      job_dir, env, deadline, stop=FIRST_CELL_RE.match)
    res["setup"] = parse_setup_s(res["events"])
    res["attempted"], res["digests"], res["problems"] = 1, {}, []
    res["failed"] = int(res["setup"] is None)
    if res["failed"]:
        res["problems"].append(f"set-up job exited {res['rc']} before its "
                               "first cell")
    return res


def cold_and_warm(binary, workload, seed, job_dir, deadline, extra=()):
    """A cold job then its warm re-run over the same store and cache."""
    shutil.rmtree(job_dir, ignore_errors=True)
    os.makedirs(job_dir)
    cold = fleet_job(fleet_command(binary, workload, seed, job_dir, extra),
                     job_dir, workload, deadline, warm=False)
    if cold["rc"] == 0 and cold["setup"] is None:
        cold["problems"].append("cold: no '[sweep 1/N]' line on stderr")
        cold["failed"] = workload.cells
    if cold["failed"]:
        return cold, None  # a warm re-run of a broken store proves nothing
    cold["accuracy"] = headline_accuracy(
        os.path.join(job_dir, "store", "tables"), workload)
    warm = fleet_job(fleet_command(binary, workload, seed, job_dir),
                     job_dir, workload, deadline, warm=True)
    if warm["digests"] and warm["digests"] != cold["digests"]:
        warm["problems"].append("warm: tables differ from the cold run's")
        warm["failed"] = workload.cells
    return cold, warm


# ----------------------------------------------------------------- build

def build(root):
    """Configure and build sweep_fleet + fleet_probe into .bench_build."""
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        raise BenchError(f"{root} holds no FalVolt sources to build")
    build_dir = os.path.join(root, BUILD_DIR)
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", str(FLEET_WORKERS),
              "--target", "sweep_fleet", "fleet_probe"]]
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              errors="replace")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return (os.path.join(build_dir, "bench", "sweep_fleet"),
            os.path.join(build_dir, "fleet_probe"))


# ----------------------------------------------------------------- metrics

def end_to_end(colds, setup_jobs=()):
    ok = [c for c in colds if not c["failed"]]
    walls = [c["wall"] for c in ok]
    setups = [c["setup"] for c in ok + list(setup_jobs) if not c["failed"]]
    rates = [c["computed"] / (c["wall"] - c["setup"]) for c in ok
             if c["wall"] > c["setup"]]
    return {"wall_s": median(walls), "setup_s": median(setups),
            "cells_per_s": median(rates),
            "cpu_s": median([c["cpu"] for c in ok]),
            "peak_rss_mb": median([c["rss_kib"] / 1024.0 for c in ok])}


def cost_error(cells, probe):
    """Estimated retrain:eval cost ratio over the measured one. From the
    run's own cells when it has both kinds, else from the probe's eval and
    retrain-epoch timings against the per-epoch estimate."""
    retrain = [c for c in cells if c["retrain"]]
    evals = [c for c in cells if not c["retrain"]]
    if retrain and evals:
        est = (statistics.mean(c["estimate"] for c in retrain)
               / statistics.mean(c["estimate"] for c in evals))
        measured = (statistics.mean(c["seconds"] for c in retrain)
                    / statistics.mean(c["seconds"] for c in evals))
        return est / measured
    measured = probe["retrain_epoch_s"] / (probe["faulty_eval_ms"] / 1e3)
    return probe["estimate_retrain_epoch"] / measured


def per_layer(untraced_wall, traced, warms, probe, metrics):
    fleet = traced["fleet"]
    per = {"data.gen_s": probe["data_gen_s"]}
    ev, tr = probe["eval"], probe["train"]
    for g in SNN_GROUPS:
        per[f"snn.eval.{g}.fwd_ms"] = ev["fwd_ms"][g]
        per[f"snn.train.{g}.fwd_ms"] = tr["fwd_ms"][g]
        per[f"snn.train.{g}.bwd_ms"] = tr["bwd_ms"][g]
    per["snn.eval.sum_ratio"] = sum(ev["fwd_ms"].values()) / ev["network_ms"]
    per["snn.train.sum_ratio"] = (
        (sum(tr["fwd_ms"].values()) + sum(tr["bwd_ms"].values()))
        / (tr["network_fwd_ms"] + tr["network_bwd_ms"]))
    per["tensor.im2col_ms"] = probe["im2col_ms"]
    calls = metrics.get("pool.parallel_for.calls", 0)
    per["compute.pool.calls"] = calls
    per["compute.pool.chunks"] = metrics.get("pool.chunks", 0)
    per["compute.pool.inline_frac"] = (
        metrics.get("pool.parallel_for.inline", 0) / calls if calls else 0.0)
    for name in ("steps", "vector_cols", "fallback_cols", "reference_rows"):
        per[f"systolic.{name}"] = metrics.get(f"kernel.faulty_gemm.{name}", 0)
    per["fault.prune_ms"] = probe["prune_ms"]
    per["core.baseline_s"] = metrics["sweep.baseline.ns"] / 1e9
    per["core.setup_other_s"] = traced["setup"] - per["core.baseline_s"]
    per["core.faulty_eval_ms"] = probe["faulty_eval_ms"]
    per["core.retrain_epoch_s"] = probe["retrain_epoch_s"]
    seconds = [c["seconds"] for c in probe["cells"]]
    per["core.cell_s.p50"] = median(seconds)
    tail = tail_percentile(seconds)
    if tail:
        per["core.cell_s.tail_pct"], per["core.cell_s.tail"] = tail
    per["core.cell_s.count"] = len(seconds)
    workers = fleet["workers"]
    per["core.sched.util_min"] = min(w["utilization"] for w in workers)
    per["core.sched.util_mean"] = statistics.mean(
        w["utilization"] for w in workers)
    per["core.sched.tail_s"] = (fleet["run"]["total_seconds"]
                                - min(w["busy_seconds"] for w in workers))
    per["core.cost_err"] = cost_error(probe["cells"], probe)
    per["core.accuracy_pct"] = traced["accuracy"]
    put_count = metrics.get("sweep.store.put.count", 0)
    per["store.put_ms"] = (metrics.get("sweep.store.put.ns", 0) / put_count
                           / 1e6 if put_count else 0.0)
    per["store.put_bytes"] = metrics.get("store.local.put_bytes", 0)
    per["store.get_us.p50"] = median(probe["store_get_us"])
    per["store.replay_s"] = median([w["wall"] for w in warms])
    per["io.publish_us.p50"] = median(probe["publish_us"])
    per["obs.trace_overhead"] = traced["wall"] / untraced_wall
    return per


# ------------------------------------------------------------------ checks

def reference_check(name, digests):
    reference = load_json(REFERENCE_DIGESTS) or {}
    return digest_mismatches(digests, reference.get(name, {}))


def write_reference(name, digests):
    reference = load_json(REFERENCE_DIGESTS) or {}
    reference[name] = digests
    with open(REFERENCE_DIGESTS, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


# -------------------------------------------------------------------- main

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=38.0,
                   help="measure for this many seconds: start a whole "
                        "cold job only while it is expected to end within "
                        "them (at least one)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-digests", action="store_true",
                   help="record this run's tables as the reference digests "
                        "(default seed only)")
    return p.parse_args(argv)


def measure(sweep_fleet, workload, seed, seconds, work, deadline,
            min_setups=0):
    """Whole cold jobs (each with its warm re-run), each started only while
    it is expected to end within `seconds`; always at least one. Then
    set-up-only jobs while they fit in what is left of `seconds`, and
    beyond it until `min_setups` set-ups have been timed. Returns
    (colds, warms, setups)."""
    colds, warms, setups = [], [], []
    start = time.monotonic()
    end = min(start + seconds, deadline)
    while True:
        cold, warm = cold_and_warm(sweep_fleet, workload, seed,
                                   os.path.join(work, f"job{len(colds)}"),
                                   deadline)
        colds.append(cold)
        warms += [warm] if warm else []
        per_job = (time.monotonic() - start) / len(colds)
        if cold["failed"] or time.monotonic() + per_job > end:
            break
    if cold["failed"]:
        return colds, warms, setups
    # A set-up-only job lasts until its first cell line arrives.
    per_setup = 1.2 * max(first_cell(c["events"])[0] for c in colds)
    while True:
        fits = time.monotonic() + per_setup
        if not (fits <= end or (len(colds) + len(setups) < min_setups
                                and fits < deadline)):
            break
        job = setup_job(sweep_fleet, workload, seed,
                        os.path.join(work, f"setup{len(setups)}"), deadline)
        setups.append(job)
        if job["failed"]:
            break
    return colds, warms, setups


def traced_run(sweep_fleet, probe_bin, workload, seed, work, report_stem,
               deadline, other_stores=()):
    """One traced cold job (with its warm re-run), then fleet_probe on its
    cache, its store and `other_stores`. Returns (traced, warm, probe,
    metrics, problems)."""
    job_dir = os.path.join(work, "traced")
    metrics_path = os.path.join(job_dir, "metrics.json")
    traced, warm = cold_and_warm(
        sweep_fleet, workload, seed, job_dir, deadline,
        extra=["--trace", report_stem + ".sweep_trace.json",
               "--metrics-json", metrics_path])
    if traced["failed"]:
        return traced, warm, None, None, []
    scratch = os.path.join(job_dir, "publish")
    os.makedirs(scratch)
    probe_run = run_process(
        [probe_bin, "--cache", os.path.join(job_dir, "cache"),
         "--store", ",".join([os.path.join(job_dir, "store"),
                              *other_stores]),
         "--datasets", workload.datasets, "--seed", str(seed),
         "--scratch", scratch, "--out", report_stem + ".probe.json",
         "--trace", report_stem + ".probe_trace.json"],
        job_dir, clean_env({}), deadline)
    probe = load_json(report_stem + ".probe.json")
    metrics = (load_json(metrics_path) or {}).get("metrics")
    if probe_run["rc"] != 0 or probe is None or metrics is None:
        tail = " | ".join(line for _, line in probe_run["events"][-3:])
        return traced, warm, None, None, [
            f"fleet_probe exited {probe_run['rc']}: {tail}"]
    problems = []
    if not probe["eval"]["identical"]:
        problems.append("probe: per-layer eval output differs from "
                        "Network::rate_forward")
    if traced["setup"] + 0.05 < metrics["sweep.baseline.ns"] / 1e9:
        problems.append("traced setup_s is shorter than the baseline "
                        "training it contains")
    return traced, warm, probe, metrics, problems


def identity_failures(jobs, workload, name, seed, write_digests):
    """Tables byte-identical across the run's jobs, and equal to the
    reference at the default seed (or recorded as it, with
    `write_digests`). Returns (digests, failed cells, problems)."""
    digest_sets = [j["digests"] for j in jobs if j["digests"]]
    if not digest_sets:
        return {}, 0, []
    digests = digest_sets[0]
    if any(d != digests for d in digest_sets):
        return digests, workload.cells, ["tables differ between jobs of "
                                         "this run"]
    if seed != DEFAULT_SEED:
        return digests, 0, []
    if write_digests:
        write_reference(name, digests)
        return digests, 0, []
    bad = reference_check(name, digests)
    if not bad:
        return digests, 0, []
    failed = sum(workload.grids.get(t[:-len(".csv")], 0) for t in bad)
    return digests, failed, ["tables differ from the reference digests: "
                             + ", ".join(bad)]


def main(argv=None):
    args = parse_args(argv)
    # A terminated run unwinds through the finally blocks that stop its
    # children and delete its scratch stores.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    name, workload = args.workload, WORKLOADS[args.workload]
    try:
        sweep_fleet, probe_bin = build(root)
    except (BenchError, OSError) as e:
        print(f"fleetbench: {e}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    out_dir = os.path.join(root, OUT_DIR)
    work = os.path.join(root, WORK_DIR, f"{name}-seed{args.seed}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    report_stem = os.path.join(out_dir,
                               f"{name}-seed{args.seed}-trace{args.trace}")

    probe = metrics = None
    probe_problems = []
    try:
        # A traced run starts with one untraced cold job, the denominator
        # of obs.trace_overhead.
        colds, warms, setups = measure(
            sweep_fleet, workload, args.seed,
            0 if args.trace else args.seconds, work, deadline,
            0 if args.trace else workload.setups)
        jobs = colds + warms + setups
        if args.trace and not any(c["failed"] for c in colds):
            traced, warm, probe, metrics, probe_problems = traced_run(
                sweep_fleet, probe_bin, workload, args.seed, work,
                report_stem, deadline,
                [os.path.join(work, f"job{i}", "store")
                 for i in range(len(colds))])
            jobs += [traced] + ([warm] if warm else [])
            warms += [warm] if warm else []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [p for j in jobs for p in j["problems"]]
    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    digests = {}
    if not failed:  # only whole, well-formed tables are compared or recorded
        digests, identity_failed, identity_problems = identity_failures(
            jobs, workload, name, args.seed, args.write_digests)
        failed += identity_failed
        problems += identity_problems
    if args.trace:  # the probe and its cross-checks are one operation
        attempted += 1
        if probe is None or probe_problems:
            failed += 1
            problems += probe_problems or ["fleet_probe did not run"]

    if args.trace:
        untraced_wall = median([c["wall"] for c in colds])
        values = (per_layer(untraced_wall, traced, warms, probe, metrics)
                  if probe is not None else {})
        spec = PER_LAYER
    else:
        values = end_to_end(colds, setups)
        spec = END_TO_END
    result = {k: {"value": values[k], "unit": u} for k, u in spec
              if values.get(k) is not None}

    for p in problems:
        print(f"fleetbench: FAILED {p}", file=sys.stderr)
    ok = [j for j in jobs if not j["failed"] and "accuracy" in j]
    print(f"workload {name} seed {args.seed}: {len(ok)} cold job(s), "
          f"{workload.cells} cells each, {FLEET_WORKERS} workers x "
          f"{FLEET_WORKERS} threads; error_rate {failed}/{attempted}")
    if ok:
        print(f"  accuracy_pct {ok[0]['accuracy']:.4f} %")
    counts = {"setup_s": len(ok) + sum(not j["failed"] for j in setups)}
    for k, u in spec:
        if k in result:
            print(f"  {k:28s} {result[k]['value']:.6g} {u}"
                  + ("" if args.trace else
                     f"  (median of {counts.get(k, len(ok))})"))
    report = {"workload": name, "seed": args.seed, "trace": args.trace,
              "digests": digests, "problems": problems,
              "jobs": [{k: j.get(k) for k in ("rc", "wall", "setup", "cpu",
                                               "rss_kib", "attempted",
                                               "failed", "computed")}
                       for j in jobs],
              "metrics": result}
    with open(report_stem + ".json", "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
