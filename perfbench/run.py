#!/usr/bin/env python3
"""The repo benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark binary (perfbench/CMakeLists.txt, a no-op once built),
runs the workload, checks its outputs (the binary exits 3 on a mismatch),
prints every metric by name with its unit and, as the last line, one JSON
object with the keys correct, attempted, failed and metrics. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer split. README.md in
this directory describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170

WORKLOADS = ("csv-keyed", "ship-single", "ship-sharded", "online-durable")

# (name, unit, better, bound): mirrored in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("result_s", "s", "lower", 0.25),
    ("throughput_rps", "records/s", "higher", 0.25),
    ("match_f1", "ratio", "higher", 0.25),
    ("wire_bytes_per_record", "B", "lower", 0.1),
    ("peak_rss_mb", "MiB", "lower", 0.25),
    ("ok_ratio", "ratio", "higher", 0.05),
)

# (name, unit): mirrored in BENCHMARK.json. 0 means the layer is not on
# this workload's path (README.md has the metric -> layer -> workload map).
PER_LAYER = (
    ("io.csv_parse_s", "s"),
    ("io.pclk_load_s", "s"),
    ("io.checkpoint_read_s", "s"),
    ("io.wal_read_s", "s"),
    ("io.wal_tail_records", "count"),
    ("io.wal_bytes_per_record", "B"),
    ("encoding.encode_s", "s"),
    ("encoding.records_per_s", "records/s"),
    ("blocking.index_s", "s"),
    ("blocking.candidates_s", "s"),
    ("blocking.candidate_pairs", "count"),
    ("blocking.pairs_completeness", "ratio"),
    ("blocking.partition_candidates_s", "s"),
    ("blocking.partition_skew", "ratio"),
    ("blocking.probe_candidates_mean", "count"),
    ("linkage.compare_s", "s"),
    ("linkage.pairs_per_s", "pairs/s"),
    ("linkage.pruned_ratio", "ratio"),
    ("linkage.accept_ratio", "ratio"),
    ("linkage.cluster_s", "s"),
    ("linkage.merge_s", "s"),
    ("linkage.query_us_p50", "us"),
    ("linkage.query_us_p99", "us"),
    ("linkage.append_us_p50", "us"),
    ("linkage.append_us_p99", "us"),
    ("linkage.snapshot_restore_s", "s"),
    ("linkage.wal_apply_s", "s"),
    ("pipeline.link_s", "s"),
    ("pipeline.partition_link_s_max", "s"),
    ("service.shipment_codec_s", "s"),
    ("service.results_codec_s", "s"),
    ("service.scatter_bytes", "B"),
    ("service.worker_retries", "count"),
    ("service.recover_s", "s"),
    ("service.durable_append_us_p50", "us"),
    ("service.durable_append_us_p99", "us"),
    ("service.query_codec_us", "us"),
    ("service.unattributed_s", "s"),
    ("net.null_roundtrip_us_p50", "us"),
    ("net.query_overhead_us_p50", "us"),
    ("net.wire_bytes", "B"),
    ("net.client_retries", "count"),
    ("obs.stage_block_s", "s"),
    ("obs.stage_compare_s", "s"),
    ("obs.stage_cluster_s", "s"),
    ("obs.query_s_mean", "s"),
    ("obs.insert_s_mean", "s"),
    ("obs.wal_syncs", "count"),
    ("bench.generator_late_ms_p99", "ms"),
    ("bench.trace_overhead_pct", "%"),
)

# What the generic end-to-end names mean on each workload.
ALIASES = {
    "csv-keyed": {
        "result_s": "csv_to_clusters_s",
        "write": "every owner's CSV encoded -> last owner's results",
        "read": "job start -> median owner's CSV encoded (EncodeCsvToShard)",
        "throughput_rps": "input records / csv_to_clusters_s",
    },
    "ship-single": {
        "result_s": "ship_to_results_s",
        "write": "every owner's shard loaded -> last owner's results",
        "read": "job start -> median owner's shard loaded (ReadShardAuto)",
        "throughput_rps": "input records / ship_to_results_s",
    },
    "ship-sharded": {
        "result_s": "ship_to_results_s",
        "write": "every owner's shard loaded -> last owner's results",
        "read": "job start -> median owner's shard loaded (ReadShardAuto)",
        "throughput_rps": "input records / ship_to_results_s",
    },
    "online-durable": {
        "result_s": "crash_to_ready_s",
        "write": "append_ack (open loop, from due time)",
        "read": "query (open loop, single record, from due time)",
        "throughput_rps": "query_qps (closed loop, 64 records per round trip)",
    },
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build():
    """Configures (once) and builds the benchmark binary; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "pprl_perfbench", "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=880)
        except (OSError, subprocess.TimeoutExpired) as err:
            log("perfbench: build step failed: %s" % err)
            return None
        if done.returncode != 0:
            log("perfbench: build step failed: %s" % " ".join(step))
            return None
    binary = out / "pprl_perfbench"
    return binary if binary.exists() else None


def provenance(raw):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    build_type = "unknown"
    cache = build_dir() / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1]
    host = raw.get("host", {})
    return {
        "cores": int(host.get("cores", os.cpu_count() or 0)),
        "cpu_model": cpu,
        "l1d_bytes": int(host.get("l1d_bytes", 0)),
        "l2_bytes": int(host.get("l2_bytes", 0)),
        "llc_bytes": int(host.get("llc_bytes", 0)),
        "git_sha": sha,
        "source_sha256": digest.hexdigest()[:16],
        "build_type": build_type,
        "workload": raw["workload"],
        "seed": raw["seed"],
        "inputs": raw.get("inputs", {}),
    }


def end_to_end(raw):
    """Every end-to-end metric as name -> (value, unit, note), plus the
    printed-only latency lines. Request latencies on loopback are dominated
    by thread wake-ups, whose run-to-run spread on a shared virtual machine
    is wider than any bound a regression gate may use, so their median and
    tail are reported, with sample counts, but not gated."""
    workload = raw["workload"]
    alias = ALIASES[workload]
    out = {}
    latencies = []
    out["setup_s"] = (stats.median(raw["setup_s"]), "s",
                      "median of %d set-ups" % len(raw["setup_s"]))
    out["result_s"] = (stats.median(raw["result_s"]), "s", "%s, median of %d" % (
        alias["result_s"], len(raw["result_s"])))
    for kind in ("write", "read"):
        summary = stats.summarize(stats.latencies_ms(raw[kind + "s"]))
        latencies.append("%-34s %16.6g %-10s %s: p50 of n=%d, not gated" % (
            kind + "_p50_ms", summary["p50"], "ms", alias[kind], summary["n"]))
        latencies.append("%-34s %16.6g %-10s %s: %s of n=%d, not gated" % (
            kind + "_tail_ms", summary["tail"], "ms", alias[kind],
            stats.percentile_label(summary["tail_p"]), summary["n"]))
    out["throughput_rps"] = (stats.median(raw["throughput_rps"]), "records/s",
                             alias["throughput_rps"])
    scalars = raw["scalars"]
    out["match_f1"] = (scalars["match_f1"], "ratio", "accepted cross-database pairs vs "
                       "datagen entity ids")
    out["wire_bytes_per_record"] = (scalars["wire_bytes_per_record"], "B",
                                    "socket bytes, both directions, per input record")
    out["peak_rss_mb"] = (scalars["peak_rss_kb"] / 1024.0, "MiB", "whole process")
    attempted = max(1, raw["attempted"])
    out["ok_ratio"] = (1.0 - raw["failed"] / attempted, "ratio",
                       "failed_ratio = %g (%d of %d)" % (raw["failed"] / attempted,
                                                         raw["failed"], raw["attempted"]))
    return out, latencies


def per_layer(raw):
    """Every per-layer metric as name -> (value, unit, note)."""
    layers = dict(raw.get("layers", {}))
    dists = raw.get("dists", {})
    notes = {}

    def dist_metric(name, source, pct):
        values = dists.get(source)
        if not values:
            return
        if pct == 50:
            layers[name] = stats.median(values)
            notes[name] = "p50 of n=%d" % len(values)
        else:
            summary = stats.summarize(values)
            layers[name] = summary["tail"]
            notes[name] = "%s of n=%d" % (stats.percentile_label(summary["tail_p"]),
                                          summary["n"])

    for prefix, source in (("linkage.query_us", "linkage.query_us"),
                           ("linkage.append_us", "linkage.append_us"),
                           ("service.durable_append_us", "service.durable_append_us")):
        dist_metric(prefix + "_p50", source, 50)
        dist_metric(prefix + "_p99", source, 99)
    dist_metric("net.null_roundtrip_us_p50", "net.null_roundtrip_us", 50)
    if dists.get("service.query_codec_us"):
        codec = dists["service.query_codec_us"]
        layers["service.query_codec_us"] = sum(codec) / len(codec)
        notes["service.query_codec_us"] = "mean of n=%d" % len(codec)
    if dists.get("net.query_rtt_us") and dists.get("linkage.query_us"):
        layers["net.query_overhead_us_p50"] = (stats.median(dists["net.query_rtt_us"]) -
                                               stats.median(dists["linkage.query_us"]))
    # A batch job is due at its start; its read records when the median
    # owner thread started.
    requests = list(raw["reads"])
    if raw["workload"] == "online-durable":
        requests += raw["writes"]
    if requests:
        summary = stats.summarize(stats.lateness_ms(requests))
        layers["bench.generator_late_ms_p99"] = summary["tail"]
        notes["bench.generator_late_ms_p99"] = "%s of n=%d" % (
            stats.percentile_label(summary["tail_p"]), summary["n"])
    result = stats.median(raw["result_s"]) if raw["result_s"] else 0
    if "service.unattributed_s" in layers and result > 0:
        notes["service.unattributed_s"] = "%.1f%% of the daemon's %s" % (
            100.0 * layers["service.unattributed_s"] / result,
            ALIASES[raw["workload"]]["result_s"])
    out = {}
    for name, unit in PER_LAYER:
        if name in layers:
            out[name] = (layers[name], unit, notes.get(name, ""))
        else:
            out[name] = (0.0, unit, "not on this workload's path")
    return out


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    binary = build()
    if binary is None:
        return 1

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    tag = "%s-%d" % (args.workload, os.getpid())
    raw_path = work_root / (tag + ".json")
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work", str(work_root / tag), "--out", str(raw_path)]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
        code = done.returncode
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        code = None
    shutil.rmtree(work_root / tag, ignore_errors=True)
    raw = json.loads(raw_path.read_text()) if code == 0 and raw_path.exists() else None
    if raw_path.exists():
        raw_path.unlink()
    try:
        work_root.rmdir()  # only when no other run is using it
    except OSError:
        pass
    if code == 3:
        log("perfbench: the program's output did not match the reference")
        print(stats.result_line(False, 1, 1, {}))
        return 3
    if raw is None:
        log("perfbench: benchmark binary failed (exit %s)" % code)
        return 1

    print("perfbench workload=%s seed=%d seconds=%g trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("provenance " + json.dumps(provenance(raw), sort_keys=True))
    extra = []
    if args.trace:
        metrics = per_layer(raw)
        start = raw["dists"].get("daemon.start_s")
        if start:
            print("%-34s %16.6g %-10s traced Start() alone, p50 of n=%d" % (
                "daemon.start_s", stats.median(start), "s", len(start)))
    else:
        metrics, extra = end_to_end(raw)
    for name, (value, unit, note) in metrics.items():
        print("%-34s %16.6g %-10s %s" % (name, value, unit, note))
    for line in extra:
        print(line)
    print(stats.result_line(True, int(raw["attempted"]), int(raw["failed"]),
                            {name: (value, unit) for name, (value, unit, _) in metrics.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
