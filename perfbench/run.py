#!/usr/bin/env python3
"""The repository benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds perfbench/ (a CMake project
that compiles ../src plus one binary) into $CARGO_TARGET_DIR, default
.bench_build, then runs the workload in perfbench_bin and prints:

  * human-readable lines: the host record, the workload's headline metrics
    under their own names (pipeline_s, games_per_s, serve_req_per_s,
    serve_p50_ms, serve_p99_ms, campaign_cells_per_s, latency_p95_ms,
    failed_ratio);
  * as the last stdout line, one JSON object
    {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json for the
workload.  --trace 1 is the per-layer run: an untraced pass of the workload
plus the kernel probe, then a traced pass of every workload, each read for
the layers it drives; see per_layer() below.  The exit code is 0 only when
every correctness check of every pass held.

BENCHMARK.json gates serve-classify and campaign-grid.  paper-pipeline and
online-games run the same way and feed the core, nn and kernels layers of
the per-layer run, but their compute-bound timings follow the speed of the
shared host's cores, which swings by up to 1.8x from one minute to the
next, so they cannot hold a 25% bound between runs.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["paper-pipeline", "online-games", "serve-classify", "campaign-grid"]
DEADLINE_S = 170.0  # every pass of one invocation ends within this
BUILD_TIMEOUT_S = 880.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"


def build():
    """Configure (once) and build perfbench_bin; returns its path or None."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1)])
    with open(out / "build.log", "ab") as sink:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=sink, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                log(f"build failed: {e}")
                return None
            if rc != 0:
                log(f"build failed ({' '.join(cmd)}); see {out / 'build.log'}")
                return None
    return out / "perfbench_bin"


class Runner:
    """Runs perfbench_bin passes under one deadline, in one work directory."""

    def __init__(self, binary, seed, smoke, corrupt):
        self.binary = binary
        self.seed = seed
        self.smoke = smoke
        self.corrupt = corrupt
        self.deadline = time.monotonic() + DEADLINE_S
        self.work = build_dir().parent / f"work-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def run(self, workload, seconds, trace=False, setup_reps=0, probe=False):
        """One pass; returns (result dict, trace events or None, access log)."""
        workdir = self.work / f"{workload}-{'traced' if trace else 'plain'}"
        (workdir / "tmp").mkdir(parents=True)
        cmd = [str(self.binary), "--workload", workload, "--seed", str(self.seed),
               "--seconds", repr(seconds), "--workdir", str(workdir)]
        trace_file = workdir / "trace.json"
        if trace:
            cmd += ["--trace", str(trace_file)]
        if setup_reps:
            cmd += ["--setup-reps", str(setup_reps)]
        for flag, on in (("--probe", probe), ("--smoke", self.smoke),
                         ("--corrupt", self.corrupt)):
            if on:
                cmd.append(flag)
        env = dict(os.environ, TMPDIR=str(workdir / "tmp"))
        # Its own process group, so a timeout can stop campaign workers too.
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                                start_new_session=True, text=True)
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"{workload}: pass did not finish in time")
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # stray workers, if any
            except ProcessLookupError:
                pass
        lines = stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise RuntimeError(f"{workload}: perfbench_bin exited {proc.returncode}")
        result = json.loads(lines[-1])
        events = None
        if trace and trace_file.exists():
            with open(trace_file) as f:
                events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
        access = []
        log_path = workdir / "log.jsonl"
        if log_path.exists():
            with open(log_path) as f:
                for line in f:
                    if '"serve.access"' in line:
                        access.append(json.loads(line))
        for failure in result["failures"]:
            log(f"CHECK FAILED [{workload}]: {failure}")
        return result, events, access


# ---------------------------------------------------------------------------
# end-to-end metrics
# ---------------------------------------------------------------------------

def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered), max(1, math.ceil(q * len(ordered)))) - 1]


def segments(result):
    """The unit latencies in ms of each measured segment.

    serve-classify reports one segment per daemon instance, with failed
    requests as infinite latencies (they miss any limit); every other
    workload is one segment.
    """
    if "segments" not in result["detail"]:
        return [result["unit_ms"]]
    out, start = [], 0
    for seg in result["detail"]["segments"]:
        out.append(result["unit_ms"][start:start + seg["units"]] + [math.inf] * seg["failed"])
        start += seg["units"]
    return out


def latency_ms(result, q):
    """The median over segments of the q-th latency percentile."""
    values = [nearest_rank(lat, q) for lat in segments(result)]
    # A failed request in the reported tail: report the run length.
    return statistics.median(v if math.isfinite(v) else result["busy_s"] * 1e3 for v in values)


def throughput_per_s(result):
    """Units per second, at the median unit time.

    Every workload runs its units back to back on `concurrency` threads
    (serve-classify: closed-loop clients), so this is the rate a user sees
    at the median latency.  A slow spell of the shared host moves it less
    than the total over the run does.
    """
    per_unit = result["units"] / len(result["unit_ms"])
    return result["detail"]["concurrency"] * per_unit / (latency_ms(result, 0.50) / 1e3)


def end_to_end(result):
    return {
        "setup_s": (statistics.median(result["setup_s"]), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "throughput_per_s": (throughput_per_s(result), "1/s"),
        "latency_p50_ms": (latency_ms(result, 0.50), "ms"),
    }


def headline(workload, result):
    """The workload's headline metrics under their own names."""
    e2e = end_to_end(result)
    out = {}
    if workload == "paper-pipeline":
        out["pipeline_s"] = (statistics.median(result["unit_ms"]) / 1e3, "s")
    elif workload == "online-games":
        out["games_per_s"] = (e2e["throughput_per_s"][0], "1/s")
    elif workload == "serve-classify":
        out["serve_req_per_s"] = (e2e["throughput_per_s"][0], "1/s")
        out["serve_p50_ms"] = e2e["latency_p50_ms"]
        out["serve_p99_ms"] = (latency_ms(result, 0.99), "ms")
    else:
        out["campaign_cells_per_s"] = (e2e["throughput_per_s"][0], "1/s")
    # Tail latency is printed, not gated: on a shared host it moves with
    # the neighbours more than with the program.
    out["latency_p95_ms"] = (latency_ms(result, 0.95), "ms")
    out["failed_ratio"] = (result["failed"] / max(1, result["attempted"]), "ratio")
    return out


def print_metrics(title, metrics):
    for name, (value, unit) in metrics.items():
        print(f"{title:<16} {name:<36} {value:>16.6g} {unit}")


# ---------------------------------------------------------------------------
# per-layer metrics (the traced run)
# ---------------------------------------------------------------------------

def nest(events):
    """Link every span to its enclosing span on the same thread.

    Spans are RAII scopes, so on one thread they nest; a span's parent is
    the innermost open span that has not ended when it starts.  Adds
    "parent" (index or None) and "child_us" (time covered by children).
    """
    by_tid = {}
    for i, e in enumerate(events):
        e["parent"], e["child_us"] = None, 0.0
        by_tid.setdefault(e["tid"], []).append(i)
    for idx in by_tid.values():
        idx.sort(key=lambda i: (events[i]["ts"], -events[i]["dur"]))
        stack = []
        for i in idx:
            e = events[i]
            while stack and events[stack[-1]]["ts"] + events[stack[-1]]["dur"] <= e["ts"]:
                stack.pop()
            if stack:
                e["parent"] = stack[-1]
                events[stack[-1]]["child_us"] += e["dur"]
            stack.append(i)
    return events


def under(events, e, name):
    p = e["parent"]
    while p is not None:
        if events[p]["name"] == name:
            return True
        p = events[p]["parent"]
    return False


def windows(events, name):
    """The [start, end] intervals of the spans called `name`, any thread."""
    return [(e["ts"], e["ts"] + e["dur"]) for e in events if e["name"] == name]


def inside(e, intervals):
    return any(a <= e["ts"] <= b for a, b in intervals)


def span_s(events, pred):
    return sum(e["dur"] for e in events if pred(e)) * 1e-6


def counter_sum(result, prefix, suffix=""):
    return sum(v for k, v in result["metrics"]["counters"].items()
               if k.startswith(prefix) and k.endswith(suffix))


def hist_sum(result, name):
    return result["metrics"]["histograms"].get(name, {}).get("sum", 0)


def is_node(e):
    return e["name"].startswith("nn.ir.node.") or e["name"].startswith("nn.layer.")


def per_layer(named, plain, probe, passes):
    """Per-layer metrics; `passes` maps workload -> (result, events, access)."""
    m = {}
    pp, pp_ev, _ = passes["paper-pipeline"]
    og, og_ev, _ = passes["online-games"]
    sc, sc_ev, sc_access = passes["serve-classify"]
    cg, _, _ = passes["campaign-grid"]

    # core + nn fit, on paper-pipeline
    d = pp["detail"]
    fit_s = span_s(pp_ev, lambda e: e["name"] == "fit")
    validation_s = span_s(pp_ev, lambda e: e["name"] == "evaluate" and under(pp_ev, e, "fit"))
    fwd_s = counter_sum(pp, "nn.layer.", ".forward_ns") * 1e-9
    bwd_s = counter_sum(pp, "nn.layer.", ".backward_ns") * 1e-9
    m["core.offline_collect_s"] = (d["offline_collect_s"], "s")
    m["core.collect_rows_per_s"] = (d["offline_collect_rows"] / d["offline_collect_s"], "rows/s")
    m["core.unattributed_s"] = (pp["busy_s"] - d["offline_collect_s"] - fit_s - d["games_s"], "s")
    m["nn.fit_s"] = (fit_s, "s")
    m["nn.fit_rows_per_s"] = (counter_sum(pp, "nn.fit.samples") / fit_s, "rows/s")
    m["nn.fit.validation_s"] = (validation_s, "s")
    m["nn.fit.fwd_s"] = (fwd_s, "s")
    m["nn.fit.bwd_s"] = (bwd_s, "s")
    m["nn.fit.unattributed_s"] = (fit_s - validation_s - fwd_s - bwd_s, "s")
    m["nn.ir.compile_s"] = (span_s(pp_ev, lambda e: e["name"] == "ir.compile"), "s")

    # core + nn inference, on online-games (the games, not the set-up fit)
    predict_s = span_s(og_ev, lambda e: e["name"] == "predict" and under(og_ev, e, "perfbench.game"))
    node_s = span_s(og_ev, lambda e: e["name"].startswith("nn.ir.node.")
                    and under(og_ev, e, "predict") and under(og_ev, e, "perfbench.game"))
    m["core.online_collect_s"] = (hist_sum(og, "core.phase.online_collect.seconds_ns") * 1e-9, "s")
    m["core.decide_calls"] = (counter_sum(og, "core.games.played"), "count")
    m["nn.predict_s"] = (predict_s, "s")
    m["nn.predict_rows_per_s"] = (counter_sum(og, "nn.predict.rows") / predict_s, "rows/s")
    m["nn.ir.node_s"] = (node_s, "s")
    m["nn.predict.unattributed_s"] = (predict_s - node_s, "s")
    m["nn.forward_us_b1"] = (sc["detail"]["forward_us_b1"], "us")
    m["nn.forward_us_b32"] = (sc["detail"]["forward_us_b32"], "us")

    # kernels, over the three compute workloads
    compute = [(pp, pp_ev), (og, og_ev), (sc, sc_ev)]
    gflop = sum(counter_sum(r, "kernels.gemm.flops.") for r, _ in compute) * 1e-9
    gemms = [e for _, ev in compute for e in ev if e["name"] == "gemm"]
    gemm_s = sum(e["dur"] for e in gemms) * 1e-6
    flops = [2 * e["args"]["m"] * e["args"]["k"] * e["args"]["n"] for e in gemms]
    small = sum(f for f, e in zip(flops, gemms) if e["args"]["m"] < 16)
    peak = probe["gemm_peak_gflops"]
    rates = probe["gimli_mstates_per_s"]
    m["kernels.gemm_gflop"] = (gflop, "GFLOP")
    m["kernels.gemm_gflops"] = (gflop / gemm_s, "GFLOP/s")
    m["kernels.gemm_peak_gflops"] = (peak, "GFLOP/s")
    m["kernels.gemm_roofline_share"] = (gflop / gemm_s / peak, "ratio")
    m["kernels.gemm_small_m_share"] = (small / max(1, sum(flops)), "ratio")
    for impl in ("reference", "blocked", "avx2"):
        m[f"kernels.gimli_mstates_per_s.{impl}"] = (rates.get(impl, 0.0), "Mstates/s")
    m["kernels.gimli_dispatch_share_of_best"] = (
        rates[probe["dispatch"]] / max(rates.values()), "ratio")
    m["kernels.unattributed_s"] = (
        sum((e["dur"] - e["child_us"]) * 1e-6 for _, ev in compute for e in ev if is_node(e)),
        "s")

    # serve
    d = sc["detail"]
    e2e_ns = [a["e2e_ns"] for a in sc_access if a.get("status") == 200]
    batches = max(1, d["batches"])
    load = windows(sc_ev, "perfbench.load")
    forward_per_batch_us = span_s(
        sc_ev, lambda e: e["name"].startswith("nn.ir.node.") and inside(e, load)) * 1e6 / batches
    m["serve.queue_wait_p50_us"] = (d["queue_wait_p50_ns"] / 1e3, "us")
    m["serve.queue_wait_p99_us"] = (d["queue_wait_p99_ns"] / 1e3, "us")
    m["serve.batch_rows_mean"] = (d["batch_rows_mean"], "rows")
    m["serve.daemon_e2e_p99_us"] = (d["e2e_p99_ns"] / 1e3, "us")
    m["serve.http_overhead_us"] = (d["client_p50_us"] - statistics.median(e2e_ns) / 1e3, "us")
    m["serve.unattributed_us"] = (
        (d["e2e_mean_ns"] - d["queue_wait_mean_ns"]) / 1e3 - forward_per_batch_us, "us")

    # campaign
    d = cg["detail"]
    capacity_s = d["workers"] * cg["busy_s"]
    m["campaign.spec_parse_ms"] = (d["spec_parse_ms"], "ms")
    m["campaign.journal_replay_ms"] = (d["journal_replay_ms"], "ms")
    m["campaign.overhead_share"] = (1.0 - d["worker_phase_s"] / capacity_s, "ratio")
    m["campaign.unattributed_s"] = (capacity_s - d["worker_phase_s"], "s")
    m["campaign.reclaims"] = (d["reclaims"], "count")
    m["campaign.retries"] = (d["retries"], "count")

    # obs
    traced = passes[named][0]
    m["obs.trace_overhead_ratio"] = (
        (plain["units"] / plain["busy_s"]) / (traced["units"] / traced["busy_s"]), "ratio")
    m["obs.log_dropped"] = (sum(r["log_dropped"] for r, _, _ in passes.values()), "count")
    return m


# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny budgets (the benchmark's own tests)")
    ap.add_argument("--corrupt", action="store_true",
                    help="perturb one expected output; the run must fail")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 1
    runner = Runner(binary, args.seed, args.smoke, args.corrupt)
    try:
        if args.trace == 0:
            result, _, _ = runner.run(args.workload, args.seconds)
            results = [result]
            metrics = end_to_end(result)
            print_metrics(args.workload, headline(args.workload, result))
            print_metrics(args.workload, metrics)
            host = result["host"]
        else:
            # Quarters keep the five passes well inside the deadline.
            seconds = max(1.0, args.seconds / 4)
            plain, _, _ = runner.run(args.workload, seconds, setup_reps=1, probe=True)
            passes = {w: runner.run(w, seconds, trace=True, setup_reps=1)
                      for w in [args.workload] + [w for w in WORKLOADS if w != args.workload]}
            results = [plain] + [r for r, _, _ in passes.values()]
            for _, events, _ in passes.values():
                nest(events)
            metrics = per_layer(args.workload, plain, plain["probe"], passes)
            print_metrics("per-layer", metrics)
            host = dict(plain["host"], gemm_peak_gflops=plain["probe"]["gemm_peak_gflops"],
                        gimli_dispatch=plain["probe"]["dispatch"])
    except (RuntimeError, KeyError, ValueError, ZeroDivisionError) as e:
        log(f"benchmark failed: {e!r}")
        return 1
    finally:
        runner.close()

    print("host " + json.dumps(host, sort_keys=True))
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
