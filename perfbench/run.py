#!/usr/bin/env python3
"""perfbench — the repo benchmark: user paths timed end to end, split by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload replay_4k_capped --seed 0 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

Every repetition is a fresh interpreter (``child.py``) that calls
``repro.runtime.cli.main(argv)`` once, as ``python -m repro`` does, so
interpreter start and imports count as they do for a user.  A run
repeats its workload until ``--seconds`` have passed, and at least
``MIN_REPS`` times, and reports medians over repetitions.

Host time is corrected to a reference host speed: each child samples a
fixed probe every 50 ms (``probe.py``) and every interval is scaled by
the mean speed the probe saw inside it.  Raw times are printed beside
the corrected ones; no repetition is ever discarded.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace
1`` alternates untraced and traced repetitions (``tracer.py`` patches
timing wrappers onto public functions and class attributes), adds one
repetition with the probe off, and prints the per-layer metrics.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Outputs are checked on every repetition: the cell digests, the campaign
digest and the live counters against ``pins.json`` on the default seed
at full size, and on any seed against the run's first repetition, which
also makes traced and probe-off repetitions answer to untraced ones.
README.md records why each workload exists and which end-to-end metric
each layer metric should move.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # a benchmark run must leave the tree clean

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import string  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

from probe import P_REF_S, corrected, speed  # noqa: E402
from tracer import percentile_us  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
#: Fewest repetitions in one run, so that medians (set-up time too) are
#: taken over several launches even when one repetition outlasts
#: ``--seconds``.
MIN_REPS = 3
#: A repetition that takes longer than this is killed and fails the run.
CHILD_TIMEOUT_S = 150.0

#: Problem sizes.  "small" exists for the benchmark's own test; it is
#: never pinned and never used for measurements.
SIZES = {
    "full": {
        "replay": {"n_nodes": 4096, "n_jobs": 30000, "cap_w_per_node": 1150.0},
        "grid": {"n_nodes": 128, "n_jobs": 500, "cap_w_per_node": 1150.0},
        "until_s": 600.0,
    },
    "small": {
        "replay": {"n_nodes": 64, "n_jobs": 400, "cap_w_per_node": 1150.0},
        "grid": {"n_nodes": 16, "n_jobs": 40, "cap_w_per_node": 1150.0},
        "until_s": 5.0,
    },
}

#: name -> kind of child; the order is the order of ``--workload all``.
WORKLOADS = {
    "replay_4k_capped": "replay",
    "campaign_cold": "campaign",
    "live_rack": "live",
}

#: The per-layer metrics that must be non-zero in each workload's traced
#: run, each with the end-to-end metric it should move there (README.md).
#: ``policy.fifo.decide_s`` is absent: the default array core admits
#: FIFO cells inline, without a policy call to time.
LAYERS = {
    "replay_4k_capped": {
        "import.s": "setup_s",
        "import.modules": "setup_s",
        "runtime.load_s": "wall_s",
        "runtime.build_s": "wall_s",
        "workload.generate_s": "ops_per_s",
        "workload.us_per_job": "ops_per_s",
        "campaign.cells_simulated": "ops_per_s",
        "campaign.run_scenario_s": "ops_per_s",
        "campaign.digest_s": "ops_per_s",
        "sim.run_s": "ops_per_s",
        "sim.self_s": "ops_per_s",
        "sim.us_per_job": "ops_per_s",
        "policy.decisions": "ops_per_s",
        "policy.decide_s": "ops_per_s",
        "policy.decide_p50_us": "ops_per_s",
        "policy.decide_p99_us": "ops_per_s",
        "policy.jobs_started": "ops_per_s",
        "policy.noop_frac": "ops_per_s",
        "policy.easy.decide_s": "ops_per_s",
    },
    "campaign_cold": {
        "import.s": "setup_s",
        "import.modules": "setup_s",
        "runtime.load_s": "wall_s",
        "runtime.build_s": "wall_s",
        "workload.generate_s": "ops_per_s",
        "workload.us_per_job": "ops_per_s",
        "campaign.cells_simulated": "ops_per_s",
        "campaign.run_scenario_s": "ops_per_s",
        "campaign.digest_s": "ops_per_s",
        "cache.key_s": "wall_s",
        "cache.key_calls": "wall_s",
        "cache.get_s": "wall_s",
        "cache.get_calls": "wall_s",
        "cache.put_s": "wall_s",
        "cache.put_calls": "wall_s",
        "cache.store_bytes": "wall_s",
        "sim.run_s": "ops_per_s",
        "sim.self_s": "ops_per_s",
        "sim.us_per_job": "ops_per_s",
        "policy.decisions": "ops_per_s",
        "policy.decide_s": "ops_per_s",
        "policy.decide_p50_us": "ops_per_s",
        "policy.decide_p99_us": "ops_per_s",
        "policy.jobs_started": "ops_per_s",
        "policy.noop_frac": "ops_per_s",
        "policy.easy.decide_s": "ops_per_s",
        "policy.power-aware.decide_s": "ops_per_s",
        "policy.fairshare.decide_s": "ops_per_s",
    },
    "live_rack": {
        "import.s": "setup_s",
        "import.modules": "setup_s",
        "runtime.load_s": "wall_s",
        "runtime.build_s": "wall_s",
        "engine.events": "ops_per_s",
        "engine.us_per_event": "ops_per_s",
        "mqtt.publish_s": "ops_per_s",
        "mqtt.published": "ops_per_s",
        "mqtt.delivered": "ops_per_s",
        "telemetry.samples_published": "ops_per_s",
        "capping.actuations": "ops_per_s",
    },
}

#: Live counters checked on every repetition (``ops_report`` sections).
_LIVE_COUNTERS = {
    "events": ("kernel", "events_dispatched"),
    "published": ("broker", "published"),
    "delivered": ("broker", "delivered"),
    "rejected": ("broker", "rejected"),
    "samples_published": ("telemetry", "samples_published"),
    "samples_dropped": ("telemetry", "samples_dropped"),
    "publish_failures": ("telemetry", "publish_failures"),
    "actuations": ("capping", "actuations"),
}


class BenchError(RuntimeError):
    """The program could not be run or measured; no result is printed."""


# ---------------------------------------------------------------------------
# host
# ---------------------------------------------------------------------------

def _cpu_jiffies() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs since boot."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Host:
    """Machine facts and load, sampled at the start and end of a run."""

    def __init__(self) -> None:
        self.steal0, self.total0 = _cpu_jiffies()
        self.load0 = os.getloadavg()

    def steal_frac(self) -> float:
        steal1, total1 = _cpu_jiffies()
        dt = total1 - self.total0
        return (steal1 - self.steal0) / dt if dt else 0.0

    def summary(self, versions: dict, reps: list) -> dict:
        probes = [d for rep in reps for _, d in rep["result"]["samples"]]
        return {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            **versions,
            "loadavg_start": [round(x, 2) for x in self.load0],
            "loadavg_end": [round(x, 2) for x in os.getloadavg()],
            "cpu_steal_frac": round(self.steal_frac(), 4),
            "p_ref_us": P_REF_S * 1e6,
            "probe_mean_us": (statistics.fmean(probes) * 1e6 if probes
                              else None),
            "probe_samples": len(probes),
            "speed_per_rep": [round(rep["speed"], 4) for rep in reps],
        }


# ---------------------------------------------------------------------------
# one repetition
# ---------------------------------------------------------------------------

def _child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
        TMPDIR=str(tmp),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
    )
    return env


def _launch(args: list, cwd: Path, env: dict) -> dict:
    """Run one child to completion: launch/exit times and peak RSS."""
    with open(cwd / "stdout.txt", "wb") as out, \
            open(cwd / "stderr.txt", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(args, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return {"launch": t0, "exit": t1, "rc": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024.0}


class Run:
    """Repetitions of one workload on one seed, with their checks."""

    def __init__(self, workload: str, seed: int, size: str, tmp: Path):
        self.workload = workload
        self.kind = WORKLOADS[workload]
        self.seed = seed
        self.size = SIZES[size]
        self.tmp = tmp
        self.env = _child_env(tmp)
        pins = json.loads((HERE / "pins.json").read_text("utf-8"))
        pinned = seed == DEFAULT_SEED and size == "full"
        # The reference every repetition is checked against: the pin, or
        # else the run's first repetition.
        self.ref = pins.get(self.kind) if pinned else None
        self.attempted = 0
        self.failed = 0
        self.versions: dict = {}
        self.config = self._write_config()
        self._n = 0

    def _write_config(self) -> str:
        if self.kind == "live":
            text = string.Template((HERE / "rack.toml").read_text("utf-8"))
            text = text.substitute(seed=self.seed,
                                   until_s=repr(self.size["until_s"]))
        else:
            size = self.size["replay" if self.kind == "replay" else "grid"]
            name = "replay.toml" if self.kind == "replay" else "grid.toml"
            text = string.Template((HERE / name).read_text("utf-8"))
            text = text.substitute(
                seed=self.seed, n_nodes=size["n_nodes"], n_jobs=size["n_jobs"],
                cap_w=repr(size["cap_w_per_node"] * size["n_nodes"]))
        path = self.tmp / "config.toml"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def _argv(self, rep_dir: Path, store: Path | None) -> list:
        if self.kind == "live":
            return ["run", self.config]
        argv = ["campaign", self.config, "--processes", "1",
                "--out", str(rep_dir / "out.json")]
        if store is not None:
            argv += ["--cache", str(store)]
        return argv

    def repetition(self, traced: bool = False, probe: bool = True) -> dict:
        """One checked repetition, with its timing and work."""
        self._n += 1
        rep_dir = self.tmp / f"rep{self._n}"
        rep_dir.mkdir()
        store = rep_dir / "store" if self.kind == "campaign" else None
        spec = {"argv": self._argv(rep_dir, store), "trace": traced,
                "probe": probe}
        (rep_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        rep = _launch([sys.executable, str(HERE / "child.py"),
                       str(rep_dir / "spec.json"), str(rep_dir / "result.json")],
                      rep_dir, self.env)
        if rep["rc"] != 0:
            tail = (rep_dir / "stderr.txt").read_text("utf-8", "replace")[-2000:]
            raise BenchError(f"{self.workload} repetition exited with "
                             f"{rep['rc']}:\n{tail}")
        result = json.loads((rep_dir / "result.json").read_text("utf-8"))
        if not Path(result["repro_file"]).is_relative_to(SRC):
            raise BenchError(f"imported repro from {result['repro_file']}, "
                             f"not from {SRC}")
        rep["result"] = result
        self.versions = result["versions"]
        out, rep["work"] = self._output(result, rep_dir)
        if self.ref is None:
            self.ref = out
        self._check(out)
        if store is not None:
            rep["store_bytes"] = sum(p.stat().st_size
                                     for p in store.iterdir())
        shutil.rmtree(rep_dir)
        rep["speed"] = speed(result["samples"], rep["launch"], rep["exit"])
        return rep

    # -- checks -----------------------------------------------------------
    def _output(self, result: dict, rep_dir: Path) -> tuple[dict, float]:
        """What the repetition must reproduce, and the work it did."""
        if self.kind == "live":
            report = result["ops_report"]
            out = {name: int(report[section][key])
                   for name, (section, key) in _LIVE_COUNTERS.items()}
            return out, self.size["until_s"]
        artifact = json.loads((rep_dir / "out.json").read_text("utf-8"))
        out = {
            "campaign_digest": artifact["campaign_digest"],
            "cells": {f"{c['label']}|{c['seed_index']}": c["result_digest"]
                      for c in artifact["cells"]},
        }
        return out, sum(c["qos"]["n_jobs"] for c in artifact["cells"])

    def _check(self, out: dict) -> None:
        ref = self.ref
        if self.kind == "live":
            published = ref["published"]
            lost = (out["rejected"] + out["samples_dropped"]
                    + out["publish_failures"]
                    + max(0, out["published"] - out["delivered"]))
            if out != ref:
                lost = published
            self.attempted += published
            self.failed += min(published, lost)
            return
        bad = {cell for cell, digest in ref["cells"].items()
               if out["cells"].get(cell) != digest}
        if out["campaign_digest"] != ref["campaign_digest"]:
            bad = set(ref["cells"])
        self.attempted += len(ref["cells"])
        self.failed += len(bad)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _times(rep: dict) -> dict:
    """Raw and corrected wall, set-up and work durations of a repetition."""
    marks, samples = rep["result"]["marks"], rep["result"]["samples"]
    spans = {
        "wall": (rep["launch"], rep["exit"]),
        "setup": (rep["launch"], marks["main_start"]),
        "main": (marks["main_start"], marks["main_end"]),
    }
    out = {}
    for name, (t0, t1) in spans.items():
        out[name] = t1 - t0
        out[name + "_ref"] = corrected(samples, t0, t1, fallback=rep["speed"])
    return out


def _end_to_end(rep: dict) -> dict:
    """(corrected, raw) end-to-end metrics of one untraced repetition."""
    t = _times(rep)
    return {
        "wall_s": (t["wall_ref"], t["wall"]),
        "setup_s": (t["setup_ref"], t["setup"]),
        "ops_per_s": (rep["work"] / t["main_ref"], rep["work"] / t["main"]),
        "peak_rss_mb": (rep["rss_mb"], rep["rss_mb"]),
    }


def _per_layer(rep: dict) -> dict:
    """Per-layer metrics of one traced repetition (zero where unused).

    Every time value is scaled by the repetition's own speed factor.
    """
    k = rep["speed"]
    marks, trace = rep["result"]["marks"], rep["result"]["trace"]
    secs, calls, size = defaultdict(float), defaultdict(int), defaultdict(int)
    for _sid, _parent, name, t0, t1, n in trace["spans"]:
        secs[name] += (t1 - t0) * k
        calls[name] += 1
        size[name] += n
    report = rep["result"]["ops_report"]
    publish = trace["aggregates"].get("mqtt.publish", {"seconds": 0.0})
    decisions = trace["decisions"]
    decide_s = trace["decide_s"] * k
    family = trace["family_self_s"]

    def per(total: float, n: float, scale: float = 1.0) -> float:
        return total / n * scale if n else 0.0

    def live(section: str, key: str) -> float:
        return report.get(section, {}).get(key, 0)

    return {
        "import.s": (marks["imported"] - marks["import"]) * k,
        "import.modules": marks["modules"],
        "runtime.load_s": secs["runtime.load"],
        "runtime.build_s": secs["runtime.build"],
        "workload.generate_s": secs["workload.generate"],
        "workload.us_per_job": per(secs["workload.generate"],
                                   size["workload.generate"], 1e6),
        "campaign.cells_simulated": calls["campaign.run_scenario"],
        "campaign.run_scenario_s": secs["campaign.run_scenario"],
        "campaign.digest_s": (secs["campaign.result_digest"]
                              + secs["campaign.campaign_digest"]),
        "cache.key_s": secs["cache.key"],
        "cache.key_calls": calls["cache.key"],
        "cache.get_s": secs["cache.get"],
        "cache.get_calls": calls["cache.get"],
        "cache.put_s": secs["cache.put"],
        "cache.put_calls": calls["cache.put"],
        "cache.store_bytes": rep.get("store_bytes", 0),
        "sim.run_s": secs["sim.run"],
        "sim.self_s": secs["sim.run"] - decide_s,
        "sim.us_per_job": per(secs["sim.run"], size["sim.run"], 1e6),
        "policy.decisions": decisions,
        "policy.decide_s": decide_s,
        "policy.decide_p50_us": percentile_us(trace["decide_hist"], 0.50) * k,
        "policy.decide_p99_us": percentile_us(trace["decide_hist"], 0.99) * k,
        "policy.jobs_started": trace["jobs_started"],
        "policy.noop_frac": per(trace["noop_decisions"], decisions),
        "policy.easy.decide_s": family.get("easy", 0.0) * k,
        "policy.power-aware.decide_s": family.get("power-aware", 0.0) * k,
        "policy.fairshare.decide_s": family.get("fairshare", 0.0) * k,
        "policy.fifo.decide_s": family.get("fifo", 0.0) * k,
        "engine.events": trace["events"],
        "engine.us_per_event": per(secs["live.run"], trace["events"], 1e6),
        "mqtt.publish_s": publish["seconds"] * k,
        "mqtt.published": live("broker", "published"),
        "mqtt.delivered": live("broker", "delivered"),
        "telemetry.samples_published": live("telemetry", "samples_published"),
        "telemetry.samples_dropped": live("telemetry", "samples_dropped"),
        "capping.actuations": live("capping", "actuations"),
    }


def _median(values: list) -> float:
    return float(statistics.median(values))


def _repeat(run: Run, seconds: float, traced: bool) -> tuple[list, list]:
    """Repetitions for ``seconds`` (at least ``MIN_REPS`` untraced ones).

    A traced run alternates untraced and traced repetitions, at least
    one of each, and does not start a pair it cannot finish in time.
    """
    plain, traced_reps = [], []
    start = time.monotonic()
    if not traced:
        while len(plain) < MIN_REPS or time.monotonic() - start < seconds:
            plain.append(run.repetition())
        return plain, traced_reps
    while True:
        t0 = time.monotonic()
        plain.append(run.repetition())
        traced_reps.append(run.repetition(traced=True))
        now = time.monotonic()
        if now - start + (now - t0) > seconds:
            return plain, traced_reps


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> dict:
    """One run: repetitions for ``seconds``, then medians and checks."""
    host = Host()
    tmp_root = HERE / ".tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root))
    try:
        run = Run(workload, seed, size, tmp)
        plain, traced = _repeat(run, seconds, trace)
        if trace:
            run.repetition(probe=False)  # its outputs are checked, not timed
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still uses it
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    e2e = [_end_to_end(rep) for rep in plain]
    if trace:
        samples = [_per_layer(rep) for rep in traced]
        wall = _median([s["wall_s"][0] for s in e2e])
        twall = _median([_end_to_end(rep)["wall_s"][0] for rep in traced])
        probes = [d for rep in plain + traced
                  for _, d in rep["result"]["samples"]]
        diag = {
            "host.probe_us": statistics.fmean(probes) * 1e6,
            "host.speed": _median([rep["speed"] for rep in plain + traced]),
            "host.raw_wall_s": _median([s["wall_s"][1] for s in e2e]),
            "host.raw_setup_s": _median([s["setup_s"][1] for s in e2e]),
            "host.steal_frac": host.steal_frac(),
            "trace.overhead_frac": twall / wall - 1.0,
        }
        for s in samples:
            s.update(diag)
        specs = declared["per_layer"]
        samples = [{k: (v, None) for k, v in s.items()} for s in samples]
    else:
        samples = e2e
        specs = declared["end_to_end"]
    metrics = {}
    for spec in specs:
        values = [s[spec["name"]][0] for s in samples]
        raws = [s[spec["name"]][1] for s in samples]
        metrics[spec["name"]] = {
            "value": _median(values), "unit": spec["unit"], "n": len(values),
            "raw": None if None in raws else _median(raws),
            "min": min(values), "max": max(values)}
    return {
        "workload": workload,
        "seed": seed,
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "host": host.summary(run.versions, plain + traced),
    }


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _print_table(res: dict) -> None:
    print(f"{res['workload']}  seed {res['seed']}  "
          f"failed {res['failed']}/{res['attempted']}")
    print(f"  {'metric':<28} {'corrected':>14} {'unit':<8} {'n':>3} "
          f"{'raw':>14}  {'min':>10} {'max':>10}")
    for name, m in res["metrics"].items():
        raw = "-" if m["raw"] is None else f"{m['raw']:.6g}"
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']:<8} {m['n']:>3} "
              f"{raw:>14}  {m['min']:>10.6g} {m['max']:>10.6g}")
    print("  host " + json.dumps(res["host"], sort_keys=True))


def _result_line(results: list, prefix: bool) -> str:
    metrics = {}
    for res in results:
        for name, m in res["metrics"].items():
            key = f"{res['workload']}.{name}" if prefix else name
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    return json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="'small' is for the benchmark's own test")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so the running child is killed
    # and the temporary directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            print(f"perfbench: {name} seed {args.seed} ...", file=sys.stderr)
            results.append(measure(name, args.seed, args.seconds,
                                   bool(args.trace), args.size))
            _print_table(results[-1])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(_result_line(results, prefix=args.workload == "all"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
