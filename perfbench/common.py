"""Workload definitions and helpers shared by the timed and traced runs."""

from __future__ import annotations

import os
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import loadgen

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"


@dataclass(frozen=True)
class Workload:
    """One traffic shape against one storage tier."""

    backend: str
    mix: loadgen.Mix


WORKLOADS = {
    "serve-hot": Workload(backend="ram", mix=loadgen.HOT),
    "serve-cold": Workload(backend="mmap", mix=loadgen.COLD),
}

#: Open-loop offered rates (req/s), fixed so runs compare like for like:
#: about 1/5 and 2/5 of the closed-loop capacity this generator measures
#: on a 2-CPU host (~2,100 req/s).  The host has slow stretches of
#: minutes in which capacity falls to ~1,100; a higher ``hi`` then
#: overloads the server and its p50 jumps tenfold.
RATES = {"lo": 400.0, "hi": 800.0}

#: Share of ``--seconds`` given to the capacity, lo and hi phases.
PHASE_SHARE = {"capacity": 0.3, "lo": 0.35, "hi": 0.35}

#: The measured phases run as this many interleaved cycles (capacity,
#: lo, hi, then one cold and one warm batch run, and every other cycle
#: one more server start), so every metric samples the whole run rather
#: than one stretch of it: the host slows by up to half for seconds to
#: minutes at a time.
CYCLES = 6

#: Capacity and p50 are medians over windows of this many seconds of
#: their phases (completed req/s, and each window's own p50), so a slow
#: stretch that covers fewer than half the windows barely moves them.
WINDOW_S = 0.25

#: Closed-loop requests sent before measuring, so lazy set-up finishes.
WARMUP_REQUESTS = 3000

#: Length of the main stream: warm-up plus more capacity-phase paths
#: than the loop can send, and the in-process replay of the traced run.
STREAM_REQUESTS = 20_000


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ranked = sorted(samples)
    return ranked[max(0, min(len(ranked) - 1, int(round(q * len(ranked))) - 1))]


def child_env(work: Path) -> dict:
    """Environment for `repro` children: this checkout's source, and every
    default cache or journal location inside the work directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONUNBUFFERED="1",
        HOME=str(work / "home"),
        REPRO_CACHE_DIR=str(work / "cache"),
        REPRO_JOURNAL_DIR=str(work / "journal"),
    )
    return env


def fresh_work_dir(name: str) -> Path:
    """An empty per-workload directory under ``.work``."""
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    (work / "home").mkdir(parents=True)
    return work


def use_checkout_source() -> None:
    """Import `repro` from this checkout's ``src``, nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise RuntimeError(f"imported repro from {repro.__file__}, not {SRC}")


def plan_load(summary: dict, workload: Workload, seed: int, seconds: float) -> dict:
    """Every phase's paths (and open-loop schedules) for one run.

    ``lo`` and ``hi`` hold one ``(paths, schedule)`` slice per cycle.
    """
    stream = loadgen.build_stream(summary, workload.mix, seed, STREAM_REQUESTS, "main")
    plan = {
        "stream": stream,
        "warmup": stream[:WARMUP_REQUESTS],
        "capacity": stream[WARMUP_REQUESTS:],
        "capacity_s": seconds * PHASE_SHARE["capacity"] / CYCLES,
    }
    parts = [("warmup", plan["warmup"], None), ("capacity", plan["capacity"], None)]
    for name, rate in RATES.items():
        count = int(rate * seconds * PHASE_SHARE[name] / CYCLES)
        paths = loadgen.build_stream(summary, workload.mix, seed, count * CYCLES, name)
        plan[name] = []
        for cycle in range(CYCLES):
            label = f"{name}:{cycle}"
            piece = (paths[cycle * count : (cycle + 1) * count], loadgen.build_schedule(seed, rate, count, label))
            plan[name].append(piece)
            parts.append((label, *piece))
    plan["sha256"] = loadgen.plan_digest(parts)
    return plan
