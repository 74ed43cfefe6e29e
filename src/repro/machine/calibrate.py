"""Measured machine description: ping-pong alpha/beta + compute rate.

The analytic :class:`~repro.machine.costmodel.CostModel` presets
(``HYPERCUBE`` et al.) carry era-bracketing coefficients in arbitrary
units; the benchmarks that *model* communication have so far cited the
hardcoded ``alpha=50.0`` preset.  ``repro calibrate`` replaces that with
numbers measured on the host:

* **alpha, beta** — a rank-0 <-> rank-1 ping-pong sweep over message
  sizes, least-squares fitted to ``one_way(n) = alpha + beta * n``.
  Under a real MPI world the sweep runs ``mpiexec -n 2 python -m
  repro.mpi.rank --pingpong`` (the wire the mpi backend actually uses);
  without one it falls back to a :mod:`multiprocessing` pipe between two
  OS processes — the same host-local transport class the mp backend and
  the MPI stub exercise, recorded as such in ``method``.
* **t_element** — a whole-array three-point stencil microbenchmark, the
  per-element compute rate of the fused kernels' NumPy substrate.

The result is a :class:`MachineDescription`, serialized as JSON.  Set
``REPRO_MACHINE_FILE=/path/to/machine.json`` (or pass a path) and
:func:`load_machine` /
:func:`~repro.machine.costmodel.calibrated_cost_model` pick it up; the
cost model expresses alpha/beta in ``t_update`` units so modeled ratios
stay comparable with the presets.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .channels import LatencyModel

__all__ = [
    "CalibrationError",
    "MachineDescription",
    "calibrate",
    "fit_alpha_beta",
    "load_machine",
    "measure_t_element",
    "pingpong_points",
]

#: default ping-pong message sizes (doubles) — spans the latency-bound
#: and bandwidth-bound regimes so the least-squares fit is conditioned
DEFAULT_SIZES = (1, 8, 64, 512, 4096, 32768)
DEFAULT_REPS = 50
ENV_MACHINE_FILE = "REPRO_MACHINE_FILE"


class CalibrationError(RuntimeError):
    """A measurement could not be taken (dead child, bad JSON, ...)."""


@dataclass(frozen=True)
class MachineDescription:
    """Measured per-host communication and compute coefficients.

    All times are seconds; ``beta_s`` and ``t_element_s`` are per
    float64 element.
    """

    alpha_s: float            # per-message one-way latency
    beta_s: float             # per-element transfer time
    t_element_s: float        # per-element stencil update time
    method: str               # "mpi-pingpong" | "pipe-pingpong"
    points: Tuple[Tuple[int, float], ...] = ()   # (size, one_way_s)
    meta: Dict[str, object] = field(default_factory=dict)

    def latency_model(self) -> LatencyModel:
        """The measured coefficients as a simulator latency model
        (virtual time unit = one second)."""
        return LatencyModel(alpha=self.alpha_s, beta=self.beta_s,
                            t_element=self.t_element_s)

    def cost_model(self, name: str = "calibrated"):
        """A :class:`~repro.machine.costmodel.CostModel` normalized so
        one element update costs 1.0 — alpha/beta become *measured*
        multiples of the compute rate instead of the preset guesses."""
        from .costmodel import CostModel

        t = self.t_element_s if self.t_element_s > 0 else 1.0
        return CostModel(name,
                         t_update=1.0,
                         t_iteration=0.0,
                         t_test=0.0,
                         alpha=self.alpha_s / t,
                         beta=self.beta_s / t,
                         t_barrier=2.0 * self.alpha_s / t)

    def describe(self) -> str:
        return (f"machine[{self.method}]: alpha={self.alpha_s * 1e6:.2f}us "
                f"beta={self.beta_s * 1e9:.2f}ns/elem "
                f"t_element={self.t_element_s * 1e9:.2f}ns/elem "
                f"(alpha/t_element={self.alpha_s / self.t_element_s:.0f} "
                "elements break even per message)"
                if self.t_element_s > 0 else
                f"machine[{self.method}]: alpha={self.alpha_s * 1e6:.2f}us "
                f"beta={self.beta_s * 1e9:.2f}ns/elem")

    def as_dict(self) -> Dict[str, object]:
        d = asdict(self)
        d["points"] = [[int(n), float(s)] for n, s in self.points]
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "MachineDescription":
        return cls(
            alpha_s=float(d["alpha_s"]),
            beta_s=float(d["beta_s"]),
            t_element_s=float(d["t_element_s"]),
            method=str(d.get("method", "unknown")),
            points=tuple((int(n), float(s))
                         for n, s in d.get("points", [])),
            meta=dict(d.get("meta", {})),
        )

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "MachineDescription":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def load_machine(path: Optional[str] = None) -> \
        Optional[MachineDescription]:
    """Load a saved description from ``path`` or ``$REPRO_MACHINE_FILE``;
    ``None`` when neither names a readable file."""
    path = path or os.environ.get(ENV_MACHINE_FILE)
    if not path or not os.path.isfile(path):
        return None
    try:
        return MachineDescription.load(path)
    except (OSError, ValueError, KeyError, TypeError):
        return None


def fit_alpha_beta(
    points: Sequence[Tuple[int, float]],
) -> Tuple[float, float]:
    """Least-squares ``one_way(n) = alpha + beta*n`` over (size, time)
    pairs; clamps tiny negative intercepts (noise) to zero."""
    if not points:
        raise CalibrationError("no ping-pong points to fit")
    if len(points) == 1:
        return float(points[0][1]), 0.0
    ns = np.array([float(n) for n, _ in points])
    ts = np.array([float(t) for _, t in points])
    coeffs, *_ = np.linalg.lstsq(
        np.stack([np.ones_like(ns), ns], axis=1), ts, rcond=None)
    alpha, beta = float(coeffs[0]), float(coeffs[1])
    return max(alpha, 0.0), max(beta, 0.0)


# ---------------------------------------------------------------------------
# ping-pong sweeps
# ---------------------------------------------------------------------------

def _mpi_pingpong(sizes: Sequence[int], reps: int,
                  timeout: float) -> List[Tuple[int, float]]:
    """Run the real sweep: ``mpiexec -n 2 python -m repro.mpi.rank
    --pingpong`` and parse its JSON line."""
    import subprocess

    from ..mpi.launcher import _rank_env
    from ..mpi.support import mpi_support

    sup = mpi_support()
    if not (sup.available and sup.mode == "mpi4py" and sup.launcher):
        raise CalibrationError(
            f"no MPI launcher for the real ping-pong ({sup.reason})")
    cmd = [sup.launcher, "-n", "2", sys.executable, "-m",
           "repro.mpi.rank", "--pingpong",
           "--sizes", ",".join(str(n) for n in sizes),
           "--reps", str(reps)]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=timeout, env=_rank_env(),
                             check=True).stdout
    except (OSError, subprocess.SubprocessError) as e:
        raise CalibrationError(f"mpiexec ping-pong failed: {e}") from e
    for line in out.splitlines():
        line = line.strip()
        if line.startswith("{"):
            data = json.loads(line)
            if "error" in data:
                raise CalibrationError(data["error"])
            return [(int(n), float(t)) for n, t in data["points"]]
    raise CalibrationError("mpiexec ping-pong printed no JSON result")


def _pipe_child(conn) -> None:  # pragma: no cover — child process
    try:
        while True:
            msg = conn.recv()
            if msg is None:
                return
            conn.send(msg)
    except (EOFError, OSError):
        return


def _pipe_pingpong(sizes: Sequence[int],
                   reps: int) -> List[Tuple[int, float]]:
    """Host-local proxy: round-trip float64 buffers through a
    :mod:`multiprocessing` pipe to a child process."""
    import multiprocessing as mp

    ctx = mp.get_context()
    here, there = ctx.Pipe()
    child = ctx.Process(target=_pipe_child, args=(there,), daemon=True)
    child.start()
    there.close()
    points: List[Tuple[int, float]] = []
    try:
        for n in sizes:
            buf = np.zeros(int(n), dtype=np.float64)
            for _ in range(3):          # warmup
                here.send(buf)
                here.recv()
            t0 = time.perf_counter()
            for _ in range(reps):
                here.send(buf)
                here.recv()
            dt = time.perf_counter() - t0
            points.append((int(n), dt / reps / 2.0))    # one-way
        here.send(None)
    except (EOFError, OSError, BrokenPipeError) as e:
        raise CalibrationError(f"pipe ping-pong failed: {e}") from e
    finally:
        here.close()
        child.join(timeout=10.0)
        if child.is_alive():            # pragma: no cover
            child.terminate()
            child.join(timeout=5.0)
    return points


def pingpong_points(
    sizes: Sequence[int] = DEFAULT_SIZES,
    reps: int = DEFAULT_REPS,
    timeout: float = 120.0,
) -> Tuple[str, List[Tuple[int, float]]]:
    """``(method, points)``: the real MPI sweep when a launcher + mpi4py
    are present, else the pipe proxy."""
    try:
        return "mpi-pingpong", _mpi_pingpong(sizes, reps, timeout)
    except CalibrationError:
        return "pipe-pingpong", _pipe_pingpong(sizes, reps)


def measure_t_element(n: int = 1 << 16, reps: int = 30) -> float:
    """Seconds per element of a whole-array NumPy three-point stencil
    update — the compute substrate the fused kernels run on."""
    rng = np.random.default_rng(0)
    b = rng.random(n)
    a = np.zeros(n)
    for _ in range(3):                  # warmup
        a[1:-1] = 0.5 * (b[:-2] + b[2:])
    t0 = time.perf_counter()
    for _ in range(reps):
        a[1:-1] = 0.5 * (b[:-2] + b[2:])
    dt = time.perf_counter() - t0
    return dt / reps / max(n - 2, 1)


def calibrate(
    sizes: Sequence[int] = DEFAULT_SIZES,
    reps: int = DEFAULT_REPS,
    timeout: float = 120.0,
) -> MachineDescription:
    """Measure this host and return its :class:`MachineDescription`."""
    import platform

    method, points = pingpong_points(sizes, reps, timeout=timeout)
    alpha, beta = fit_alpha_beta(points)
    t_element = measure_t_element()
    return MachineDescription(
        alpha_s=alpha,
        beta_s=beta,
        t_element_s=t_element,
        method=method,
        points=tuple(points),
        meta={
            "python": platform.python_version(),
            "platform": platform.platform(),
            "machine": platform.machine(),
            "reps": int(reps),
        },
    )
