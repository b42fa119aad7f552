"""Combining experiments into a causal profile (§2, "Producing a causal
profile").

Rules from the paper, all implemented here:

* experiments with the same independent variables (line, speedup) are
  combined by *adding* progress-point visits and effective durations;
* lines without a 0% baseline measurement are discarded — the baseline is
  measured separately per line so line-dependent overhead cancels;
* lines with fewer than ``min_speedup_amounts`` distinct speedups are
  discarded (default five, like Coz);
* program speedup for a (line, speedup) group is the percent change in the
  progress period versus that line's baseline: ``1 - p_s / p_0``;
* the phase correction (eq. 8) scales each measured speedup by
  ``(t_obs / s_obs) * (s / T)`` where ``s`` is the line's whole-run sample
  count and ``T`` the whole-run effective duration.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.core.experiment import ExperimentResult
from repro.core.progress import LatencySpec
from repro.sim.source import SourceLine, intern_line
from repro.stats.bootstrap import resample_indices, standard_error
from repro.stats.regression import Regression, linear_regression

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


@dataclass
class RunInfo:
    """Whole-run context needed by the phase correction."""

    runtime_ns: int
    total_delay_ns: int
    #: samples per attributed source line over the entire run
    line_samples: Counter = field(default_factory=Counter)

    @property
    def effective_ns(self) -> int:
        return self.runtime_ns - self.total_delay_ns

    def to_dict(self, lines: Dict[SourceLine, int]) -> Dict[str, Any]:
        """JSON-safe dict; line samples are ``[index, count]`` pairs keyed
        by ``lines``, the document's shared SourceLine -> index table."""
        return {
            "runtime_ns": self.runtime_ns,
            "total_delay_ns": self.total_delay_ns,
            "line_samples": [
                [lines.setdefault(src, len(lines)), n]
                for src, n in sorted(self.line_samples.items())
            ],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any], lines: List[SourceLine]) -> "RunInfo":
        info = cls(runtime_ns=d["runtime_ns"], total_delay_ns=d["total_delay_ns"])
        for idx, n in d["line_samples"]:
            info.line_samples[lines[idx]] = n
        return info


@dataclass
class RunFailure:
    """Record of a scheduled run that produced no usable data.

    Failed runs contribute nothing to the causal profile — a partially
    executed run's experiments would skew the phase correction — but they
    are first-class session output: reports, the audit layer, and resumed
    sessions all see exactly which runs failed and why.
    """

    #: index of the run in the session schedule
    index: int
    #: the run's seed (base seed + index)
    seed: int
    #: concrete error class name (``ThreadCrashFault``, ``WorkerHungError``…)
    error_type: str
    message: str
    #: virtual time the run reached before failing (0 when unknown)
    virtual_ns: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "seed": self.seed,
            "error_type": self.error_type,
            "message": self.message,
            "virtual_ns": self.virtual_ns,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "RunFailure":
        return cls(
            index=d["index"],
            seed=d["seed"],
            error_type=d["error_type"],
            message=d["message"],
            virtual_ns=d.get("virtual_ns", 0),
        )

    @classmethod
    def from_error(cls, index: int, seed: int, err: BaseException) -> "RunFailure":
        return cls(
            index=index,
            seed=seed,
            error_type=type(err).__name__,
            message=str(err),
            virtual_ns=getattr(err, "virtual_ns", 0),
        )


class ProfileData:
    """Raw profiler output: experiments plus per-run sampling totals.

    ``failures`` records scheduled runs that produced no data; a session
    with any recorded failure is *degraded* — its profile is built from
    fewer runs than requested and reports must say so.
    """

    def __init__(self) -> None:
        self.experiments: List[ExperimentResult] = []
        self.runs: List[RunInfo] = []
        self.failures: List[RunFailure] = []

    def add_experiment(self, result: ExperimentResult) -> None:
        self.experiments.append(result)

    def add_run(self, info: RunInfo) -> None:
        self.runs.append(info)

    def add_failure(self, failure: RunFailure) -> None:
        self.failures.append(failure)

    @property
    def degraded(self) -> bool:
        """True when the session lost at least one scheduled run."""
        return bool(self.failures)

    def merge(self, other: "ProfileData") -> "ProfileData":
        """Accumulate another profiling run's data (same program!)."""
        self.experiments.extend(other.experiments)
        self.runs.extend(other.runs)
        self.failures.extend(other.failures)
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProfileData):
            return NotImplemented
        return (
            self.experiments == other.experiments
            and self.runs == other.runs
            and self.failures == other.failures
        )

    def __repr__(self) -> str:
        tail = f", {len(self.failures)} failed" if self.failures else ""
        return (
            f"ProfileData({len(self.experiments)} experiments, "
            f"{len(self.runs)} runs{tail})"
        )

    # -- wire format (cross-process result transfer) -------------------------------
    #
    # Every field of ExperimentResult and RunInfo is an int, a string, or a
    # container of those, so the JSON round trip is lossless: merging
    # deserialized copies yields data equal to merging the originals.  This
    # is what the parallel executor ships back from worker processes.
    #
    # Version 2 interns source locations: a top-level ``"lines"`` table of
    # ``[file, lineno]`` pairs (first-encounter order over experiments then
    # runs), with experiments' ``"line"`` and runs' ``"line_samples"`` keyed
    # by index.  A session profiles a handful of lines across hundreds of
    # experiments, so the table collapses the dominant repeated strings in
    # the payload workers ship back.
    #
    # The document is the only codec: :meth:`to_bytes` is its UTF-8
    # encoding, which is what pool workers ship home.

    WIRE_VERSION = 2

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize to the wire format (a JSON document)."""
        lines: Dict[SourceLine, int] = {}
        experiments = [e.to_dict(lines) for e in self.experiments]
        runs = [r.to_dict(lines) for r in self.runs]
        doc: Dict[str, Any] = {
            "version": self.WIRE_VERSION,
            "lines": [[src.file, src.lineno] for src in lines],
            "experiments": experiments,
            "runs": runs,
        }
        # emitted only when present: a clean session's wire form is
        # byte-identical to pre-failure-record versions (golden traces)
        if self.failures:
            doc["failures"] = [f.to_dict() for f in self.failures]
        return json.dumps(doc, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ProfileData":
        """Rebuild from :meth:`to_json` output."""
        doc = json.loads(text)
        version = doc.get("version")
        if version != cls.WIRE_VERSION:
            raise ValueError(f"unsupported ProfileData wire version: {version!r}")
        table = [intern_line(file, lineno) for file, lineno in doc["lines"]]
        data = cls()
        for ed in doc["experiments"]:
            data.add_experiment(ExperimentResult.from_dict(ed, table))
        for rd in doc["runs"]:
            data.add_run(RunInfo.from_dict(rd, table))
        for fd in doc.get("failures", []):
            data.add_failure(RunFailure.from_dict(fd))
        return data

    def to_bytes(self) -> bytes:
        """The :meth:`to_json` document as UTF-8 bytes."""
        return self.to_json().encode("utf-8")

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ProfileData":
        """Rebuild from :meth:`to_bytes` output."""
        return cls.from_json(blob.decode("utf-8"))

    # -- whole-run totals ----------------------------------------------------------

    def total_effective_ns(self) -> int:
        return sum(r.effective_ns for r in self.runs)

    def total_line_samples(self, line: SourceLine) -> int:
        return sum(r.line_samples.get(line, 0) for r in self.runs)

    def progress_names(self) -> List[str]:
        names = set()
        for e in self.experiments:
            names.update(e.visits)
        return sorted(names)

    def lines(self) -> List[SourceLine]:
        return sorted({e.line for e in self.experiments})


@dataclass
class ProfilePoint:
    """One (virtual speedup, program speedup) point of a line's graph."""

    speedup_pct: int
    program_speedup: float      # fraction: 0.045 = 4.5% program speedup
    se: float                   # bootstrap standard error (fraction)
    n_experiments: int
    visits: int                 # combined progress visits in the group

    @property
    def program_speedup_pct(self) -> float:
        return 100.0 * self.program_speedup


@dataclass
class LineProfile:
    """The causal profile graph of one source line for one progress point."""

    line: SourceLine
    progress_point: str
    points: List[ProfilePoint]
    #: eq. 8 correction factor that was applied (1.0 when disabled)
    phase_factor: float
    #: whole-run samples attributed to this line (s in eq. 6)
    total_samples: int

    _regression: Optional[Regression] = field(default=None, repr=False, compare=False)

    @property
    def slope(self) -> float:
        """Coz's ranking metric: OLS slope of program speedup vs. speedup.

        Both axes as fractions, so a slope of 1.0 means program speedup
        tracks line speedup one-for-one (a perfectly serial line).
        """
        return self.regression.slope

    @property
    def regression(self) -> Regression:
        if self._regression is None:
            xs = [p.speedup_pct / 100.0 for p in self.points]
            ys = [p.program_speedup for p in self.points]
            self._regression = linear_regression(xs, ys)
        return self._regression

    @property
    def max_program_speedup(self) -> float:
        return max(p.program_speedup for p in self.points)

    def point_at(self, speedup_pct: int) -> Optional[ProfilePoint]:
        for p in self.points:
            if p.speedup_pct == speedup_pct:
                return p
        return None

    def is_contended(self, threshold: float = 0.05) -> bool:
        """Downward-sloping profile: optimizing this line *hurts* (§2)."""
        return self.slope < -threshold


@dataclass
class _LineColumns:
    """One line's experiments as integer columns, grouped by speedup.

    Each group keeps experiment order: bootstrap indices refer to it.
    """

    #: t_obs and s_obs of the phase correction, over every speedup
    duration_ns: int = 0
    selected_samples: int = 0
    #: speedup -> (visits to the progress point, effective ns) per experiment
    groups: Dict[int, Tuple[List[int], List[int]]] = field(default_factory=dict)


def _line_columns(
    data: ProfileData, point: str, only: Optional[SourceLine] = None
) -> Dict[SourceLine, _LineColumns]:
    """Group ``data``'s experiments (of line ``only``, or all) in one pass."""
    cols: Dict[SourceLine, _LineColumns] = {}
    for e in data.experiments:
        if only is not None and e.line != only:
            continue
        c = cols.get(e.line)
        if c is None:
            c = cols[e.line] = _LineColumns()
        c.duration_ns += e.duration_ns
        c.selected_samples += e.selected_samples
        visits, effective = c.groups.setdefault(e.speedup_pct, ([], []))
        visits.append(e.visits.get(point, 0))
        effective.append(e.effective_ns)
    return cols


def _speedup(
    base_visits: int, base_eff: int, visits: int, eff: int
) -> Optional[float]:
    """``1 - p_s / p_0`` from combined visits and effective durations;
    None when either progress period is undefined."""
    if base_visits <= 0 or base_eff <= 0 or visits <= 0 or eff <= 0:
        return None
    return 1.0 - (eff / visits) / (base_eff / base_visits)


def _speedup_se(
    baseline: Tuple[np.ndarray, np.ndarray],
    group: Tuple[np.ndarray, np.ndarray],
    n_boot: int,
    seed: int,
) -> float:
    """Bootstrap SE of a group's speedup: resample the experiments of the
    baseline and the group by index and recombine their column sums."""
    n_base, n_group = len(baseline[0]), len(group[0])
    if n_base < 2 and n_group < 2:
        return 0.0
    # int64 row sums are exact (a session's ns are far below 2**63); the
    # periods then divide Python ints, correctly rounded at any magnitude
    sums = []
    draws = resample_indices(seed, (n_base, n_group), n_boot)
    for (visits, effective), idx in zip((baseline, group), draws):
        sums.append(visits[idx].sum(axis=1).tolist())
        sums.append(effective[idx].sum(axis=1).tolist())
    return standard_error([s for s in map(_speedup, *sums) if s is not None])


def _line_profile(
    line: SourceLine,
    point: str,
    cols: _LineColumns,
    total_s: int,
    total_t: Optional[int],
    n_boot: int,
    seed: int,
) -> Optional[LineProfile]:
    """One line's graph from its columns; ``total_t`` None = no phase
    correction."""
    if 0 not in cols.groups:
        return None  # no 0% measurement: cannot normalize (paper rule)

    # phase correction factor (eq. 8), shared across the line's groups
    factor = 1.0
    if total_t is not None and cols.selected_samples > 0 and total_t > 0:
        t_obs, s_obs = cols.duration_ns, cols.selected_samples
        factor = min(1.0, (t_obs / s_obs) * (total_s / total_t))

    import numpy as np

    arrays = {
        pct: (np.array(visits, dtype=np.int64), np.array(eff, dtype=np.int64))
        for pct, (visits, eff) in cols.groups.items()
    }
    base_visits, base_eff = (sum(col) for col in cols.groups[0])
    points: List[ProfilePoint] = []
    for pct in sorted(cols.groups):
        visits, eff = (sum(col) for col in cols.groups[pct])
        raw = _speedup(base_visits, base_eff, visits, eff)
        if raw is None:
            continue
        se = _speedup_se(arrays[0], arrays[pct], n_boot, seed + pct)
        points.append(
            ProfilePoint(
                speedup_pct=pct,
                program_speedup=raw * factor,
                se=se * factor,
                n_experiments=len(cols.groups[pct][0]),
                visits=visits,
            )
        )
    if len(points) < 2:
        return None
    return LineProfile(
        line=line,
        progress_point=point,
        points=points,
        phase_factor=factor,
        total_samples=total_s,
    )


def build_line_profile(
    data: ProfileData,
    line: SourceLine,
    point: str,
    phase_correction: bool = True,
    n_boot: int = 200,
    seed: int = 0,
) -> Optional[LineProfile]:
    """Build one line's causal profile graph, or None if data is unusable."""
    cols = _line_columns(data, point, only=line).get(line)
    if cols is None:
        return None
    total_t = data.total_effective_ns() if phase_correction else None
    return _line_profile(
        line, point, cols, data.total_line_samples(line), total_t, n_boot, seed
    )


class CausalProfile:
    """All line graphs for one progress point, ranked Coz-style."""

    def __init__(self, point: str, lines: List[LineProfile]) -> None:
        self.point = point
        self.lines = lines

    def ranked(self) -> List[LineProfile]:
        """Sorted by regression slope, steepest upward first (§2)."""
        return sorted(self.lines, key=lambda lp: lp.slope, reverse=True)

    def contended(self, threshold: float = 0.05) -> List[LineProfile]:
        """Lines whose profiles slope downward: contention signatures."""
        return sorted(
            (lp for lp in self.lines if lp.is_contended(threshold)),
            key=lambda lp: lp.slope,
        )

    def get(self, line: SourceLine) -> Optional[LineProfile]:
        for lp in self.lines:
            if lp.line == line:
                return lp
        return None

    def __len__(self) -> int:
        return len(self.lines)


def build_causal_profile(
    data: ProfileData,
    point: str,
    min_speedup_amounts: int = 5,
    phase_correction: bool = True,
    n_boot: int = 200,
    seed: int = 0,
) -> CausalProfile:
    """Build the full causal profile for one progress point.

    ``min_speedup_amounts`` is Coz's default filter: lines measured at fewer
    than five distinct virtual speedups are discarded (a plot showing only a
    75% speedup is not useful, §2).
    """
    cols = _line_columns(data, point)
    total_t = data.total_effective_ns() if phase_correction else None
    lines = []
    for line in sorted(cols):
        lp = _line_profile(
            line, point, cols[line], data.total_line_samples(line), total_t,
            n_boot, seed,
        )
        if lp is None:
            continue
        if len(lp.points) < min_speedup_amounts:
            continue
        lines.append(lp)
    return CausalProfile(point, lines)


@dataclass
class LatencyPoint:
    """One (virtual speedup, latency change) point."""

    speedup_pct: int
    latency_ns: float
    latency_reduction: float  # fraction: positive = latency improved
    n_experiments: int


def build_latency_profile(
    data: ProfileData,
    line: SourceLine,
    spec: LatencySpec,
) -> Optional[List[LatencyPoint]]:
    """Latency-vs-speedup series for one line via Little's law (§3.3)."""
    by_speedup: Dict[int, List[ExperimentResult]] = defaultdict(list)
    for e in data.experiments:
        if e.line == line:
            by_speedup[e.speedup_pct].append(e)
    if 0 not in by_speedup:
        return None

    def combined_latency(group: Sequence[ExperimentResult]) -> Optional[float]:
        lat = [e.latency_ns(spec.begin, spec.end) for e in group]
        lat = [v for v in lat if v is not None]
        if not lat:
            return None
        return sum(lat) / len(lat)

    w0 = combined_latency(by_speedup[0])
    if w0 is None or w0 <= 0:
        return None
    out = []
    for pct in sorted(by_speedup):
        w = combined_latency(by_speedup[pct])
        if w is None:
            continue
        out.append(
            LatencyPoint(
                speedup_pct=pct,
                latency_ns=w,
                latency_reduction=1.0 - w / w0,
                n_experiments=len(by_speedup[pct]),
            )
        )
    return out if len(out) >= 2 else None
