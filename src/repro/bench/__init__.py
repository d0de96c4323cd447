"""Benchmark harness: workloads + per-figure drivers (§4, §5).

Every workload run goes through one path: build a :class:`RunSpec` and
call :func:`run` (or hand a list of specs to :func:`run_points` for the
parallel, cached sweep engine).
"""

from .runner import RunResult, RunSpec, Workload, run, workloads
from .fft_bench import FFT_FLOW, FftBenchParams, FftBenchResult
from .figures import (FFT_CONFIGS, FIGURES, SERVE_CONFIGS, FigureResult,
                      ablation_aggregation, ablation_mpi_pp, fft_smoke,
                      fft_sweep, fig1, fig2, fig3, fig4, fig5, fig6,
                      fig7, fig8, fig9, fig10, fig11, find_knee,
                      platform_tables, serve_smoke, serve_sweep,
                      table_abbreviations)
from .harness import Measurement, Series, repeat
from .seeds import derive_seed, repeat_seeds, substream_seeds
from .serve_bench import SERVE_FLOW, ServeBenchParams, ServeBenchResult
from .latency import LatencyParams, LatencyResult
from .message_rate import MessageRateParams, MessageRateResult
from .octotiger_bench import OctoTigerBenchParams, OctoTigerBenchResult
from .parallel import (ExecutionPolicy, ResultCache, code_fingerprint,
                       evaluate_point, execution, run_points, set_policy)
from .perfbench import bench_figures, bench_kernel, run_perf, validate_bench
from .profiling import format_breakdown, lock_report, runtime_breakdown
from .sweep import SweepResult, SweepSpec, run_sweep
from .calibration import check_calibration, format_calibration
from .validation import CheckResult, checks_for, validate

__all__ = [
    "RunSpec", "RunResult", "Workload", "run", "workloads",
    "FIGURES", "FigureResult",
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "fig10", "fig11", "ablation_mpi_pp", "ablation_aggregation",
    "fft_smoke", "fft_sweep", "FFT_CONFIGS",
    "FftBenchParams", "FftBenchResult", "FFT_FLOW",
    "serve_smoke", "serve_sweep", "find_knee", "SERVE_CONFIGS",
    "ServeBenchParams", "ServeBenchResult", "SERVE_FLOW",
    "table_abbreviations", "platform_tables",
    "Measurement", "Series", "repeat",
    "derive_seed", "repeat_seeds", "substream_seeds",
    "LatencyParams", "LatencyResult",
    "MessageRateParams", "MessageRateResult",
    "OctoTigerBenchParams", "OctoTigerBenchResult",
    "ResultCache", "ExecutionPolicy",
    "code_fingerprint", "evaluate_point", "execution",
    "run_points", "set_policy",
    "bench_kernel", "bench_figures", "run_perf", "validate_bench",
    "runtime_breakdown", "format_breakdown", "lock_report",
    "SweepSpec", "SweepResult", "run_sweep",
    "validate", "checks_for", "CheckResult",
    "check_calibration", "format_calibration",
]
