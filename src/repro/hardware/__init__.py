"""Hardware cost models and code generators for the trained classifier."""

from .activity import ActivityReport, measure_switching_activity
from .area import (
    GateCounts,
    adder_gates,
    mac_datapath_gates,
    multiplier_gates,
    register_gates,
)
from .cgen import BATCH_KERNEL_SYMBOL, generate_batch_kernel_c, generate_classifier_c
from .compile import compile_shared_library, default_cache_dir, find_compiler
from .energy import EnergyEstimate, EnergyModel
from .native import NativeKernel, load_native_kernel, native_backend_available
from .latency import LatencyEstimate, estimate_latency, meets_sample_rate
from .power import PowerModel, paper_power_model, power_ratio
from .report import ImplementationReport, build_report
from .verilog import VerilogGenerator, generate_classifier_verilog

__all__ = [
    "ActivityReport",
    "measure_switching_activity",
    "GateCounts",
    "adder_gates",
    "multiplier_gates",
    "register_gates",
    "mac_datapath_gates",
    "generate_classifier_c",
    "generate_batch_kernel_c",
    "BATCH_KERNEL_SYMBOL",
    "compile_shared_library",
    "default_cache_dir",
    "find_compiler",
    "NativeKernel",
    "load_native_kernel",
    "native_backend_available",
    "EnergyEstimate",
    "EnergyModel",
    "LatencyEstimate",
    "estimate_latency",
    "meets_sample_rate",
    "PowerModel",
    "paper_power_model",
    "power_ratio",
    "ImplementationReport",
    "build_report",
    "VerilogGenerator",
    "generate_classifier_verilog",
]
