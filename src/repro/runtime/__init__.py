"""Simulated managed runtime (the JVM substrate).

Public surface: the VM facade and flags, the method/thread models, the
JIT compiler model, the simulated clock, and the profiler hook base
class.
"""

from repro.runtime.clock import NS_PER_MS, NS_PER_S, NS_PER_US, SimClock
from repro.runtime.exceptions import SimException
from repro.runtime.hooks import NullProfiler
from repro.runtime.interpreter import ExecutionContext
from repro.runtime.jit import JitCompiler
from repro.runtime.method import AllocSite, CallSite, Method
from repro.runtime.thread import SimThread
from repro.runtime.vm import CALL_PROFILING_MODES, JavaVM, VMFlags

__all__ = [
    "AllocSite",
    "CALL_PROFILING_MODES",
    "CallSite",
    "ExecutionContext",
    "JavaVM",
    "JitCompiler",
    "Method",
    "NS_PER_MS",
    "NS_PER_S",
    "NS_PER_US",
    "NullProfiler",
    "SimClock",
    "SimException",
    "SimThread",
    "VMFlags",
]
