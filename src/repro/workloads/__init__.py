"""Workload traces — synthetic equivalents of the DIABLO DApp workloads.

The paper's real traces (NASDAQ stock trades, Uber rides, FIFA ticket
sales) are not redistributable; we generate synthetic traces matched to
the published envelopes (§V): NASDAQ 3 min, avg 168 / peak 19 800 TPS;
Uber 2 min, avg 852 / peak 900 TPS; FIFA 3 min, avg 3 483 / peak 5 305
TPS.  Congestion behaviour is driven by that rate envelope, which is what
the substitution preserves.
"""

from repro.workloads.trace import Trace, RequestFactory
from repro.workloads.nasdaq import nasdaq_trace, nasdaq_request_factory
from repro.workloads.uber import uber_trace, uber_request_factory
from repro.workloads.fifa import fifa_trace, fifa_request_factory
from repro.workloads.synthetic import (
    burst_trace,
    constant_trace,
    flooding_mix,
)

__all__ = [
    "RequestFactory",
    "Trace",
    "burst_trace",
    "constant_trace",
    "fifa_request_factory",
    "fifa_trace",
    "flooding_mix",
    "nasdaq_request_factory",
    "nasdaq_trace",
    "uber_request_factory",
    "uber_trace",
]
