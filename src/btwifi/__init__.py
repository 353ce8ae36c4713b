"""Discrete-event Wi-Fi BSS simulator: EDCA channel access plus a
busy-tone control-channel extension that gives low-latency traffic
preemptive priority over regular transmissions."""

__version__ = "0.1.0"
