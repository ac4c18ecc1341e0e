"""Repository benchmark: workloads, closed-loop load generation and
span tracing (see ``perfbench/README.md``)."""
