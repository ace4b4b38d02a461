"""Benchmark for the Dissent reproduction: workloads, ledger, compare, self-test."""
