"""Benchmark of the reproduction: simulator, live service and recovery."""
