"""Wall-clock performance harnesses (not part of the simulated-latency
benchmarks); the measurement spine is ``benchmarks/spine``."""
