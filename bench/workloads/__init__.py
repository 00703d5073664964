"""The benchmark's workloads; each module exposes build(rng) and TAIL_PERCENTILE."""

import importlib

NAMES = ("tower", "sequences", "words", "relations")


def load(name):
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
    return importlib.import_module(f"workloads.{name}")
