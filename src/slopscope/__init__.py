"""slopscope: structural-erosion and verbosity analytics for source trees and git histories.

The public names below are imported from their modules on first use
(PEP 562), so importing the package, or one of its modules, loads no module
it does not need.
"""

__version__ = "0.1.0"

# Each public name and the module it lives in.
_HOMES = {
    "CloneRegion": "clones",
    "detect_clones": "clones",
    "ErosionReport": "erosion",
    "complexity_mass": "erosion",
    "erosion_score": "erosion",
    "erosion_sensitivity": "erosion",
    "measure_checkpoint": "history",
    "CallableRecord": "model",
    "FileRecord": "model",
    "SourceInventory": "model",
    "QualityRule": "rules",
    "RuleMatch": "rules",
    "RuleSet": "rules",
    "load_rules": "rules",
    "load_starter_rules": "rules",
    "match_rules": "rules",
    "ScanConfig": "scan",
    "CheckpointMetrics": "trajectory",
    "EraShift": "trajectory",
    "TrajectorySummary": "trajectory",
    "bin_phases": "trajectory",
    "era_split": "trajectory",
    "trajectory_summary": "trajectory",
    "VerbosityBreakdown": "verbosity",
    "verbosity_score": "verbosity",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value
