"""slopscope: structural-erosion and verbosity analytics for source trees and git histories."""

__version__ = "0.1.0"

from .clones import CloneRegion, detect_clones
from .erosion import ErosionParams, ErosionReport, complexity_mass, erosion_score, erosion_sensitivity
from .history import measure_checkpoint
from .model import CallableRecord, FileRecord, SourceInventory
from .rules import QualityRule, RuleMatch, RuleSet, load_rules, load_starter_rules, match_rules
from .scan import ScanConfig
from .trajectory import CheckpointMetrics, EraShift, TrajectorySummary, bin_phases, era_split, trajectory_summary
from .verbosity import VerbosityBreakdown, verbosity_score

__all__ = [
    "CallableRecord",
    "CheckpointMetrics",
    "CloneRegion",
    "EraShift",
    "ErosionParams",
    "ErosionReport",
    "FileRecord",
    "QualityRule",
    "RuleMatch",
    "RuleSet",
    "ScanConfig",
    "SourceInventory",
    "TrajectorySummary",
    "VerbosityBreakdown",
    "bin_phases",
    "complexity_mass",
    "detect_clones",
    "era_split",
    "erosion_score",
    "erosion_sensitivity",
    "load_rules",
    "load_starter_rules",
    "match_rules",
    "measure_checkpoint",
    "trajectory_summary",
    "verbosity_score",
]
