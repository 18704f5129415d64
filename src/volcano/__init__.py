"""Clone-detection based vulnerability scanning for Solidity contracts."""

from .cache import AnalysisCache, incremental_scan
from .clone_engine import (
    CloneClass,
    CloneConfig,
    ClonePair,
    clone_classes,
    cluster_classes,
    detect_pairs,
    similarity,
)
from .corpus import (
    Corpus,
    SolidityVersion,
    SourceContract,
    dedupe,
    fetch_contract,
    load_corpus,
    parse_pragma,
    sort_by_version,
)
from .detector import ScanReport, analyze_evolution, count_instances, scan
from .extractor import FragmentRef, FunctionFragment, extract_functions, mask_comments_and_strings
from .normalize import (
    NormalizedFragment,
    RenamingMode,
    pretty_print,
    rename_blind,
    rename_consistent,
)
from .signatures import (
    SignatureSet,
    VulnerabilityType,
    VulnSignature,
    builtin_signatures,
    derive_signatures,
    load_signatures,
    save_signatures,
)

__version__ = "0.1.0"
