"""Clone-detection based vulnerability scanning for Solidity contracts.

The names below resolve on first access (PEP 562), each from its
submodule, so importing one submodule does not import the others.
"""

import importlib

_EXPORTS = {
    "cache": ["AnalysisCache"],
    "clone_engine": ["CloneClass", "CloneConfig", "clone_classes", "similarity"],
    "corpus": [
        "Corpus",
        "SolidityVersion",
        "SourceContract",
        "dedupe",
        "fetch_contract",
        "load_corpus",
        "parse_pragma",
        "sort_by_version",
    ],
    "detector": ["ScanReport", "analyze_evolution", "scan"],
    "extractor": ["FragmentRef", "FunctionFragment", "extract_functions", "mask_comments_and_strings"],
    "normalize": [
        "NormalizedFragment",
        "RenamingMode",
        "pretty_print",
        "rename_blind",
        "rename_consistent",
    ],
    "signatures": [
        "SignatureSet",
        "VulnerabilityType",
        "VulnSignature",
        "builtin_signatures",
        "derive_signatures",
        "load_signatures",
        "save_signatures",
    ],
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
