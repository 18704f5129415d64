"""Typed exceptions shared across the volcano pipeline.

Operational failures raise subclasses of VolcanoError so the CLI can map
them to exit code 1; anything else escaping is a bug. Recoverable
conditions (empty corpus, unterminated comment, corrupt cache) are logged
as warnings instead and never raise.
"""


class VolcanoError(Exception):
    """Base class for all expected operational errors."""


class MissingRoot(VolcanoError):
    """Corpus root directory does not exist."""


class NotVerified(VolcanoError):
    """Block explorer has no verified source for the address."""


class RateLimited(VolcanoError):
    """Explorer kept rate-limiting after the retry budget was spent."""


class NetworkError(VolcanoError):
    """Transport failure talking to the block explorer."""


class ModeError(VolcanoError):
    """Renaming applied to a fragment that is not in mode NONE."""


class ModeMismatch(VolcanoError):
    """Fragments passed to the clone engine do not share the configured mode."""


class EmptyFragment(VolcanoError):
    """Similarity is undefined for an empty line sequence."""


class CacheConfigMismatch(VolcanoError):
    """Analysis cache was built under a different clone configuration."""


class UnlabeledContract(VolcanoError):
    """Signature derivation needs a label for every contract in the corpus."""


class MalformedLabels(VolcanoError):
    """A labels CSV row lacks the contract_id,vuln_type columns or relabels a contract."""


class MalformedManifest(VolcanoError):
    """A signature directory's manifest.json is not valid JSON or lacks fields."""


class MissingAnnotation(VolcanoError):
    """Signature file function lacks the @volcano:vuln= header comment."""


class UnknownType(VolcanoError):
    """Annotation names a vulnerability type that does not exist."""


class EmptySignatureSet(VolcanoError):
    """Scanning requires at least one signature."""
