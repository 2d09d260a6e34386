"""Bayesian clustering of transcription-factor motif count matrices.

Count matrices are grouped by a collapsed Gibbs sampler under a Dirichlet
process or uniform partition prior, with per-cluster core alignment and
width sampling.  See the README for the command-line interface.
"""

from .matrices import (
    BASES,
    CountMatrix,
    DroppedRecord,
    FrequencyMatrix,
    MotifRecord,
    consensus_string,
    filter_min_width,
    frequency_matrix,
    information_content,
    information_profile,
    validate_records,
)
from .parsers import (
    MotifParseError,
    load_records,
    parse_jaspar,
    parse_transfac,
    records_from_json,
    records_to_json,
    sniff_format,
    write_jaspar,
)
from .kernels import Hyperparameters, PriorKind

__version__ = "0.1.0"

__all__ = [
    "BASES",
    "CountMatrix",
    "FrequencyMatrix",
    "MotifRecord",
    "DroppedRecord",
    "consensus_string",
    "filter_min_width",
    "frequency_matrix",
    "information_content",
    "information_profile",
    "validate_records",
    "MotifParseError",
    "load_records",
    "parse_jaspar",
    "parse_transfac",
    "records_from_json",
    "records_to_json",
    "sniff_format",
    "write_jaspar",
    "Hyperparameters",
    "PriorKind",
    "__version__",
]
