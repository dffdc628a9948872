"""Placement delivery arrays for centralized coded caching.

Data model and checker (core), text interchange (textio), parametric
families (constructions), an end-to-end placement/delivery/decoding
simulator (simulate), and rate/packet-count analysis (analysis).  The four
digit-vector families come from one generator, construct(family, params),
and the verifier and the decoder read condition C3 from one classifier over
a numpy pair scan.
"""

from .analysis import (ComparisonResult, MemoryShareSpec, SchemeMetrics,
                       SchemeRow, compare_general, compare_special,
                       enumerate_schemes, estimate_m_range, memory_share)
from .constructions import (ConstructionParams, Family, ParamDomainError,
                            construct, construct_ext_general,
                            construct_ext_special, construct_general,
                            construct_mn, construct_special, mn_params,
                            standard_sweep, theorem_params)
from .core import (STAR, PdaArray, PdaError, PdaParams, SizeCapError,
                   VerificationReport, Violation, canonicalize, equivalent,
                   params_of, verify_pda)
from .simulate import (DecodeReport, PacketStore, TransmissionLog,
                       decode_and_verify, deliver, run_simulation)
from .textio import PdaFormatError, PdaHeader, emit, load, parse, save

__version__ = "0.1.0"


def kernel_backend() -> str:
    """Name of the pair-scan implementation, recorded with benchmark runs.

    The scan is written in Python over numpy arrays, with no compiled
    kernel, so this is always ``"python"``.
    """
    return "python"


__all__ = [
    "STAR", "PdaArray", "PdaError", "PdaParams", "VerificationReport",
    "Violation", "canonicalize", "equivalent", "params_of", "verify_pda",
    "PdaFormatError", "PdaHeader", "emit", "load", "parse", "save",
    "ConstructionParams", "Family", "ParamDomainError", "SizeCapError",
    "construct", "construct_general", "construct_special",
    "construct_ext_general", "construct_ext_special", "construct_mn",
    "mn_params", "standard_sweep", "theorem_params",
    "DecodeReport", "PacketStore", "TransmissionLog",
    "decode_and_verify", "deliver", "run_simulation",
    "ComparisonResult", "MemoryShareSpec", "SchemeMetrics", "SchemeRow",
    "compare_general", "compare_special", "enumerate_schemes",
    "estimate_m_range", "memory_share",
    "kernel_backend", "__version__",
]
