"""Exact slope and binary invariants of knot tunnels built from twisted
splittings of torus knots, with a 2-bridge continued-fraction crosswalk."""

from .frames import (
    FareyFrame,
    HomologyClass,
    SplitKind,
    splitting_disk_slope,
    splitting_tunnel_slope,
    validate_frame,
)
from .iteration import (
    EngineMismatchError,
    SequenceKind,
    TwistSequence,
    assemble_invariants,
    binary_invariants,
    closed_form_slopes,
    oracle_slopes,
    position_coords,
    step_sign,
)
from .slopes import (
    SimpleSlope,
    Slope,
    TunnelInvariants,
    format_rational,
)
from .two_bridge import (
    CorrespondenceReport,
    TwoBridgeFraction,
    cf_to_twists,
    semisimple_slopes,
    twists_to_cf,
    validate_cf,
    verify_correspondence,
)

__version__ = "0.1.0"

__all__ = [
    "CorrespondenceReport",
    "EngineMismatchError",
    "FareyFrame",
    "HomologyClass",
    "SequenceKind",
    "SimpleSlope",
    "Slope",
    "SplitKind",
    "TunnelInvariants",
    "TwistSequence",
    "TwoBridgeFraction",
    "assemble_invariants",
    "binary_invariants",
    "cf_to_twists",
    "closed_form_slopes",
    "format_rational",
    "oracle_slopes",
    "position_coords",
    "semisimple_slopes",
    "splitting_disk_slope",
    "splitting_tunnel_slope",
    "step_sign",
    "twists_to_cf",
    "validate_cf",
    "validate_frame",
    "verify_correspondence",
]
