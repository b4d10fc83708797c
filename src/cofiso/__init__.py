"""Exact workbench for cofinite partial isometries of the positive integers.

Elements are the partial bijections x -> x + s defined off a finite
excluded set.  The package covers the inverse-monoid algebra (Green's
relations, natural order, least group congruence), the bicyclic normal
forms living inside it, the extension by an adjoined copy of the
integers, a decidable model of the locally compact neighborhood
topologies cut out by offset sets, a pointwise window oracle, and a
registry of exhaustively checked properties behind a JSON CLI.

Importing the package loads none of its modules: each public name, and
each module, is imported on first access.
"""

import importlib

# home module -> the public names it provides
_EXPORTS = {
    "bicyclic": (
        "BicyclicNF",
        "WordError",
        "embed",
        "normalize_word",
        "parse_word",
        "recognize",
        "reduce_word",
        "word_iso",
    ),
    "core": (
        "ALPHA",
        "BETA",
        "IDENTITY",
        "InvalidShift",
        "NoiseParams",
        "NotIdempotent",
        "PartialIso",
        "boundary_set",
        "d_witness",
        "from_anatomy",
        "green_d",
        "green_h",
        "green_j",
        "green_l",
        "green_r",
        "group_congruence_witness",
        "group_congruent",
        "head_offsets",
        "in_offset_class",
        "in_offset_class_range",
        "leq",
        "make",
        "noise_bounded",
        "punctured_identity",
        "tail_chain",
    ),
    "expr": ("EvalError", "ParseError", "evaluate", "parse", "unparse"),
    "extension": (
        "ExtElem",
        "Group",
        "NotInUpSet",
        "UpSet",
        "ext_inv",
        "ext_leq",
        "ext_mul",
        "ext_pi",
        "translate_left",
        "translate_right",
        "up_set_truncated",
    ),
    "oracle": (
        "EnumBounds",
        "WindowTooSmall",
        "compose_via_window",
        "default_window",
        "enumerate_elements",
        "min_window",
        "window_compose",
    ),
    "properties": ("Report", "UnknownProperty", "known_properties", "verify"),
    "topology": (
        "NbhdSpec",
        "NotDistinct",
        "OffsetOutOfRange",
        "OutsideSpace",
        "TailSeqSpec",
        "converges",
        "cutoff_witness",
        "distinguish",
        "empirical_converges",
        "min_index",
        "nbhd_member",
        "nbhd_upset_agreement",
        "seq_elem",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a module binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
