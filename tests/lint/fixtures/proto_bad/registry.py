"""Scheme registry (the proto_bad tree's sins are elsewhere)."""

SCHEMES = {
    "TSS": "trapezoid",
    "GHOST": "nowhere",
}
