"""Scheme registry."""

SCHEMES = {
    "TSS": "trapezoid",
    "S": "static",
}
