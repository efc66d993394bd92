"""Imports operon before any test module loads numpy, so the whole session
computes with the one BLAS thread that operon pins at import."""

import operon  # noqa: F401
