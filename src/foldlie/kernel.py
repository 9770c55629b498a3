"""The hot numeric kernels, imported from ``_kernel_py``.

Callers reach them as ``kernel.mat_mul`` and so on, so that every caller
resolves a kernel in one place.  ``BACKEND`` names the implementation; the
kernels are pure Python, and rational matrices reach them as integer
numerators (see :class:`foldlie.exactalg.RatMatrix`).
"""

from __future__ import annotations

from ._kernel_py import (  # noqa: F401 - re-exported
    charpoly_generic,
    charpoly_int,
    mat_mul,
    mat_vec,
    rref,
)

BACKEND = "python"
