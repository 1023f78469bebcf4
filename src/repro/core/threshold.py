"""The adaptive threshold update rule (Equation 2 of the paper).

Kept as a pure function so its invariants can be property-tested in
isolation from the protocol machinery:

* monotone non-decreasing in the negative feedback ``R`` (redirections);
* monotone non-increasing in the positive feedback ``E`` (exclusive home
  writes);
* never below ``t_init`` (the floor that keeps the protocol eager for
  initial data relocation, §4.2).
"""

from __future__ import annotations

from repro import _kernel

#: The paper's initial threshold ``T_init = 1`` (§4.2).
T_INIT = 1.0

#: The paper's feedback coefficient ``lambda = 1`` (§4.2).
LAMBDA = 1.0

#: The compiled kernel module, or ``None``: resolved once at import and
#: re-pointed by :func:`repro._kernel.select_backend`, never per call.
_kernel_module = _kernel.kernel()


def _rebind_kernel() -> None:
    """Re-resolve the kernel (called by ``select_backend``)."""
    global _kernel_module
    _kernel_module = _kernel.kernel()


def adaptive_threshold(
    base: float,
    redirections: int,
    exclusive_home_writes: int,
    alpha: float,
    lam: float = LAMBDA,
    t_init: float = T_INIT,
) -> float:
    """``T_i = max(T_{i-1} + lam * (R_i - alpha * E_i), T_init)``.

    ``base`` is ``T_{i-1}``, the threshold frozen at the previous migration;
    ``redirections``/``exclusive_home_writes`` are the feedback counters
    accumulated since then; ``alpha`` is the home access coefficient.
    """
    kernel_module = _kernel_module
    if kernel_module is not None:
        # Same validation messages and IEEE-754 operation order in C.
        return kernel_module.adaptive_threshold(
            base, redirections, exclusive_home_writes, alpha, lam, t_init
        )
    return _py_adaptive_threshold(
        base, redirections, exclusive_home_writes, alpha, lam, t_init
    )


def _py_adaptive_threshold(
    base: float,
    redirections: int,
    exclusive_home_writes: int,
    alpha: float,
    lam: float = LAMBDA,
    t_init: float = T_INIT,
) -> float:
    """The pure-Python update rule (the compiled kernel's ground truth)."""
    if base < t_init:
        raise ValueError(f"threshold base {base} below floor {t_init}")
    if redirections < 0 or exclusive_home_writes < 0:
        raise ValueError(
            f"feedback counters must be non-negative, got "
            f"R={redirections}, E={exclusive_home_writes}"
        )
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if lam < 0:
        raise ValueError(f"lambda must be non-negative, got {lam}")
    return max(base + lam * (redirections - alpha * exclusive_home_writes), t_init)
