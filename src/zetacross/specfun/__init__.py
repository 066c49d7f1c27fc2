"""Self-contained special functions: Hardy Z, complex gamma, Bessel J of
integer order, Jacobi elliptic sn/cn/dn, and the complete elliptic
integral K."""

from .types import ComplexPoint, EllipticModulus
from .gammafn import log_gamma_complex, recip_gamma_abs
from .zeta import RS_SWITCHOVER, hardy_z, rs_theta, zeta_mod_sq

__all__ = [
    "ComplexPoint",
    "EllipticModulus",
    "log_gamma_complex",
    "recip_gamma_abs",
    "RS_SWITCHOVER",
    "hardy_z",
    "rs_theta",
    "zeta_mod_sq",
    "bessel_j",
    "jacobi_elliptic",
    "elliptic_k",
]

from .bessel import bessel_j  # noqa: E402
from .jacobi import elliptic_k, jacobi_elliptic  # noqa: E402
