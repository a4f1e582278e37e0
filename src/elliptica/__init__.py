"""Workbench for theta quotients, spinor characters, and equivariant Dirac
indices of spin circle-manifolds with isolated fixed points.

Layering (each module only depends on the ones above it):

    ring        exact coefficients: Q(s) as canonical integer values
                with one reduction, over Z[s]
    qseries     truncated series in p = q^{1/4}, as values
    witten      the four tensor-series characters and the one exact
                product engine, on packed integer Laurent rows, behind
                every exact series and check, with the substitutions
                s -> p^m s and s -> i^k s on its factors
    elliptic    the four theta quotients, exact and numeric, and their
                translation identities
    spinchar    rotation data, spinor (super)traces, chi, orientation signs
    zem         the invariant functions Z / EM and the identity suites,
                the q -> 0 degeneration among them
    fixedpoint  manifold data, equivariant indices, rigidity
    cli         command-line surface

All value types are immutable after construction.  The package starts no
thread.  ``zem.identity_check`` forks one worker process per extra CPU the
process may run on, each running a contiguous share of the trials, and
merges their shares into the report the serial loop would give.  The one
cache of exact series (``phi_exact``'s lru_cache in elliptic) is a plain
memoization with no locking, and each process has its own.

Every function and method defined here is reached by a command of ``cli``,
save the few that tests/test_layering.py lists, each with its reason.  The
independent sides of the identities that only the tests check (the exact
EM_eps series, the numeric j-factor and Pfaffian) live in the tests'
reference modules.
"""

from .ring import PoleEvaluationError, RationalFunctionQi
from .qseries import (
    PSeries,
    SubstitutionError,
)
from .elliptic import (
    EllipticParams,
    PoleError,
    phi_exact,
    phi_numeric,
    phi_translate_check,
)
from .spinchar import (
    CyclicAction,
    RotationData,
    chi,
    epsilon_J,
    os_sign,
    spinor_trace,
    v_sign,
)
from .witten import witten_char
from .zem import (
    IdentityReport,
    LatticeElement,
    em_eps,
    em_fun,
    identity_check,
    z_character,
    z_fun,
)
from .fixedpoint import (
    CATALOG,
    SpinCircleManifold,
    equivariant_index,
    index_numeric,
    load_manifold,
    rigidity_check,
    simplify_character,
    special_orders,
    witten_index,
    witten_index_numeric,
)

__all__ = [
    "RationalFunctionQi",
    "PoleEvaluationError",
    "PSeries",
    "SubstitutionError",
    "EllipticParams",
    "PoleError",
    "phi_exact",
    "phi_numeric",
    "phi_translate_check",
    "CyclicAction",
    "RotationData",
    "chi",
    "epsilon_J",
    "os_sign",
    "spinor_trace",
    "v_sign",
    "witten_char",
    "IdentityReport",
    "LatticeElement",
    "em_eps",
    "em_fun",
    "identity_check",
    "z_character",
    "z_fun",
    "CATALOG",
    "SpinCircleManifold",
    "equivariant_index",
    "index_numeric",
    "load_manifold",
    "rigidity_check",
    "simplify_character",
    "special_orders",
    "witten_index",
    "witten_index_numeric",
]

__version__ = "0.1.0"
