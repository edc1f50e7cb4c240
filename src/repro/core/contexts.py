"""Factory functions for the canonical PReVer instantiations.

Section 5: "choosing the right set of techniques depends on three main
criteria: (1) data is private or public, (2) the database is single or
federated, and (3) the instantiation is centralized or decentralized."
These factories encode that decision matrix:

* :func:`single_private_database` — RC1: one outsourced database,
  honest-but-curious manager; engine selectable among paillier / zkp /
  enclave / dp-index / plaintext; integrity via a central ledger.
* :func:`federated_private_databases` — RC2+RC4: several mutually
  distrustful platforms; engine selectable between token (centralized)
  and mpc (decentralized); integrity via a shared ledger (the Separ
  deployment replaces it with a sharded blockchain).
* :func:`public_database` — RC3: public data, private updates; PIR
  engine; integrity via a central ledger.
"""

from typing import Callable, List, Optional, Sequence, Tuple

from repro.common.errors import PReVerError
from repro.core.federated import MPCVerifier, TokenVerifier
from repro.core.framework import PReVer
from repro.core.pir_engine import PIRVerifier
from repro.core.verifiers import (
    DPIndexVerifier,
    EnclaveVerifier,
    PaillierVerifier,
    PlaintextVerifier,
    ZKPVerifier,
)
from repro.database.engine import Database
from repro.ledger.central import CentralLedger
from repro.model.constraints import Constraint
from repro.model.policy import (
    CONFERENCE_POLICY,
    SUSTAINABILITY_POLICY,
    CROWDWORKING_POLICY,
    PrivacyPolicy,
    Visibility,
)
from repro.model.threat import ThreatModel
from repro.privacy.dp import DPIndex, LaplaceMechanism, PrivacyAccountant
from repro.privacy.pir import TwoServerXorPIR


def single_private_database(
    database: Database,
    constraints: Sequence[Constraint],
    engine: str = "paillier",
    policy: Optional[PrivacyPolicy] = None,
    dp_epsilon_total: float = 5.0,
    dp_epsilon_per_refresh: float = 0.25,
    tracer=None,
    durability=None,
    profiler=None,
) -> PReVer:
    """RC1 context: outsourced single database, untrusted manager.

    ``durability`` takes a :class:`repro.durability.Durability` policy
    (default off — nothing persisted); ``profiler`` an optional
    :class:`repro.obs.profiler.SamplingProfiler` (default: built from
    ``REPRO_PROFILE``, i.e. off unless the environment opts in)."""
    constraints = list(constraints)
    if engine == "paillier":
        verifier = PaillierVerifier(constraints)
    elif engine == "zkp":
        verifier = ZKPVerifier(constraints)
    elif engine == "enclave":
        verifier = EnclaveVerifier([database], constraints)
    elif engine == "dp-index":
        accountant = PrivacyAccountant(dp_epsilon_total)
        index = DPIndex(
            low=0.0, high=1e6, bins=64,
            accountant=accountant,
            epsilon_per_refresh=dp_epsilon_per_refresh,
        )
        verifier = DPIndexVerifier([database], constraints, index)
    elif engine == "plaintext":
        verifier = PlaintextVerifier([database], constraints)
    else:
        raise PReVerError(f"unknown RC1 engine {engine!r}")
    framework = PReVer(
        databases=[database],
        engine=verifier,
        policy=policy or SUSTAINABILITY_POLICY,
        threat_model=ThreatModel.honest_but_curious_manager(),
        tracer=tracer,
        durability=durability,
        profiler=profiler,
    )
    for constraint in constraints:
        if constraint.kind.value == "internal":
            framework.register_constraint(constraint)
        else:
            framework.constraints.append(constraint)  # pre-signed upstream
    return framework


def federated_private_databases(
    databases: Sequence[Database],
    constraint: Constraint,
    engine: str = "token",
    mpc_width: int = 12,
) -> Tuple[PReVer, object]:
    """RC2 context: mutually distrustful platforms, one regulation.

    Returns (framework, verifier) — the verifier is returned as well
    because federated engines expose extra API (wallets, lower-bound
    checks, MPC stats).
    """
    if len(databases) < 2:
        raise PReVerError("a federation needs at least two databases")
    if engine == "token":
        verifier = TokenVerifier(constraint)
    elif engine == "mpc":
        verifier = MPCVerifier(databases, constraint, width=mpc_width)
    elif engine == "plaintext":
        verifier = PlaintextVerifier(databases, [constraint])
    else:
        raise PReVerError(f"unknown RC2 engine {engine!r}")
    threat = (
        ThreatModel.covert_colluding_platforms([d.name for d in databases])
        if engine != "plaintext"
        else ThreatModel.honest_but_curious_manager()
    )
    framework = PReVer(
        databases=list(databases),
        engine=verifier,
        policy=CROWDWORKING_POLICY,
        threat_model=threat,
    )
    framework.constraints.append(constraint)
    return framework, verifier


def public_database(
    database: Database,
    constraint: Constraint,
    records: Sequence[bytes],
    record_index_of: Callable,
    predicate: Callable,
    record_size: int = 64,
) -> Tuple[PReVer, PIRVerifier]:
    """RC3 context: public data, private updates, PIR verification."""
    pir = TwoServerXorPIR(records, record_size=record_size)
    verifier = PIRVerifier(
        pir=pir,
        constraint=constraint,
        record_index_of=record_index_of,
        predicate=predicate,
    )
    framework = PReVer(
        databases=[database],
        engine=verifier,
        policy=CONFERENCE_POLICY,
        threat_model=ThreatModel.honest_but_curious_manager(),
    )
    framework.constraints.append(constraint)
    return framework, verifier
