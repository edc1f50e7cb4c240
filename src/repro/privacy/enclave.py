"""A trusted-hardware (enclave) simulator — RC1's third alternative.

The paper: "To improve the performance of updates, secure hardware,
i.e., hardware protected computation can be used.  However, secure
hardware has scalability issues."  The simulator reproduces both
halves of that sentence:

* the enclave evaluates constraints on *plaintext* inside a sealed
  boundary — fast per call, nothing homomorphic — and the untrusted
  host only ever sees the attested decision;
* scalability limits are modeled explicitly: a bounded enclave memory
  (EPC) — exceeding it forces pages to be evicted and re-loaded with a
  configurable penalty, which is how SGX behaves — and a fixed
  per-call transition overhead (ECALL cost).

Attestation: the enclave publishes a measurement (hash of the
constraint set it was provisioned with); callers can compare it to the
expected measurement before trusting decisions.
"""

import hashlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.clock import SimClock
from repro.common.errors import PrivacyError
from repro.common.serialization import canonical_bytes


class TrustedEnclaveSimulator:
    """Constraint evaluation inside a sealed, capacity-limited boundary."""

    def __init__(
        self,
        constraints: Sequence,
        epc_capacity: int = 1000,
        ecall_overhead: float = 0.00001,
        page_fault_penalty: float = 0.0005,
        clock: Optional[SimClock] = None,
    ):
        self._constraints = list(constraints)
        self.epc_capacity = epc_capacity
        self.ecall_overhead = ecall_overhead
        self.page_fault_penalty = page_fault_penalty
        self.clock = clock or SimClock()
        self._resident: Dict[Any, Dict] = {}   # sealed row cache (LRU-ish)
        self._lru: List[Any] = []
        self.ecalls = 0
        self.page_faults = 0
        self.measurement = self._measure()

    def _measure(self) -> str:
        payload = canonical_bytes(
            [c.body_bytes().hex() for c in self._constraints]
        )
        return hashlib.sha256(payload).hexdigest()

    def attest(self) -> str:
        """The enclave's code/data measurement (verify before trusting)."""
        return self.measurement

    # -- sealed data management -------------------------------------------

    def provision_row(self, key: Any, row: Dict) -> None:
        """Load a plaintext row into enclave memory (sealed channel —
        the host never observes the plaintext)."""
        self._touch(key)
        self._resident[key] = dict(row)
        self._evict_if_needed()

    def _touch(self, key: Any) -> None:
        if key in self._lru:
            self._lru.remove(key)
        self._lru.append(key)

    def _evict_if_needed(self) -> None:
        while len(self._resident) > self.epc_capacity:
            victim = self._lru.pop(0)
            self._resident.pop(victim, None)

    # -- evaluation ------------------------------------------------------------

    def verify_update(self, databases, update, now: float) -> Tuple[bool, str]:
        """ECALL: evaluate the constraints; returns (decision, attestation).

        The host's entire view is the boolean + the measurement hash.
        """
        failed, measurement = self.first_failure(databases, update, now)
        return failed is None, measurement

    def first_failure(self, databases, update,
                      now: float) -> Tuple[Optional[str], str]:
        """ECALL: evaluate, in provisioning order, the constraints
        scoped to the update's table (unscoped ones apply everywhere);
        returns (id of the first that fails, or None; attestation)."""
        self.ecalls += 1
        self.clock.advance(self.ecall_overhead)
        key = (update.table, tuple(update.key) if update.key else None)
        if key not in self._resident:
            self.page_faults += 1
            self.clock.advance(self.page_fault_penalty)
            self._touch(key)
            self._resident[key] = {}
            self._evict_if_needed()
        for constraint in self._constraints:
            if constraint.tables and update.table not in constraint.tables:
                continue
            if not constraint.check(databases, update, now):
                return constraint.constraint_id, self.measurement
        return None, self.measurement

    # -- the privacy boundary -----------------------------------------------------

    def host_view(self) -> Dict[str, Any]:
        """What the untrusted host can observe: call counts and timing,
        never contents."""
        return {
            "ecalls": self.ecalls,
            "page_faults": self.page_faults,
            "elapsed": self.clock.now(),
            "measurement": self.measurement,
        }

    def read_sealed(self, key: Any) -> None:
        """Host attempts to read sealed memory — always refused."""
        raise PrivacyError("enclave memory is sealed")
