"""Single-database verification engines (Research Challenge 1).

Every engine implements ``verify(update, now) -> VerificationOutcome``
and declares a leakage profile.  Engines with running state (Paillier,
ZKP, DP index) only *propose* state changes in ``verify``; the caller
commits them with ``note_applied(update, now)`` once the update is
applied, as the pipeline's apply stage does.  Engines hold their own view of the
data (ciphertexts, commitments, sealed rows, noisy histograms) and a
``manager_transcript`` list recording exactly what the untrusted
manager observed, which the leakage tests compare against the profile.

Engines and their paper anchors:

* :class:`PlaintextVerifier` — the non-private baseline Section 6 says
  to compare against;
* :class:`PaillierVerifier` — homomorphic-encryption path: the manager
  aggregates ciphertexts; the data owner (key holder) makes the final
  comparison and returns only the decision bit;
* :class:`ZKPVerifier` — the verifiable-computation path: the producer
  commits to values and proves bound satisfaction in zero knowledge;
  the manager verifies proofs and never sees values;
* :class:`EnclaveVerifier` — hardware-protected computation;
* :class:`DPIndexVerifier` — differentially-private partial
  disclosure: approximate verification from noisy histograms,
  trading accuracy for budget.
"""

from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import PReVerError, PrivacyError
from repro.common.metrics import MetricsRegistry
from repro.core.outcome import VerificationOutcome
from repro.core.routing import ConstraintRouter
from repro.crypto.commitments import PedersenCommitter
from repro.crypto.paillier import PaillierKeyPair, generate_paillier_keypair
from repro.crypto import zkp
from repro.model.constraints import Comparison, Constraint
from repro.model.update import Update
from repro.obs.tracing import NOOP_TRACER
from repro.privacy import leakage as lk
from repro.privacy.dp import DPIndex
from repro.privacy.enclave import TrustedEnclaveSimulator


class EngineError(PReVerError):
    """A verification engine failed or was misconfigured."""


class BaseVerifier:
    """Common plumbing: constraint list, routing, metrics, transcript."""

    name = "base"
    profile = lk.PLAINTEXT_PROFILE

    def __init__(self, constraints: Sequence[Constraint],
                 metrics: Optional[MetricsRegistry] = None):
        self.constraints = list(constraints)
        self.metrics = metrics or MetricsRegistry()
        self.manager_transcript: List = []
        self._router = ConstraintRouter(self.constraints)
        self._constraint_ids = [c.constraint_id for c in self.constraints]
        self._verifications = self.metrics.counter(f"{self.name}.verifications")
        # Tracing hooks: the framework binds its tracer once and, per
        # traced update, the "verify" span so engine crypto spans nest
        # under it.  With the default no-op tracer both are free.
        self.tracer = NOOP_TRACER
        self._parent_span = None
        # State writes the last verified update proposed, as
        # ``(update, [(state, key, value), ...])``; :meth:`note_applied`
        # commits them once that update is applied, so a contribution
        # that a later constraint rejects, or whose apply fails, never
        # counts.
        self._pending: Optional[tuple] = None

    def bind_tracer(self, tracer) -> None:
        self.tracer = tracer

    def bind_span(self, span) -> None:
        """Parent span for crypto sub-spans of the current update."""
        self._parent_span = span

    def _observe(self, item) -> None:
        """Record something the untrusted manager gets to see."""
        self.manager_transcript.append(item)

    def constraints_for(self, update: Update) -> List[Constraint]:
        """Constraints applicable to the update's table, in
        registration order (table-scoped ones route; unscoped ones
        apply everywhere)."""
        return self._router.route(update.table)

    def verify(self, update: Update, now: float) -> VerificationOutcome:
        raise NotImplementedError

    def _decide(self, update: Update, check,
                timer: str) -> VerificationOutcome:
        """Run ``check(constraint, update, writes)`` over the update's
        constraints in order, timing each under ``timer``.  An
        accepting check appends the state writes it proposes to
        ``writes``; they are held for :meth:`note_applied` only when
        every constraint accepts."""
        self._pending = None
        writes: list = []
        record = self.metrics.timer(timer).record
        clock = perf_counter  # direct timing; timed() costs ~2us per check
        for constraint in self.constraints_for(update):
            start = clock()
            ok = check(constraint, update, writes)
            record(clock() - start)
            if not ok:
                return self._outcome(False, failed=constraint.constraint_id)
        self._pending = (update, writes)
        return self._outcome(True)

    # The apply stage calls ``note_applied`` after each successful
    # database apply, so engines keep state only for updates that were
    # actually incorporated.

    def note_applied(self, update: Update, now: float) -> None:
        """Commit the state writes :meth:`verify` proposed for
        ``update`` (the engine contract: call this after every
        successful apply of a verified update)."""
        pending, self._pending = self._pending, None
        if pending is not None and pending[0] is update:
            for state, key, value in pending[1]:
                state[key] = value

    # -- durability hooks (see repro.durability) --------------------------
    #
    # Engines whose verification state is *not* derivable from the
    # shared databases (e.g. Paillier's ciphertext aggregates) override
    # these three so snapshots capture the state and WAL replay rebuilds
    # it.  The defaults declare "nothing beyond the databases".

    def durable_state(self) -> Optional[dict]:
        """Engine state a snapshot must persist (None = nothing —
        everything this engine needs lives in the shared databases)."""
        return None

    def restore_durable_state(self, state: Optional[dict]) -> None:
        """Load :meth:`durable_state` output during recovery."""
        if state is not None:
            raise EngineError(
                f"engine {self.name!r} cannot restore durable state"
            )

    def replay_applied(self, update: Update, now: float) -> None:
        """Re-apply one anchored-as-applied update's effect on engine
        state during WAL replay (the decision is already made; no
        verification or transcript observation happens here)."""

    @staticmethod
    def _dump_groups(states: Dict[str, Dict[tuple, object]], fields) -> dict:
        """Per-constraint, per-group state in snapshot form:
        ``{constraint_id: [[group, *fields(value)], ...]}``, groups in
        a stable order."""
        return {
            constraint_id: [
                [list(group), *fields(value)]
                for group, value in sorted(groups.items(),
                                           key=lambda item: repr(item[0]))
            ]
            for constraint_id, groups in states.items()
        }

    @staticmethod
    def _load_groups(dumped: dict, states: Dict[str, Dict[tuple, object]],
                     value) -> None:
        """Inverse of :meth:`_dump_groups`, rebuilding each entry as
        ``value(*fields)``; an unknown constraint id fails closed."""
        for constraint_id, rows in dumped.items():
            if constraint_id not in states:
                raise EngineError(
                    f"snapshot names unknown constraint {constraint_id!r}"
                )
            for group, *fields in rows:
                states[constraint_id][tuple(group)] = value(*fields)

    def _outcome(self, accepted: bool, failed: Optional[str] = None,
                 **evidence) -> VerificationOutcome:
        self._verifications.add()
        return VerificationOutcome(
            accepted=accepted,
            engine=self.name,
            constraint_ids=list(self._constraint_ids),
            failed_constraint=failed,
            evidence=evidence,
        )


class PlaintextVerifier(BaseVerifier):
    """Reference semantics: direct evaluation on plaintext databases."""

    name = "plaintext"
    profile = lk.PLAINTEXT_PROFILE

    def __init__(self, databases: Sequence, constraints: Sequence[Constraint],
                 metrics: Optional[MetricsRegistry] = None):
        super().__init__(constraints, metrics)
        self.databases = list(databases)

    def verify(self, update: Update, now: float) -> VerificationOutcome:
        self._observe(dict(update.payload))  # the baseline leaks everything
        return self._decide(
            update, lambda constraint, update, writes: constraint.check(
                self.databases, update, now),
            "plaintext.check")


class PaillierVerifier(BaseVerifier):
    """RC1 via additively homomorphic encryption.

    The manager stores per-group encrypted running aggregates.  On each
    update it homomorphically adds the encrypted contribution and sends
    the resulting ciphertext to the data owner, who decrypts, compares
    against the (public or owner-known) bound, and returns the decision
    bit.  The manager's transcript contains only ciphertext values and
    group keys (access pattern) — asserted by the leakage tests.

    Only linear aggregate constraints are supported; a non-linear
    constraint raises at construction (fail-closed), which reproduces
    the expressiveness gap the paper attributes to partially
    homomorphic schemes.
    """

    name = "paillier"
    profile = lk.PAILLIER_PROFILE

    def __init__(
        self,
        constraints: Sequence[Constraint],
        keypair: Optional[PaillierKeyPair] = None,
        key_bits: int = 256,
        scale: int = 1,
        metrics: Optional[MetricsRegistry] = None,
    ):
        super().__init__(constraints, metrics)
        for constraint in self.constraints:
            if not (constraint.is_aggregate and constraint.is_linear()):
                raise EngineError(
                    f"PaillierVerifier supports linear aggregate "
                    f"constraints only; {constraint.name!r} is not"
                )
            if constraint.comparison not in (Comparison.LE, Comparison.GE,
                                             Comparison.LT, Comparison.GT):
                raise EngineError("unsupported comparison for Paillier engine")
        self.keypair = keypair or generate_paillier_keypair(key_bits)
        self.scale = scale  # fixed-point scale for float contributions
        # manager-side state: constraint_id -> group key -> ciphertext
        self._cipher_aggregates: Dict[str, Dict[tuple, object]] = {
            c.constraint_id: {} for c in self.constraints
        }

    def _encrypt_contribution(self, constraint: Constraint, update: Update):
        contribution = constraint.aggregate.contribution_of(update.payload)
        fixed = int(round(contribution * self.scale))
        return self.keypair.public_key.encrypt_signed(fixed), fixed

    def precompute(self, updates_expected: int, rng=None) -> int:
        """Offline phase: bank ``r^n mod n²`` obfuscators for the next
        ``updates_expected`` updates (one encryption per constraint
        each).  Returns the resulting pool size."""
        return self.keypair.public_key.precompute_randomness(
            updates_expected * max(1, len(self.constraints)), rng=rng,
        )

    def verify(self, update: Update, now: float) -> VerificationOutcome:
        return self._decide(update, self._check_one, "paillier.check")

    def _check_one(self, constraint: Constraint, update: Update,
                   writes: list) -> bool:
        group = constraint.aggregate.group_of(update.payload)
        tracing = self.tracer.enabled
        if tracing:
            with self.tracer.span("paillier.encrypt",
                                  parent=self._parent_span,
                                  constraint=constraint.constraint_id):
                ciphertext, _ = self._encrypt_contribution(constraint, update)
        else:
            ciphertext, _ = self._encrypt_contribution(constraint, update)
        # Manager side: homomorphic aggregation over ciphertexts.
        aggregates = self._cipher_aggregates[constraint.constraint_id]
        current = aggregates.get(group)
        proposed = ciphertext if current is None else current + ciphertext
        self._observe(("group", group))
        self._observe(("ciphertext", proposed.value))
        self.metrics.counter("paillier.homomorphic_ops").add()
        # Owner side: decrypt the proposed aggregate, compare, answer.
        if tracing:
            with self.tracer.span("paillier.decrypt",
                                  parent=self._parent_span,
                                  constraint=constraint.constraint_id):
                plaintext = self.keypair.private_key.decrypt_signed(proposed)
        else:
            plaintext = self.keypair.private_key.decrypt_signed(proposed)
        accepted = constraint.comparison.apply(
            plaintext / self.scale, float(constraint.bound)
        )
        if accepted:
            writes.append((aggregates, group, proposed))
        return accepted

    # -- durability hooks --------------------------------------------------

    def durable_state(self) -> dict:
        """Ciphertext aggregates, as integers — never decrypted totals.

        The snapshot holds only what the untrusted manager already
        sees (ciphertext values and group keys), so persisting it adds
        no leakage.  The keypair is deliberately absent: the operator
        re-supplies the same key material when rebuilding the engine,
        and ``n`` is stored to fail closed on a mismatch.
        """
        return {
            "n": self.keypair.public_key.n,
            "scale": self.scale,
            "aggregates": self._dump_groups(
                self._cipher_aggregates, lambda ciphertext: [ciphertext.value]
            ),
        }

    def restore_durable_state(self, state: Optional[dict]) -> None:
        """Rebuild ciphertext aggregates from :meth:`durable_state`."""
        from repro.crypto.paillier import PaillierCiphertext

        if state is None:
            return
        if state["n"] != self.keypair.public_key.n:
            raise EngineError(
                "snapshot was taken under a different Paillier keypair"
            )
        if state["scale"] != self.scale:
            raise EngineError("snapshot fixed-point scale mismatch")
        public_key = self.keypair.public_key
        self._load_groups(state["aggregates"], self._cipher_aggregates,
                          lambda value: PaillierCiphertext(public_key, value))

    def replay_applied(self, update: Update, now: float) -> None:
        """Fold a replayed update into the running aggregates.

        Re-encrypts the contribution and adds it homomorphically — no
        decryption: the accept decision was already made and anchored,
        and decisions depend only on decrypted *sums*, so the fresh
        ciphertext randomness changes nothing observable.
        """
        for constraint in self.constraints_for(update):
            group = constraint.aggregate.group_of(update.payload)
            ciphertext, _ = self._encrypt_contribution(constraint, update)
            aggregates = self._cipher_aggregates[constraint.constraint_id]
            current = aggregates.get(group)
            aggregates[group] = (
                ciphertext if current is None else current + ciphertext
            )


class ZKPVerifier(BaseVerifier):
    """RC1 via producer-side zero-knowledge proofs.

    The manager keeps, per group, the homomorphic product of Pedersen
    commitments to all accepted contributions.  A producer submitting
    an update must supply a :class:`~repro.crypto.zkp.BoundProof` that
    the *new* cumulative total stays within the bound.  The manager
    verifies the proof against the combined commitment — it never sees
    any value.  The producer must know the current total (it does: the
    totals are its own submissions; the framework echoes the running
    commitment randomness back over a secure owner channel).

    Engine limitation: the range proofs only cover non-negative
    contributions, so an update contributing a negative amount is
    rejected (``failed_constraint`` = the constraint's id) even where
    the plaintext reference would accept it.
    """

    name = "zkp"
    profile = lk.profile(
        "zkp",
        lk.LeakageClass.DECISION_BIT,
        lk.LeakageClass.TIMING,
        lk.LeakageClass.VOLUME,
        lk.LeakageClass.ACCESS_PATTERN,
        notes="manager sees commitments and proofs only",
    )

    def __init__(
        self,
        constraints: Sequence[Constraint],
        bits: int = 16,
        committer: Optional[PedersenCommitter] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        super().__init__(constraints, metrics)
        for constraint in self.constraints:
            if not constraint.is_aggregate or constraint.comparison not in (
                Comparison.LE, Comparison.GE,
            ):
                raise EngineError(
                    "ZKPVerifier supports upper/lower-bound aggregate "
                    "constraints"
                )
        # Proof width must cover both the running total and the slack to
        # the bound, so widen it to the largest registered bound.
        max_bound_bits = max(
            (int(c.bound).bit_length() for c in self.constraints), default=0
        )
        self.bits = max(bits, max_bound_bits)
        self.committer = committer or PedersenCommitter()
        # manager side: constraint -> group -> combined commitment value
        self._commitments: Dict[str, Dict[tuple, object]] = {
            c.constraint_id: {} for c in self.constraints
        }
        # producer/owner side: running totals + randomness (secret)
        self._secret_state: Dict[str, Dict[tuple, Tuple[int, int]]] = {
            c.constraint_id: {} for c in self.constraints
        }

    def verify(self, update: Update, now: float) -> VerificationOutcome:
        return self._decide(update, self._check_one, "zkp.check")

    def _check_one(self, constraint: Constraint, update: Update,
                   writes: list) -> bool:
        group = constraint.aggregate.group_of(update.payload)
        contribution = int(constraint.aggregate.contribution_of(update.payload))
        if contribution < 0:
            # No range proof exists for it: reject, fail-closed.
            self.metrics.counter("zkp.refused").add()
            return False
        secrets = self._secret_state[constraint.constraint_id]
        total, _ = secrets.get(group, (0, 0))
        new_total = total + contribution
        bound = int(constraint.bound)
        satisfied = (
            new_total <= bound
            if constraint.comparison is Comparison.LE
            else new_total >= bound
        )
        if not satisfied:
            # The producer cannot construct a valid proof; an honest
            # client refuses, a cheating client's proof won't verify.
            self.metrics.counter("zkp.refused").add()
            return False
        # Producer: commit to the new total and prove the bound.
        # GE totals grow without bound, so widen the proof as needed.
        bits = max(self.bits, int(new_total).bit_length() + 1)
        if constraint.comparison is Comparison.LE:
            commitment, randomness, proof = zkp.prove_upper_bound(
                self.committer, new_total, bound, bits
            )
            verify = zkp.verify_upper_bound
        else:
            commitment, randomness, proof = zkp.prove_lower_bound(
                self.committer, new_total, bound, bits
            )
            verify = zkp.verify_lower_bound
        # Manager: verify; its view is (group, commitment, proof).
        self._observe(("group", group))
        self._observe(("commitment", commitment.value))
        accepted = verify(self.committer, commitment, proof)
        self.metrics.counter("zkp.proofs_verified").add()
        if accepted:
            writes.append((self._commitments[constraint.constraint_id],
                           group, commitment))
            writes.append((secrets, group, (new_total, randomness)))
        return accepted

    # -- durability hooks --------------------------------------------------

    def durable_state(self) -> dict:
        """The owner-side running total and commitment randomness per
        group.  The totals count only what this engine accepted, so
        they do not derive from the databases; the manager's
        commitments derive from them."""
        return {"groups": self._dump_groups(self._secret_state, list)}

    def restore_durable_state(self, state: Optional[dict]) -> None:
        """Rebuild totals and commitments from :meth:`durable_state`."""
        if state is None:
            return
        self._load_groups(state["groups"], self._secret_state,
                          lambda total, randomness: (total, randomness))
        for constraint_id, secrets in self._secret_state.items():
            for group, (total, randomness) in secrets.items():
                self._commitments[constraint_id][group] = \
                    self.committer.commit_with(total, randomness)

    def replay_applied(self, update: Update, now: float) -> None:
        """Fold a replayed update into the running totals under a fresh
        commitment (no proof: the decision is already anchored)."""
        for constraint in self.constraints_for(update):
            aggregate = constraint.aggregate
            group = aggregate.group_of(update.payload)
            secrets = self._secret_state[constraint.constraint_id]
            total = (secrets.get(group, (0, 0))[0]
                     + int(aggregate.contribution_of(update.payload)))
            commitment, randomness = self.committer.commit(total)
            self._commitments[constraint.constraint_id][group] = commitment
            secrets[group] = (total, randomness)


class EnclaveVerifier(BaseVerifier):
    """RC1 via hardware-protected computation (simulated enclave)."""

    name = "enclave"
    profile = lk.ENCLAVE_PROFILE

    def __init__(
        self,
        databases: Sequence,
        constraints: Sequence[Constraint],
        epc_capacity: int = 1000,
        metrics: Optional[MetricsRegistry] = None,
    ):
        super().__init__(constraints, metrics)
        self.databases = list(databases)
        self.enclave = TrustedEnclaveSimulator(
            constraints=self.constraints, epc_capacity=epc_capacity
        )
        self.expected_measurement = self.enclave.attest()

    def verify(self, update: Update, now: float) -> VerificationOutcome:
        with self.metrics.timed("enclave.check"):
            failed, measurement = self.enclave.first_failure(
                self.databases, update, now
            )
        if measurement != self.expected_measurement:
            raise PrivacyError("enclave attestation mismatch")
        self._observe(("decision", failed is None))
        if failed is not None:
            return self._outcome(False, failed=failed)
        return self._outcome(True, attestation=measurement)


class DPIndexVerifier(BaseVerifier):
    """RC1 via differentially private partial disclosure.

    The manager holds a DP histogram of the per-group aggregate values
    and verifies against it — *approximately*.  False accepts/rejects
    happen with probability governed by the noise scale; the accuracy
    experiment (bench E3/E4) quantifies them and the budget accountant
    eventually halts refreshes, reproducing the paper's exhaustion
    concern.
    """

    name = "dp-index"
    profile = lk.DP_INDEX_PROFILE

    def __init__(
        self,
        databases: Sequence,
        constraints: Sequence[Constraint],
        index: DPIndex,
        refresh_every: int = 10,
        metrics: Optional[MetricsRegistry] = None,
    ):
        super().__init__(constraints, metrics)
        if len(self.constraints) != 1 or not self.constraints[0].is_aggregate:
            raise EngineError("DPIndexVerifier handles a single aggregate constraint")
        self.databases = list(databases)
        self.index = index
        self.refresh_every = refresh_every
        self._since_refresh = 0
        self._noisy_totals: Dict[tuple, float] = {}

    def verify(self, update: Update, now: float) -> VerificationOutcome:
        constraint = self.constraints[0]
        group = constraint.aggregate.group_of(update.payload)
        contribution = constraint.aggregate.contribution_of(update.payload)
        self._since_refresh += 1
        if self._since_refresh >= self.refresh_every or group not in self._noisy_totals:
            self._refresh_group(constraint, update, group, now)
        noisy_total = self._noisy_totals.get(group, 0.0)
        proposed = noisy_total + contribution
        accepted = constraint.comparison.apply(proposed, float(constraint.bound))
        self._observe(("noisy_total", round(noisy_total, 3)))
        if not accepted:
            self._pending = None
            return self._outcome(False, failed=constraint.constraint_id)
        self._pending = (update, [(self._noisy_totals, group, proposed)])
        return self._outcome(True)

    def _refresh_group(self, constraint: Constraint, update: Update,
                       group: tuple, now: float) -> None:
        true_total = constraint.aggregate.evaluate_over(
            self.databases, update.table, update.payload, now
        )
        self.index.accountant.charge(
            self.index.epsilon_per_refresh, label="dp-verify-refresh"
        )
        noisy = self.index.mechanism.add_noise(
            true_total, 1.0, self.index.epsilon_per_refresh
        )
        self._noisy_totals[group] = max(0.0, noisy)
        self._since_refresh = 0
