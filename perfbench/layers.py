"""Spans and counters recorded from outside fedtee, at its layer entry points.

Every wrapper is installed at the name the caller resolves at call time: a
module attribute (``crypto.ae_encrypt``), a class attribute (``Router.call``)
or one of the two names bound at import time (``enclave.HOOKS["fedavg"]``,
``harness.initial_model``). A target that no longer exists raises at install
time, so a renamed entry point can never read as a layer that costs nothing.

A span is ``[name, start, end, parent]``. A span's self time is its duration
minus that of its direct children, and each span name belongs to exactly one
self-time bucket, so the buckets partition the root span's wall time.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

ROOT = "harness.task"

# (name, unit) of every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("crypto.aead_calls", "count"),
    ("crypto.aead_bytes", "B"),
    ("crypto.aead_s", "s"),
    ("crypto.ecdsa_calls", "count"),
    ("crypto.ecdsa_s", "s"),
    ("crypto.p256_calls", "count"),
    ("crypto.p256_s", "s"),
    ("model.codec_calls", "count"),
    ("model.codec_bytes", "B"),
    ("model.codec_s", "s"),
    ("model.aggregate_s", "s"),
    ("model.synth_s", "s"),
    ("enclave.resume_calls", "count"),
    ("enclave.resume_self_s", "s"),
    ("enclave.provision_s", "s"),
    ("ledger.store_calls", "count"),
    ("ledger.store_rejected", "count"),
    ("ledger.store_self_s", "s"),
    ("ledger.read_calls", "count"),
    ("ledger.read_self_s", "s"),
    ("transport.frames", "count"),
    ("transport.bytes", "B"),
    ("transport.self_s", "s"),
    ("roles.client_self_s", "s"),
    ("roles.node_self_s", "s"),
    ("roles.ledger_party_self_s", "s"),
    ("roles.owner_self_s", "s"),
    ("committee.schedule_s", "s"),
    ("committee.failovers", "count"),
    ("committee.conf_bytes", "B"),
    ("harness.scan_s", "s"),
    ("harness.oracle_self_s", "s"),
    ("harness.self_s", "s"),
    ("config.initial_model_s", "s"),
    ("trace.overhead_s", "s"),
]

# Self-time buckets; together they add up to the root span.
SELF_TIME = [name for name, unit in PER_LAYER if unit == "s" and name != "trace.overhead_s"]
# Counts that a run must repeat exactly for the same seed.
EXACT = [name for name, unit in PER_LAYER if unit != "s"]


class Tracer:
    """In-memory spans and counters, filled by the wrappers it installs."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.kept: dict[str, object] = {}
        self.errors: list[str] = []
        self.bucket: dict[str, str] = {ROOT: "harness.self_s"}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.kept.clear()

    # -- wrappers ----------------------------------------------------------------

    def wrap(self, name: str, fn, bucket: str | None, count=None, keep: bool = False):
        """``fn`` recorded as span ``name``; ``bucket=None`` records no span.

        ``count(counts, args, result)`` runs after the call, with ``result``
        None when the call raised.
        """
        spans, stack, counts, kept = self.spans, self._stack, self.counts, self.kept
        if bucket is not None:
            self.bucket[name] = bucket

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = None
            rec = None
            if bucket is not None:
                rec = [name, perf_counter(), None, stack[-1]]
                stack.append(len(spans))
                spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if rec is not None:
                    rec[2] = perf_counter()
                    stack.pop()
                if keep:
                    kept[name] = result
                if count is not None:
                    try:
                        count(counts, args, result)
                    except Exception as exc:  # surfaced after the task, never inside fedtee
                        self.errors.append(f"{name}: {exc!r}")

        return wrapper

    def patch(self, owner, attr: str, name: str, bucket: str | None, count=None, keep=False):
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by its wrapper."""
        if isinstance(owner, dict):
            old = owner[attr]
            owner[attr] = self.wrap(name, old, bucket, count, keep)
        else:
            old = vars(owner)[attr]  # KeyError when the entry point is gone
            setattr(owner, attr, self.wrap(name, old, bucket, count, keep))
        self._patches.append((owner, attr, old))

    def restore(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    def root(self):
        """Open the task's root span; call the returned function to close it."""
        rec = [ROOT, perf_counter(), None, -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)

        def close() -> float:
            rec[2] = perf_counter()
            self._stack.pop()
            return rec[2] - rec[1]

        return close

    # -- results -----------------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        own = [end - start for _, start, end, _ in self.spans]
        rest = list(own)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                rest[parent] -= own[i]
        totals: dict[str, float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            totals[self.bucket[span[0]]] += rest[i]
        return totals


# -- counters -----------------------------------------------------------------------


def _calls(key):
    def count(c, args, result):
        c[key] += 1

    return count


def _aead_encrypt(c, args, result):  # ae_encrypt(key, aad, plaintext, rng=...)
    c["crypto.aead_calls"] += 1
    c["crypto.aead_bytes"] += len(args[2])


def _aead_decrypt(c, args, result):  # ae_decrypt(key, env)
    c["crypto.aead_calls"] += 1
    c["crypto.aead_bytes"] += len(args[1].ciphertext)


def _encoded(c, args, result):
    c["model.codec_calls"] += 1
    if result is not None:
        c["model.codec_bytes"] += len(result)


def _decoded(c, args, result):
    c["model.codec_calls"] += 1
    c["model.codec_bytes"] += len(args[0])


def _stored(c, args, result):
    c["ledger.store_calls"] += 1
    if result is None or not result.accepted:
        c["ledger.store_rejected"] += 1


def _failovers(c, args, result):
    c["committee.failovers"] += len(result) if result is not None else 0


def install_phases(tracer: Tracer) -> None:
    """The harness phases every run times, plus the oracle's output for the
    benchmark's own correctness check."""
    from fedtee import harness

    for phase in ("setup", "run_round", "verify"):
        tracer.patch(harness.TaskRun, phase, f"harness.{phase}", "harness.self_s")
    tracer.patch(harness, "oracle_run", "harness.oracle_run", "harness.oracle_self_s", keep=True)


def install_layers(tracer: Tracer) -> None:
    """Every layer entry point the per-layer metrics are taken from."""
    from fedtee import committee, crypto, enclave, harness, ledger, model, roles, transport

    header = len(transport.Frame(transport.MessageKind.Ack, b"").to_bytes())
    conf_kind = transport.MessageKind.ConfDeliver

    def frames_call(c, args, result):  # Router.call(self, src, dest, kind, payload)
        _, src, _, kind, payload = args
        c["transport.frames"] += 1
        c["transport.bytes"] += header + len(payload)
        if kind == conf_kind and src == "committee":
            c["committee.conf_bytes"] += header + len(payload)
        if result is not None:
            c["transport.frames"] += 1
            c["transport.bytes"] += header + len(result[1])

    def frames_send(c, args, result):  # Router.send(self, src, dest, kind, payload)
        c["transport.frames"] += 1
        c["transport.bytes"] += header + len(args[4])

    p = tracer.patch
    p(crypto, "ae_encrypt", "crypto.ae_encrypt", "crypto.aead_s", _aead_encrypt)
    p(crypto, "ae_decrypt", "crypto.ae_decrypt", "crypto.aead_s", _aead_decrypt)
    for fn in ("sig_sign", "sig_verify"):
        p(crypto, fn, f"crypto.{fn}", "crypto.ecdsa_s", _calls("crypto.ecdsa_calls"))
    for fn in ("ecdh_keypair", "derive_session_key", "load_public_key", "load_secret_key", "sig_keygen"):
        p(crypto, fn, f"crypto.{fn}", "crypto.p256_s", _calls("crypto.p256_calls"))

    for fn in ("encode_model", "encode_partial"):
        p(model, fn, f"model.{fn}", "model.codec_s", _encoded)
    for fn in ("decode_model", "decode_partial"):
        p(model, fn, f"model.{fn}", "model.codec_s", _decoded)
    for fn in ("fedavg", "partial_aggregate", "combine_partials"):
        p(model, fn, f"model.{fn}", "model.aggregate_s")
    p(enclave.HOOKS, "fedavg", "enclave.HOOKS[fedavg]", "model.aggregate_s")
    p(model, "synth_local_update", "model.synth_local_update", "model.synth_s")

    p(enclave.SgxHost, "resume", "SgxHost.resume", "enclave.resume_self_s", _calls("enclave.resume_calls"))
    for fn in ("install", "ra_respond", "getsk", "set_round", "load_partition"):
        p(enclave.SgxHost, fn, f"SgxHost.{fn}", "enclave.provision_s")

    p(ledger.Ledger, "upload_global_model", "Ledger.upload_global_model", "ledger.store_self_s", _stored)
    p(ledger.Ledger, "read", "Ledger.read", "ledger.read_self_s", _calls("ledger.read_calls"))

    p(transport.Router, "call", "Router.call", "transport.self_s", frames_call)
    p(transport.Router, "send", "Router.send", "transport.self_s", frames_send)
    p(transport.Router, "recv", "Router.recv", "transport.self_s")

    # Handlers are bound when a role registers with the router, so these
    # patches must be in place before the TaskRun is built.
    for fn in ("handle", "client_round", "client_get_global"):
        p(roles.Client, fn, f"Client.{fn}", "roles.client_self_s")
    for fn in ("handle", "compute", "missing_senders", "send_heartbeat"):
        p(roles.Node, fn, f"Node.{fn}", "roles.node_self_s")
    p(roles.LedgerParty, "handle", "LedgerParty.handle", "roles.ledger_party_self_s")
    for fn in ("owner_initialize", "owner_key_exchange", "get_global_model"):
        p(roles.TaskOwner, fn, f"TaskOwner.{fn}", "roles.owner_self_s")

    p(committee, "schedule", "committee.schedule", "committee.schedule_s")
    p(committee.Committee, "monitor_tick", "Committee.monitor_tick", None, _failovers)
    p(committee.Committee, "mark_dead", "Committee.mark_dead", None, _calls("committee.failovers"))

    p(harness.TaskRun, "scan_leaks", "TaskRun.scan_leaks", "harness.scan_s")
    p(harness, "initial_model", "harness.initial_model", "config.initial_model_s")
