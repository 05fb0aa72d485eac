//! The execution context handed to [`Protocol`] implementations.
//!
//! A [`Session`] is one protocol execution on one model instance, and the
//! simulator's one execution core: it owns the model, the round/bit
//! ledger, the worker-count override and the delivery [`Transport`].
//! Protocols drive it in bulk-synchronous phases ([`Session::exchange`]:
//! `⌈max link load / b⌉` rounds per phase) and, through
//! [`Session::run_nodes`], in strict rounds of [`NodeAlgorithm`]s on a
//! [`RoundEngine`] built over a session of its own. Sub-protocols run
//! through [`Session::run_protocol`] (same ledger) or
//! [`Session::run_nested`] (own ledger, absorbed into the parent), so a
//! composed protocol gets one coherent metrics trail no matter how many
//! execution paths it touched.

use crate::bits::BitString;
use crate::engine::RoundEngine;
use crate::metrics::{Charge, Metrics, PhaseRecord, RunReport};
use crate::model::{CliqueConfig, SimError};
use crate::node::{NodeAlgorithm, NodeId};
use crate::outcome::RunOutcome;
use crate::par;
use crate::phase::{summarize_outbox, PhaseInbox, PhaseOutbox};
use crate::protocol::Protocol;
use crate::transport::Transport;

/// One protocol execution on one model instance.
///
/// # Examples
///
/// ```
/// use clique_sim::prelude::*;
///
/// # fn main() -> Result<(), clique_sim::model::SimError> {
/// let config = CliqueConfig::builder().nodes(4).bandwidth(2).broadcast().build();
/// let mut session = Session::new(config);
/// let msgs: Vec<BitString> = (0..4).map(|i| BitString::from_bits(i, 6)).collect();
/// let inboxes = session.broadcast_all("announce", &msgs)?;
/// assert_eq!(session.rounds(), 3); // ceil(6 / 2)
/// assert!(inboxes[0].broadcast_from(NodeId::new(3)).is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Session {
    pub(crate) config: CliqueConfig,
    pub(crate) metrics: Metrics,
    /// Worker-count override, inherited by nested sessions and strict-engine
    /// runs; `None` uses the default resolution (see [`par::workers`]).
    threads: Option<usize>,
    /// The message-delivery backend. Accounting never touches it, so the
    /// ledger is identical under every backend.
    pub(crate) transport: Box<dyn Transport>,
    /// Per-destination load scratch, reused across senders and phases on
    /// the single-worker path.
    dest_load: Vec<u64>,
}

/// The result of driving [`NodeAlgorithm`]s to completion inside a session:
/// the final node states plus the run report of the strict engine.
#[derive(Debug)]
pub struct NodeRun<A> {
    /// The node algorithms after the run (e.g. to extract outputs).
    pub nodes: Vec<A>,
    /// Completion status and the metrics of the strict execution (already
    /// absorbed into the session as well).
    pub report: RunReport,
}

impl Session {
    /// Opens a session on the given model, using the process default
    /// transport (see
    /// [`transport::default_kind`](crate::transport::default_kind)).
    pub fn new(config: CliqueConfig) -> Self {
        Self {
            config,
            metrics: Metrics::new(),
            threads: None,
            transport: crate::transport::default_transport(),
            dest_load: Vec::new(),
        }
    }

    /// A fresh ledger over `config` that inherits this session's worker
    /// override and a clone of its transport (delivery state restarted, see
    /// [`Transport::clone_box`]): what nested and strict-engine runs execute
    /// on before their metrics are absorbed here.
    fn fork(&self, config: CliqueConfig) -> Session {
        Session {
            threads: self.threads,
            transport: self.transport.clone_box(),
            ..Session::new(config)
        }
    }

    /// Overrides the worker count (`None` restores the default resolution,
    /// see [`par::workers`]). Nested sessions and strict-engine runs
    /// inherit the override. Parallelism never changes transcripts, ledgers
    /// or outputs — only wall-clock time.
    pub fn set_threads(&mut self, threads: Option<usize>) {
        self.threads = threads;
    }

    /// The worker count the next phase or strict round will use: an
    /// explicit override (per-session, else [`par::set_threads`]) is
    /// honored as given; the ambient default engages only from
    /// [`par::AMBIENT_MIN_ITEMS`] players up, so small simulations skip the
    /// per-phase spawn overhead.
    pub fn threads(&self) -> usize {
        par::workers(self.threads, self.config.n, par::AMBIENT_MIN_ITEMS)
    }

    /// Replaces the message-delivery backend. Nested sessions and
    /// strict-engine runs inherit a clone of it. Transports never change
    /// transcripts, ledgers or outputs (see [`transport`](crate::transport))
    /// — only delivery mechanics.
    pub fn set_transport(&mut self, transport: Box<dyn Transport>) {
        self.transport = transport;
    }

    /// The message-delivery backend in use.
    pub fn transport(&self) -> &dyn Transport {
        self.transport.as_ref()
    }

    /// The model configuration.
    pub fn config(&self) -> &CliqueConfig {
        &self.config
    }

    /// Number of players.
    pub fn n(&self) -> usize {
        self.config.n
    }

    /// Link bandwidth in bits per round.
    pub fn bandwidth(&self) -> usize {
        self.config.bandwidth
    }

    /// Asserts the session runs on the complete clique topology — the
    /// connectivity every clique protocol assumes. Call first in
    /// [`Protocol::run`] of protocols that address arbitrary pairs or rely
    /// on broadcasts reaching everyone; on a restricted CONGEST topology
    /// such protocols would otherwise silently compute from partial views.
    ///
    /// # Panics
    ///
    /// Panics if the topology is not [`Topology::Clique`](crate::model::Topology).
    pub fn require_clique(&self) {
        assert!(
            matches!(self.config().topology, crate::model::Topology::Clique),
            "this protocol requires the complete clique topology, got {}",
            self.config()
        );
    }

    /// [`Self::require_clique`] plus a player-count check against the
    /// protocol's input size.
    ///
    /// # Panics
    ///
    /// Panics if the topology is not a clique or the session has a
    /// different number of players than `n`.
    pub fn require_clique_of(&self, n: usize) {
        self.require_clique();
        assert_eq!(
            self.n(),
            n,
            "session has {} players, protocol input has {n}",
            self.n()
        );
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Rounds charged so far.
    pub fn rounds(&self) -> u64 {
        self.metrics.rounds
    }

    /// Total bits charged so far.
    pub fn total_bits(&self) -> u64 {
        self.metrics.total_bits
    }

    /// Executes one bulk-synchronous phase: `outs[i]` is node `i`'s
    /// outgoing data.
    ///
    /// The phase is charged `ceil(L / b)` rounds where `L` is the maximum
    /// load of any link (unicast) or any node's blackboard message
    /// (broadcast). An all-silent phase is charged zero rounds.
    ///
    /// # Errors
    ///
    /// * [`SimError::UnicastInBroadcastModel`] if a unicast payload is
    ///   submitted in a broadcast model.
    /// * [`SimError::InvalidNode`], [`SimError::SelfMessage`],
    ///   [`SimError::NotAnEdge`] for malformed destinations.
    /// * [`SimError::TransportFault`] if the transport loses or damages a
    ///   delivery (the phase is validated and charged before delivery, but
    ///   the session state is not rolled back).
    ///
    /// # Panics
    ///
    /// Panics if `outs.len() != config.n`.
    pub fn exchange(
        &mut self,
        label: &str,
        outs: Vec<PhaseOutbox>,
    ) -> Result<Vec<PhaseInbox>, SimError> {
        let n = self.config.n;
        let b = self.config.bandwidth as u64;
        assert_eq!(outs.len(), n, "expected {} outboxes, got {}", n, outs.len());
        let workers = self.threads();

        // Pass 1 — validation and load accounting. Each sender's charge
        // depends only on its own outbox and the (shared, read-only) model
        // config, so the charges are computed on the worker pool (with one
        // reusable `dest_load` scratch per worker); the merge below walks
        // them in ascending sender order, which keeps the ledger and the
        // selected error identical at every worker count.
        let config = &self.config;
        let charges: Vec<Result<Charge, SimError>> = if workers > 1 {
            par::map_with(n, workers, Vec::new, |i, dest_load| {
                summarize_outbox(config, NodeId::new(i), &outs[i], dest_load)
            })
        } else {
            let dest_load = &mut self.dest_load;
            outs.iter()
                .enumerate()
                .map(|(i, out)| summarize_outbox(config, NodeId::new(i), out, dest_load))
                .collect()
        };
        let mut total = Charge::default();
        for charge in charges {
            total.add(charge?);
        }

        // Pass 2 — delivery through the transport, strictly in ascending
        // sender order. The ledger was fully computed in pass 1, so the
        // backend cannot affect the accounting; the default in-memory
        // backend moves payloads and Arc-shares broadcasts (one allocation
        // per broadcast, a pointer clone per receiver).
        let mut inboxes: Vec<PhaseInbox> = (0..n).map(|_| PhaseInbox::empty(n)).collect();
        for (i, out) in outs.into_iter().enumerate() {
            self.transport
                .deliver_phase(&self.config, NodeId::new(i), out, &mut inboxes)
                .map_err(|fault| fault.at_round(self.metrics.rounds))?;
        }

        self.metrics.record_phase(PhaseRecord {
            label: label.to_owned().into(),
            rounds: total.max_load.div_ceil(b),
            bits: total.bits,
            messages: total.messages,
            max_link_bits_per_round: total.max_load.min(b),
            strict_rounds: false,
        });
        Ok(inboxes)
    }

    /// Convenience wrapper for a pure broadcast phase: node `i` broadcasts
    /// `messages[i]` (an empty message means node `i` stays silent).
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Self::exchange`].
    ///
    /// # Panics
    ///
    /// Panics if `messages.len() != config.n`.
    pub fn broadcast_all(
        &mut self,
        label: &str,
        messages: &[BitString],
    ) -> Result<Vec<PhaseInbox>, SimError> {
        let outs = messages
            .iter()
            .map(|m| {
                let mut out = PhaseOutbox::new();
                if !m.is_empty() {
                    out.broadcast(m.clone());
                }
                out
            })
            .collect();
        self.exchange(label, outs)
    }

    /// Charges additional rounds without moving data (e.g. an analytically
    /// accounted black-box subroutine).
    pub fn charge_rounds(&mut self, label: &str, rounds: u64) {
        self.metrics.record_phase(PhaseRecord {
            label: label.to_owned().into(),
            rounds,
            ..PhaseRecord::default()
        });
    }

    /// Merges the metrics of an externally executed sub-run into this
    /// session.
    pub fn absorb_metrics(&mut self, other: &Metrics) {
        self.metrics.absorb(other);
    }

    /// Closes the session, returning the accumulated metrics.
    pub fn into_metrics(self) -> Metrics {
        self.metrics
    }

    /// Runs a sub-protocol *on this session's ledger*: everything it
    /// charges lands directly in this session's metrics.
    ///
    /// # Errors
    ///
    /// Propagates the sub-protocol's error.
    pub fn run_protocol<P: Protocol + ?Sized>(
        &mut self,
        protocol: &mut P,
    ) -> Result<P::Output, SimError> {
        protocol.run(self)
    }

    /// Runs a sub-protocol on a fresh ledger over the *same* model, then
    /// absorbs its metrics into this session. Use this when the caller needs
    /// the sub-run's own round/bit counts (e.g. per-attempt reporting).
    ///
    /// # Errors
    ///
    /// Propagates the sub-protocol's error.
    pub fn run_nested<P: Protocol + ?Sized>(
        &mut self,
        protocol: &mut P,
    ) -> Result<RunOutcome<P::Output>, SimError> {
        self.run_nested_with(self.config.clone(), protocol)
    }

    /// Runs a sub-protocol on a fresh ledger over a *different* model (e.g.
    /// a sub-clique or another bandwidth regime), then absorbs its metrics
    /// into this session.
    ///
    /// # Errors
    ///
    /// Propagates the sub-protocol's error. Rounds and bits the sub-run
    /// charged before failing are still absorbed into this session (the
    /// traffic happened), matching [`Self::run_nodes`].
    pub fn run_nested_with<P: Protocol + ?Sized>(
        &mut self,
        config: CliqueConfig,
        protocol: &mut P,
    ) -> Result<RunOutcome<P::Output>, SimError> {
        let mut sub = self.fork(config);
        let result = protocol.run(&mut sub);
        self.absorb_metrics(&sub.metrics);
        Ok(RunOutcome::new(result?, sub.metrics))
    }

    /// Runs one [`NodeAlgorithm`] instance per player on the strict
    /// [`RoundEngine`] over this session's model, charging every round and
    /// bit to this session. The engine records into a ledger of its own,
    /// absorbed here afterwards, so its rounds stay one aggregated
    /// strict-round record.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RoundLimitExceeded`] if the nodes do not halt in
    /// time, or any model violation raised by the engine. Rounds executed
    /// before the error are still charged.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from the session's `n`.
    pub fn run_nodes<A: NodeAlgorithm>(
        &mut self,
        nodes: Vec<A>,
        max_rounds: u64,
    ) -> Result<NodeRun<A>, SimError> {
        let mut engine = RoundEngine::with_session(self.fork(self.config.clone()), nodes);
        let result = engine.run(max_rounds);
        self.absorb_metrics(engine.session().metrics());
        let report = result?;
        Ok(NodeRun {
            nodes: engine.into_nodes(),
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Inbox, NodeCtx, Outbox};

    fn broadcast_out(value: u64, width: usize) -> PhaseOutbox {
        let mut out = PhaseOutbox::new();
        out.broadcast(BitString::from_bits(value, width));
        out
    }

    #[test]
    fn broadcast_phase_round_accounting() {
        let mut session = Session::new(CliqueConfig::broadcast(3, 4));
        let outs = vec![
            broadcast_out(1, 10),
            broadcast_out(2, 3),
            PhaseOutbox::new(),
        ];
        let inboxes = session.exchange("test", outs).unwrap();
        // Longest blackboard message is 10 bits, bandwidth 4 => 3 rounds.
        assert_eq!(session.rounds(), 3);
        // Blackboard bits: 10 + 3.
        assert_eq!(session.total_bits(), 13);
        assert_eq!(
            inboxes[2]
                .broadcast_from(NodeId::new(0))
                .unwrap()
                .reader()
                .read_bits(10),
            Some(1)
        );
        assert!(inboxes[0].broadcast_from(NodeId::new(2)).is_none());
        // A node does not receive its own broadcast.
        assert!(inboxes[0].broadcast_from(NodeId::new(0)).is_none());
    }

    #[test]
    fn silent_phase_costs_nothing() {
        let mut session = Session::new(CliqueConfig::broadcast(2, 1));
        let outs = vec![PhaseOutbox::new(), PhaseOutbox::new()];
        session.exchange("silent", outs).unwrap();
        assert_eq!(session.rounds(), 0);
        assert_eq!(session.total_bits(), 0);
    }

    #[test]
    fn unicast_phase_aggregates_per_destination() {
        let mut session = Session::new(CliqueConfig::unicast(4, 2));
        let mut out0 = PhaseOutbox::new();
        out0.send(NodeId::new(1), BitString::from_bits(0b11, 2));
        out0.send(NodeId::new(1), BitString::from_bits(0b01, 2));
        out0.send(NodeId::new(2), BitString::from_bits(0b1, 1));
        let outs = vec![
            out0,
            PhaseOutbox::new(),
            PhaseOutbox::new(),
            PhaseOutbox::new(),
        ];
        let inboxes = session.exchange("route", outs).unwrap();
        // Link 0->1 carries 4 bits, bandwidth 2 => 2 rounds.
        assert_eq!(session.rounds(), 2);
        assert_eq!(session.total_bits(), 5);
        let agg = inboxes[1].unicast_from(NodeId::new(0)).unwrap();
        assert_eq!(agg.len(), 4);
        let mut r = agg.reader();
        assert_eq!(r.read_bits(2), Some(0b11));
        assert_eq!(r.read_bits(2), Some(0b01));
    }

    #[test]
    fn unicast_broadcast_counts_every_link() {
        let mut session = Session::new(CliqueConfig::unicast(5, 3));
        let outs = vec![
            broadcast_out(0b101, 3),
            PhaseOutbox::new(),
            PhaseOutbox::new(),
            PhaseOutbox::new(),
            PhaseOutbox::new(),
        ];
        session.exchange("bcast-as-unicast", outs).unwrap();
        assert_eq!(session.rounds(), 1);
        assert_eq!(session.total_bits(), 3 * 4);
    }

    #[test]
    fn unicast_rejected_in_broadcast_model() {
        let mut session = Session::new(CliqueConfig::broadcast(3, 2));
        let mut out = PhaseOutbox::new();
        out.send(NodeId::new(1), BitString::from_bits(1, 1));
        let outs = vec![out, PhaseOutbox::new(), PhaseOutbox::new()];
        assert!(matches!(
            session.exchange("bad", outs),
            Err(SimError::UnicastInBroadcastModel { .. })
        ));
    }

    #[test]
    fn congest_topology_enforced() {
        use crate::model::AdjacencyTopology;
        let adj = AdjacencyTopology::from_edges(3, &[(0, 1)]);
        let mut session = Session::new(CliqueConfig::congest(3, 2, adj));
        let mut out = PhaseOutbox::new();
        out.send(NodeId::new(2), BitString::from_bits(1, 1));
        let outs = vec![out, PhaseOutbox::new(), PhaseOutbox::new()];
        assert!(matches!(
            session.exchange("bad edge", outs),
            Err(SimError::NotAnEdge { .. })
        ));
    }

    #[test]
    fn congest_broadcast_reaches_only_neighbors() {
        use crate::model::AdjacencyTopology;
        let adj = AdjacencyTopology::from_edges(3, &[(0, 1)]);
        let mut session = Session::new(CliqueConfig::congest(3, 8, adj));
        let outs = vec![broadcast_out(5, 3), PhaseOutbox::new(), PhaseOutbox::new()];
        let inboxes = session.exchange("local bcast", outs).unwrap();
        assert!(inboxes[1].broadcast_from(NodeId::new(0)).is_some());
        assert!(inboxes[2].broadcast_from(NodeId::new(0)).is_none());
    }

    #[test]
    fn broadcast_all_and_charge_rounds() {
        let mut session = Session::new(CliqueConfig::broadcast(3, 1));
        let msgs = vec![
            BitString::from_bits(1, 1),
            BitString::new(),
            BitString::from_bits(0, 2),
        ];
        let inboxes = session.broadcast_all("announce", &msgs).unwrap();
        assert_eq!(session.rounds(), 2);
        assert_eq!(session.total_bits(), 3);
        assert!(inboxes[0].broadcast_from(NodeId::new(1)).is_none());
        assert!(inboxes[1].broadcast_from(NodeId::new(0)).is_some());
        session.charge_rounds("black box", 7);
        assert_eq!(session.rounds(), 9);
        assert_eq!(session.metrics().phases.len(), 2);
        assert_eq!(session.into_metrics().rounds, 9);
    }

    #[test]
    fn received_bits_counts_everything() {
        let mut session = Session::new(CliqueConfig::unicast(3, 4));
        let mut out0 = PhaseOutbox::new();
        out0.broadcast(BitString::from_bits(1, 2));
        out0.send(NodeId::new(1), BitString::from_bits(3, 3));
        let outs = vec![out0, PhaseOutbox::new(), PhaseOutbox::new()];
        let inboxes = session.exchange("mixed", outs).unwrap();
        assert_eq!(inboxes[1].received_bits(), 5);
        assert_eq!(inboxes[2].received_bits(), 2);
        assert_eq!(inboxes[1].unicasts().count(), 1);
        assert_eq!(inboxes[1].broadcasts().count(), 1);
    }

    #[test]
    #[should_panic(expected = "expected 3 outboxes")]
    fn wrong_outbox_count_panics() {
        let mut session = Session::new(CliqueConfig::broadcast(3, 1));
        let _ = session.exchange("bad", vec![PhaseOutbox::new()]);
    }

    #[test]
    fn worker_count_never_changes_the_ledger() {
        let n = 9;
        let run = |threads: usize| {
            let mut session = Session::new(CliqueConfig::unicast(n, 2));
            session.set_threads(Some(threads));
            let outs: Vec<PhaseOutbox> = (0..n)
                .map(|i| {
                    let mut out = PhaseOutbox::new();
                    out.broadcast(BitString::from_bits(i as u64, 4));
                    out.send(NodeId::new((i + 1) % n), BitString::from_bits(1, 3));
                    out.send(NodeId::new((i + 1) % n), BitString::from_bits(2, 2));
                    out
                })
                .collect();
            let inboxes = session.exchange("mixed", outs).unwrap();
            let digest: Vec<(usize, usize)> = inboxes
                .iter()
                .map(|inbox| (inbox.received_bits(), inbox.unicasts().count()))
                .collect();
            (session.metrics().clone(), digest)
        };
        let baseline = run(1);
        for threads in [2, 4, 16] {
            assert_eq!(run(threads), baseline, "threads={threads}");
        }
    }

    #[test]
    fn worker_count_never_changes_error_selection() {
        // Sender 1 has a self-message *after* a valid unicast; sender 4 has
        // an invalid node. Serial order reports sender 1's error first.
        let build = || {
            let mut outs: Vec<PhaseOutbox> = (0..6).map(|_| PhaseOutbox::new()).collect();
            outs[1].send(NodeId::new(0), BitString::from_bits(1, 1));
            outs[1].send(NodeId::new(1), BitString::from_bits(1, 1));
            outs[4].send(NodeId::new(17), BitString::from_bits(1, 1));
            outs
        };
        for threads in [1usize, 2, 8] {
            let mut session = Session::new(CliqueConfig::unicast(6, 2));
            session.set_threads(Some(threads));
            let err = session.exchange("bad", build()).unwrap_err();
            assert_eq!(
                err,
                SimError::SelfMessage {
                    node: NodeId::new(1)
                },
                "threads={threads}"
            );
        }
    }

    #[test]
    fn overrides_are_inherited_by_forks() {
        let mut session = Session::new(CliqueConfig::unicast(4, 2));
        session.set_threads(Some(3));
        session.set_transport(Box::new(crate::transport::ChannelTransport::new()));
        assert_eq!(session.threads(), 3);
        let sub = session.fork(CliqueConfig::broadcast(2, 1));
        assert_eq!(sub.threads(), 2, "capped at one worker per player");
        assert_eq!(sub.transport().name(), "channel");
        assert_eq!(sub.rounds(), 0);
    }

    /// Sender 0 sends one zero-length and one 2-bit unicast plus a 1-bit
    /// broadcast on a 4-clique.
    fn mixed_traffic_out() -> (Vec<(NodeId, BitString)>, BitString) {
        (
            vec![
                (NodeId::new(1), BitString::new()),
                (NodeId::new(2), BitString::from_bits(0b10, 2)),
            ],
            BitString::from_bits(1, 1),
        )
    }

    /// Sends [`mixed_traffic_out`] in round 0 from node 0, then halts.
    struct MixedSender {
        done: bool,
    }

    impl NodeAlgorithm for MixedSender {
        fn round(&mut self, ctx: &NodeCtx<'_>, _: &Inbox, outbox: &mut Outbox) {
            if ctx.round == 0 && ctx.id.index() == 0 {
                let (unicasts, broadcast) = mixed_traffic_out();
                for (dst, msg) in unicasts {
                    outbox.send(dst, msg);
                }
                outbox.broadcast(broadcast);
            }
            self.done = true;
        }

        fn halted(&self) -> bool {
            self.done
        }
    }

    #[test]
    fn message_counts_follow_each_paths_rule() {
        // Strict round: both unicasts count (the empty one too) and the
        // broadcast counts once per receiving neighbour: 2 + 3.
        let mut strict = Session::new(CliqueConfig::unicast(4, 2));
        let nodes = (0..4).map(|_| MixedSender { done: false }).collect();
        strict.run_nodes(nodes, 5).unwrap();
        assert_eq!(strict.metrics().messages, 5);

        // Phase: each non-empty payload counts once: the 2-bit unicast and
        // the broadcast.
        let mut phase = Session::new(CliqueConfig::unicast(4, 2));
        let mut outs: Vec<PhaseOutbox> = (0..4).map(|_| PhaseOutbox::new()).collect();
        let (unicasts, broadcast) = mixed_traffic_out();
        for (dst, msg) in unicasts {
            outs[0].send(dst, msg);
        }
        outs[0].broadcast(broadcast);
        phase.exchange("mixed", outs).unwrap();
        assert_eq!(phase.metrics().messages, 2);
        // Both paths charge the same payload bits: 0 + 2 + 1 * 3.
        assert_eq!(strict.total_bits(), 5);
        assert_eq!(phase.total_bits(), 5);
    }

    #[test]
    fn nested_runs_absorb_into_the_parent() {
        let mut parent = Session::new(CliqueConfig::broadcast(2, 1));
        let sub = parent
            .run_nested(&mut |session: &mut Session| {
                session.charge_rounds("inner", 4);
                Ok(17u32)
            })
            .unwrap();
        assert_eq!(*sub, 17);
        assert_eq!(sub.rounds(), 4);
        assert_eq!(parent.rounds(), 4);

        // A nested run on a different model still charges the parent.
        let other = CliqueConfig::unicast(5, 3);
        let sub = parent
            .run_nested_with(other.clone(), &mut |session: &mut Session| {
                assert_eq!(session.config(), &other);
                session.charge_rounds("inner", 1);
                Ok(())
            })
            .unwrap();
        assert_eq!(sub.rounds(), 1);
        assert_eq!(parent.rounds(), 5);

        // A failing nested run charges what it used before the error.
        let err = parent
            .run_nested(&mut |session: &mut Session| -> Result<(), SimError> {
                session.charge_rounds("partial", 2);
                Err(SimError::RoundLimitExceeded { limit: 9 })
            })
            .unwrap_err();
        assert_eq!(err, SimError::RoundLimitExceeded { limit: 9 });
        assert_eq!(parent.rounds(), 7);
    }

    #[test]
    fn require_clique_accepts_cliques() {
        let session = Session::new(CliqueConfig::unicast(4, 2));
        session.require_clique();
        session.require_clique_of(4);
    }

    #[test]
    #[should_panic(expected = "complete clique topology")]
    fn require_clique_rejects_graph_topologies() {
        use crate::model::AdjacencyTopology;
        let adj = AdjacencyTopology::from_edges(3, &[(0, 1)]);
        let session = Session::new(CliqueConfig::congest(3, 2, adj));
        session.require_clique();
    }

    #[test]
    #[should_panic(expected = "protocol input has 5")]
    fn require_clique_of_rejects_size_mismatch() {
        let session = Session::new(CliqueConfig::broadcast(4, 2));
        session.require_clique_of(5);
    }

    /// Every node broadcasts its bit; afterwards everyone knows the OR.
    struct OrNode {
        input: bool,
        result: Option<bool>,
    }

    impl NodeAlgorithm for OrNode {
        fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &Inbox, outbox: &mut Outbox) {
            if ctx.round == 0 {
                outbox.broadcast(BitString::from_bits(u64::from(self.input), 1));
            } else {
                let mut any = self.input;
                for (_, msg) in inbox.iter() {
                    any |= msg.bit(0);
                }
                self.result = Some(any);
            }
        }

        fn halted(&self) -> bool {
            self.result.is_some()
        }
    }

    #[test]
    fn run_nodes_charges_the_session() {
        let mut session = Session::new(CliqueConfig::broadcast(4, 1));
        let nodes = vec![false, true, false, false]
            .into_iter()
            .map(|input| OrNode {
                input,
                result: None,
            })
            .collect();
        let run = session.run_nodes(nodes, 10).unwrap();
        assert!(run.report.completed);
        assert!(run.nodes.iter().all(|n| n.result == Some(true)));
        assert_eq!(session.rounds(), run.report.rounds());
        assert!(session.rounds() >= 2);
    }

    #[test]
    fn run_nodes_round_limit_still_charges() {
        #[derive(Debug)]
        struct Chatter;
        impl NodeAlgorithm for Chatter {
            fn round(&mut self, _: &NodeCtx<'_>, _: &Inbox, outbox: &mut Outbox) {
                outbox.broadcast(BitString::from_bits(1, 1));
            }
        }
        let mut session = Session::new(CliqueConfig::broadcast(2, 1));
        let err = session.run_nodes(vec![Chatter, Chatter], 3).unwrap_err();
        assert_eq!(err, SimError::RoundLimitExceeded { limit: 3 });
        assert_eq!(session.rounds(), 3);
    }
}
