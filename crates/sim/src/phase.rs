//! Outboxes, inboxes and per-sender accounting of bulk-synchronous phases.
//!
//! Most of the paper's algorithms are naturally described in *phases*: "every
//! node broadcasts an `O(k log n)`-bit message", "route this balanced demand",
//! "each player sends its `b`-bit summary to the owner of the heavy gate".
//! Writing these against the bit-strict [`RoundEngine`](crate::engine) would
//! force every algorithm to re-implement chunking of long messages into
//! `b`-bit pieces. [`Session::exchange`](crate::session::Session::exchange)
//! does this accounting centrally: a phase delivers arbitrarily long logical
//! messages ([`PhaseOutbox`] in, [`PhaseInbox`] out) and is charged
//! `ceil(max link load / b)` rounds, which is exactly the number of rounds
//! the chunked execution would take in the respective model.
//!
//! The session never interprets payloads; information-flow discipline (a
//! node may only use what it has received) is the responsibility of the
//! protocol implementation, and the protocol implementations in
//! `clique-core` are structured so that per-node state is only updated from
//! delivered inboxes.

use std::sync::Arc;

use crate::bits::BitString;
use crate::metrics::Charge;
use crate::model::{CliqueConfig, CommMode, SimError};
use crate::node::NodeId;

/// Logical outgoing data of one node during one phase.
#[derive(Clone, Debug, Default)]
pub struct PhaseOutbox {
    broadcast: Option<BitString>,
    unicasts: Vec<(NodeId, BitString)>,
}

impl PhaseOutbox {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the broadcast payload for this phase (replacing any previous one).
    pub fn broadcast(&mut self, message: BitString) {
        self.broadcast = Some(message);
    }

    /// Appends a unicast payload for `dst`; multiple sends to the same
    /// destination within a phase are concatenated in order.
    pub fn send(&mut self, dst: NodeId, message: BitString) {
        self.unicasts.push((dst, message));
    }

    /// Returns `true` if nothing has been queued.
    pub fn is_empty(&self) -> bool {
        self.broadcast.is_none() && self.unicasts.is_empty()
    }

    /// Decomposes the outbox for a [`Transport`](crate::transport::Transport)
    /// to deliver.
    pub(crate) fn into_parts(self) -> (Option<BitString>, Vec<(NodeId, BitString)>) {
        (self.broadcast, self.unicasts)
    }
}

/// Messages delivered to one node at the end of a phase.
///
/// Broadcast payloads are [`Arc`]-shared across the `n - 1` receiving
/// inboxes, so a phase delivers each broadcast by cloning a pointer per
/// receiver instead of the message bits.
#[derive(Clone, Debug, Default)]
pub struct PhaseInbox {
    broadcasts: Vec<Option<Arc<BitString>>>,
    unicasts: Vec<Option<BitString>>,
}

impl PhaseInbox {
    pub(crate) fn empty(n: usize) -> Self {
        Self {
            broadcasts: vec![None; n],
            unicasts: vec![None; n],
        }
    }

    /// Stores one receiver's share of `sender`'s broadcast (transports hand
    /// each receiver either a clone of one shared [`Arc`] or its own copy).
    pub(crate) fn deliver_broadcast(&mut self, sender: NodeId, payload: Arc<BitString>) {
        self.broadcasts[sender.index()] = Some(payload);
    }

    /// Appends a unicast payload from `sender`; multiple deliveries within
    /// a phase are concatenated in arrival order.
    pub(crate) fn deliver_unicast(&mut self, sender: NodeId, payload: BitString) {
        let slot = &mut self.unicasts[sender.index()];
        match slot {
            Some(existing) => existing.extend_from(&payload),
            None => *slot = Some(payload),
        }
    }

    /// The broadcast written by `sender` during the phase, if any.
    pub fn broadcast_from(&self, sender: NodeId) -> Option<&BitString> {
        self.broadcasts
            .get(sender.index())
            .and_then(|m| m.as_deref())
    }

    /// The (concatenated) unicast payload received from `sender`, if any.
    pub fn unicast_from(&self, sender: NodeId) -> Option<&BitString> {
        self.unicasts.get(sender.index()).and_then(|m| m.as_ref())
    }

    /// Iterates over `(sender, payload)` pairs of broadcasts received.
    pub fn broadcasts(&self) -> impl Iterator<Item = (NodeId, &BitString)> {
        self.broadcasts
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.as_deref().map(|m| (NodeId::new(i), m)))
    }

    /// Iterates over `(sender, payload)` pairs of unicasts received.
    pub fn unicasts(&self) -> impl Iterator<Item = (NodeId, &BitString)> {
        self.unicasts
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.as_ref().map(|m| (NodeId::new(i), m)))
    }

    /// Total number of payload bits received.
    pub fn received_bits(&self) -> usize {
        self.broadcasts
            .iter()
            .filter_map(|m| m.as_deref())
            .map(BitString::len)
            .sum::<usize>()
            + self
                .unicasts
                .iter()
                .filter_map(|m| m.as_ref())
                .map(BitString::len)
                .sum::<usize>()
    }
}

/// Validates one sender's phase outbox and computes its [`Charge`]: the
/// heaviest per-destination aggregated load it puts on any link (unicast
/// model) or its blackboard length (broadcast model), its payload bits, and
/// one message per non-empty payload. Depends only on the outbox and the
/// model, so senders are summarized in parallel and merged in ascending
/// [`NodeId`] order. `dest_load` is caller-provided scratch (reset here).
///
/// # Errors
///
/// The first failed destination check, in submission order.
pub(crate) fn summarize_outbox(
    config: &CliqueConfig,
    sender: NodeId,
    out: &PhaseOutbox,
    dest_load: &mut Vec<u64>,
) -> Result<Charge, SimError> {
    let n = config.n;
    dest_load.clear();
    dest_load.resize(n, 0);
    let mut summary = Charge::default();

    if let Some(msg) = &out.broadcast {
        let len = msg.len() as u64;
        match config.mode {
            CommMode::Broadcast => {
                summary.bits += len;
                summary.max_load = summary.max_load.max(len);
            }
            CommMode::Unicast => {
                // A broadcast in the unicast model occupies every outgoing
                // link.
                let receivers = config.topology.neighbors(sender, n);
                summary.bits += len * receivers.len() as u64;
                for dst in receivers {
                    dest_load[dst.index()] += len;
                }
            }
        }
        if len > 0 {
            summary.messages += 1;
        }
    }

    for (dst, msg) in &out.unicasts {
        config.check_unicast(sender, *dst)?;
        let len = msg.len() as u64;
        dest_load[dst.index()] += len;
        summary.bits += len;
        if len > 0 {
            summary.messages += 1;
        }
    }

    if config.mode == CommMode::Unicast {
        if let Some(load) = dest_load.iter().copied().max() {
            summary.max_load = summary.max_load.max(load);
        }
    }
    Ok(summary)
}
