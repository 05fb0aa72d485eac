//! The traced run's instruments: a timing [`Transport`] wrapper and the
//! attribution of one job's wall time to layers.
//!
//! Tracing lives entirely in the benchmark. [`TimingTransport`] wraps the
//! process-default backend and is handed to the program through
//! `Runner::with_transport`; it timestamps every delivery call. The
//! engines deliver each phase (and each strict round) as one call per
//! sender in ascending sender order, so a call for sender 0 opens a new
//! delivery group, and the groups pair in order with the ledger's
//! `Metrics.phases` rows: one group per named phase, `rounds` groups per
//! aggregated strict-round row.
//!
//! Spans of one job, in order, tile its wall time:
//!
//! * `graphs.gen` — input generation, job start to execution start;
//! * per phase, a *pre* gap — from the previous delivery's end (or the
//!   execution start) to the phase's first delivery: node compute, demand
//!   build, router assignment and outbox validation. It is charged to the
//!   layer the phase label names (`route/*` → routing, the MST sketch and
//!   vote phases → sketch, anything else → core);
//! * the phase's delivery calls — transport;
//! * `core.tail` — from the last delivery's end to the returned record.
//!
//! The only time no layer claims is the loop overhead between two delivery
//! calls of the same group; [`JobTrace::layer_sum_frac`] measures it.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use clique_core::sim::node::{Inbox, NodeId, Outbox};
use clique_core::sim::phase::{PhaseInbox, PhaseOutbox};
use clique_core::sim::transport::{default_transport, Transport, TransportFault};
use clique_core::sim::{CliqueConfig, Metrics};

/// Phase labels charged to the sketch layer (local Borůvka plus decoding
/// happens in the gap before each of them).
const SKETCH_LABELS: [&str; 2] = [
    "broadcast incidence sketches",
    "announce contraction-done flags",
];

/// The phase label of one sketch broadcast level.
const SKETCH_LEVEL_LABEL: &str = "broadcast incidence sketches";

/// One timed delivery call.
#[derive(Clone, Copy, Debug)]
pub struct Delivery {
    sender: usize,
    start: Instant,
    end: Instant,
}

/// The delivery calls of one job, shared by every clone of the transport
/// (nested sessions clone it).
#[derive(Clone, Debug, Default)]
pub struct DeliveryLog(Arc<Mutex<Vec<Delivery>>>);

impl DeliveryLog {
    fn push(&self, delivery: Delivery) {
        self.0
            .lock()
            .expect("delivery log lock poisoned by a panicking job")
            .push(delivery);
    }

    /// Takes the recorded calls, leaving the log empty for the next job.
    pub fn take(&self) -> Vec<Delivery> {
        std::mem::take(
            &mut *self
                .0
                .lock()
                .expect("delivery log lock poisoned by a panicking job"),
        )
    }
}

/// A [`Transport`] that times every call of the process-default backend.
#[derive(Debug)]
pub struct TimingTransport {
    inner: Box<dyn Transport>,
    log: DeliveryLog,
}

impl TimingTransport {
    /// Wraps `default_transport()`, recording into `log`.
    pub fn new(log: DeliveryLog) -> Self {
        Self {
            inner: default_transport(),
            log,
        }
    }
}

impl Transport for TimingTransport {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn deliver_round(
        &mut self,
        config: &CliqueConfig,
        sender: NodeId,
        outbox: &mut Outbox,
        inboxes: &mut [Inbox],
    ) -> Result<(), TransportFault> {
        let start = Instant::now();
        let result = self.inner.deliver_round(config, sender, outbox, inboxes);
        self.log.push(Delivery {
            sender: sender.index(),
            start,
            end: Instant::now(),
        });
        result
    }

    fn deliver_phase(
        &mut self,
        config: &CliqueConfig,
        sender: NodeId,
        outbox: PhaseOutbox,
        inboxes: &mut [PhaseInbox],
    ) -> Result<(), TransportFault> {
        let start = Instant::now();
        let result = self.inner.deliver_phase(config, sender, outbox, inboxes);
        self.log.push(Delivery {
            sender: sender.index(),
            start,
            end: Instant::now(),
        });
        result
    }

    fn clone_box(&self) -> Box<dyn Transport> {
        Box::new(Self {
            inner: self.inner.clone_box(),
            log: self.log.clone(),
        })
    }
}

/// The instants that bound one traced job.
#[derive(Clone, Copy, Debug)]
pub struct JobClock {
    /// Job start (before input generation).
    pub start: Instant,
    /// Input generated, execution about to start.
    pub generated: Instant,
    /// Record encoded and returned.
    pub end: Instant,
}

/// Layer self times (ms) and ledger counts of one traced job.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobTrace {
    pub job_ms: f64,
    pub gen_ms: f64,
    pub routing_pre_ms: f64,
    pub sketch_pre_ms: f64,
    pub core_pre_ms: f64,
    pub deliver_ms: f64,
    pub tail_ms: f64,
    pub calls: u64,
    pub routing_packets: u64,
    pub routing_rounds: u64,
    pub sketch_levels: u64,
}

impl JobTrace {
    /// Sum of the layer self times over the job's wall time.
    pub fn layer_sum_frac(&self) -> f64 {
        let sum = self.gen_ms
            + self.routing_pre_ms
            + self.sketch_pre_ms
            + self.core_pre_ms
            + self.deliver_ms
            + self.tail_ms;
        sum / self.job_ms
    }

    /// The ledger counts, which must repeat exactly between two runs of the
    /// same job.
    pub fn counts(&self) -> [u64; 4] {
        [
            self.calls,
            self.routing_packets,
            self.routing_rounds,
            self.sketch_levels,
        ]
    }
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Pairs the delivery groups with the ledger's phase rows and attributes
/// the job's wall time to layers.
///
/// # Errors
///
/// Fails when groups and phase rows do not pair one to one, which means
/// the attribution would be wrong.
pub fn attribute(
    clock: JobClock,
    deliveries: &[Delivery],
    metrics: &Metrics,
) -> Result<JobTrace, String> {
    let mut groups: Vec<&[Delivery]> = Vec::new();
    let mut open = 0;
    for (i, call) in deliveries.iter().enumerate() {
        if call.sender == 0 && i > open {
            groups.push(&deliveries[open..i]);
            open = i;
        } else if i > open && call.sender != deliveries[i - 1].sender + 1 {
            return Err(format!(
                "delivery call {i} for sender {} breaks the ascending sender order",
                call.sender
            ));
        }
    }
    if open < deliveries.len() {
        groups.push(&deliveries[open..]);
    }

    let mut trace = JobTrace {
        job_ms: ms(clock.start, clock.end),
        gen_ms: ms(clock.start, clock.generated),
        ..JobTrace::default()
    };
    let mut next = groups.iter();
    let mut previous_end = clock.generated;
    for phase in &metrics.phases {
        let group_count = if phase.strict_rounds { phase.rounds } else { 1 };
        let label = phase.label.as_ref();
        let is_routing = label.starts_with("route/");
        if is_routing {
            trace.routing_packets += phase.messages;
            trace.routing_rounds += phase.rounds;
        }
        if label == SKETCH_LEVEL_LABEL {
            trace.sketch_levels += 1;
        }
        for _ in 0..group_count {
            let group = next.next().ok_or_else(|| {
                format!("phase {label:?} has no delivery group left to pair with")
            })?;
            let (first, last) = (group[0], group[group.len() - 1]);
            let pre = ms(previous_end, first.start);
            if is_routing {
                trace.routing_pre_ms += pre;
            } else if SKETCH_LABELS.contains(&label) {
                trace.sketch_pre_ms += pre;
            } else {
                trace.core_pre_ms += pre;
            }
            trace.deliver_ms += group.iter().map(|d| ms(d.start, d.end)).sum::<f64>();
            trace.calls += group.len() as u64;
            previous_end = last.end;
        }
    }
    if next.next().is_some() {
        return Err(format!(
            "{} delivery groups but the ledger pairs only {}",
            groups.len(),
            groups.len() - next.count() - 1
        ));
    }
    trace.tail_ms = ms(previous_end, clock.end);
    Ok(trace)
}
