//! Routing algorithms for the unicast congested clique.
//!
//! The paper invokes Lenzen's routing theorem \[28\] as a black box: any
//! *balanced* demand — every player sends at most `n` messages and receives
//! at most `n` messages — can be delivered deterministically in `O(1)`
//! rounds. This crate provides three routers implementing the same interface
//! with the same asymptotic guarantee for balanced demands (see DESIGN.md for
//! the substitution note):
//!
//! * [`DirectRouter`] — every packet travels on its own link; takes
//!   `⌈max pair load / b⌉` rounds, which is optimal for spread-out demands
//!   but `Θ(n)` times worse than Lenzen's bound when a demand concentrates
//!   many packets on one pair.
//! * [`ValiantRouter`] — each packet travels via a uniformly random
//!   intermediary and is forwarded in a second phase; with balanced demands
//!   the per-link load is `O(b + log n)` with high probability.
//! * [`BalancedRouter`] — an omnisciently computed two-phase schedule: each
//!   packet is assigned the intermediary that currently minimises the
//!   maximum load of its two links. For balanced demands this yields `O(1)`
//!   rounds deterministically, matching the guarantee the paper needs.
//!
//! All routers charge their communication to the caller's [`Session`] so
//! that round and bit accounting (including forwarding headers) is exact;
//! [`RouteProtocol`] adapts any router + demand pair into a
//! [`Protocol`] runnable through
//! [`Runner`].

use clique_sim::bits::bits_for_universe;
use clique_sim::prelude::*;
use rand::Rng;

use crate::demand::{Packet, RoutingDemand};

/// Packets delivered to each destination (indexed by destination player).
pub type Delivered = Vec<Vec<Packet>>;

/// A routing algorithm on the unicast congested clique.
pub trait Router {
    /// Delivers every packet of `demand`, charging all communication to
    /// `session`. Returns the packets grouped by destination.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if the session rejects a message (e.g. the
    /// session was configured with a broadcast-only model).
    fn route(
        &mut self,
        demand: &RoutingDemand,
        session: &mut Session,
    ) -> Result<Delivered, SimError>;

    /// A short name for reports.
    fn name(&self) -> &'static str;
}

/// Boxed routers route by delegation, so heterogeneous router sets can be
/// swept through one [`RouteProtocol`] type.
impl<R: Router + ?Sized> Router for Box<R> {
    fn route(
        &mut self,
        demand: &RoutingDemand,
        session: &mut Session,
    ) -> Result<Delivered, SimError> {
        (**self).route(demand, session)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Adapts a [`Router`] plus a demand into a
/// [`Protocol`] whose output is the
/// delivered packets, so routing runs under
/// [`Runner`] like any other protocol.
#[derive(Clone, Debug)]
pub struct RouteProtocol<'a, R> {
    router: R,
    demand: &'a RoutingDemand,
}

impl<'a, R: Router> RouteProtocol<'a, R> {
    /// Pairs a router with the demand it should deliver.
    pub fn new(router: R, demand: &'a RoutingDemand) -> Self {
        Self { router, demand }
    }
}

impl<R: Router> Protocol for RouteProtocol<'_, R> {
    type Output = Delivered;

    fn run(&mut self, session: &mut Session) -> Result<Delivered, SimError> {
        self.router.route(self.demand, session)
    }
}

/// Field widths used to serialise packets on the wire.
#[derive(Clone, Copy, Debug)]
struct PacketCodec {
    node_bits: usize,
    len_bits: usize,
}

impl PacketCodec {
    fn for_demand(demand: &RoutingDemand) -> Self {
        let max_len = demand
            .packets()
            .iter()
            .map(|p| p.payload.len())
            .max()
            .unwrap_or(0);
        Self {
            node_bits: bits_for_universe(demand.n() as u64),
            len_bits: bits_for_universe(max_len as u64 + 1).max(1),
        }
    }

    /// The wire record `[node, len, payload]` (node omitted when `None`),
    /// allocated once at its final size.
    fn encode(&self, node: Option<NodeId>, payload: &BitString) -> BitString {
        let node_bits = if node.is_some() { self.node_bits } else { 0 };
        let mut out = BitString::with_capacity(node_bits + self.len_bits + payload.len());
        if let Some(node) = node {
            out.push_bits(node.index() as u64, self.node_bits);
        }
        out.push_bits(payload.len() as u64, self.len_bits);
        out.extend_from(payload);
        out
    }

    /// Reads back one `[node, len, payload]` record.
    fn decode(
        &self,
        reader: &mut BitReader<'_>,
        with_node: bool,
    ) -> Option<(Option<NodeId>, BitString)> {
        let node = if with_node {
            Some(NodeId::new(reader.read_bits(self.node_bits)? as usize))
        } else {
            None
        };
        let len = reader.read_bits(self.len_bits)? as usize;
        Some((node, reader.read_bitstring(len)?))
    }
}

/// Delivers every packet directly on the `(src, dst)` link.
#[derive(Clone, Copy, Debug, Default)]
pub struct DirectRouter;

impl Router for DirectRouter {
    fn route(
        &mut self,
        demand: &RoutingDemand,
        session: &mut Session,
    ) -> Result<Delivered, SimError> {
        let n = demand.n();
        let codec = PacketCodec::for_demand(demand);
        let mut outs: Vec<PhaseOutbox> = (0..n).map(|_| PhaseOutbox::new()).collect();
        for p in demand.packets() {
            outs[p.src.index()].send(p.dst, codec.encode(None, &p.payload));
        }
        let inboxes = session.exchange("route/direct", outs)?;
        let mut delivered: Delivered = vec![Vec::new(); n];
        for (dst, inbox) in inboxes.iter().enumerate() {
            for (src, wire) in inbox.unicasts() {
                let mut reader = wire.reader();
                while !reader.is_exhausted() {
                    let (_, payload) = codec
                        .decode(&mut reader, false)
                        .expect("malformed direct-routing record");
                    delivered[dst].push(Packet::new(src, NodeId::new(dst), payload));
                }
            }
        }
        Ok(delivered)
    }

    fn name(&self) -> &'static str {
        "direct"
    }
}

/// Two-phase routing via uniformly random intermediaries (Valiant-style).
#[derive(Clone, Debug)]
pub struct ValiantRouter<R> {
    rng: R,
}

impl<R: Rng> ValiantRouter<R> {
    /// Creates a router drawing intermediaries from `rng`.
    pub fn new(rng: R) -> Self {
        Self { rng }
    }
}

impl<R: Rng> Router for ValiantRouter<R> {
    fn route(
        &mut self,
        demand: &RoutingDemand,
        session: &mut Session,
    ) -> Result<Delivered, SimError> {
        let n = demand.n();
        let assignment: Vec<usize> = demand
            .packets()
            .iter()
            .map(|_| self.rng.gen_range(0..n))
            .collect();
        two_phase_route(demand, &assignment, session, "route/valiant")
    }

    fn name(&self) -> &'static str {
        "valiant"
    }
}

/// Deterministic two-phase routing with a greedily balanced intermediary
/// assignment (the workspace's stand-in for Lenzen's routing algorithm).
#[derive(Clone, Copy, Debug, Default)]
pub struct BalancedRouter;

impl Router for BalancedRouter {
    fn route(
        &mut self,
        demand: &RoutingDemand,
        session: &mut Session,
    ) -> Result<Delivered, SimError> {
        let packets = demand
            .packets()
            .iter()
            .map(|p| (p.src.index(), p.dst.index(), p.payload.len() as u64));
        let assignment = balanced_assignment(demand.n(), packets);
        two_phase_route(demand, &assignment, session, "route/balanced")
    }

    fn name(&self) -> &'static str {
        "balanced"
    }
}

/// The greedy intermediary assignment behind [`BalancedRouter`].
///
/// Packets `(src, dst, bits)` are assigned in order. Packet `i` goes to the
/// intermediary `w` minimising `(max(a, b), a + b, w)`, where
/// `a = up[src][w] + bits` and `b = down[w][dst] + bits` are its two link
/// loads after the assignment. This `(max, sum, index)` tie-break is pinned:
/// every balanced-routing transcript depends on it.
///
/// Two identities make the scan cheap without changing the result. The
/// order of `(max(a, b), a + b)` equals the order of `(max(a, b), min(a, b))`,
/// and adding `bits` to both loads shifts every candidate alike. So the
/// scan ranks the raw loads `(max, min)` and never looks at `bits`. The
/// loads live in two flat `n × n` tables, the down table transposed to
/// `[dst][w]`, so one packet reads two contiguous rows.
///
/// No link carries more than its endpoint sends or receives in total. When
/// that per-node bound is below 2^24 the tables hold `f32`, which represents
/// every such load and sum exactly and which baseline x86-64 SIMD compares
/// and minimises natively (it has no 32-bit integer min). Otherwise the
/// same scan runs over `u64` tables. The cost is `O(n)` per packet,
/// `O(P·n)` in all, plus `2n²` load cells.
fn balanced_assignment<I>(n: usize, packets: I) -> Vec<usize>
where
    I: Iterator<Item = (usize, usize, u64)> + Clone,
{
    if max_node_load(n, packets.clone()) < EXACT_F32 {
        assign_with::<f32, _>(n, packets)
    } else {
        assign_with::<u64, _>(n, packets)
    }
}

/// Integers below this are exact in `f32`, and so are their comparisons.
const EXACT_F32: u64 = 1 << f32::MANTISSA_DIGITS;

/// The largest number of bits any player sends or receives, a bound on
/// every load the assignment tables hold.
fn max_node_load(n: usize, packets: impl Iterator<Item = (usize, usize, u64)>) -> u64 {
    let mut sent = vec![0u64; n];
    let mut received = vec![0u64; n];
    for (s, d, bits) in packets {
        sent[s] = sent[s].saturating_add(bits);
        received[d] = received[d].saturating_add(bits);
    }
    sent.into_iter().chain(received).max().unwrap_or(0)
}

/// A link-load cell of the assignment tables.
trait Load: Copy + PartialOrd + std::ops::AddAssign {
    const ZERO: Self;
    const MAX: Self;

    /// `bits` as a load; the caller has checked that every load fits the
    /// type exactly.
    fn from_bits(bits: u64) -> Self;
}

impl Load for f32 {
    const ZERO: Self = 0.0;
    const MAX: Self = f32::MAX;

    fn from_bits(bits: u64) -> Self {
        bits as f32
    }
}

impl Load for u64 {
    const ZERO: Self = 0;
    const MAX: Self = u64::MAX;

    fn from_bits(bits: u64) -> Self {
        bits
    }
}

/// `min(a, b)` as a single compare-and-select (a vector `min` per lane).
fn smaller<T: Load>(a: T, b: T) -> T {
    if b < a {
        b
    } else {
        a
    }
}

/// `max(a, b)` as a single compare-and-select (a vector `max` per lane).
fn larger<T: Load>(a: T, b: T) -> T {
    if b > a {
        b
    } else {
        a
    }
}

fn assign_with<T: Load, I>(n: usize, packets: I) -> Vec<usize>
where
    I: Iterator<Item = (usize, usize, u64)>,
{
    let mut up = vec![T::ZERO; n * n]; // [src][w]
    let mut down = vec![T::ZERO; n * n]; // [dst][w]
    packets
        .map(|(s, d, bits)| {
            let up_row = &mut up[s * n..(s + 1) * n];
            let down_row = &mut down[d * n..(d + 1) * n];
            let w = best_intermediary(up_row, down_row);
            let bits = T::from_bits(bits);
            up_row[w] += bits;
            down_row[w] += bits;
            w
        })
        .collect()
}

/// The first `w` minimising `(max(up[w], down[w]), min(up[w], down[w]))`.
///
/// Two branch-free minimum passes find the smallest `max`, then the
/// smallest `min` among the candidates attaining it; a final scan returns
/// the first index attaining both.
fn best_intermediary<T: Load>(up: &[T], down: &[T]) -> usize {
    let hi = lane_min(up, down, larger);
    let lo = lane_min(up, down, |a, b| {
        if larger(a, b) == hi {
            smaller(a, b)
        } else {
            T::MAX
        }
    });
    up.iter()
        .zip(down)
        .position(|(&a, &b)| larger(a, b) == hi && smaller(a, b) == lo)
        .expect("a packet's endpoints lie in a non-empty clique")
}

/// `min_w f(up[w], down[w])` over independent accumulator lanes, so the
/// compiler turns the loop into vector min operations.
fn lane_min<T: Load>(up: &[T], down: &[T], f: impl Fn(T, T) -> T) -> T {
    const LANES: usize = 16;
    let (up_chunks, down_chunks) = (up.chunks_exact(LANES), down.chunks_exact(LANES));
    let tail = up_chunks
        .remainder()
        .iter()
        .zip(down_chunks.remainder())
        .fold(T::MAX, |m, (&a, &b)| smaller(m, f(a, b)));
    let mut acc = [T::MAX; LANES];
    for (u, d) in up_chunks.zip(down_chunks) {
        for ((m, &a), &b) in acc.iter_mut().zip(u).zip(d) {
            *m = smaller(*m, f(a, b));
        }
    }
    acc.into_iter().fold(tail, smaller)
}

/// Shared two-phase delivery: phase 1 sends each packet to its assigned
/// intermediary (tagged with the final destination), phase 2 forwards it
/// (tagged with the original source). Packets whose intermediary equals the
/// source or the destination skip the redundant hop.
fn two_phase_route(
    demand: &RoutingDemand,
    assignment: &[usize],
    session: &mut Session,
    label: &str,
) -> Result<Delivered, SimError> {
    let n = demand.n();
    let codec = PacketCodec::for_demand(demand);
    let mut delivered: Delivered = vec![Vec::new(); n];

    // Phase 1: src -> intermediary, carrying the destination. Packets whose
    // intermediary equals the source skip the first hop.
    let mut outs: Vec<PhaseOutbox> = (0..n).map(|_| PhaseOutbox::new()).collect();
    // Packets held by each intermediary before phase 2.
    let mut relay: Vec<Vec<Packet>> = vec![Vec::new(); n];
    for (p, &w) in demand.packets().iter().zip(assignment) {
        if w == p.src.index() {
            relay[w].push(p.clone());
            continue;
        }
        outs[p.src.index()].send(NodeId::new(w), codec.encode(Some(p.dst), &p.payload));
    }
    let inboxes = session.exchange(&format!("{label}/phase1"), outs)?;
    for (w, inbox) in inboxes.iter().enumerate() {
        for (src, wire) in inbox.unicasts() {
            let mut reader = wire.reader();
            while !reader.is_exhausted() {
                let (node, payload) = codec
                    .decode(&mut reader, true)
                    .expect("malformed phase-1 record");
                let dst = node.expect("phase-1 records carry a destination");
                relay[w].push(Packet::new(src, dst, payload));
            }
        }
    }

    // Phase 2: intermediary -> dst, carrying the source. Packets already at
    // their destination (the destination acted as the intermediary) are
    // delivered without a second hop.
    let mut outs: Vec<PhaseOutbox> = (0..n).map(|_| PhaseOutbox::new()).collect();
    for (w, packets) in relay.iter().enumerate() {
        for p in packets {
            if p.dst.index() == w {
                delivered[w].push(p.clone());
                continue;
            }
            outs[w].send(p.dst, codec.encode(Some(p.src), &p.payload));
        }
    }
    let inboxes2 = session.exchange(&format!("{label}/phase2"), outs)?;
    for (dst, inbox) in inboxes2.iter().enumerate() {
        for (_, wire) in inbox.unicasts() {
            let mut reader = wire.reader();
            while !reader.is_exhausted() {
                let (node, payload) = codec
                    .decode(&mut reader, true)
                    .expect("malformed phase-2 record");
                let src = node.expect("phase-2 records carry a source");
                delivered[dst].push(Packet::new(src, NodeId::new(dst), payload));
            }
        }
    }
    Ok(delivered)
}

/// A lower bound on the rounds direct delivery needs:
/// `⌈max pair payload load / b⌉` (ignoring framing overhead, so the actual
/// [`DirectRouter`] may take slightly more).
pub fn direct_round_bound(demand: &RoutingDemand, bandwidth: usize) -> u64 {
    demand.max_pair_load().div_ceil(bandwidth as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The original greedy over nested `u64` tables with the down table
    /// indexed `[w][dst]`, kept as the reference [`balanced_assignment`]
    /// must reproduce packet by packet.
    fn reference_assignment(n: usize, packets: &[(usize, usize, u64)]) -> Vec<usize> {
        let mut up_load = vec![vec![0u64; n]; n]; // (src, w)
        let mut down_load = vec![vec![0u64; n]; n]; // (w, dst)
        let mut assignment = Vec::with_capacity(packets.len());
        for &(s, d, bits) in packets {
            let mut best_w = 0usize;
            let mut best_key = (u64::MAX, u64::MAX);
            for w in 0..n {
                let a = up_load[s][w] + bits;
                let b = down_load[w][d] + bits;
                let key = (a.max(b), a + b);
                if key < best_key {
                    best_key = key;
                    best_w = w;
                }
            }
            up_load[s][best_w] += bits;
            down_load[best_w][d] += bits;
            assignment.push(best_w);
        }
        assignment
    }

    /// A `(src, dst, bits)` demand of one of the shapes the equivalence
    /// property covers, drawn from `seed`.
    fn shaped_demand(n: usize, shape: u8, seed: u64) -> Vec<(usize, usize, u64)> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let count = rng.gen_range(0..4 * n + 8);
        let pair = |rng: &mut ChaCha8Rng| (rng.gen_range(0..n), rng.gen_range(0..n));
        match shape {
            // Random pairs and lengths, zeros included.
            0 => (0..count)
                .map(|_| {
                    let (s, d) = pair(&mut rng);
                    (s, d, rng.gen_range(0..200))
                })
                .collect(),
            // All-equal lengths: every scan is decided by ties.
            1 => {
                let bits = rng.gen_range(1..40);
                (0..count)
                    .map(|_| {
                        let (s, d) = pair(&mut rng);
                        (s, d, bits)
                    })
                    .collect()
            }
            // Zero-length payloads only.
            2 => (0..count)
                .map(|_| {
                    let (s, d) = pair(&mut rng);
                    (s, d, 0)
                })
                .collect(),
            // Concentrated: everything on the 0 → 1 pair.
            3 => {
                let dst = 1.min(n - 1);
                (0..count)
                    .map(|_| (0, dst, rng.gen_range(0..3) * 8))
                    .collect()
            }
            // All-to-all with one length.
            4 => {
                let bits = rng.gen_range(0..20);
                (0..n)
                    .flat_map(|s| (0..n).map(move |d| (s, d, bits)))
                    .filter(|&(s, d, _)| s != d)
                    .collect()
            }
            // Lengths so large some node's load passes 2^24, and the
            // total passes `u32::MAX` for most draws: the `u64` tables.
            _ => (0..count.max(3))
                .map(|_| {
                    let (s, d) = pair(&mut rng);
                    (s, d, rng.gen_range(1u64 << 29..1u64 << 32))
                })
                .collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn flat_assignment_equals_the_reference_greedy(
            n in 1usize..65,
            shape in 0u8..6,
            seed in any::<u64>(),
        ) {
            let packets = shaped_demand(n, shape, seed);
            let total: u64 = packets.iter().map(|p| p.2).sum();
            if shape == 5 {
                prop_assert!(
                    max_node_load(n, packets.iter().copied()) >= EXACT_F32,
                    "shape 5 must take the u64 tables"
                );
            }
            prop_assert_eq!(
                balanced_assignment(n, packets.iter().copied()),
                reference_assignment(n, &packets),
                "n {}, shape {}, seed {}, total {}", n, shape, seed, total
            );
        }
    }

    #[test]
    fn assignment_at_the_exact_f32_boundary() {
        // Node loads of 2^24 − 1 and 2^24 take different table types; both
        // must match the reference, including at n = 1.
        for n in [1usize, 2, 5] {
            for extra in [0u64, 1] {
                // Node 0 sends 2^24 − 1 + extra bits in all.
                let packets = vec![(0, n - 1, EXACT_F32 - 8 + extra), (0, n - 1, 3), (0, 0, 4)];
                assert_eq!(
                    max_node_load(n, packets.iter().copied()),
                    EXACT_F32 - 1 + extra
                );
                assert_eq!(
                    balanced_assignment(n, packets.iter().copied()),
                    reference_assignment(n, &packets)
                );
            }
        }
    }

    fn payload(tag: u64, bits: usize) -> BitString {
        BitString::from_bits(tag, bits)
    }

    /// A balanced all-to-all demand: every ordered pair exchanges `bits` bits.
    fn all_to_all(n: usize, bits: usize) -> RoutingDemand {
        let mut d = RoutingDemand::new(n);
        for s in 0..n {
            for t in 0..n {
                if s != t {
                    d.send(
                        s,
                        t,
                        payload((s * n + t) as u64 % (1 << bits.min(16)), bits),
                    );
                }
            }
        }
        d
    }

    /// A concentrated demand: node 0 sends many packets to node 1.
    fn concentrated(n: usize, packets: usize, bits: usize) -> RoutingDemand {
        let mut d = RoutingDemand::new(n);
        for i in 0..packets {
            d.send(0, 1, payload(i as u64 % (1 << bits.min(16)), bits));
        }
        d
    }

    fn check_delivery(demand: &RoutingDemand, delivered: &Delivered) {
        let n = demand.n();
        // Multisets of (src, dst, payload) must match.
        let mut expected: Vec<(usize, usize, String)> = demand
            .packets()
            .iter()
            .map(|p| (p.src.index(), p.dst.index(), p.payload.to_string()))
            .collect();
        let mut actual: Vec<(usize, usize, String)> = (0..n)
            .flat_map(|dst| {
                delivered[dst]
                    .iter()
                    .map(move |p| (p.src.index(), dst, p.payload.to_string()))
            })
            .collect();
        expected.sort();
        actual.sort();
        assert_eq!(expected, actual, "delivered packets differ from the demand");
    }

    fn run_router<R: Router>(router: &mut R, demand: &RoutingDemand, b: usize) -> u64 {
        let mut session = Session::new(
            CliqueConfig::builder()
                .nodes(demand.n())
                .bandwidth(b)
                .unicast()
                .build(),
        );
        let delivered = router.route(demand, &mut session).expect("routing failed");
        check_delivery(demand, &delivered);
        session.rounds()
    }

    #[test]
    fn all_routers_deliver_balanced_demands() {
        let demand = all_to_all(8, 4);
        assert!(run_router(&mut DirectRouter, &demand, 8) >= 1);
        assert!(run_router(&mut BalancedRouter, &demand, 8) >= 1);
        let mut valiant = ValiantRouter::new(ChaCha8Rng::seed_from_u64(7));
        assert!(run_router(&mut valiant, &demand, 8) >= 1);
    }

    #[test]
    fn all_routers_deliver_concentrated_demands() {
        let demand = concentrated(8, 24, 4);
        assert!(run_router(&mut DirectRouter, &demand, 8) >= 1);
        assert!(run_router(&mut BalancedRouter, &demand, 8) >= 1);
        let mut valiant = ValiantRouter::new(ChaCha8Rng::seed_from_u64(8));
        assert!(run_router(&mut valiant, &demand, 8) >= 1);
    }

    #[test]
    fn balanced_router_beats_direct_on_concentrated_demands() {
        // Node 0 sends n·b bits to node 1: direct needs ≈ n rounds; a
        // two-phase balanced schedule spreads the packets over the n links of
        // node 0 and the n links of node 1 and needs O(1) rounds (with the
        // header overhead, a small constant).
        let n = 16;
        let b = 8;
        let demand = concentrated(n, n, b);
        let direct_rounds = run_router(&mut DirectRouter, &demand, b);
        let balanced_rounds = run_router(&mut BalancedRouter, &demand, b);
        // Direct delivery pays at least the raw payload load on the (0,1)
        // link (n packets of b bits over a b-bit link = n rounds), plus
        // framing.
        assert!(direct_rounds >= n as u64);
        assert!(
            balanced_rounds <= 6,
            "balanced router took {balanced_rounds} rounds"
        );
        assert!(balanced_rounds * 2 < direct_rounds);
    }

    #[test]
    fn direct_round_bound_is_a_lower_bound_on_the_direct_router() {
        let demand = concentrated(6, 10, 3);
        let bound = direct_round_bound(&demand, 5);
        let rounds = run_router(&mut DirectRouter, &demand, 5);
        assert!(rounds >= bound, "rounds {rounds} below bound {bound}");
        // Framing (a 2-bit length per 3-bit packet) at most doubles the cost.
        assert!(rounds <= 2 * bound + 1);
    }

    #[test]
    fn empty_demand_costs_nothing() {
        let demand = RoutingDemand::new(5);
        assert_eq!(run_router(&mut DirectRouter, &demand, 4), 0);
        assert_eq!(run_router(&mut BalancedRouter, &demand, 4), 0);
    }

    #[test]
    fn valiant_congestion_is_reasonable() {
        let n = 32;
        let b = 8;
        let demand = concentrated(n, n, b);
        let mut valiant = ValiantRouter::new(ChaCha8Rng::seed_from_u64(9));
        let rounds = run_router(&mut valiant, &demand, b);
        // With n packets spread over n random intermediaries the max link
        // load is O(log n / log log n) packets w.h.p. For n = 32 the load of
        // the fullest bin exceeds 8 with probability < 10⁻³, and each packet
        // costs at most two rounds per phase with framing, so 32 rounds is a
        // safe cap — while still far below the ≥ 2·n rounds direct delivery
        // pays on this demand.
        assert!(rounds <= 32, "valiant took {rounds} rounds");
        let direct_rounds = run_router(&mut DirectRouter, &demand, b);
        assert!(
            rounds < direct_rounds,
            "valiant ({rounds}) should beat direct ({direct_rounds})"
        );
    }

    #[test]
    fn zero_length_payloads_are_delivered() {
        let mut demand = RoutingDemand::new(4);
        demand.send(0, 1, BitString::new());
        demand.send(2, 3, BitString::from_bits(1, 1));
        let delivered = Runner::new(CliqueConfig::unicast(4, 4))
            .execute(&mut RouteProtocol::new(BalancedRouter, &demand))
            .unwrap()
            .into_output();
        assert_eq!(delivered[1].len(), 1);
        assert_eq!(delivered[1][0].payload.len(), 0);
        assert_eq!(delivered[3].len(), 1);
    }
}
