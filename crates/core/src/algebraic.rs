//! Algebraic protocols: the `O(n^{1/3})`-round distributed semiring matrix
//! product, its Strassen-partitioned and sparse schedules, and its
//! consumers.
//!
//! Section 2.1 of the paper treats matrix multiplication as *the* lever for
//! sub-trivial triangle detection; the follow-up line it opened —
//! Censor-Hillel et al., *Algebraic Methods in the Congested Clique*
//! (PODC 2015), and Le Gall, *Further Algebraic Algorithms in the Congested
//! Clique Model* (DISC 2016) — showed that the unicast clique supports a
//! genuinely *distributed* semiring matrix product in `O(n^{1/3}/b)` rounds
//! via 3D partitioning over Lenzen-style routing, with no circuit in sight.
//! This module implements that product, two faster schedules of it and two
//! workloads on top of it:
//!
//! * [`SemiringMatMul`] — the 3D-partitioned product. The `d³` scalar
//!   products of `C = A ⊗ B` are tiled into `g³ ≤ n` cubes (`g = ⌊n^{1/3}⌋`);
//!   cube node `(i, j, k)` receives block `A_{ik}` and block `B_{kj}` from
//!   the row owners through the [`BalancedRouter`], multiplies them locally,
//!   and routes the partial block `A_{ik} ⊗ B_{kj}` back to the owners of
//!   the rows of `C_{ij}`, who fold the `g` partials with the semiring
//!   addition. Every node sends and receives `O(d²/n^{2/3})` entries per
//!   phase, so for `d = n` and constant-width entries the product costs
//!   `O(n^{1/3}/b)` rounds — experiment E13 measures exactly this scaling.
//! * [`FastMatMul`] and [`SparseMatMul`] — the Strassen-partitioned and
//!   nnz-charged schedules, picked per product by [`MatMulSchedule`]
//!   (experiment E18).
//! * [`TriangleCount`] — *exact* triangle counting (not just detection):
//!   `M = A·A` over the counting semiring, then `trace(A³) = Σ_{v,j}
//!   M[v][j]·A[v][j]` is assembled from one fixed-width broadcast per node
//!   and divided by 6.
//! * [`ApspProtocol`] — all-pairs shortest paths on unweighted graphs by
//!   repeated `(min, +)` squaring of the weight matrix (`⌈log₂(n−1)⌉`
//!   distance products, with a one-bit-per-node early-exit vote after each
//!   squaring).
//!
//! Three semirings are supported (see [`Semiring`]): the Boolean semiring
//! `(∨, ∧)` over packed [`BitMatrix`] operands, and the counting `(+, ×)`
//! and tropical `(min, +)` semirings over small-integer [`IntMatrix`]
//! operands.
//!
//! The three schedules share one substrate. Every matrix entry travels on
//! one entry wire (`Wire`): a fixed width, a bias for signed values and an
//! optional all-ones sentinel for [`IntMatrix::INFINITY`]. Like the routers'
//! packet framing, each wire is derived from public quantities (the
//! dimension and the global entry bounds of the operands), so both
//! endpoints of every link agree on the format without extra
//! communication. Every phase is one routed exchange (`RoutedExchange`)
//! through the [`BalancedRouter`], chunked for the fast schedule. The fast
//! schedule's leaf products are the cubic schedule's cube exchange
//! (`CubeExchange`), run once per leaf group.
//!
//! The per-node local block products run through the
//! [`clique_sim::linalg`](crate::sim::linalg) kernels, whose dispatchers
//! split output rows across the [`clique_sim::par`](crate::sim::par)
//! worker pool from `PAR_MIN_ROWS` rows up; by the
//! parallelism-never-changes-transcripts invariant (DESIGN.md,
//! Concurrency) every round/bit count in this module — including the E13
//! pins — is identical at any worker count. Experiment E14 measures the
//! wall-clock side of these protocols on the pool.

use std::collections::BTreeMap;
use std::ops::Range;

use clique_graphs::Graph;
use clique_routing::{BalancedRouter, Packet, Router, RoutingDemand};
use clique_sim::linalg::{saturating_counting_add, strassen_padded_dim};
use clique_sim::prelude::*;

/// The semiring a [`SemiringMatMul`] multiplies over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Semiring {
    /// The Boolean semiring `(∨, ∧)` over 0/1 entries (packed
    /// [`BitMatrix`] operands).
    Boolean,
    /// The field `F₂ = (⊕, ∧)` over 0/1 entries (packed [`BitMatrix`]
    /// operands) — the ring the algebraic-methods line actually multiplies
    /// over (Shamir's reduction turns Boolean products into a few `F₂`
    /// products), and the natural home of the Strassen-partitioned
    /// [`FastMatMul`] schedule: subtraction *is* addition, so block
    /// combinations never widen an entry.
    F2,
    /// The counting semiring `(+, ×)` over small non-negative integers,
    /// saturating strictly below [`IntMatrix::INFINITY`].
    Counting,
    /// The tropical `(min, +)` semiring with [`IntMatrix::INFINITY`] as the
    /// additive identity ("no path").
    MinPlus,
}

impl Semiring {
    /// A short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Semiring::Boolean => "boolean",
            Semiring::F2 => "f2",
            Semiring::Counting => "counting",
            Semiring::MinPlus => "min-plus",
        }
    }

    /// The additive identity as an entry: [`IntMatrix::INFINITY`] under
    /// `(min, +)`, 0 elsewhere — the entries a [`SparseMatMul`] never
    /// communicates.
    fn zero(&self) -> u64 {
        match self {
            Semiring::MinPlus => IntMatrix::INFINITY,
            _ => 0,
        }
    }

    /// Semiring addition, used to fold partial products.
    fn combine(&self, a: u64, b: u64) -> u64 {
        match self {
            Semiring::Boolean => a | b,
            Semiring::F2 => a ^ b,
            Semiring::Counting => saturating_counting_add(a, b),
            Semiring::MinPlus => a.min(b),
        }
    }
}

/// A square matrix in the representation its semiring multiplies fastest:
/// packed bits for the Boolean semiring, small integers for the counting
/// and `(min, +)` semirings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SemiringMatrix {
    /// Packed 0/1 entries (Boolean semiring operands).
    Bits(BitMatrix),
    /// Small-integer entries (counting and `(min, +)` semiring operands).
    Ints(IntMatrix),
}

impl SemiringMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            SemiringMatrix::Bits(m) => m.rows(),
            SemiringMatrix::Ints(m) => m.rows(),
        }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        match self {
            SemiringMatrix::Bits(m) => m.cols(),
            SemiringMatrix::Ints(m) => m.cols(),
        }
    }

    /// The entry at `(i, j)` widened to `u64` (0/1 for packed bits).
    pub fn entry(&self, i: usize, j: usize) -> u64 {
        match self {
            SemiringMatrix::Bits(m) => u64::from(m.get(i, j)),
            SemiringMatrix::Ints(m) => m.get(i, j),
        }
    }

    /// The inner [`IntMatrix`], if this is an integer matrix.
    pub fn as_ints(&self) -> Option<&IntMatrix> {
        match self {
            SemiringMatrix::Bits(_) => None,
            SemiringMatrix::Ints(m) => Some(m),
        }
    }

    /// The inner [`BitMatrix`], if this is a packed bit matrix.
    pub fn as_bits(&self) -> Option<&BitMatrix> {
        match self {
            SemiringMatrix::Bits(m) => Some(m),
            SemiringMatrix::Ints(_) => None,
        }
    }

    /// An accumulator of the given shape filled with the semiring's
    /// additive identity, in the semiring's representation.
    fn identity_filled(semiring: Semiring, rows: usize, cols: usize) -> SemiringMatrix {
        match semiring {
            Semiring::Boolean | Semiring::F2 => SemiringMatrix::Bits(BitMatrix::zeros(rows, cols)),
            _ => SemiringMatrix::Ints(IntMatrix::filled(rows, cols, semiring.zero())),
        }
    }

    /// Overwrites the entry at `(i, j)`.
    fn set_entry(&mut self, i: usize, j: usize, value: u64) {
        match self {
            SemiringMatrix::Bits(m) => m.set(i, j, value != 0),
            SemiringMatrix::Ints(m) => m.set(i, j, value),
        }
    }

    /// Folds `value` into the entry at `(i, j)` with the semiring addition.
    fn combine_entry(&mut self, semiring: Semiring, i: usize, j: usize, value: u64) {
        let folded = semiring.combine(self.entry(i, j), value);
        self.set_entry(i, j, folded);
    }

    /// Calls `f` on the entries of row `i` in `cols`, in column order,
    /// matching on the representation once per row.
    fn for_row(&self, i: usize, cols: Range<usize>, mut f: impl FnMut(u64)) {
        match self {
            SemiringMatrix::Bits(m) => cols.for_each(|j| f(u64::from(m.get(i, j)))),
            SemiringMatrix::Ints(m) => m.row(i)[cols].iter().for_each(|&v| f(v)),
        }
    }

    /// Replaces each entry of row `i` in `cols` by `f(entry)`, in column
    /// order, matching on the representation once per row.
    fn update_row(&mut self, i: usize, cols: Range<usize>, mut f: impl FnMut(u64) -> u64) {
        match self {
            SemiringMatrix::Bits(m) => {
                for j in cols {
                    let value = f(u64::from(m.get(i, j)));
                    m.set(i, j, value != 0);
                }
            }
            SemiringMatrix::Ints(m) => {
                for slot in &mut m.row_mut(i)[cols] {
                    *slot = f(*slot);
                }
            }
        }
    }

    /// The local block product in the given semiring (the word-parallel
    /// kernel where one exists).
    fn product(&self, rhs: &SemiringMatrix, semiring: Semiring) -> SemiringMatrix {
        match (semiring, self, rhs) {
            (Semiring::Boolean, SemiringMatrix::Bits(a), SemiringMatrix::Bits(b)) => {
                SemiringMatrix::Bits(a.mul_bool(b))
            }
            (Semiring::F2, SemiringMatrix::Bits(a), SemiringMatrix::Bits(b)) => {
                SemiringMatrix::Bits(a.mul_f2(b))
            }
            (Semiring::Counting, SemiringMatrix::Ints(a), SemiringMatrix::Ints(b)) => {
                SemiringMatrix::Ints(a.mul_counting(b))
            }
            (Semiring::MinPlus, SemiringMatrix::Ints(a), SemiringMatrix::Ints(b)) => {
                SemiringMatrix::Ints(a.mul_min_plus(b))
            }
            _ => unreachable!("operand representation checked in SemiringMatMul::new"),
        }
    }

    /// The largest finite entry (0 if there is none).
    fn max_finite(&self) -> u64 {
        match self {
            SemiringMatrix::Bits(m) => u64::from(m.count_ones() > 0),
            SemiringMatrix::Ints(m) => m.max_finite(),
        }
    }

    /// Number of entries that are not the semiring's additive identity —
    /// the "nonzeros" a [`SparseMatMul`] actually communicates (finite
    /// entries under `(min, +)`, set bits or nonzero integers elsewhere).
    pub fn nnz(&self, semiring: Semiring) -> usize {
        match self {
            SemiringMatrix::Bits(m) => m.count_ones(),
            SemiringMatrix::Ints(m) => (0..m.rows())
                .map(|r| m.row(r).iter().filter(|&&v| v != semiring.zero()).count())
                .sum(),
        }
    }

    /// A `side × side` matrix of a ring-embeddable semiring from signed
    /// row-major sums: the parity of each sum over `F₂`, the
    /// two's-complement-wrapped sum for counting.
    fn from_signed(semiring: Semiring, side: usize, sums: &[i64]) -> SemiringMatrix {
        let mut m = SemiringMatrix::identity_filled(semiring, side, side);
        let mask = if semiring == Semiring::F2 { 1 } else { -1 };
        for (r, row) in sums.chunks(side).enumerate() {
            let mut row = row.iter();
            m.update_row(r, 0..side, |_| {
                (row.next().expect("one sum per entry") & mask) as u64
            });
        }
        m
    }
}

/// The 3D tiling of a `d × d × d` product cube onto `n` players.
#[derive(Clone, Copy, Debug)]
struct Partition {
    n: usize,
    d: usize,
    /// Cube side: the largest `g` with `g³ ≤ n`, i.e. `g = Θ(n^{1/3})`.
    g: usize,
}

impl Partition {
    fn new(n: usize, d: usize) -> Self {
        let g = (1..=n).take_while(|&g| g * g * g <= n).last().unwrap_or(1);
        Self { n, d, g }
    }

    /// Index range `t`-th of the `g` row/column blocks (they tile `0..d`).
    fn block(&self, t: usize) -> Range<usize> {
        t * self.d / self.g..(t + 1) * self.d / self.g
    }

    /// The largest block length (the inner-dimension bound of a partial
    /// product).
    fn max_block_len(&self) -> usize {
        (0..self.g).map(|t| self.block(t).len()).max().unwrap_or(0)
    }

    /// The player holding row `r` of the inputs and of the output.
    fn row_owner(&self, r: usize) -> usize {
        r * self.n / self.d
    }

    /// The rows player `v` holds, the inverse of [`Partition::row_owner`]:
    /// `⌊r·n/d⌋ = v` exactly for `⌈v·d/n⌉ ≤ r < ⌈(v+1)·d/n⌉`.
    fn owned_rows(&self, v: usize) -> Range<usize> {
        (v * self.d).div_ceil(self.n)..((v + 1) * self.d).div_ceil(self.n)
    }

    /// The cubes `(w, i, j, k)` with row block `i` in `blocks`, in
    /// canonical order: cube `(i, j, k)` is computed by player
    /// `w = (i·g + j)·g + k`.
    fn cubes(&self, blocks: Range<usize>) -> impl Iterator<Item = (usize, usize, usize, usize)> {
        let g = self.g;
        blocks.flat_map(move |i| {
            (0..g).flat_map(move |j| (0..g).map(move |k| ((i * g + j) * g + k, i, j, k)))
        })
    }
}

/// The fixed wire format of one matrix entry: `value + bias` (wrapping)
/// in `width` bits, with the all-ones pattern reserved for
/// [`IntMatrix::INFINITY`] on a `sentinel` wire. Every wire derives from
/// public quantities (the dimension, the operands' global entry bounds, a
/// leaf's term counts) so both endpoints agree on the framing — the same
/// convention the routers' `PacketCodec` uses.
#[derive(Clone, Copy, Debug)]
struct Wire {
    width: usize,
    bias: u64,
    sentinel: bool,
}

impl Wire {
    /// Entries in `0..=max` (one bit for 0/1 entries).
    fn unsigned(max: u64) -> Wire {
        Wire {
            width: bits_for_universe(max.saturating_add(1)).max(1),
            bias: 0,
            sentinel: false,
        }
    }

    /// `(min, +)` entries: finite values in `0..=max` plus one pattern
    /// above them for the INFINITY sentinel.
    fn tropical(max: u64) -> Wire {
        Wire {
            width: bits_for_universe(max.saturating_add(2)).max(1),
            bias: 0,
            sentinel: true,
        }
    }

    /// Signed entries in `[-bound, bound]`, held two's-complement-wrapped
    /// and sent offset by `bound`.
    fn signed(bound: u64) -> Wire {
        Wire {
            width: bits_for_universe(2 * bound + 1).max(1),
            bias: bound,
            sentinel: false,
        }
    }

    /// The (input, partial-product) wires of a semiring product whose
    /// partial entries fold at most `max_inner` scalar products.
    fn for_product(
        semiring: Semiring,
        a: &SemiringMatrix,
        b: &SemiringMatrix,
        max_inner: usize,
    ) -> (Wire, Wire) {
        let (ma, mb) = (a.max_finite(), b.max_finite());
        match semiring {
            Semiring::Boolean | Semiring::F2 => (Wire::unsigned(1), Wire::unsigned(1)),
            Semiring::Counting => {
                let partial_max = u128::from(ma)
                    .saturating_mul(u128::from(mb))
                    .saturating_mul(max_inner as u128)
                    .min(u128::from(IntMatrix::INFINITY - 1))
                    as u64;
                (Wire::unsigned(ma.max(mb)), Wire::unsigned(partial_max))
            }
            Semiring::MinPlus => (
                Wire::tropical(ma.max(mb)),
                Wire::tropical(ma.saturating_add(mb)),
            ),
        }
    }

    fn all_ones(&self) -> u64 {
        u64::MAX >> (64 - self.width)
    }

    fn encode(&self, value: u64, out: &mut BitString) {
        let raw = if self.sentinel && value == IntMatrix::INFINITY {
            self.all_ones()
        } else {
            let raw = value.wrapping_add(self.bias);
            debug_assert!(
                raw < self.all_ones() || (raw == self.all_ones() && !self.sentinel),
                "entry {value} exceeds its public wire bound"
            );
            raw
        };
        out.push_bits(raw, self.width);
    }

    fn decode(&self, reader: &mut BitReader<'_>) -> u64 {
        let raw = reader
            .read_bits(self.width)
            .expect("malformed matrix-entry record");
        if self.sentinel && raw == self.all_ones() {
            IntMatrix::INFINITY
        } else {
            raw.wrapping_sub(self.bias)
        }
    }
}

/// One balanced-routing exchange, the single route step of every schedule
/// in this module. Sends enter the [`RoutingDemand`] in the order they are
/// queued — the schedules' canonical order, on which the greedy
/// intermediary assignment depends — and empty payloads are never sent.
/// With a [`Chunker`] every payload travels as sequence-tagged chunks and
/// is reassembled on delivery.
struct RoutedExchange {
    demand: RoutingDemand,
    chunker: Option<Chunker>,
}

impl RoutedExchange {
    fn new(n: usize, chunker: Option<Chunker>) -> RoutedExchange {
        RoutedExchange {
            demand: RoutingDemand::new(n),
            chunker,
        }
    }

    fn send(&mut self, src: usize, dst: usize, payload: BitString) {
        match &self.chunker {
            Some(chunker) => chunker.send(&mut self.demand, src, dst, &payload),
            None if !payload.is_empty() => self.demand.send(src, dst, payload),
            None => {}
        }
    }

    fn route(self, session: &mut Session) -> Result<Delivery, SimError> {
        let delivered = BalancedRouter.route(&self.demand, session)?;
        Ok(Delivery(match &self.chunker {
            Some(chunker) => delivered.iter().map(|p| chunker.merge(p)).collect(),
            None => delivered,
        }))
    }
}

/// What a [`RoutedExchange`] delivered: per destination, at most one
/// logical payload per source.
struct Delivery(Vec<Vec<Packet>>);

impl Delivery {
    /// Readers over the payloads `dst` received, indexed by source (`None`
    /// where that player sent nothing).
    fn readers(&self, dst: usize) -> Vec<Option<BitReader<'_>>> {
        let mut readers = vec![None; self.0.len()];
        for p in &self.0[dst] {
            readers[p.src.index()] = Some(p.payload.reader());
        }
        readers
    }
}

/// Chunk granularity (payload bits per routed packet) for the fast path.
///
/// The [`BalancedRouter`] spreads *distinct* packets of one `(src, dst)`
/// transfer across distinct intermediaries, but a single packet is atomic
/// on its two links — the round ledger charges `⌈max pair load / b⌉`, so a
/// monolithic payload concentrates its whole length on two links no matter
/// how balanced the demand is in aggregate. The fast path therefore splits
/// every logical payload into chunks of at most this many bits, letting
/// the greedy assignment flatten pair loads down to chunk granularity
/// while keeping the per-chunk framing (sequence tag plus the router's
/// node and length fields) a modest fraction of the payload.
const FAST_CHUNK_BITS: usize = 64;

/// Splits logical `(src, dst)` payloads into sequence-tagged chunks before
/// routing and reassembles them afterwards. Two-phase routing may deliver
/// a pair's chunks interleaved by intermediary, so each chunk carries its
/// sequence number; the tag width derives from a public bound on the
/// largest logical payload, so both endpoints agree on the framing without
/// extra communication (the [`Wire`] convention).
struct Chunker {
    max_payload_bits: usize,
    seq_width: usize,
}

impl Chunker {
    fn new(max_payload_bits: usize) -> Chunker {
        let chunks = max_payload_bits.div_ceil(FAST_CHUNK_BITS).max(1);
        Chunker {
            max_payload_bits,
            seq_width: bits_for_universe(chunks as u64).max(1),
        }
    }

    /// Queues `payload` on the `(src, dst)` pair as tagged chunks (empty
    /// payloads send nothing).
    fn send(&self, demand: &mut RoutingDemand, src: usize, dst: usize, payload: &BitString) {
        debug_assert!(
            payload.len() <= self.max_payload_bits,
            "fast-matmul payload exceeds its public bound"
        );
        let mut reader = payload.reader();
        let mut remaining = payload.len();
        let mut seq = 0u64;
        while remaining > 0 {
            let take = remaining.min(FAST_CHUNK_BITS);
            let mut chunk = BitString::with_capacity(self.seq_width + take);
            chunk.push_bits(seq, self.seq_width);
            chunk.extend_from(&reader.read_bitstring(take).expect("chunk within payload"));
            demand.send(src, dst, chunk);
            remaining -= take;
            seq += 1;
        }
    }

    /// Regroups one destination's delivered chunks into one logical packet
    /// per source (ascending), restoring sender order from the sequence
    /// tags.
    fn merge(&self, packets: &[Packet]) -> Vec<Packet> {
        let mut tagged: Vec<(u64, &Packet, BitString)> = packets
            .iter()
            .map(|p| {
                let mut reader = p.payload.reader();
                let seq = reader
                    .read_bits(self.seq_width)
                    .expect("malformed fast-matmul chunk tag");
                let body = reader
                    .read_bitstring(reader.remaining())
                    .expect("chunk payload");
                (seq, p, body)
            })
            .collect();
        tagged.sort_unstable_by_key(|&(seq, p, _)| (p.src.index(), seq));
        let mut merged: Vec<Packet> = Vec::new();
        for (_, p, body) in tagged {
            match merged.last_mut() {
                Some(m) if m.src == p.src => m.payload.extend_from(&body),
                _ => merged.push(Packet::new(p.src, p.dst, body)),
            }
        }
        merged
    }
}

/// The 3D cube exchange of one player group: phase 1 and the local block
/// products of [`SemiringMatMul`], and phase 2 of [`FastMatMul`] on each
/// leaf group. Cube node `offset + w` for cube `(w, i, j, k)` needs block
/// `A_{ik}` and block `B_{kj}`; each packet `v → w` carries `v`'s rows of
/// `A_{ik}` then `v`'s rows of `B_{kj}`, rows ascending, entries in column
/// order on the side's wire — a canonical layout both sides derive from
/// public quantities alone.
struct CubeExchange<'m> {
    /// First player of the group.
    offset: usize,
    part: Partition,
    /// The `A` and `B` operands, indexed by group-local row and column.
    operands: [&'m SemiringMatrix; 2],
    wires: [Wire; 2],
}

impl CubeExchange<'_> {
    /// Queues every block row a cube node needs from another player, cubes
    /// in canonical order, senders ascending.
    fn send(&self, exchange: &mut RoutedExchange) {
        let part = &self.part;
        for (w, i, j, k) in part.cubes(0..part.g) {
            let w = self.offset + w;
            let mut payloads: BTreeMap<usize, BitString> = BTreeMap::new();
            for (side, row_block, col_block) in [(0, i, k), (1, k, j)] {
                let wire = self.wires[side];
                for r in part.block(row_block) {
                    let v = self.offset + part.row_owner(r);
                    if v == w {
                        continue; // own input rows need no routing
                    }
                    let buf = payloads.entry(v).or_default();
                    self.operands[side]
                        .for_row(r, part.block(col_block), |value| wire.encode(value, buf));
                }
            }
            for (v, payload) in payloads {
                exchange.send(v, w, payload);
            }
        }
    }

    /// Every cube node reassembles its two blocks from `delivery` (plus its
    /// own rows) and multiplies them with `kernel`; the partials come back
    /// in canonical cube order.
    fn products(
        &self,
        semiring: Semiring,
        delivery: &Delivery,
        kernel: impl Fn(&SemiringMatrix, &SemiringMatrix) -> SemiringMatrix,
    ) -> Vec<SemiringMatrix> {
        let part = &self.part;
        part.cubes(0..part.g)
            .map(|(w, i, j, k)| {
                let w = self.offset + w;
                let mut readers = delivery.readers(w);
                let [a, b] = [(0, i, k), (1, k, j)].map(|(side, row_block, col_block)| {
                    let (rows, cols) = (part.block(row_block), part.block(col_block));
                    let operand = self.operands[side];
                    let mut block =
                        SemiringMatrix::identity_filled(semiring, rows.len(), cols.len());
                    for (bi, r) in rows.enumerate() {
                        let v = self.offset + part.row_owner(r);
                        if v == w {
                            for (bj, c) in cols.clone().enumerate() {
                                block.set_entry(bi, bj, operand.entry(r, c));
                            }
                        } else if !cols.is_empty() {
                            // A zero-width segment was never sent, so only
                            // look the reader up when there are entries.
                            let reader = readers[v]
                                .as_mut()
                                .expect("missing cube-exchange block packet");
                            block
                                .update_row(bi, 0..cols.len(), |_| self.wires[side].decode(reader));
                        }
                    }
                    block
                });
                kernel(&a, &b)
            })
            .collect()
    }
}

/// The `O(n^{1/3})`-round distributed semiring matrix product as a
/// [`Protocol`]: `C = A ⊗ B` for square `d × d` operands, 3D-partitioned
/// over the `n` players of the session and routed through the
/// [`BalancedRouter`].
///
/// Player `v` holds rows `r` with `row_owner(r) = v` of both inputs (for
/// `d = n` this is the standard "player `i` knows row `i`" input
/// convention) and ends up holding the same rows of the output; the
/// returned matrix is the assembled whole.
///
/// # Examples
///
/// ```
/// use clique_core::algebraic::{semiring_matmul, Semiring, SemiringMatrix};
/// use clique_core::sim::linalg::BitMatrix;
///
/// let a = SemiringMatrix::Bits(BitMatrix::identity(8));
/// let product = semiring_matmul(&a, &a, Semiring::Boolean, 4).unwrap();
/// assert_eq!(product.as_bits().unwrap(), &BitMatrix::identity(8));
/// ```
#[derive(Clone, Debug)]
pub struct SemiringMatMul<'a> {
    a: &'a SemiringMatrix,
    b: &'a SemiringMatrix,
    semiring: Semiring,
}

impl<'a> SemiringMatMul<'a> {
    /// Prepares the product `A ⊗ B`.
    ///
    /// # Panics
    ///
    /// Panics if the operands are not square matrices of the same
    /// dimension, if their representation does not match the semiring
    /// (Boolean needs [`SemiringMatrix::Bits`], counting and `(min, +)`
    /// need [`SemiringMatrix::Ints`]), or if a counting operand contains
    /// the reserved [`IntMatrix::INFINITY`] entry.
    pub fn new(a: &'a SemiringMatrix, b: &'a SemiringMatrix, semiring: Semiring) -> Self {
        let d = a.rows();
        assert!(
            a.cols() == d && b.rows() == d && b.cols() == d,
            "operands must be square matrices of one dimension, got {}×{} and {}×{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        );
        for (name, m) in [("A", a), ("B", b)] {
            match (semiring, m) {
                (Semiring::Boolean | Semiring::F2, SemiringMatrix::Bits(_))
                | (Semiring::Counting | Semiring::MinPlus, SemiringMatrix::Ints(_)) => {}
                _ => panic!(
                    "operand {name} representation does not match the {} semiring",
                    semiring.name()
                ),
            }
            // A counting operand's finite entries are exactly its (min, +)
            // nonzeros.
            assert!(
                semiring != Semiring::Counting || m.nnz(Semiring::MinPlus) == d * d,
                "counting operand {name} contains the reserved INFINITY entry"
            );
        }
        Self { a, b, semiring }
    }

    /// The semiring this product multiplies over.
    pub fn semiring(&self) -> Semiring {
        self.semiring
    }
}

impl Protocol for SemiringMatMul<'_> {
    type Output = SemiringMatrix;

    fn run(&mut self, session: &mut Session) -> Result<SemiringMatrix, SimError> {
        session.require_clique();
        let n = session.n();
        let d = self.a.rows();
        if d == 0 {
            return Ok(SemiringMatrix::identity_filled(self.semiring, 0, 0));
        }
        let part = Partition::new(n, d);
        let (input, partial_wire) =
            Wire::for_product(self.semiring, self.a, self.b, part.max_block_len());

        // Phase 1: the row owners ship the input blocks to the cube nodes,
        // which multiply them with the semiring's local kernel.
        let cube = CubeExchange {
            offset: 0,
            part,
            operands: [self.a, self.b],
            wires: [input, input],
        };
        let mut exchange = RoutedExchange::new(n, None);
        cube.send(&mut exchange);
        let partials = cube.products(self.semiring, &exchange.route(session)?, |a, b| {
            a.product(b, self.semiring)
        });

        // Phase 2: each cube node routes its partial block to the output
        // row owners, who fold the g partials per entry with the semiring
        // addition.
        let mut output = SemiringMatrix::identity_filled(self.semiring, d, d);
        let mut exchange = RoutedExchange::new(n, None);
        for ((w, i, j, _), partial) in part.cubes(0..part.g).zip(&partials) {
            let (rows, cols) = (part.block(i), part.block(j));
            let mut payloads: BTreeMap<usize, BitString> = BTreeMap::new();
            for (bi, r) in rows.enumerate() {
                let v = part.row_owner(r);
                if v == w {
                    // The cube node owns these output rows itself.
                    for (bj, c) in cols.clone().enumerate() {
                        output.combine_entry(self.semiring, r, c, partial.entry(bi, bj));
                    }
                } else {
                    let buf = payloads.entry(v).or_default();
                    partial.for_row(bi, 0..cols.len(), |value| partial_wire.encode(value, buf));
                }
            }
            for (v, payload) in payloads {
                exchange.send(w, v, payload);
            }
        }
        let delivery = exchange.route(session)?;

        // Fold the routed partials, walking cubes in the same canonical
        // order the senders used.
        for v in 0..n {
            let mut readers = delivery.readers(v);
            let owned = part.owned_rows(v);
            for i in 0..part.g {
                let rows = part.block(i);
                let rows = rows.start.max(owned.start)..rows.end.min(owned.end);
                if rows.is_empty() {
                    continue; // no cube of this row block sends to v
                }
                for (w, _, j, _) in part.cubes(i..i + 1) {
                    let cols = part.block(j);
                    // Zero-width segments were never sent; own partials
                    // were folded above.
                    if cols.is_empty() || w == v {
                        continue;
                    }
                    let reader = readers[w]
                        .as_mut()
                        .expect("missing semiring-matmul partial packet");
                    for r in rows.clone() {
                        output.update_row(r, cols.clone(), |old| {
                            self.semiring.combine(old, partial_wire.decode(reader))
                        });
                    }
                }
            }
        }
        Ok(output)
    }
}

/// Runs [`SemiringMatMul`] on `CLIQUE-UCAST(d, b)` — one player per matrix
/// row, the canonical input distribution.
///
/// # Errors
///
/// Propagates simulator errors (which cannot occur for well-formed inputs).
///
/// # Panics
///
/// Panics on empty operands or any [`SemiringMatMul::new`] precondition
/// violation.
pub fn semiring_matmul(
    a: &SemiringMatrix,
    b: &SemiringMatrix,
    semiring: Semiring,
    bandwidth: usize,
) -> Result<RunOutcome<SemiringMatrix>, SimError> {
    let n = a.rows();
    assert!(n > 0, "the operands must have at least one row");
    Runner::new(CliqueConfig::unicast(n, bandwidth))
        .execute(&mut SemiringMatMul::new(a, b, semiring))
}

/// One leaf of the flattened depth-`L` Strassen recursion: the signed
/// combinations of base blocks (on the `2^L × 2^L` grid) forming its two
/// operands, and the signed output blocks its product feeds. Every
/// coefficient is `±1` — Strassen's identities never scale a block — so a
/// combined entry's magnitude is bounded by the term count, a public
/// quantity both wire endpoints derive from `L` alone.
#[derive(Clone, Debug)]
struct LeafCoeffs {
    /// `(block_row, block_col, sign)` terms of the A-side operand.
    a_terms: Vec<(usize, usize, i64)>,
    /// `(block_row, block_col, sign)` terms of the B-side operand.
    b_terms: Vec<(usize, usize, i64)>,
    /// `(block_row, block_col, sign)` output blocks the product feeds.
    c_terms: Vec<(usize, usize, i64)>,
}

/// Per-level Strassen rules: the quadrants (with signs) feeding each of the
/// 7 products' A and B operands, and the C quadrants each product feeds —
/// M1 = (A11+A22)(B11+B22), M2 = (A21+A22)B11, M3 = A11(B12−B22),
/// M4 = A22(B21−B11), M5 = (A11+A12)B22, M6 = (A21−A11)(B11+B12),
/// M7 = (A12−A22)(B21+B22); C11 = M1+M4−M5+M7, C12 = M3+M5, C21 = M2+M4,
/// C22 = M1−M2+M3+M6. The same identities drive the local
/// `BitMatrix::mul_f2_strassen` kernel and the lifted Strassen circuit, so
/// all three seams agree block for block.
type StrassenRule = (
    &'static [(usize, usize, i64)],
    &'static [(usize, usize, i64)],
    &'static [(usize, usize, i64)],
);
const STRASSEN_RULES: [StrassenRule; 7] = [
    (
        &[(0, 0, 1), (1, 1, 1)],
        &[(0, 0, 1), (1, 1, 1)],
        &[(0, 0, 1), (1, 1, 1)],
    ),
    (
        &[(1, 0, 1), (1, 1, 1)],
        &[(0, 0, 1)],
        &[(1, 0, 1), (1, 1, -1)],
    ),
    (
        &[(0, 0, 1)],
        &[(0, 1, 1), (1, 1, -1)],
        &[(0, 1, 1), (1, 1, 1)],
    ),
    (
        &[(1, 1, 1)],
        &[(1, 0, 1), (0, 0, -1)],
        &[(0, 0, 1), (1, 0, 1)],
    ),
    (
        &[(0, 0, 1), (0, 1, 1)],
        &[(1, 1, 1)],
        &[(0, 0, -1), (0, 1, 1)],
    ),
    (
        &[(1, 0, 1), (0, 0, -1)],
        &[(0, 0, 1), (0, 1, 1)],
        &[(1, 1, 1)],
    ),
    (
        &[(0, 1, 1), (1, 1, -1)],
        &[(1, 0, 1), (1, 1, 1)],
        &[(0, 0, 1)],
    ),
];

/// Expands the Strassen recursion to depth `levels` and returns the `7^L`
/// leaves' signed block combinations. Depth 0 is the trivial single leaf
/// (the whole product).
fn strassen_leaf_coeffs(levels: u32) -> Vec<LeafCoeffs> {
    let mut leaves = vec![LeafCoeffs {
        a_terms: vec![(0, 0, 1)],
        b_terms: vec![(0, 0, 1)],
        c_terms: vec![(0, 0, 1)],
    }];
    for _ in 0..levels {
        let mut next = Vec::with_capacity(leaves.len() * 7);
        for leaf in &leaves {
            for (rule_a, rule_b, rule_c) in STRASSEN_RULES {
                // A parent block (pi, pj) splits into quadrants at
                // (2·pi + qi, 2·pj + qj) on the refined grid; signs multiply.
                let expand = |parent: &[(usize, usize, i64)], rule: &[(usize, usize, i64)]| {
                    parent
                        .iter()
                        .flat_map(|&(pi, pj, ps)| {
                            rule.iter()
                                .map(move |&(qi, qj, qs)| (2 * pi + qi, 2 * pj + qj, ps * qs))
                        })
                        .collect()
                };
                next.push(LeafCoeffs {
                    a_terms: expand(&leaf.a_terms, rule_a),
                    b_terms: expand(&leaf.b_terms, rule_b),
                    c_terms: expand(&leaf.c_terms, rule_c),
                });
            }
        }
        leaves = next;
    }
    leaves
}

/// Whether a depth-`levels` counting-semiring Strassen schedule is exact:
/// the cubic comparison must not saturate (true entries `≤ ma·mb·d` stay
/// below [`IntMatrix::INFINITY`]) and every signed intermediate — combined
/// entries bounded by `2^L·m`, partials by `4^L·ma·mb·q`, fold sums by
/// `56^L·ma·mb·q` — must fit `i64` so wrapping arithmetic recovers the
/// exact integer product.
fn counting_headroom_ok(ma: u64, mb: u64, d: usize, levels: u32) -> bool {
    let q = strassen_padded_dim(d, levels) >> levels;
    let true_max = u128::from(ma) * u128::from(mb) * d as u128;
    let fold_max =
        56u128.pow(levels) * u128::from(ma.max(1)) * u128::from(mb.max(1)) * q.max(1) as u128;
    true_max <= u128::from(IntMatrix::INFINITY - 1) && fold_max < (1u128 << 62)
}

/// The Strassen-partitioned distributed matrix product of Censor-Hillel et
/// al. (*Algebraic Methods in the Congested Clique*) as a [`Protocol`]:
/// the depth-`L` Strassen recursion is flattened into `7^L` leaf products,
/// each handed to a disjoint group of `≈ n/7^L` players that runs the 3D
/// cubic partition on its quarter-sized (per level) blocks. Because each
/// recursion level multiplies the engaged node count by 7 while only
/// halving the block side, per-node load shrinks by `7/4` per level —
/// `O(n^{1-2/ω})` rounds in the limit against the cubic partition's
/// `O(n^{1/3})`.
///
/// Three balanced-routing phases:
///
/// 1. **Pre-combine** — the original row owners ship raw row segments of
///    every base block a leaf touches to the *leaf-row* owners, who fold
///    the signed block combinations (Strassen's `A11 + A22` etc.) locally.
/// 2. **Leaf products** — each group runs the cubic 3D exchange on its
///    combined `q × q` operands and multiplies locally (packed
///    [`BitMatrix::mul_f2`] over `F₂`, wrapping-exact
///    [`IntMatrix::mul_wrapping`] for counting).
/// 3. **Recombine** — signed partials route to the output row owners, who
///    fold each leaf's contribution into the output blocks its product
///    feeds.
///
/// Only *ring-embeddable* semirings are eligible: `F₂` is a field and
/// counting embeds in `ℤ` (saturation excluded by a public precondition).
/// The Boolean `(∨, ∧)` and tropical `(min, +)` semirings have no additive
/// inverse, so Strassen's subtractions do not exist there — those stay on
/// the cubic [`SemiringMatMul`] path, which the [`MatMulSchedule`]
/// dispatcher encodes explicitly.
///
/// # Examples
///
/// ```
/// use clique_core::algebraic::{fast_matmul, Semiring, SemiringMatrix};
/// use clique_core::sim::linalg::BitMatrix;
///
/// let a = SemiringMatrix::Bits(BitMatrix::identity(14));
/// let product = fast_matmul(&a, &a, Semiring::F2, 4).unwrap();
/// assert_eq!(product.as_bits().unwrap(), &BitMatrix::identity(14));
/// ```
#[derive(Clone, Debug)]
pub struct FastMatMul<'a> {
    a: &'a SemiringMatrix,
    b: &'a SemiringMatrix,
    semiring: Semiring,
    levels: Option<u32>,
}

impl<'a> FastMatMul<'a> {
    /// Prepares the Strassen-partitioned product `A ⊗ B`.
    ///
    /// # Panics
    ///
    /// Panics on any [`SemiringMatMul::new`] precondition violation, or if
    /// the semiring is not ring-embeddable ([`Semiring::F2`] or
    /// [`Semiring::Counting`]).
    pub fn new(a: &'a SemiringMatrix, b: &'a SemiringMatrix, semiring: Semiring) -> Self {
        assert!(
            matches!(semiring, Semiring::F2 | Semiring::Counting),
            "the strassen schedule needs a ring-embeddable semiring (f2 or counting); \
             {} stays on the cubic path",
            semiring.name()
        );
        // Shared operand validation (shape, representation, reserved
        // entries) lives in one place.
        let _ = SemiringMatMul::new(a, b, semiring);
        Self {
            a,
            b,
            semiring,
            levels: None,
        }
    }

    /// Forces the recursion depth instead of deriving it from `(n, d)` —
    /// a test and experiment seam. Depth `L` needs `7^L ≤ n` at run time.
    pub fn with_levels(mut self, levels: u32) -> Self {
        self.levels = Some(levels);
        self
    }

    /// The recursion depth the schedule picks for `n` players and
    /// dimension `d`: the largest `L ≤ 3` such that every one of the `7^L`
    /// groups keeps at least 8 players — enough to host a `2×2×2` cube in
    /// its internal 3D partition — and leaf blocks keep at least two rows.
    /// Splitting further would hand whole leaf products to single nodes,
    /// concentrating link load instead of spreading it (the very thing the
    /// schedule exists to avoid). Depth 0 means the clique is too small
    /// and the protocol falls back to the cubic partition in place.
    pub fn levels_for(n: usize, d: usize) -> u32 {
        let mut levels = 0;
        while levels < 3
            && n / 7usize.pow(levels + 1) >= 8
            && strassen_padded_dim(d, levels + 1) >> (levels + 1) >= 2
        {
            levels += 1;
        }
        levels
    }
}

impl Protocol for FastMatMul<'_> {
    type Output = SemiringMatrix;

    fn run(&mut self, session: &mut Session) -> Result<SemiringMatrix, SimError> {
        session.require_clique();
        let n = session.n();
        let d = self.a.rows();
        if d == 0 {
            return Ok(SemiringMatrix::identity_filled(self.semiring, 0, 0));
        }
        let levels = self.levels.unwrap_or_else(|| Self::levels_for(n, d));
        assert!(
            levels == 0 || 7usize.pow(levels) <= n,
            "a depth-{levels} strassen schedule needs 7^{levels} ≤ n = {n} players"
        );
        if levels == 0 {
            // Too few players for 7 disjoint groups: cubic fallback.
            return session.run_protocol(&mut SemiringMatMul::new(self.a, self.b, self.semiring));
        }

        let leaves = strassen_leaf_coeffs(levels);
        let q = strassen_padded_dim(d, levels) >> levels;
        let global = Partition::new(n, d);
        let group_start = |t: usize| t * n / leaves.len();
        let leaf_parts: Vec<Partition> = (0..leaves.len())
            .map(|t| Partition::new(group_start(t + 1) - group_start(t), q))
            .collect();
        let (ma, mb) = (self.a.max_finite(), self.b.max_finite());
        if self.semiring == Semiring::Counting {
            assert!(
                counting_headroom_ok(ma, mb, d, levels),
                "counting operands too large for a depth-{levels} strassen schedule \
                 (an intermediate or the cubic comparison would saturate)"
            );
        }
        // Raw input entries (phase 1) are unsigned originals; combined and
        // partial entries (phases 2–3) are signed with per-leaf public
        // bounds (A side, B side, partial). Over F₂ every wire is one bit.
        let raw = Wire::unsigned(ma.max(mb));
        let wires: Vec<[Wire; 3]> = leaves
            .iter()
            .map(|leaf| match self.semiring {
                Semiring::F2 => [Wire::unsigned(1); 3],
                _ => {
                    let ba = leaf.a_terms.len() as u64 * ma;
                    let bb = leaf.b_terms.len() as u64 * mb;
                    let bp = (u128::from(ba) * u128::from(bb) * q as u128) as u64;
                    [Wire::signed(ba), Wire::signed(bb), Wire::signed(bp)]
                }
            })
            .collect();

        // Public per-pair payload bounds, which fix each phase's chunk
        // sequence width: what one sender can owe one receiver is capped by
        // the rows it owns, the widest term list, and the wire widths — all
        // public quantities.
        let global_rpo = d.div_ceil(n).max(1);
        let max_a_terms = leaves.iter().map(|l| l.a_terms.len()).max().unwrap_or(1);
        let max_b_terms = leaves.iter().map(|l| l.b_terms.len()).max().unwrap_or(1);
        let chunk1 = Chunker::new((max_a_terms + max_b_terms) * global_rpo * q * raw.width);
        let (mut bound2, mut bound3) = (0usize, 0usize);
        for (t, leaf) in leaves.iter().enumerate() {
            let lp = &leaf_parts[t];
            let bl = lp.max_block_len();
            let lp_rpo = lp.d.div_ceil(lp.n).max(1);
            let [wa, wb, wp] = wires[t];
            bound2 = bound2.max(2 * lp_rpo.min(bl) * bl * wa.width.max(wb.width));
            bound3 = bound3.max(leaf.c_terms.len() * global_rpo.min(bl) * bl * wp.width);
        }

        // Phase 1 (pre-combine): original row owners → leaf-row owners.
        // Rows and columns at or beyond d are padding both endpoints skip
        // (d, q and the term lists are public).
        let segment = |&(bi, bj, sign): &(usize, usize, i64), rl: usize| {
            let r = bi * q + rl;
            (r < d && bj * q < d).then(|| (sign, r, bj * q..((bj + 1) * q).min(d)))
        };
        let mut exchange = RoutedExchange::new(n, Some(chunk1));
        for (t, leaf) in leaves.iter().enumerate() {
            let (gs, lp) = (group_start(t), &leaf_parts[t]);
            let mut payloads: BTreeMap<(usize, usize), BitString> = BTreeMap::new();
            for (matrix, terms) in [(self.a, &leaf.a_terms), (self.b, &leaf.b_terms)] {
                for rl in 0..q {
                    let o = gs + lp.row_owner(rl);
                    for (_, r, cols) in terms.iter().filter_map(|term| segment(term, rl)) {
                        let v = global.row_owner(r);
                        if v != o {
                            let buf = payloads.entry((v, o)).or_default();
                            matrix.for_row(r, cols, |value| raw.encode(value, buf));
                        }
                    }
                }
            }
            for ((v, o), payload) in payloads {
                exchange.send(v, o, payload);
            }
        }
        let delivery = exchange.route(session)?;

        // Each leaf-row owner folds the signed combinations of its rows.
        // Signed sums are kept in i64 (wrapping-safe by the headroom
        // precondition); over F₂ only the parity survives.
        let leaf_ops: Vec<[SemiringMatrix; 2]> = leaves
            .iter()
            .enumerate()
            .map(|(t, leaf)| {
                let (gs, lp) = (group_start(t), &leaf_parts[t]);
                let mut combined = [vec![0i64; q * q], vec![0i64; q * q]];
                for lo in 0..lp.n {
                    let o = gs + lo;
                    let mut readers = delivery.readers(o);
                    let sides = [(self.a, &leaf.a_terms), (self.b, &leaf.b_terms)];
                    for ((matrix, terms), sums) in sides.into_iter().zip(&mut combined) {
                        for rl in lp.owned_rows(lo) {
                            for (sign, r, cols) in terms.iter().filter_map(|term| segment(term, rl))
                            {
                                let v = global.row_owner(r);
                                let mut reader = (v != o).then(|| {
                                    readers[v]
                                        .as_mut()
                                        .expect("missing fast-matmul input packet")
                                });
                                for (slot, c) in sums[rl * q..].iter_mut().zip(cols) {
                                    let value = match reader.as_mut() {
                                        Some(reader) => raw.decode(reader),
                                        None => matrix.entry(r, c),
                                    };
                                    *slot += sign * value as i64;
                                }
                            }
                        }
                    }
                }
                combined.map(|sums| SemiringMatrix::from_signed(self.semiring, q, &sums))
            })
            .collect();

        // Phase 2 (leaf products): each group runs the cubic 3D exchange on
        // its combined operands and multiplies with the packed (F₂) or
        // wrapping-exact (counting) leaf kernel.
        let cubes: Vec<CubeExchange> = leaf_ops
            .iter()
            .enumerate()
            .map(|(t, [a, b])| CubeExchange {
                offset: group_start(t),
                part: leaf_parts[t],
                operands: [a, b],
                wires: [wires[t][0], wires[t][1]],
            })
            .collect();
        let mut exchange = RoutedExchange::new(n, Some(Chunker::new(bound2)));
        for cube in &cubes {
            cube.send(&mut exchange);
        }
        let delivery = exchange.route(session)?;
        let kernel = |a: &SemiringMatrix, b: &SemiringMatrix| match (a, b) {
            (SemiringMatrix::Ints(a), SemiringMatrix::Ints(b)) => {
                SemiringMatrix::Ints(a.mul_wrapping(b))
            }
            _ => a.product(b, Semiring::F2),
        };
        let partials: Vec<Vec<SemiringMatrix>> = cubes
            .iter()
            .map(|cube| cube.products(self.semiring, &delivery, kernel))
            .collect();

        // Phase 3 (recombine): signed partials → output row owners. Each
        // cube's partial feeds every output block in its leaf's c_terms;
        // the receivers fold contributions in the same canonical
        // (leaf, cube, term, row, column) order the senders used, into one
        // i64 sum per entry whose parity is the F₂ result. The fold is
        // order-independent, unlike the cubic path's saturating fold —
        // exactness is the precondition.
        let mut sums = vec![0i64; d * d];
        // The (sign, partial row, output row, unpadded output columns)
        // segments the partial of cube (i, j) in leaf t feeds, in canonical
        // (term, row) order.
        let segments = |t: usize, i: usize, j: usize| {
            let (rows, cols) = (leaf_parts[t].block(i), leaf_parts[t].block(j));
            let terms = leaves[t].c_terms.iter().flat_map(move |&(ci, cj, sign)| {
                let cols = (cj * q + cols.start).min(d)..(cj * q + cols.end).min(d);
                let rows = rows.clone().enumerate();
                rows.map(move |(pi, rl)| (sign, pi, ci * q + rl, cols.clone()))
            });
            terms.filter(move |&(_, _, r, _)| r < d)
        };
        let mut exchange = RoutedExchange::new(n, Some(Chunker::new(bound3)));
        for (t, lp) in leaf_parts.iter().enumerate() {
            let gs = group_start(t);
            for ((w, i, j, _), partial) in lp.cubes(0..lp.g).zip(&partials[t]) {
                let w = gs + w;
                let mut payloads: BTreeMap<usize, BitString> = BTreeMap::new();
                for (sign, pi, r, cols) in segments(t, i, j) {
                    let v = global.row_owner(r);
                    if v == w {
                        for (slot, pj) in sums[r * d..][cols].iter_mut().zip(0..) {
                            *slot += sign * partial.entry(pi, pj) as i64;
                        }
                    } else {
                        let buf = payloads.entry(v).or_default();
                        partial.for_row(pi, 0..cols.len(), |value| wires[t][2].encode(value, buf));
                    }
                }
                for (v, payload) in payloads {
                    exchange.send(w, v, payload);
                }
            }
        }
        let delivery = exchange.route(session)?;

        for v in 0..n {
            let mut readers = delivery.readers(v);
            for (t, lp) in leaf_parts.iter().enumerate() {
                let gs = group_start(t);
                for (w, i, j, _) in lp.cubes(0..lp.g) {
                    let w = gs + w;
                    if w == v {
                        continue; // folded locally above
                    }
                    for (sign, _, r, cols) in segments(t, i, j) {
                        if global.row_owner(r) != v || cols.is_empty() {
                            continue;
                        }
                        let reader = readers[w]
                            .as_mut()
                            .expect("missing fast-matmul partial packet");
                        for slot in &mut sums[r * d..][cols] {
                            *slot += sign * wires[t][2].decode(reader) as i64;
                        }
                    }
                }
            }
        }
        Ok(SemiringMatrix::from_signed(self.semiring, d, &sums))
    }
}

/// Runs [`FastMatMul`] on `CLIQUE-UCAST(d, b)`.
///
/// # Errors
///
/// Propagates simulator errors (which cannot occur for well-formed inputs).
///
/// # Panics
///
/// Panics on empty operands or any [`FastMatMul::new`] precondition
/// violation.
pub fn fast_matmul(
    a: &SemiringMatrix,
    b: &SemiringMatrix,
    semiring: Semiring,
    bandwidth: usize,
) -> Result<RunOutcome<SemiringMatrix>, SimError> {
    let n = a.rows();
    assert!(n > 0, "the operands must have at least one row");
    Runner::new(CliqueConfig::unicast(n, bandwidth)).execute(&mut FastMatMul::new(a, b, semiring))
}

/// The layout of one sparse payload: a count prefix, then `(x, y, entry)`
/// records of two local index fields and one entry on its wire — every
/// width derived from public row counts, like the routers' packet framing.
struct SparseRecords {
    count: usize,
    x: usize,
    y: usize,
    wire: Wire,
}

impl SparseRecords {
    /// Records with `x < x_len` and `y < y_len`, at most `x_len · y_len`
    /// of them per payload.
    fn new(x_len: usize, y_len: usize, wire: Wire) -> SparseRecords {
        let index = |len: usize| bits_for_universe(len as u64).max(1);
        SparseRecords {
            count: Wire::unsigned((x_len * y_len) as u64).width,
            x: index(x_len),
            y: index(y_len),
            wire,
        }
    }

    fn encode(&self, records: &[(usize, usize, u64)]) -> BitString {
        let mut payload = BitString::new();
        payload.push_bits(records.len() as u64, self.count);
        for &(x, y, value) in records {
            payload.push_bits(x as u64, self.x);
            payload.push_bits(y as u64, self.y);
            self.wire.encode(value, &mut payload);
        }
        payload
    }

    fn decode(&self, reader: &mut BitReader<'_>, mut record: impl FnMut(usize, usize, u64)) {
        let count = reader
            .read_bits(self.count)
            .expect("malformed sparse-matmul count");
        for _ in 0..count {
            let mut index = |width| {
                reader
                    .read_bits(width)
                    .expect("malformed sparse-matmul record") as usize
            };
            let (x, y) = (index(self.x), index(self.y));
            record(x, y, self.wire.decode(reader));
        }
    }
}

/// The sparsity-aware distributed product (Le Gall, *Further Algebraic
/// Algorithms in the Congested Clique Model*) as a [`Protocol`]: only
/// entries that differ from the semiring's additive identity travel, so
/// the round count is charged off the actual `nnz` instead of `d²`.
///
/// The work is partitioned by *inner index*: the owner of inner index `k`
/// (the same `row_owner` map every path uses, so row `k` of `B` is already
/// in place and only `A`'s column nonzeros route) computes all products
/// `A[r][k] ⊗ B[k][c]`, folds them per output entry locally, and routes
/// the surviving partials to the output row owners. Because payloads are
/// data-dependent, records carry explicit count prefixes and index fields
/// (widths derived from public row counts, like the routers' packet
/// framing) — the fixed-width, data-oblivious layouts of the dense paths
/// do not apply.
///
/// Valid over **all four** semirings: unlike Strassen's subtractions, the
/// sparse path only reorders the same semiring additions the cubic path
/// performs (the folds are associative and commutative, saturation
/// included), so the result is identical entry for entry.
///
/// # Examples
///
/// ```
/// use clique_core::algebraic::{sparse_matmul, Semiring, SemiringMatrix};
/// use clique_core::sim::linalg::BitMatrix;
///
/// let a = SemiringMatrix::Bits(BitMatrix::identity(9));
/// let product = sparse_matmul(&a, &a, Semiring::Boolean, 4).unwrap();
/// assert_eq!(product.as_bits().unwrap(), &BitMatrix::identity(9));
/// ```
#[derive(Clone, Debug)]
pub struct SparseMatMul<'a> {
    a: &'a SemiringMatrix,
    b: &'a SemiringMatrix,
    semiring: Semiring,
}

impl<'a> SparseMatMul<'a> {
    /// Prepares the sparse product `A ⊗ B`.
    ///
    /// # Panics
    ///
    /// Panics on any [`SemiringMatMul::new`] precondition violation.
    pub fn new(a: &'a SemiringMatrix, b: &'a SemiringMatrix, semiring: Semiring) -> Self {
        let _ = SemiringMatMul::new(a, b, semiring);
        Self { a, b, semiring }
    }

    /// The semiring product of two non-identity entries, matching the
    /// dense kernels' clamping exactly.
    fn multiply(semiring: Semiring, a: u64, b: u64) -> u64 {
        match semiring {
            Semiring::Boolean | Semiring::F2 => 1,
            Semiring::Counting => a.saturating_mul(b),
            Semiring::MinPlus => saturating_counting_add(a, b),
        }
    }
}

impl Protocol for SparseMatMul<'_> {
    type Output = SemiringMatrix;

    fn run(&mut self, session: &mut Session) -> Result<SemiringMatrix, SimError> {
        session.require_clique();
        let n = session.n();
        let d = self.a.rows();
        if d == 0 {
            return Ok(SemiringMatrix::identity_filled(self.semiring, 0, 0));
        }
        let part = Partition::new(n, d);
        let identity = self.semiring.zero();
        let (input, partial_wire) = Wire::for_product(self.semiring, self.a, self.b, d);
        // Local row indices are offsets from each player's first owned
        // row, so every record width below is public.
        let owned: Vec<Range<usize>> = (0..n).map(|v| part.owned_rows(v)).collect();

        // Phase 1: route A's column nonzeros to the inner-index owners
        // (B's rows are already in place). Records: (k offset among the
        // receiver's indices, r offset among the sender's rows, value).
        let inputs = |v: usize, w: usize| SparseRecords::new(owned[w].len(), owned[v].len(), input);
        let mut records = BTreeMap::<_, Vec<_>>::new();
        for k in 0..d {
            let w = part.row_owner(k);
            for r in 0..d {
                let (v, value) = (part.row_owner(r), self.a.entry(r, k));
                // The owner already holds its rows of A.
                if v != w && value != identity {
                    records.entry((v, w)).or_default().push((
                        k - owned[w].start,
                        r - owned[v].start,
                        value,
                    ));
                }
            }
        }
        let mut exchange = RoutedExchange::new(n, None);
        for ((v, w), entries) in records {
            exchange.send(v, w, inputs(v, w).encode(&entries));
        }
        let delivery = exchange.route(session)?;

        // Local compute at each inner-index owner: assemble the nonzero
        // columns of A, cross them with the owned nonzero rows of B, and
        // fold per output entry. Folding here and at the output owners
        // reorders the cubic path's identical semiring additions, which are
        // associative and commutative (saturation included) — so the
        // result matches the dense product exactly.
        let mut folded: Vec<BTreeMap<(usize, usize), u64>> = Vec::with_capacity(n);
        for w in 0..n {
            let mut columns: BTreeMap<usize, Vec<(usize, u64)>> = BTreeMap::new();
            for k in owned[w].clone() {
                for r in owned[w].clone() {
                    let value = self.a.entry(r, k);
                    if value != identity {
                        columns.entry(k).or_default().push((r, value));
                    }
                }
            }
            // No nonzeros from v means no payload (empty payloads unsent).
            for (v, reader) in delivery.readers(w).iter_mut().enumerate() {
                if let Some(reader) = reader {
                    inputs(v, w).decode(reader, |kl, rl, value| {
                        columns
                            .entry(owned[w].start + kl)
                            .or_default()
                            .push((owned[v].start + rl, value))
                    });
                }
            }
            let mut partials: BTreeMap<(usize, usize), u64> = BTreeMap::new();
            for (k, col) in columns {
                for c in 0..d {
                    let b_value = self.b.entry(k, c);
                    if b_value == identity {
                        continue;
                    }
                    for &(r, a_value) in &col {
                        let product = Self::multiply(self.semiring, a_value, b_value);
                        let slot = partials.entry((r, c)).or_insert(identity);
                        *slot = self.semiring.combine(*slot, product);
                    }
                }
            }
            folded.push(partials);
        }

        // Phase 2: surviving partials route to the output row owners.
        // Records: (r offset among the receiver's rows, column, value).
        let outputs = |v: usize| SparseRecords::new(owned[v].len(), d, partial_wire);
        let mut output = SemiringMatrix::identity_filled(self.semiring, d, d);
        let mut exchange = RoutedExchange::new(n, None);
        for (w, partials) in folded.iter().enumerate() {
            let mut records: BTreeMap<usize, Vec<(usize, usize, u64)>> = BTreeMap::new();
            for (&(r, c), &value) in partials {
                if value == identity {
                    continue; // e.g. an even F₂ parity folded away
                }
                let v = part.row_owner(r);
                if v == w {
                    output.combine_entry(self.semiring, r, c, value);
                } else {
                    records
                        .entry(v)
                        .or_default()
                        .push((r - owned[v].start, c, value));
                }
            }
            for (v, entries) in records {
                exchange.send(w, v, outputs(v).encode(&entries));
            }
        }
        let delivery = exchange.route(session)?;

        for (v, rows) in owned.iter().enumerate() {
            // Sources in ascending order; players with no surviving
            // partials sent nothing.
            for reader in delivery.readers(v).iter_mut().flatten() {
                outputs(v).decode(reader, |rl, c, value| {
                    output.combine_entry(self.semiring, rows.start + rl, c, value)
                });
            }
        }
        Ok(output)
    }
}

/// Runs [`SparseMatMul`] on `CLIQUE-UCAST(d, b)`.
///
/// # Errors
///
/// Propagates simulator errors (which cannot occur for well-formed inputs).
///
/// # Panics
///
/// Panics on empty operands or any [`SparseMatMul::new`] precondition
/// violation.
pub fn sparse_matmul(
    a: &SemiringMatrix,
    b: &SemiringMatrix,
    semiring: Semiring,
    bandwidth: usize,
) -> Result<RunOutcome<SemiringMatrix>, SimError> {
    let n = a.rows();
    assert!(n > 0, "the operands must have at least one row");
    Runner::new(CliqueConfig::unicast(n, bandwidth)).execute(&mut SparseMatMul::new(a, b, semiring))
}

/// Auto dispatch sends a product to [`SparseMatMul`] when at most this
/// many eighths of the operands' entries are non-identity — below that the
/// nnz-charged phases beat the dense `d²`-charged ones at every measured
/// grid point (experiment E18).
pub const SPARSE_DENSITY_EIGHTHS: usize = 1;

/// Auto dispatch engages the Strassen schedule from this player count up —
/// the smallest clique whose seven depth-1 groups each keep the 8 players
/// a `2×2×2` internal cube needs (see [`FastMatMul::levels_for`]).
pub const STRASSEN_MIN_PLAYERS: usize = 56;

/// Auto dispatch engages the Strassen schedule only when `d ≥ aspect · n`:
/// with one row per player (`d = n`) the cubic partition's per-pair loads
/// are already a handful of bits and the fast path's three routed phases
/// plus chunk framing cost more than they save; from two rows per player
/// up, every measured grid point has the fast schedule strictly ahead on
/// rounds (experiment E18 pins the crossover).
pub const STRASSEN_MIN_ASPECT: usize = 2;

/// Which distributed product a consumer runs: the cubic 3D partition, the
/// Strassen-partitioned fast schedule, the nnz-charged sparse path, or an
/// automatic choice from `(semiring, n, d, density)`.
///
/// The dispatch rules are explicit (DESIGN.md "Fast algebraic matmul"):
/// `Auto` resolves to `Sparse` when the operands' density is at most
/// [`SPARSE_DENSITY_EIGHTHS`]/8; otherwise to `Strassen` when the semiring
/// is ring-embeddable (`F₂` or counting, with integer headroom), the
/// clique hosts at least one recursion level (`n` at or above
/// [`STRASSEN_MIN_PLAYERS`]), and the dimension gives every player at
/// least [`STRASSEN_MIN_ASPECT`] rows; otherwise — including **always**
/// for the Boolean and tropical `(min, +)` semirings, which have no
/// additive inverse for Strassen's subtractions — to `Cubic`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MatMulSchedule {
    /// Always the cubic 3D-partitioned [`SemiringMatMul`].
    #[default]
    Cubic,
    /// Always the Strassen-partitioned [`FastMatMul`] (panics on
    /// semirings without additive inverses; use `Auto` for dispatch).
    Strassen,
    /// Always the nnz-charged [`SparseMatMul`].
    Sparse,
    /// Pick the cheapest eligible schedule from `(semiring, n, d, density)`.
    Auto,
}

impl MatMulSchedule {
    /// A short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            MatMulSchedule::Cubic => "cubic",
            MatMulSchedule::Strassen => "strassen",
            MatMulSchedule::Sparse => "sparse",
            MatMulSchedule::Auto => "auto",
        }
    }

    /// The concrete schedule this dispatch runs for the given product —
    /// `Auto` applies the rules above; the explicit variants return
    /// themselves. Deterministic in public quantities plus the operand
    /// nnz, so every player resolves identically.
    pub fn resolve(
        self,
        a: &SemiringMatrix,
        b: &SemiringMatrix,
        semiring: Semiring,
        n: usize,
    ) -> MatMulSchedule {
        match self {
            MatMulSchedule::Auto => {
                let d = a.rows();
                let total = 2 * d * d;
                let nnz = a.nnz(semiring) + b.nnz(semiring);
                let levels = FastMatMul::levels_for(n, d);
                if total > 0 && nnz * 8 <= total * SPARSE_DENSITY_EIGHTHS {
                    MatMulSchedule::Sparse
                } else if matches!(semiring, Semiring::F2 | Semiring::Counting)
                    && n >= STRASSEN_MIN_PLAYERS
                    && d >= STRASSEN_MIN_ASPECT * n
                    && levels >= 1
                    && (semiring != Semiring::Counting
                        || counting_headroom_ok(a.max_finite(), b.max_finite(), d, levels))
                {
                    MatMulSchedule::Strassen
                } else {
                    MatMulSchedule::Cubic
                }
            }
            explicit => explicit,
        }
    }
}

/// A [`Protocol`] that resolves a [`MatMulSchedule`] and runs the chosen
/// distributed product in place — the single seam through which
/// [`TriangleCount`] and [`ApspProtocol`] pick their matmul path.
#[derive(Clone, Debug)]
pub struct ScheduledMatMul<'a> {
    a: &'a SemiringMatrix,
    b: &'a SemiringMatrix,
    semiring: Semiring,
    schedule: MatMulSchedule,
}

impl<'a> ScheduledMatMul<'a> {
    /// Prepares the product `A ⊗ B` under the given schedule.
    ///
    /// # Panics
    ///
    /// Panics on any [`SemiringMatMul::new`] precondition violation (an
    /// explicit `Strassen` schedule additionally needs a ring-embeddable
    /// semiring, checked at run time).
    pub fn new(
        a: &'a SemiringMatrix,
        b: &'a SemiringMatrix,
        semiring: Semiring,
        schedule: MatMulSchedule,
    ) -> Self {
        let _ = SemiringMatMul::new(a, b, semiring);
        Self {
            a,
            b,
            semiring,
            schedule,
        }
    }
}

impl Protocol for ScheduledMatMul<'_> {
    type Output = SemiringMatrix;

    fn run(&mut self, session: &mut Session) -> Result<SemiringMatrix, SimError> {
        match self
            .schedule
            .resolve(self.a, self.b, self.semiring, session.n())
        {
            MatMulSchedule::Cubic => {
                session.run_protocol(&mut SemiringMatMul::new(self.a, self.b, self.semiring))
            }
            MatMulSchedule::Strassen => {
                session.run_protocol(&mut FastMatMul::new(self.a, self.b, self.semiring))
            }
            MatMulSchedule::Sparse => {
                session.run_protocol(&mut SparseMatMul::new(self.a, self.b, self.semiring))
            }
            MatMulSchedule::Auto => unreachable!("resolve returns a concrete schedule"),
        }
    }
}

/// Runs [`ScheduledMatMul`] on `CLIQUE-UCAST(d, b)`.
///
/// # Errors
///
/// Propagates simulator errors (which cannot occur for well-formed inputs).
///
/// # Panics
///
/// Panics on empty operands or any schedule precondition violation.
pub fn scheduled_matmul(
    a: &SemiringMatrix,
    b: &SemiringMatrix,
    semiring: Semiring,
    schedule: MatMulSchedule,
    bandwidth: usize,
) -> Result<RunOutcome<SemiringMatrix>, SimError> {
    let n = a.rows();
    assert!(n > 0, "the operands must have at least one row");
    Runner::new(CliqueConfig::unicast(n, bandwidth))
        .execute(&mut ScheduledMatMul::new(a, b, semiring, schedule))
}

/// Exact triangle counting as a [`Protocol`]: `trace(A³)/6` through one
/// counting-semiring [`SemiringMatMul`] plus one fixed-width broadcast per
/// player.
///
/// Player `v` folds its rows of `M = A·A` against its own adjacency row
/// (`t_v = Σ_j M[v][j]·A[v][j]`, the closed 3-walks through `v`) and
/// broadcasts `t_v`; the sum over all players is `trace(A³) = 6·#triangles`.
#[derive(Clone, Debug)]
pub struct TriangleCount<'a> {
    graph: &'a Graph,
    schedule: MatMulSchedule,
}

impl<'a> TriangleCount<'a> {
    /// Prepares the protocol for the given input graph on the default
    /// cubic matmul schedule.
    pub fn new(graph: &'a Graph) -> Self {
        Self::with_schedule(graph, MatMulSchedule::Cubic)
    }

    /// Prepares the protocol with an explicit [`MatMulSchedule`] for the
    /// inner counting product (`Auto` picks from the adjacency density).
    pub fn with_schedule(graph: &'a Graph, schedule: MatMulSchedule) -> Self {
        Self { graph, schedule }
    }
}

impl Protocol for TriangleCount<'_> {
    type Output = u64;

    fn run(&mut self, session: &mut Session) -> Result<u64, SimError> {
        let n = self.graph.vertex_count();
        session.require_clique_of(n);
        let operand =
            SemiringMatrix::Ints(IntMatrix::from_bitmatrix(&self.graph.adjacency_bitmatrix()));
        let product = session.run_protocol(&mut ScheduledMatMul::new(
            &operand,
            &operand,
            Semiring::Counting,
            self.schedule,
        ))?;
        let m = product.as_ints().expect("counting products are integers");
        let adjacency = operand
            .as_ints()
            .expect("the adjacency operand is integers");

        // Player v's closed-3-walk count t_v ≤ n² (its row of M against its
        // own adjacency row) fits in the fixed width every player derives
        // from n.
        let width = bits_for_universe((n as u64).saturating_mul(n as u64).saturating_add(1)).max(1);
        let locals: Vec<u64> = (0..n)
            .map(|v| {
                let walks = m.row(v).iter().zip(adjacency.row(v));
                walks.map(|(&paths, &edge)| paths * edge).sum()
            })
            .collect();
        let counts: Vec<BitString> = locals
            .iter()
            .map(|&t| BitString::from_bits(t, width))
            .collect();
        let inboxes = session.broadcast_all("announce closed-walk counts", &counts)?;

        // Everyone sums the announced counts; trace(A³) = 6·#triangles.
        let mut total = locals[0];
        for (src, payload) in inboxes[0].broadcasts() {
            if src.index() != 0 {
                total += payload.reader().read_bits(width).expect("count announced");
            }
        }
        Ok(total / 6)
    }
}

/// Runs [`TriangleCount`] in `CLIQUE-UCAST(n, b)`.
///
/// # Errors
///
/// Propagates simulator errors (which cannot occur for well-formed inputs).
///
/// # Panics
///
/// Panics if the graph is empty.
pub fn count_triangles(graph: &Graph, bandwidth: usize) -> Result<RunOutcome<u64>, SimError> {
    let n = graph.vertex_count();
    assert!(n > 0, "the input graph must have at least one node");
    Runner::new(CliqueConfig::unicast(n, bandwidth)).execute(&mut TriangleCount::new(graph))
}

/// All-pairs shortest paths on an unweighted graph as a [`Protocol`]:
/// repeated `(min, +)` squaring of the hop matrix (0 on the diagonal, 1 on
/// edges, [`IntMatrix::INFINITY`] elsewhere) through [`SemiringMatMul`].
///
/// After `t` squarings the matrix holds exact distances up to `2^t`, so
/// `⌈log₂(n−1)⌉` distance products always suffice; a one-bit per-player
/// "my rows changed" vote after each squaring stops earlier on
/// small-diameter graphs. The output distance matrix has
/// [`IntMatrix::INFINITY`] for disconnected pairs.
#[derive(Clone, Debug)]
pub struct ApspProtocol<'a> {
    graph: &'a Graph,
    schedule: MatMulSchedule,
}

impl<'a> ApspProtocol<'a> {
    /// Prepares the protocol for the given input graph on the default
    /// cubic matmul schedule.
    pub fn new(graph: &'a Graph) -> Self {
        Self::with_schedule(graph, MatMulSchedule::Cubic)
    }

    /// Prepares the protocol with an explicit [`MatMulSchedule`]. `(min, +)`
    /// has no Strassen analogue, so `Auto` only ever picks between the
    /// sparse path (hop matrices of sparse graphs start mostly-INFINITY)
    /// and the cubic one — re-resolved before every squaring as the
    /// distance matrix densifies.
    pub fn with_schedule(graph: &'a Graph, schedule: MatMulSchedule) -> Self {
        Self { graph, schedule }
    }

    /// The hop matrix the squaring starts from: 0 on the diagonal, 1 on
    /// edges, [`IntMatrix::INFINITY`] elsewhere. Public so experiments can
    /// square exactly the matrix the protocol squares.
    pub fn hop_matrix(graph: &Graph) -> IntMatrix {
        let n = graph.vertex_count();
        let mut w = IntMatrix::filled(n, n, IntMatrix::INFINITY);
        for v in 0..n {
            w.set(v, v, 0);
        }
        for (u, v) in graph.edges() {
            w.set(u, v, 1);
            w.set(v, u, 1);
        }
        w
    }
}

impl Protocol for ApspProtocol<'_> {
    type Output = IntMatrix;

    fn run(&mut self, session: &mut Session) -> Result<IntMatrix, SimError> {
        let n = self.graph.vertex_count();
        session.require_clique_of(n);
        let mut distances = Self::hop_matrix(self.graph);
        if n <= 1 {
            return Ok(distances);
        }
        let squarings = (usize::BITS - (n - 1).leading_zeros()) as usize;
        for _ in 0..squarings {
            let operand = SemiringMatrix::Ints(distances);
            let SemiringMatrix::Ints(squared) = session.run_protocol(&mut ScheduledMatMul::new(
                &operand,
                &operand,
                Semiring::MinPlus,
                self.schedule,
            ))?
            else {
                unreachable!("min-plus products are integers");
            };
            let previous = operand.as_ints().expect("operand is integers");

            // Early-exit vote: player v announces whether any of its rows
            // changed; everyone stops after a unanimous "no".
            let flags: Vec<BitString> = (0..n)
                .map(|v| BitString::from_bits(u64::from(squared.row(v) != previous.row(v)), 1))
                .collect();
            let converged = squared == *previous;
            session.broadcast_all("announce distance-change flags", &flags)?;
            distances = squared;
            if converged {
                break;
            }
        }
        Ok(distances)
    }
}

/// Runs [`ApspProtocol`] in `CLIQUE-UCAST(n, b)`.
///
/// # Errors
///
/// Propagates simulator errors (which cannot occur for well-formed inputs).
///
/// # Panics
///
/// Panics if the graph is empty.
pub fn compute_apsp(graph: &Graph, bandwidth: usize) -> Result<RunOutcome<IntMatrix>, SimError> {
    let n = graph.vertex_count();
    assert!(n > 0, "the input graph must have at least one node");
    Runner::new(CliqueConfig::unicast(n, bandwidth)).execute(&mut ApspProtocol::new(graph))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clique_graphs::{generators, iso};
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn random_bitmatrix(d: usize, seed: u64) -> BitMatrix {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let rows: Vec<Vec<bool>> = (0..d)
            .map(|_| (0..d).map(|_| rng.gen_bool(0.5)).collect())
            .collect();
        BitMatrix::from_rows(&rows)
    }

    fn random_intmatrix(d: usize, max: u64, infinities: bool, seed: u64) -> IntMatrix {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut m = IntMatrix::zeros(d, d);
        for i in 0..d {
            for j in 0..d {
                let v = if infinities && rng.gen_bool(0.2) {
                    IntMatrix::INFINITY
                } else {
                    rng.gen_range(0..max + 1)
                };
                m.set(i, j, v);
            }
        }
        m
    }

    #[test]
    fn boolean_product_matches_local_kernel_across_sizes() {
        for (d, seed) in [(1usize, 1u64), (3, 2), (8, 3), (17, 4), (27, 5)] {
            let a = SemiringMatrix::Bits(random_bitmatrix(d, seed));
            let b = SemiringMatrix::Bits(random_bitmatrix(d, seed + 100));
            let outcome = semiring_matmul(&a, &b, Semiring::Boolean, 4).unwrap();
            let expected = a.as_bits().unwrap().mul_bool(b.as_bits().unwrap());
            assert_eq!(outcome.as_bits().unwrap(), &expected, "d = {d}");
        }
    }

    #[test]
    fn counting_product_matches_local_kernel() {
        for (d, max, seed) in [(1usize, 1u64, 11u64), (6, 1, 12), (13, 7, 13), (27, 3, 14)] {
            let a = SemiringMatrix::Ints(random_intmatrix(d, max, false, seed));
            let b = SemiringMatrix::Ints(random_intmatrix(d, max, false, seed + 100));
            let outcome = semiring_matmul(&a, &b, Semiring::Counting, 4).unwrap();
            let expected = a.as_ints().unwrap().mul_counting(b.as_ints().unwrap());
            assert_eq!(outcome.as_ints().unwrap(), &expected, "d = {d}");
        }
    }

    #[test]
    fn min_plus_product_matches_local_kernel_with_infinities() {
        for (d, max, seed) in [(2usize, 5u64, 21u64), (9, 9, 22), (27, 4, 23)] {
            let a = SemiringMatrix::Ints(random_intmatrix(d, max, true, seed));
            let b = SemiringMatrix::Ints(random_intmatrix(d, max, true, seed + 100));
            let outcome = semiring_matmul(&a, &b, Semiring::MinPlus, 4).unwrap();
            let expected = a.as_ints().unwrap().mul_min_plus(b.as_ints().unwrap());
            assert_eq!(outcome.as_ints().unwrap(), &expected, "d = {d}");
        }
    }

    #[test]
    fn tiny_matrices_on_large_sessions_have_empty_blocks() {
        // d < g = ⌊n^{1/3}⌋ makes some row/column blocks empty; the empty
        // segments are never routed, and the decode side must not expect
        // packets for them.
        for d in [1usize, 2] {
            for (semiring, operand) in [
                (
                    Semiring::Boolean,
                    SemiringMatrix::Bits(random_bitmatrix(d, 71)),
                ),
                (
                    Semiring::Counting,
                    SemiringMatrix::Ints(random_intmatrix(d, 3, false, 72)),
                ),
                (
                    Semiring::MinPlus,
                    SemiringMatrix::Ints(random_intmatrix(d, 3, true, 73)),
                ),
            ] {
                let outcome = Runner::new(CliqueConfig::unicast(27, 4))
                    .execute(&mut SemiringMatMul::new(&operand, &operand, semiring))
                    .unwrap();
                let expected = operand.product(&operand, semiring);
                assert_eq!(*outcome, expected, "{} d = {d} on n = 27", semiring.name());
            }
        }
    }

    #[test]
    fn more_players_and_bandwidth_mean_fewer_rounds() {
        // The whole point of the 3D partition: rounds track n^{1/3}/b, so
        // doubling the bandwidth at fixed n must cut rounds roughly in half.
        let d = 32;
        let a = SemiringMatrix::Bits(random_bitmatrix(d, 31));
        let slow = semiring_matmul(&a, &a, Semiring::Boolean, 1).unwrap();
        let fast = semiring_matmul(&a, &a, Semiring::Boolean, 8).unwrap();
        assert!(
            fast.rounds() * 4 <= slow.rounds(),
            "bandwidth 8 took {} rounds vs {} at bandwidth 1",
            fast.rounds(),
            slow.rounds()
        );
    }

    #[test]
    fn triangle_count_matches_the_oracle() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x713);
        for (n, p) in [(4usize, 0.9f64), (9, 0.4), (16, 0.25), (27, 0.3)] {
            let g = generators::erdos_renyi(n, p, &mut rng);
            let outcome = count_triangles(&g, 4).unwrap();
            assert_eq!(*outcome, iso::triangle_count(&g), "n = {n}, p = {p}");
        }
    }

    #[test]
    fn triangle_count_on_degenerate_graphs() {
        assert_eq!(*count_triangles(&Graph::empty(1), 2).unwrap(), 0);
        assert_eq!(*count_triangles(&generators::complete(3), 2).unwrap(), 1);
        assert_eq!(*count_triangles(&generators::complete(6), 2).unwrap(), 20);
        let bip = generators::complete_bipartite(5, 5);
        assert_eq!(*count_triangles(&bip, 2).unwrap(), 0);
    }

    #[test]
    fn apsp_matches_bfs_distances() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xA5B);
        for (n, p) in [(5usize, 0.5f64), (12, 0.2), (20, 0.12)] {
            let g = generators::erdos_renyi(n, p, &mut rng);
            let outcome = compute_apsp(&g, 4).unwrap();
            assert_eq!(*outcome, iso::bfs_distances(&g), "n = {n}, p = {p}");
        }
        // A path graph exercises the full ⌈log₂(n−1)⌉ squaring schedule.
        let path = generators::path(17);
        let outcome = compute_apsp(&path, 4).unwrap();
        assert_eq!(*outcome, iso::bfs_distances(&path));
        assert_eq!(outcome.get(0, 16), 16);
    }

    #[test]
    fn apsp_early_exit_saves_rounds_on_small_diameter() {
        // Diameter 2 converges after the first vote; a long path needs the
        // full schedule.
        let star = generators::complete_bipartite(1, 16);
        let path = generators::path(17);
        let star_rounds = compute_apsp(&star, 4).unwrap().rounds();
        let path_rounds = compute_apsp(&path, 4).unwrap().rounds();
        assert!(
            star_rounds < path_rounds,
            "star {star_rounds} vs path {path_rounds}"
        );
    }

    #[test]
    fn f2_product_matches_local_kernel_across_sizes() {
        for (d, seed) in [(1usize, 41u64), (3, 42), (8, 43), (17, 44), (27, 45)] {
            let a = SemiringMatrix::Bits(random_bitmatrix(d, seed));
            let b = SemiringMatrix::Bits(random_bitmatrix(d, seed + 100));
            let outcome = semiring_matmul(&a, &b, Semiring::F2, 4).unwrap();
            let expected = a.as_bits().unwrap().mul_f2(b.as_bits().unwrap());
            assert_eq!(outcome.as_bits().unwrap(), &expected, "d = {d}");
        }
    }

    #[test]
    fn strassen_leaf_coeffs_reassemble_the_product() {
        // Local sanity for the flattened recursion: summing the signed leaf
        // products over ℤ must reassemble the full integer product at every
        // depth the distributed schedule uses.
        let mut rng = ChaCha8Rng::seed_from_u64(0xFA57);
        for levels in 1..=2u32 {
            let q = 3usize; // leaf block side
            let side = q << levels;
            let a: Vec<i64> = (0..side * side)
                .map(|_| rng.gen_range(0i64..9) - 4)
                .collect();
            let b: Vec<i64> = (0..side * side)
                .map(|_| rng.gen_range(0i64..9) - 4)
                .collect();
            let mut expected = vec![0i64; side * side];
            for r in 0..side {
                for k in 0..side {
                    for c in 0..side {
                        expected[r * side + c] += a[r * side + k] * b[k * side + c];
                    }
                }
            }
            let mut actual = vec![0i64; side * side];
            for leaf in strassen_leaf_coeffs(levels) {
                let combine = |m: &[i64], terms: &[(usize, usize, i64)]| {
                    let mut block = vec![0i64; q * q];
                    for &(bi, bj, s) in terms {
                        for r in 0..q {
                            for c in 0..q {
                                block[r * q + c] += s * m[(bi * q + r) * side + (bj * q + c)];
                            }
                        }
                    }
                    block
                };
                let (ca, cb) = (combine(&a, &leaf.a_terms), combine(&b, &leaf.b_terms));
                for &(ci, cj, s) in &leaf.c_terms {
                    for r in 0..q {
                        for c in 0..q {
                            let mut dot = 0i64;
                            for k in 0..q {
                                dot += ca[r * q + k] * cb[k * q + c];
                            }
                            actual[(ci * q + r) * side + (cj * q + c)] += s * dot;
                        }
                    }
                }
            }
            assert_eq!(actual, expected, "levels = {levels}");
        }
    }

    #[test]
    fn fast_f2_product_matches_cubic_and_local_kernels() {
        // Non-powers of two exercise the shared padding seam; the depth is
        // forced so small cliques still run the strassen phases.
        for (d, levels, seed) in [
            (8usize, 1u32, 51u64),
            (13, 1, 52),
            (27, 1, 53),
            (49, 2, 54),
            (56, 2, 55),
        ] {
            let a = SemiringMatrix::Bits(random_bitmatrix(d, seed));
            let b = SemiringMatrix::Bits(random_bitmatrix(d, seed + 100));
            let outcome = Runner::new(CliqueConfig::unicast(d, 4))
                .execute(&mut FastMatMul::new(&a, &b, Semiring::F2).with_levels(levels))
                .unwrap();
            let cubic = semiring_matmul(&a, &b, Semiring::F2, 4).unwrap();
            let local = a.as_bits().unwrap().mul_f2(b.as_bits().unwrap());
            assert_eq!(outcome.as_bits().unwrap(), &local, "d = {d} local");
            assert_eq!(*outcome, *cubic, "d = {d} cubic");
        }
    }

    #[test]
    fn fast_counting_product_matches_cubic_and_local_kernels() {
        for (d, max, levels, seed) in [
            (9usize, 3u64, 1u32, 61u64),
            (16, 7, 1, 62),
            (27, 1, 1, 63),
            (50, 5, 2, 64),
        ] {
            let a = SemiringMatrix::Ints(random_intmatrix(d, max, false, seed));
            let b = SemiringMatrix::Ints(random_intmatrix(d, max, false, seed + 100));
            let outcome = Runner::new(CliqueConfig::unicast(d, 4))
                .execute(&mut FastMatMul::new(&a, &b, Semiring::Counting).with_levels(levels))
                .unwrap();
            let cubic = semiring_matmul(&a, &b, Semiring::Counting, 4).unwrap();
            let local = a.as_ints().unwrap().mul_counting(b.as_ints().unwrap());
            assert_eq!(outcome.as_ints().unwrap(), &local, "d = {d} local");
            assert_eq!(*outcome, *cubic, "d = {d} cubic");
        }
    }

    #[test]
    fn fast_matmul_on_small_cliques_falls_back_to_cubic() {
        // n < 7 cannot host the 7 disjoint groups; the auto depth is 0 and
        // the cubic partition runs in place with an identical transcript.
        let d = 5;
        let a = SemiringMatrix::Bits(random_bitmatrix(d, 81));
        assert_eq!(FastMatMul::levels_for(d, d), 0);
        let fast = fast_matmul(&a, &a, Semiring::F2, 4).unwrap();
        let cubic = semiring_matmul(&a, &a, Semiring::F2, 4).unwrap();
        assert_eq!(*fast, *cubic);
        assert_eq!(fast.rounds(), cubic.rounds());
    }

    #[test]
    fn fast_matmul_handles_degenerate_dimensions() {
        // d = 1 keeps depth 0 (leaf blocks would be a single padded row);
        // the product still goes through and matches.
        let a = SemiringMatrix::Bits(BitMatrix::from_rows(&[vec![true]]));
        let fast = fast_matmul(&a, &a, Semiring::F2, 4).unwrap();
        assert_eq!(fast.as_bits().unwrap(), a.as_bits().unwrap());
    }

    #[test]
    #[should_panic(expected = "ring-embeddable")]
    fn fast_matmul_rejects_min_plus() {
        let m = SemiringMatrix::Ints(IntMatrix::zeros(8, 8));
        let _ = FastMatMul::new(&m, &m, Semiring::MinPlus);
    }

    #[test]
    #[should_panic(expected = "ring-embeddable")]
    fn fast_matmul_rejects_boolean() {
        let m = SemiringMatrix::Bits(BitMatrix::identity(8));
        let _ = FastMatMul::new(&m, &m, Semiring::Boolean);
    }

    #[test]
    fn sparse_product_matches_cubic_on_all_semirings() {
        for (d, seed) in [(6usize, 91u64), (17, 92), (27, 93)] {
            let bits = |s| SemiringMatrix::Bits(random_bitmatrix(d, s));
            let ints = |inf, s| SemiringMatrix::Ints(random_intmatrix(d, 4, inf, s));
            for (semiring, a, b) in [
                (Semiring::Boolean, bits(seed), bits(seed + 100)),
                (Semiring::F2, bits(seed + 1), bits(seed + 101)),
                (
                    Semiring::Counting,
                    ints(false, seed + 2),
                    ints(false, seed + 102),
                ),
                (
                    Semiring::MinPlus,
                    ints(true, seed + 3),
                    ints(true, seed + 103),
                ),
            ] {
                let sparse = sparse_matmul(&a, &b, semiring, 4).unwrap();
                let cubic = semiring_matmul(&a, &b, semiring, 4).unwrap();
                assert_eq!(*sparse, *cubic, "{} d = {d}", semiring.name());
            }
        }
    }

    #[test]
    fn sparse_identity_operands_cost_almost_nothing() {
        // nnz-charged rounds: multiplying identities (d nonzeros) must be
        // far cheaper than the dense cubic exchange of the same dimension.
        let d = 32;
        let a = SemiringMatrix::Bits(BitMatrix::identity(d));
        let sparse = sparse_matmul(&a, &a, Semiring::Boolean, 4).unwrap();
        let cubic = semiring_matmul(&a, &a, Semiring::Boolean, 4).unwrap();
        assert_eq!(*sparse, *cubic);
        assert!(
            sparse.rounds() * 2 <= cubic.rounds(),
            "sparse {} rounds vs cubic {}",
            sparse.rounds(),
            cubic.rounds()
        );
    }

    #[test]
    fn auto_schedule_dispatches_by_density_and_semiring() {
        let (n, d) = (56, 112);
        let dense = SemiringMatrix::Bits(random_bitmatrix(d, 95));
        let sparse = SemiringMatrix::Bits(BitMatrix::identity(d));
        let auto = MatMulSchedule::Auto;
        assert_eq!(
            auto.resolve(&sparse, &sparse, Semiring::F2, n),
            MatMulSchedule::Sparse
        );
        assert_eq!(
            auto.resolve(&dense, &dense, Semiring::F2, n),
            MatMulSchedule::Strassen
        );
        assert_eq!(
            auto.resolve(&dense, &dense, Semiring::Boolean, n),
            MatMulSchedule::Cubic,
            "no additive inverse: boolean stays cubic"
        );
        let mp = SemiringMatrix::Ints(random_intmatrix(d, 4, false, 96));
        assert_eq!(
            auto.resolve(&mp, &mp, Semiring::MinPlus, n),
            MatMulSchedule::Cubic,
            "no additive inverse: (min, +) stays cubic"
        );
        assert_eq!(
            auto.resolve(&dense, &dense, Semiring::F2, 8),
            MatMulSchedule::Cubic,
            "below the measured player crossover the cubic path wins"
        );
        assert_eq!(
            auto.resolve(&dense, &dense, Semiring::F2, d),
            MatMulSchedule::Cubic,
            "one row per player (d = n): the cubic pair loads are already \
             tiny and the fast path's routed phases cost more than they save"
        );
        for explicit in [
            MatMulSchedule::Cubic,
            MatMulSchedule::Strassen,
            MatMulSchedule::Sparse,
        ] {
            assert_eq!(explicit.resolve(&dense, &dense, Semiring::F2, d), explicit);
        }
    }

    #[test]
    fn scheduled_consumers_match_their_default_counterparts() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5C4E);
        let g = generators::erdos_renyi(28, 0.3, &mut rng);
        let default_triangles = count_triangles(&g, 4).unwrap();
        for schedule in [
            MatMulSchedule::Cubic,
            MatMulSchedule::Strassen,
            MatMulSchedule::Sparse,
            MatMulSchedule::Auto,
        ] {
            let scheduled = Runner::new(CliqueConfig::unicast(28, 4))
                .execute(&mut TriangleCount::with_schedule(&g, schedule))
                .unwrap();
            assert_eq!(*scheduled, *default_triangles, "{}", schedule.name());
        }
        let sparse_g = generators::path(20);
        let default_apsp = compute_apsp(&sparse_g, 4).unwrap();
        for schedule in [
            MatMulSchedule::Cubic,
            MatMulSchedule::Sparse,
            MatMulSchedule::Auto,
        ] {
            let scheduled = Runner::new(CliqueConfig::unicast(20, 4))
                .execute(&mut ApspProtocol::with_schedule(&sparse_g, schedule))
                .unwrap();
            assert_eq!(*scheduled, *default_apsp, "{}", schedule.name());
        }
    }

    #[test]
    #[should_panic(expected = "representation does not match")]
    fn mismatched_operand_representation_is_rejected() {
        let a = SemiringMatrix::Bits(BitMatrix::identity(4));
        let _ = SemiringMatMul::new(&a, &a, Semiring::Counting);
    }

    #[test]
    #[should_panic(expected = "reserved INFINITY")]
    fn counting_rejects_infinity_entries() {
        let m = SemiringMatrix::Ints(IntMatrix::filled(3, 3, IntMatrix::INFINITY));
        let _ = SemiringMatMul::new(&m, &m, Semiring::Counting);
    }

    #[test]
    #[should_panic(expected = "must be square")]
    fn rectangular_operands_are_rejected() {
        let a = SemiringMatrix::Ints(IntMatrix::zeros(3, 4));
        let _ = SemiringMatMul::new(&a, &a, Semiring::Counting);
    }
}
