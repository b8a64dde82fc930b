//! Property-based tests on the RCPN core data structures: the register
//! scoreboard's hazard discipline and the static analysis' ordering
//! guarantees hold for arbitrary inputs.

use proptest::prelude::*;
use rcpn::ids::{PlaceId, TokenId};
use rcpn::reg::{Operand, RegisterFile, Writer};
use rcpn::token::{TokenKind, TokenPool};

fn tid(n: u32) -> TokenId {
    // TokenIds normally come from the engine pool; for scoreboard-only
    // tests any distinct ids work.
    let mut pool = rcpn::token::TokenPool::<u32>::new();
    let mut last = None;
    for _ in 0..=n {
        last = Some(pool.alloc(
            rcpn::token::TokenKind::Instruction,
            Some(0),
            PlaceId::from_index(0),
            0,
            0,
        ));
    }
    last.expect("allocated at least one")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// reserve → publish → writeback always restores readability and
    /// commits the value, for any register count and register choice.
    #[test]
    fn reserve_writeback_roundtrip(n_regs in 1usize..24, pick in 0usize..24, v in any::<u32>()) {
        let pick = pick % n_regs;
        let mut rf = RegisterFile::new();
        let regs = rf.add_bank("r", n_regs);
        let t = tid(1);
        let mut op = Operand::reg(regs[pick]);
        prop_assert!(op.can_write(&rf));
        op.reserve_write(&mut rf, t, PlaceId::from_index(0));
        prop_assert!(!op.can_read(&rf));
        prop_assert!(!op.can_write(&rf));
        op.set(&mut rf, t, v);
        op.writeback(&mut rf, t);
        prop_assert!(op.can_read(&rf), "writeback restores readability");
        prop_assert_eq!(rf.value_of(regs[pick]), v);
        prop_assert_eq!(rf.reserved_cells(), 0);
        // Untouched registers keep their reset value.
        for (k, &r) in regs.iter().enumerate() {
            if k != pick {
                prop_assert_eq!(rf.value_of(r), 0);
            }
        }
    }
}

/// The whole-file-scan scoreboard the token-indexed record replaced:
/// every per-token operation walks every cell. The reference the
/// `RegisterFile` must agree with step by step.
struct NaiveFile {
    cells: Vec<u32>,
    writers: Vec<Option<Writer>>,
    regs: Vec<Vec<usize>>,
}

impl NaiveFile {
    fn writer_of(&self, r: usize) -> Option<Writer> {
        self.regs[r].iter().find_map(|&c| self.writers[c])
    }

    fn reservable_by(&self, r: usize, token: TokenId) -> bool {
        self.regs[r].iter().all(|&c| self.writers[c].is_none_or(|w| w.token == token))
    }

    fn reserve_write(&mut self, r: usize, token: TokenId, place: PlaceId) {
        for &c in &self.regs[r] {
            self.writers[c] = Some(Writer { token, place, value: None });
        }
    }

    fn publish(&mut self, r: usize, token: TokenId, value: u32) {
        for &c in &self.regs[r] {
            if let Some(w) = self.writers[c].as_mut().filter(|w| w.token == token) {
                w.value = Some(value);
            }
        }
    }

    fn writeback(&mut self, r: usize, token: TokenId, value: u32) {
        for &c in &self.regs[r] {
            self.cells[c] = value;
            if self.writers[c].is_some_and(|w| w.token == token) {
                self.writers[c] = None;
            }
        }
    }

    fn note_move(&mut self, token: TokenId, place: PlaceId) {
        for w in self.writers.iter_mut().flatten().filter(|w| w.token == token) {
            w.place = place;
        }
    }

    fn release(&mut self, token: TokenId) -> usize {
        let held = self.writers.iter_mut().filter(|w| w.is_some_and(|w| w.token == token));
        held.map(|w| *w = None).count()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The token-indexed scoreboard agrees with a whole-file scan after
    /// every step of a random sequence of reservations, publications,
    /// writebacks, moves and releases — on files narrower and wider than
    /// one 64-cell record word, with overlapping registers, and with
    /// token slots recycled at a new generation (tokens may retire
    /// without releasing, leaving stale reservations in a reused slot),
    /// and registers declared while reservations are outstanding (which
    /// re-strides the record when the file crosses a 64-cell boundary).
    #[test]
    fn token_indexed_scoreboard_matches_full_scan(
        n_cells in 1usize..140,
        overlaps in proptest::collection::vec((any::<usize>(), any::<usize>()), 0..6),
        ops in proptest::collection::vec((0u8..8, any::<usize>(), any::<usize>(), any::<u32>()), 1..120),
    ) {
        let mut rf = RegisterFile::new();
        let mut regs = rf.add_bank("r", n_cells);
        let mut naive = NaiveFile {
            cells: vec![0; n_cells],
            writers: vec![None; n_cells],
            regs: (0..n_cells).map(|c| vec![c]).collect(),
        };
        for (k, (a, b)) in overlaps.into_iter().enumerate() {
            // Cover any earlier register, overlapping ones included.
            let over = [a % regs.len(), b % regs.len()];
            regs.push(rf.add_overlapping(&format!("o{k}"), &[regs[over[0]], regs[over[1]]]));
            let mut cells = naive.regs[over[0]].clone();
            for &c in &naive.regs[over[1]] {
                if !cells.contains(&c) {
                    cells.push(c);
                }
            }
            naive.regs.push(cells);
        }

        let mut pool = TokenPool::<u32>::new();
        let mut live: Vec<TokenId> = Vec::new();
        let mut retired: Vec<TokenId> = Vec::new();
        for (step, (op, a, b, v)) in ops.into_iter().enumerate() {
            let r = b % regs.len();
            let place = PlaceId::from_index(v as usize % 70);
            // Any token ever allocated, retired ones included.
            let any_tok = (!live.is_empty() || !retired.is_empty()).then(|| {
                let k = a % (live.len() + retired.len());
                if k < live.len() { live[k] } else { retired[k - live.len()] }
            });
            match op {
                0 if live.len() < 6 => {
                    live.push(pool.alloc(TokenKind::Instruction, Some(0), place, 0, 0));
                }
                1 if !live.is_empty() => {
                    let t = live.swap_remove(a % live.len());
                    if b % 2 == 0 {
                        prop_assert_eq!(rf.release(t), naive.release(t), "step {}: release", step);
                    }
                    pool.discard(t);
                    retired.push(t);
                }
                2 if !live.is_empty() => {
                    let t = live[a % live.len()];
                    if naive.reservable_by(r, t) {
                        rf.reserve_write(regs[r], t, place);
                        naive.reserve_write(r, t, place);
                    }
                }
                3 => if let Some(t) = any_tok {
                    rf.publish(regs[r], t, v);
                    naive.publish(r, t, v);
                },
                4 => if let Some(t) = any_tok {
                    rf.writeback(regs[r], t, v);
                    naive.writeback(r, t, v);
                },
                5 => if let Some(t) = any_tok {
                    rf.note_move(t, place);
                    naive.note_move(t, place);
                },
                6 => if let Some(t) = any_tok {
                    prop_assert_eq!(rf.release(t), naive.release(t), "step {}: release", step);
                },
                7 => {
                    regs.push(rf.add_register(&format!("n{step}")));
                    naive.regs.push(vec![naive.cells.len()]);
                    naive.cells.push(0);
                    naive.writers.push(None);
                }
                _ => {}
            }

            let vmask = u64::from(v) | (u64::from(v) << 32);
            for (k, &reg) in regs.iter().enumerate() {
                let w = naive.writer_of(k);
                prop_assert_eq!(rf.writer_of(reg).copied(), w, "step {}: writer_of r{}", step, k);
                prop_assert_eq!(rf.readable(reg), w.is_none(), "step {}: readable r{}", step, k);
                prop_assert_eq!(rf.forwarded(reg), w.and_then(|w| w.value), "step {}: fwd r{}", step, k);
                prop_assert_eq!(rf.value_of(reg), naive.cells[naive.regs[k][0]], "step {}: value r{}", step, k);
                for mask in [0, u64::MAX, vmask, 1u64 << (v % 64)] {
                    let expect = w.is_some_and(|w| {
                        w.value.is_some() && w.place.index() < 64 && (mask >> w.place.index()) & 1 == 1
                    });
                    prop_assert_eq!(
                        rf.can_read_masked(reg, mask), expect,
                        "step {}: can_read_masked r{} mask {:#x}", step, k, mask
                    );
                }
            }
            let reserved = naive.writers.iter().filter(|w| w.is_some()).count();
            prop_assert_eq!(rf.reserved_cells(), reserved, "step {}: reserved cells", step);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A random interleaving of reservations and releases never leaves the
    /// scoreboard inconsistent: released registers read their last
    /// committed value; live reservations always block readers/writers.
    #[test]
    fn scoreboard_consistency(ops in proptest::collection::vec((0usize..8, 0u8..3, any::<u32>()), 1..64)) {
        let mut rf = RegisterFile::new();
        let regs = rf.add_bank("r", 8);
        // Model state: committed value per register, live writer token.
        let mut committed = [0u32; 8];
        let mut writer: [Option<TokenId>; 8] = [None; 8];
        let mut next_tok = 0u32;

        for (r, action, v) in ops {
            let reg = regs[r];
            match action {
                // Try to reserve.
                0 => {
                    if writer[r].is_none() {
                        next_tok += 1;
                        let t = tid(next_tok);
                        rf.reserve_write(reg, t, PlaceId::from_index(0));
                        writer[r] = Some(t);
                    }
                }
                // Publish + writeback if reserved.
                1 => {
                    if let Some(t) = writer[r].take() {
                        rf.publish(reg, t, v);
                        rf.writeback(reg, t, v);
                        committed[r] = v;
                    }
                }
                // Squash if reserved.
                _ => {
                    if let Some(t) = writer[r].take() {
                        rf.release(t);
                    }
                }
            }
            // Invariants after every step.
            for k in 0..8 {
                if writer[k].is_some() {
                    prop_assert!(!rf.readable(regs[k]), "r{} reserved but readable", k);
                    prop_assert!(!rf.writable(regs[k]));
                } else {
                    prop_assert!(rf.readable(regs[k]), "r{} free but blocked", k);
                    prop_assert_eq!(rf.value_of(regs[k]), committed[k], "r{} value", k);
                }
            }
        }
        // Total reservations in the scoreboard match the model.
        let live = writer.iter().filter(|w| w.is_some()).count();
        prop_assert_eq!(rf.reserved_cells(), live);
    }

    /// The analysis' evaluation order is a valid reverse-topological order
    /// for arbitrary acyclic nets: every transition's destination is
    /// evaluated before its input.
    #[test]
    fn order_is_reverse_topological(edges in proptest::collection::vec((0usize..12, 0usize..12), 0..40)) {
        use rcpn::builder::ModelBuilder;
        use rcpn::ids::OpClassId;
        use rcpn::token::InstrData;

        #[derive(Debug)]
        struct Tok(OpClassId);
        impl InstrData for Tok {
            fn op_class(&self) -> OpClassId { self.0 }
        }

        // Build a DAG by only keeping forward edges (i < j).
        let mut b = ModelBuilder::<Tok, ()>::new();
        let stages: Vec<_> = (0..12).map(|i| b.stage(&format!("S{i}"), 2)).collect();
        let places: Vec<_> =
            stages.iter().enumerate().map(|(i, &s)| b.place(&format!("P{i}"), s)).collect();
        let (c, _) = b.class_net("C");
        let mut used = std::collections::HashSet::new();
        let mut kept: Vec<(usize, usize)> = Vec::new();
        for (k, (a, bb)) in edges.into_iter().enumerate() {
            let (lo, hi) = (a.min(bb), a.max(bb));
            if lo == hi || !used.insert((lo, hi)) {
                continue;
            }
            b.transition(c, &format!("t{k}"))
                .from(places[lo])
                .to(places[hi])
                .priority(k as u32)
                .done();
            kept.push((lo, hi));
        }
        let model = b.build().expect("acyclic net builds");
        let analysis = model.analysis();
        let mut pos = vec![0usize; model.place_count()];
        for (i, p) in analysis.order().iter().enumerate() {
            pos[p.index()] = i;
        }
        for (lo, hi) in kept {
            prop_assert!(
                pos[places[hi].index()] < pos[places[lo].index()],
                "dest P{} must be evaluated before input P{}", hi, lo
            );
        }
        prop_assert_eq!(analysis.two_list_count(), 0, "a DAG without references needs no two-list");
    }
}
