//! The compact format is lossless for any record sequence, whole or in
//! pieces.

use proptest::prelude::*;
use racesim_isa::EncodedInst;
use racesim_trace::{CompactTrace, TraceRecord, TraceSink};

/// Where the code the generator mostly runs sits.
const CODE: u64 = 0x40_0000;

/// One generated step: the record kind, a word from a pool of five, how
/// the pc is chosen, and a value for the address or target.
type Step = (u8, u8, u8, u64);

/// Turns steps into records that put every rule of the format to work:
/// five words over 64 pcs, so a pc's word changes and one word sits at
/// many pcs; memory words with and without an address, and addresses on
/// plain words and on branches that fall through; direct branches whose
/// targets mostly keep their word's delta but not always; and jumps to
/// arbitrary (also misaligned) pcs.
fn records(steps: &[Step]) -> Vec<TraceRecord> {
    let mut out: Vec<TraceRecord> = Vec::with_capacity(steps.len());
    for &(kind, word, pc_roll, value) in steps {
        let pc = match (out.last(), pc_roll % 8) {
            (_, 0) => CODE + 4 * (value % 64),
            (_, 1) => value.rotate_left(17),
            (Some(prev), _) => prev.next_pc(),
            (None, _) => CODE,
        };
        let word = EncodedInst(0x1000 + u64::from(word % 5));
        // Each word's direct target: a fixed distance, in either direction.
        let delta = (word.0 % 5) * 8;
        let target = match value % 4 {
            0 => pc.wrapping_add(4 * (value >> 8) % 256),
            1 => value,
            _ => pc.wrapping_add(delta).wrapping_sub(12),
        };
        out.push(match kind % 7 {
            0 => TraceRecord::plain(pc, word),
            1 | 2 => TraceRecord::memory(pc, word, 0x10_0000 + (value >> 3)),
            3 => TraceRecord::plain(pc, word).with_ea(value),
            4 => TraceRecord::branch(pc, word, false, target),
            5 => TraceRecord::branch(pc, word, true, target),
            _ => TraceRecord::branch(pc, word, false, 0).with_ea(value >> 5),
        });
    }
    out
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u64>()),
        1..300,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `from_records` then `records()` gives back every record.
    #[test]
    fn arbitrary_records_round_trip(steps in arb_steps()) {
        let recs = records(&steps);
        let t = CompactTrace::from_records(&recs).unwrap();
        prop_assert_eq!(t.len(), recs.len());
        prop_assert_eq!(t.iter().len(), recs.len());
        prop_assert_eq!(t.records().collect::<Vec<_>>(), recs.clone());
        for (r, c) in recs.iter().zip(t.iter()) {
            prop_assert_eq!(t.words()[c.word_id()], r.word());
        }
    }

    /// Recording goes on into one trace cleared between pieces, whose
    /// static tables extend one another: each piece expands to its own
    /// records, its word table is the whole trace's so far, and it
    /// starts with an escape.
    #[test]
    fn pieces_split_by_clear_records_round_trip(
        steps in arb_steps(),
        cuts in proptest::collection::vec(1usize..64, 1..8),
    ) {
        let recs = records(&steps);
        let whole = CompactTrace::from_records(&recs).unwrap();
        let mut piece = CompactTrace::new();
        let (mut start, mut cut) = (0, cuts.iter().cycle());
        while start < recs.len() {
            let end = (start + cut.next().unwrap()).min(recs.len());
            for r in &recs[start..end] {
                piece.push(*r).unwrap();
            }
            prop_assert_eq!(piece.records().collect::<Vec<_>>(), &recs[start..end]);
            prop_assert_eq!(piece.escapes()[0], (0, recs[start].pc()));
            let words = piece.words();
            prop_assert_eq!(words, &whole.words()[..words.len()]);
            piece.clear_records();
            start = end;
        }
        prop_assert_eq!(piece.words(), whole.words());
    }
}
