//! Word-interned compact traces: the form every replay runs on.

use crate::record::{TraceRecord, TraceSink, F_HAS_EA, F_TAKEN};
use crate::summary::TraceSummary;
use crate::TraceBuffer;
use racesim_isa::{EncodedInst, INST_BYTES};
use std::collections::HashMap;
use std::io;

/// Bits of a record's `u16` holding its word id; the three record flags
/// sit above them.
const ID_BITS: u32 = 13;
const ID_MASK: u16 = (1 << ID_BITS) - 1;
/// Most distinct instruction words one trace can intern.
pub const MAX_WORDS: usize = 1 << ID_BITS;

/// An instruction trace with every distinct instruction word stored once.
///
/// The paper records each trace once and replays it for thousands of
/// configurations (Section III-C), so a trace is built for replay:
///
/// * a per-trace **word table** in first-occurrence order, with the pc of
///   each word's first use (so a consumer can decode the table once and
///   report a failing word at the pc it would have failed at record by
///   record);
/// * one `u16` per record: the word id plus the has-ea, is-branch and
///   taken flags;
/// * one sparse `u64` **payload** stream: the effective address of each
///   memory record and the target of each taken branch;
/// * **escapes** `(record index, pc)` for every record whose pc is not
///   the one control flow implies (`taken ? target : pc + 4` of the
///   previous record) — a recorded trace has exactly one, its first
///   record.
///
/// Loop-dominated kernels take about 3 bytes per record, against 40 for a
/// [`TraceRecord`]. Record into it directly (it is a [`TraceSink`]) or
/// convert with [`CompactTrace::from_records`]; [`CompactTrace::records`]
/// expands it back losslessly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompactTrace {
    words: Vec<EncodedInst>,
    first_pcs: Vec<u64>,
    ops: Vec<u16>,
    payload: Vec<u64>,
    escapes: Vec<(usize, u64)>,
    /// The pc control flow implies for the next pushed record.
    next_pc: u64,
    /// Word → id, for interning while recording.
    ids: HashMap<EncodedInst, u16>,
}

impl CompactTrace {
    /// Creates an empty trace.
    pub fn new() -> CompactTrace {
        CompactTrace::default()
    }

    /// Compacts a record slice.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for a record [`CompactTrace::push`] rejects.
    pub fn from_records(records: &[TraceRecord]) -> io::Result<CompactTrace> {
        let mut t = CompactTrace::new();
        t.ops.reserve_exact(records.len());
        for r in records {
            t.push(*r)?;
        }
        Ok(t)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The distinct instruction words, in first-occurrence order; a
    /// record's [`CompactRecord::word_id`] indexes this table.
    pub fn words(&self) -> &[EncodedInst] {
        &self.words
    }

    /// The pc of each word's first use, aligned with [`CompactTrace::words`].
    pub fn first_pcs(&self) -> &[u64] {
        &self.first_pcs
    }

    /// The pc discontinuities, as `(record index, pc)`.
    pub fn escapes(&self) -> &[(usize, u64)] {
        &self.escapes
    }

    /// Heap bytes the trace's replay data occupies (word table, records,
    /// payload and escapes; the recording-time intern map excluded).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.words.len() * (size_of::<EncodedInst>() + size_of::<u64>())
            + self.ops.len() * size_of::<u16>()
            + self.payload.len() * size_of::<u64>()
            + self.escapes.len() * size_of::<(usize, u64)>()
    }

    /// Iterates over the records with word ids in place of words.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            ops: &self.ops,
            payload: &self.payload,
            escapes: &self.escapes,
            next: 0,
            pc: 0,
        }
    }

    /// Iterates over the records, expanded back to [`TraceRecord`]s.
    pub fn records(&self) -> impl Iterator<Item = TraceRecord> + '_ {
        self.iter().map(|r| r.expand(self.words[r.word_id()]))
    }

    /// Expands the trace into a [`TraceBuffer`].
    pub fn to_buffer(&self) -> TraceBuffer {
        self.records().collect()
    }

    /// Computes summary statistics.
    pub fn summary(&self) -> TraceSummary {
        TraceSummary::tally(self.records())
    }
}

impl TraceSink for CompactTrace {
    /// Appends one record, interning its word.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData`, leaving the trace unchanged, for a record
    /// carrying both an effective address and a taken-branch target (the
    /// payload stream holds one value per record), or one whose word
    /// would exceed [`MAX_WORDS`] distinct words.
    fn push(&mut self, r: TraceRecord) -> io::Result<()> {
        let flags = r.flags();
        if flags & F_HAS_EA != 0 && flags & F_TAKEN != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "record at pc {:#x} carries both an effective address and a branch target",
                    r.pc()
                ),
            ));
        }
        let id = match self.ids.get(&r.word()) {
            Some(&id) => id,
            None if self.words.len() >= MAX_WORDS => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "record at pc {:#x} needs more than {MAX_WORDS} distinct instruction words",
                        r.pc()
                    ),
                ));
            }
            None => {
                let id = self.words.len() as u16;
                self.words.push(r.word());
                self.first_pcs.push(r.pc());
                self.ids.insert(r.word(), id);
                id
            }
        };
        if self.ops.is_empty() || r.pc() != self.next_pc {
            self.escapes.push((self.ops.len(), r.pc()));
        }
        self.ops.push(id | u16::from(flags) << ID_BITS);
        if flags & F_HAS_EA != 0 {
            self.payload.push(r.raw_ea());
        } else if flags & F_TAKEN != 0 {
            self.payload.push(r.raw_target());
        }
        self.next_pc = next_pc(r.pc(), flags, r.raw_target());
        Ok(())
    }
}

/// The pc control flow continues at after a record.
#[inline]
fn next_pc(pc: u64, flags: u8, target: u64) -> u64 {
    if flags & F_TAKEN != 0 {
        target
    } else {
        pc.wrapping_add(INST_BYTES)
    }
}

/// One record of a [`CompactTrace`], with its pc derived and its word
/// left as an id into the trace's word table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactRecord {
    pc: u64,
    payload: u64,
    id: u16,
    flags: u8,
}

impl CompactRecord {
    /// The program counter.
    #[inline]
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Index of the record's word in [`CompactTrace::words`].
    #[inline]
    pub fn word_id(&self) -> usize {
        usize::from(self.id)
    }

    /// The effective address, for memory operations.
    #[inline]
    pub fn ea(&self) -> Option<u64> {
        (self.flags & F_HAS_EA != 0).then_some(self.payload)
    }

    /// Whether a branch was taken.
    #[inline]
    pub fn taken(&self) -> bool {
        self.flags & F_TAKEN != 0
    }

    /// The branch target, for taken branches.
    #[inline]
    pub fn target(&self) -> Option<u64> {
        self.taken().then_some(self.payload)
    }

    fn expand(&self, word: EncodedInst) -> TraceRecord {
        TraceRecord::from_raw(
            self.pc,
            word,
            self.ea().unwrap_or(0),
            self.target().unwrap_or(0),
            self.flags,
        )
    }
}

/// Iterator over a [`CompactTrace`]'s records; see [`CompactTrace::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    ops: &'a [u16],
    payload: &'a [u64],
    escapes: &'a [(usize, u64)],
    next: usize,
    pc: u64,
}

impl Iterator for Iter<'_> {
    type Item = CompactRecord;

    #[inline]
    fn next(&mut self) -> Option<CompactRecord> {
        let op = *self.ops.get(self.next)?;
        if let Some(&(at, pc)) = self.escapes.first() {
            if at == self.next {
                self.pc = pc;
                self.escapes = &self.escapes[1..];
            }
        }
        let flags = (op >> ID_BITS) as u8;
        let payload = if flags & (F_HAS_EA | F_TAKEN) != 0 {
            let (&p, rest) = self
                .payload
                .split_first()
                .expect("one payload per memory record or taken branch");
            self.payload = rest;
            p
        } else {
            0
        };
        let pc = self.pc;
        self.pc = next_pc(pc, flags, payload);
        self.next += 1;
        Some(CompactRecord {
            pc,
            payload,
            id: op & ID_MASK,
            flags,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.ops.len() - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a CompactTrace {
    type Item = CompactRecord;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loop_records(iters: u64) -> Vec<TraceRecord> {
        let mut recs = vec![TraceRecord::plain(0x0ffc, EncodedInst(0x09))];
        for i in 0..iters {
            recs.push(TraceRecord::plain(0x1000, EncodedInst(0x01)));
            recs.push(TraceRecord::memory(
                0x1004,
                EncodedInst(0x21),
                0x8000 + 8 * i,
            ));
            recs.push(TraceRecord::branch(0x1008, EncodedInst(0x24), false, 0));
            recs.push(TraceRecord::branch(0x100c, EncodedInst(0x25), true, 0x1000));
        }
        recs
    }

    #[test]
    fn interns_words_and_derives_pcs() {
        let recs = loop_records(100);
        let t = CompactTrace::from_records(&recs).unwrap();
        assert_eq!(t.len(), recs.len());
        assert_eq!(t.records().collect::<Vec<_>>(), recs);
        assert_eq!(t.words().len(), 5, "one entry per distinct word");
        assert_eq!(t.first_pcs(), &[0x0ffc, 0x1000, 0x1004, 0x1008, 0x100c]);
        assert_eq!(t.escapes(), &[(0, 0x0ffc)], "only the first record escapes");
        // Two payloads per four records: about 6 bytes per record, not 40.
        assert!(t.heap_bytes() < recs.len() * 7, "{} bytes", t.heap_bytes());
        assert_eq!(t.summary(), TraceSummary::of(&recs));
    }

    #[test]
    fn discontinuities_become_escapes() {
        let recs = vec![
            TraceRecord::plain(0x40, EncodedInst(1)),
            TraceRecord::plain(0x80, EncodedInst(1)),
            TraceRecord::branch(0x84, EncodedInst(2), true, 0x10),
            TraceRecord::plain(0x20, EncodedInst(3)),
        ];
        let t = CompactTrace::from_records(&recs).unwrap();
        assert_eq!(t.escapes(), &[(0, 0x40), (1, 0x80), (3, 0x20)]);
        assert_eq!(t.to_buffer().records(), recs.as_slice());
        assert_eq!(t.iter().len(), 4);
    }

    #[test]
    fn malformed_records_are_typed_errors() {
        let mut t = CompactTrace::new();
        t.push(TraceRecord::plain(0, EncodedInst(7))).unwrap();
        let both = TraceRecord::branch(4, EncodedInst(8), true, 0x40).with_ea(0x99);
        let err = t.push(both).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(t.len(), 1, "a rejected record leaves the trace unchanged");

        let mut t = CompactTrace::new();
        for w in 0..MAX_WORDS as u64 {
            t.push(TraceRecord::plain(w * 4, EncodedInst(w))).unwrap();
        }
        let extra = TraceRecord::plain(MAX_WORDS as u64 * 4, EncodedInst(u64::MAX));
        assert!(t.push(extra).is_err());
        assert_eq!(t.len(), MAX_WORDS);
        // A word already interned still fits.
        t.push(TraceRecord::plain(0, EncodedInst(0))).unwrap();
    }
}
