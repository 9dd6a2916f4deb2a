//! Compact traces: the form every replay runs on.

use crate::record::{TraceRecord, TraceSink, F_HAS_EA, F_IS_BRANCH, F_TAKEN};
use crate::summary::TraceSummary;
use crate::{IntMap, TraceBuffer};
use racesim_isa::{EncodedInst, INST_BYTES};
use std::io;

/// Bits of a code-map entry holding its word id; the word's has-ea and
/// is-branch flags sit above them.
const ID_BITS: u32 = 13;
const ID_MASK: u16 = (1 << ID_BITS) - 1;
/// Most distinct instruction words one trace can intern.
pub const MAX_WORDS: usize = 1 << ID_BITS;

/// A code-map slot no pc has claimed yet (its top bit is never set in a
/// claimed one).
const NO_WORD: u16 = u16::MAX;

/// How far past its end a code region grows to take in a new pc, in
/// instructions; a pc further away starts a region of its own.
const MAX_GAP: u64 = 1 << 12;

/// An instruction trace that stores only what its program does not imply.
///
/// The paper records each trace once and replays it for thousands of
/// configurations (Section III-C), so a trace is built for replay, the
/// way Sniper's SIFT format stores a program: its static code once, and
/// per dynamic instruction only what the code cannot tell.
///
/// Static tables, learned as records arrive:
///
/// * a **word table** in first-occurrence order, with the pc of each
///   word's first use (so a consumer can decode the table once and
///   report a failing word at the pc it would have failed at record by
///   record);
/// * a **code map** from pc to word id, dense over each contiguous code
///   region (a recorded program's code is one `code_base + 4·i` window),
///   set at each pc's first use;
/// * a **shape** per word, from its first use: memory op or not, branch
///   or not, and the `target − pc` delta of its first taken branch.
///
/// Dynamic streams, in record order:
///
/// * the pc of a record is the one control flow implies (`taken ? target
///   : pc + 4` of the record before), except at **escapes** `(record
///   index, pc)` — a recorded trace has exactly one, its first record;
/// * one **bit** per branch record, taken or not, and one more per taken
///   branch: whether its target is `pc` plus its word's delta;
/// * a zig-zag **varint** per memory record, its effective address less
///   the previous one of the same word, and per taken branch whose delta
///   does not hold (a return, `br`, `blr`), its `target − pc`;
/// * **whole records** `(record index, word id, flags, address or
///   target)` for every record that breaks its pc's shape: a pc whose
///   word changed, or a record whose kind differs from its word's first
///   one (an address on a non-memory word, say). A recorded trace has
///   none.
///
/// The shipped micro-benchmark suite takes about 0.16 bytes a record at
/// `--scale 64`, against 40 for a [`TraceRecord`]. Record into it
/// directly (it is a [`TraceSink`]) or convert with
/// [`CompactTrace::from_records`]; [`CompactTrace::records`] expands it
/// back losslessly, for any record sequence.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompactTrace {
    words: Vec<EncodedInst>,
    first_pcs: Vec<u64>,
    shapes: Vec<Shape>,
    code: Vec<CodeRegion>,
    len: usize,
    bits: Vec<u64>,
    nbits: usize,
    varints: Vec<u8>,
    escapes: Vec<(usize, u64)>,
    wholes: Vec<WholeRecord>,
    /// The pc control flow implies for the next pushed record.
    next_pc: u64,
    /// Per word, the effective address of its last memory record in
    /// this piece (0 before the first): the base of the next delta.
    last_ea: Vec<u64>,
    /// Word → id, for interning while recording.
    ids: IntMap<EncodedInst, u16>,
}

/// What a word's records share, learned at the word's first use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shape {
    /// The first record's has-ea and is-branch flags.
    kind: u8,
    /// `target − pc` of the first taken branch stored in the streams.
    delta: Option<u64>,
}

/// A contiguous code window: `ids[i]` is the word id at `base + 4·i`,
/// with the word's shape kind above [`ID_BITS`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct CodeRegion {
    base: u64,
    ids: Vec<u16>,
}

impl CodeRegion {
    /// The slot `pc` occupies, if it lies on this region's instruction
    /// grid, counted from `base` (possibly past the end).
    #[inline]
    fn slot(&self, pc: u64) -> Option<u64> {
        let off = pc.wrapping_sub(self.base);
        off.is_multiple_of(INST_BYTES).then_some(off / INST_BYTES)
    }

    #[inline]
    fn get(&self, pc: u64) -> Option<u16> {
        let id = *self.ids.get(usize::try_from(self.slot(pc)?).ok()?)?;
        (id != NO_WORD).then_some(id)
    }
}

/// A record stored with everything but its pc.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WholeRecord {
    at: usize,
    payload: u64,
    id: u16,
    flags: u8,
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
        for r in records {
            t.push(*r)?;
        }
        t.shrink_to_fit();
        Ok(t)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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

    /// Heap bytes the trace's replay data occupies (static tables and
    /// dynamic streams; the recording-time intern map and address bases
    /// excluded).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.words.len() * (size_of::<EncodedInst>() + size_of::<u64>() + size_of::<Shape>())
            + self
                .code
                .iter()
                .map(|r| size_of::<CodeRegion>() + r.ids.len() * size_of::<u16>())
                .sum::<usize>()
            + self.bits.len() * size_of::<u64>()
            + self.varints.len()
            + self.escapes.len() * size_of::<(usize, u64)>()
            + self.wholes.len() * size_of::<WholeRecord>()
    }

    /// Releases the spare capacity recording left in the replay data. A
    /// recorded trace is replayed for the rest of a campaign, and its
    /// vectors grew by doubling, so up to half of each would otherwise
    /// stay allocated (and, in reused heap memory, resident) throughout.
    pub fn shrink_to_fit(&mut self) {
        self.words.shrink_to_fit();
        self.first_pcs.shrink_to_fit();
        self.shapes.shrink_to_fit();
        self.code.shrink_to_fit();
        for r in &mut self.code {
            r.ids.shrink_to_fit();
        }
        self.bits.shrink_to_fit();
        self.varints.shrink_to_fit();
        self.escapes.shrink_to_fit();
        self.wholes.shrink_to_fit();
    }

    /// Drops every record (the dynamic streams) but keeps the static
    /// tables — words, code map and shapes — and the pc control flow
    /// implies next, so recording can go on into a trace whose tables
    /// extend the ones before: the pieces a streamed replay
    /// (`racesim_sim::Replay`) is fed one after another. The next pushed
    /// record starts the trace again, so its pc is stored as an escape,
    /// and each word's first address in the piece is stored against 0.
    pub fn clear_records(&mut self) {
        self.len = 0;
        self.bits.clear();
        self.nbits = 0;
        self.varints.clear();
        self.escapes.clear();
        self.wholes.clear();
        self.last_ea.fill(0);
    }

    /// Iterates over the records with word ids in place of words.
    pub fn iter(&self) -> Iter<'_> {
        let (base, ids) = self
            .code
            .first()
            .map_or((0, &[][..]), |r| (r.base, &r.ids[..]));
        Iter {
            len: self.len,
            next: 0,
            stop: Specials {
                escapes: &self.escapes,
                wholes: &self.wholes,
            }
            .first()
            .min(self.len),
            pc: 0,
            base,
            ids,
            bits: &self.bits,
            bit: 0,
            varints: &self.varints,
            varint: 0,
            shapes: &self.shapes,
            code: &self.code,
            specials: Specials {
                escapes: &self.escapes,
                wholes: &self.wholes,
            },
            last_ea: vec![0; self.words.len()],
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

    /// Interns `word`, first used at `pc` by a record with `flags`.
    fn intern(&mut self, word: EncodedInst, pc: u64, flags: u8) -> io::Result<u16> {
        if let Some(&id) = self.ids.get(&word) {
            return Ok(id);
        }
        if self.words.len() >= MAX_WORDS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "record at pc {pc:#x} needs more than {MAX_WORDS} distinct instruction words"
                ),
            ));
        }
        let id = self.words.len() as u16;
        self.words.push(word);
        self.first_pcs.push(pc);
        self.shapes.push(Shape {
            kind: flags & (F_HAS_EA | F_IS_BRANCH),
            delta: None,
        });
        self.last_ea.push(0);
        self.ids.insert(word, id);
        Ok(id)
    }

    /// Claims the code-map slot of `pc`, which no record has used yet,
    /// for word `id`. A claimed slot never changes, so the map read back
    /// at replay holds what every record saw.
    fn claim_pc(&mut self, pc: u64, id: u16) {
        let entry = id | u16::from(self.shapes[usize::from(id)].kind) << ID_BITS;
        let grows = self.code.iter_mut().find_map(|r| {
            let slot = r.slot(pc)?;
            (slot < r.ids.len() as u64 + MAX_GAP).then_some((r, slot as usize))
        });
        match grows {
            Some((r, slot)) => {
                if slot >= r.ids.len() {
                    r.ids.resize(slot + 1, NO_WORD);
                }
                r.ids[slot] = entry;
            }
            None => self.code.push(CodeRegion {
                base: pc,
                ids: vec![entry],
            }),
        }
    }

    fn push_bit(&mut self, bit: bool) {
        if self.nbits.is_multiple_of(64) {
            self.bits.push(0);
        }
        if bit {
            *self.bits.last_mut().expect("a word per 64 bits") |= 1 << (self.nbits % 64);
        }
        self.nbits += 1;
    }

    fn push_varint(&mut self, delta: u64) {
        let mut v = zigzag(delta);
        while v >= 0x80 {
            self.varints.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.varints.push(v as u8);
    }
}

impl TraceSink for CompactTrace {
    /// Appends one record, interning its word.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData`, leaving the trace unchanged, for a record
    /// carrying both an effective address and a taken-branch target (the
    /// record kinds a timing model replays never do), or one whose word
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
        let pc = r.pc();
        // A pc already mapped to this record's word saves the interning.
        let mapped = self
            .code
            .iter()
            .find_map(|c| c.get(pc))
            .map(|e| e & ID_MASK);
        let id = match mapped {
            Some(id) if self.words[usize::from(id)] == r.word() => id,
            _ => self.intern(r.word(), pc, flags)?,
        };
        if mapped.is_none() {
            self.claim_pc(pc, id);
        }
        if self.len == 0 || pc != self.next_pc {
            self.escapes.push((self.len, pc));
        }
        let shape = self.shapes[usize::from(id)];
        if mapped.is_some_and(|m| m != id) || flags & (F_HAS_EA | F_IS_BRANCH) != shape.kind {
            self.wholes.push(WholeRecord {
                at: self.len,
                payload: if flags & F_TAKEN != 0 {
                    r.raw_target()
                } else {
                    r.raw_ea()
                },
                id,
                flags,
            });
        } else {
            if flags & F_HAS_EA != 0 {
                let last = std::mem::replace(&mut self.last_ea[usize::from(id)], r.raw_ea());
                self.push_varint(r.raw_ea().wrapping_sub(last));
            }
            if flags & F_IS_BRANCH != 0 {
                let taken = flags & F_TAKEN != 0;
                self.push_bit(taken);
                if taken {
                    let delta = r.raw_target().wrapping_sub(pc);
                    let implied = *self.shapes[usize::from(id)].delta.get_or_insert(delta) == delta;
                    self.push_bit(implied);
                    if !implied {
                        self.push_varint(delta);
                    }
                }
            }
        }
        self.len += 1;
        self.next_pc = next_pc(pc, flags, r.raw_target());
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

/// Maps a two's-complement difference to an unsigned one whose varint is
/// short when the difference is small either way.
#[inline]
fn zigzag(delta: u64) -> u64 {
    (delta << 1) ^ ((delta as i64 >> 63) as u64)
}

#[inline]
fn unzigzag(v: u64) -> u64 {
    (v >> 1) ^ (v & 1).wrapping_neg()
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
    len: usize,
    next: usize,
    /// The index of the next escape or whole record, or `len`.
    stop: usize,
    pc: u64,
    /// The code region the last pc fell in.
    base: u64,
    ids: &'a [u16],
    code: &'a [CodeRegion],
    shapes: &'a [Shape],
    /// The dynamic streams and their read positions.
    bits: &'a [u64],
    bit: usize,
    varints: &'a [u8],
    varint: usize,
    specials: Specials<'a>,
    /// Per word, the effective address of its last memory record.
    last_ea: Vec<u64>,
}

impl Iter<'_> {
    #[inline]
    fn read_bit(&mut self) -> bool {
        let bit = self.bits[self.bit / 64] >> (self.bit % 64) & 1 != 0;
        self.bit += 1;
        bit
    }

    #[inline]
    fn read_varint(&mut self) -> u64 {
        let byte = self.varints[self.varint];
        let v;
        (v, self.varint) = if byte < 0x80 {
            (u64::from(byte), self.varint + 1)
        } else {
            varint_tail(self.varints, self.varint)
        };
        unzigzag(v)
    }

    /// The code-map entry for `pc`.
    #[inline]
    fn entry_at(&mut self, pc: u64) -> u16 {
        // Rotating moves a misaligned offset's low bits to the top, so
        // one bounds check rejects it along with an out-of-range one.
        let slot = pc
            .wrapping_sub(self.base)
            .rotate_right(INST_BYTES.trailing_zeros());
        match usize::try_from(slot)
            .ok()
            .and_then(|slot| self.ids.get(slot))
        {
            Some(&entry) if entry != NO_WORD => entry,
            _ => {
                let (region, entry) = find_region(self.code, pc);
                self.base = region.base;
                self.ids = &region.ids;
                entry
            }
        }
    }
}

// The iterator's out-of-line helpers take and return values, never the
// iterator itself, so that its fields can live in registers.

/// A varint of two or more bytes starting at `at`, and the position
/// after it.
fn varint_tail(bytes: &[u8], mut at: usize) -> (u64, usize) {
    let mut v = 0;
    let mut shift = 0;
    loop {
        let byte = bytes[at];
        at += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            return (v, at);
        }
        shift += 7;
    }
}

/// The code region holding `pc`, and its entry there.
#[cold]
#[inline(never)]
fn find_region(code: &[CodeRegion], pc: u64) -> (&CodeRegion, u16) {
    code.iter()
        .find_map(|r| Some((r, r.get(pc)?)))
        .expect("every recorded pc is in the code map")
}

/// The escapes and whole records an [`Iter`] has not reached yet.
#[derive(Debug, Clone, Copy)]
struct Specials<'a> {
    escapes: &'a [(usize, u64)],
    wholes: &'a [WholeRecord],
}

impl Specials<'_> {
    /// The record index of the next escape or whole record.
    fn first(&self) -> usize {
        let escape = self.escapes.first().map_or(usize::MAX, |e| e.0);
        let whole = self.wholes.first().map_or(usize::MAX, |w| w.at);
        escape.min(whole)
    }

    /// At record `at`, an escape or a whole record: the record's pc
    /// (`pc` unless it escapes), the record itself if it is stored
    /// whole, and what is left to reach after it.
    #[cold]
    #[inline(never)]
    fn take(mut self, at: usize, mut pc: u64) -> (u64, Option<CompactRecord>, Self) {
        if let Some((&(index, to), rest)) = self.escapes.split_first() {
            if index == at {
                pc = to;
                self.escapes = rest;
            }
        }
        let mut whole = None;
        if let Some((w, rest)) = self.wholes.split_first() {
            if w.at == at {
                self.wholes = rest;
                whole = Some(CompactRecord {
                    pc,
                    payload: w.payload,
                    id: w.id,
                    flags: w.flags,
                });
            }
        }
        (pc, whole, self)
    }
}

impl Iterator for Iter<'_> {
    type Item = CompactRecord;

    #[inline]
    fn next(&mut self) -> Option<CompactRecord> {
        let mut pc = self.pc;
        if self.next == self.stop {
            if self.next == self.len {
                return None;
            }
            let whole;
            (pc, whole, self.specials) = self.specials.take(self.next, pc);
            self.stop = self.specials.first().min(self.len);
            if let Some(r) = whole {
                self.next += 1;
                self.pc = next_pc(pc, r.flags, r.payload);
                return Some(r);
            }
        }
        self.next += 1;
        let entry = self.entry_at(pc);
        let id = entry & ID_MASK;
        let mut flags = (entry >> ID_BITS) as u8;
        let mut payload = 0;
        // The next pc is set on each path rather than selected after
        // them, so the next record's code-map load waits on a predicted
        // branch, not on this record's.
        self.pc = pc.wrapping_add(INST_BYTES);
        if flags & F_HAS_EA != 0 {
            let delta = self.read_varint();
            let last = &mut self.last_ea[usize::from(id)];
            *last = last.wrapping_add(delta);
            payload = *last;
        }
        if flags & F_IS_BRANCH != 0 && self.read_bit() {
            flags |= F_TAKEN;
            payload = pc.wrapping_add(if self.read_bit() {
                self.shapes[usize::from(id)].delta.unwrap_or_default()
            } else {
                self.read_varint()
            });
            self.pc = payload;
        }
        Some(CompactRecord {
            pc,
            payload,
            id,
            flags,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.len - self.next;
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
        assert!(t.wholes.is_empty(), "every record fits its word's shape");
        assert_eq!(t.code.len(), 1, "one code window");
        // A one-byte address delta (three for the first) and three bits
        // per iteration, over tables of a few hundred bytes: under a byte
        // a record, not 40.
        assert_eq!(t.varints.len(), 102);
        assert_eq!(t.nbits, 300);
        assert!(t.heap_bytes() < recs.len(), "{} bytes", t.heap_bytes());
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
    fn records_that_break_their_shape_are_stored_whole() {
        let w = EncodedInst(5);
        let recs = vec![
            TraceRecord::plain(0x100, w),
            // Same pc, another word.
            TraceRecord::plain(0x100, EncodedInst(6)),
            // An address on a plain word.
            TraceRecord::plain(0x104, w).with_ea(0x9000),
            // A branch on a plain word.
            TraceRecord::branch(0x108, w, true, 0x100),
            TraceRecord::plain(0x100, w),
        ];
        let t = CompactTrace::from_records(&recs).unwrap();
        let whole: Vec<usize> = t.wholes.iter().map(|w| w.at).collect();
        assert_eq!(whole, [1, 2, 3]);
        assert_eq!(t.escapes(), &[(0, 0x100), (1, 0x100)]);
        assert_eq!(t.records().collect::<Vec<_>>(), recs);
    }

    #[test]
    fn targets_off_the_words_delta_are_stored_explicitly() {
        // One return word at two pcs, returning to two call sites.
        let ret = EncodedInst(0x77);
        let recs = vec![
            TraceRecord::branch(0x200, ret, true, 0x104),
            TraceRecord::branch(0x104, ret, true, 0x300),
            TraceRecord::branch(0x300, ret, true, 0x208),
            TraceRecord::branch(0x208, ret, false, 0),
        ];
        let t = CompactTrace::from_records(&recs).unwrap();
        assert!(t.wholes.is_empty());
        assert_eq!(t.shapes[0].delta, Some(0x104u64.wrapping_sub(0x200)));
        assert_eq!(t.varints.len(), 4, "two explicit two-byte targets");
        assert_eq!(t.records().collect::<Vec<_>>(), recs);
    }

    #[test]
    fn cleared_records_keep_the_static_tables() {
        let recs = loop_records(10);
        let mut t = CompactTrace::from_records(&recs[..21]).unwrap();
        let words = t.words().to_vec();
        let code = t.code.clone();
        t.clear_records();
        assert!(t.is_empty());
        assert_eq!(t.words(), words.as_slice());
        for r in &recs[21..] {
            t.push(*r).unwrap();
        }
        assert_eq!(t.records().collect::<Vec<_>>(), &recs[21..]);
        assert_eq!(t.words(), words.as_slice(), "no word interned twice");
        assert_eq!(t.code, code, "no pc mapped twice");
        assert_eq!(t.escapes(), &[(0, recs[21].pc())], "the piece restarts");
    }

    #[test]
    fn distant_pcs_start_code_regions_of_their_own() {
        let recs = vec![
            TraceRecord::plain(0x1000, EncodedInst(1)),
            TraceRecord::plain(0x1000 + 4 * (MAX_GAP + 1), EncodedInst(1)),
            TraceRecord::plain(0x1002, EncodedInst(2)),
            TraceRecord::plain(0x0ffc, EncodedInst(3)),
            TraceRecord::plain(0x1000 + 4 * (MAX_GAP - 1), EncodedInst(4)),
        ];
        let t = CompactTrace::from_records(&recs).unwrap();
        let bases: Vec<u64> = t.code.iter().map(|r| r.base).collect();
        assert_eq!(bases, [0x1000, 0x1000 + 4 * (MAX_GAP + 1), 0x1002, 0x0ffc]);
        assert_eq!(t.code[0].ids.len() as u64, MAX_GAP);
        assert_eq!(t.records().collect::<Vec<_>>(), recs);
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
        let before = t.clone();
        let extra = TraceRecord::plain(MAX_WORDS as u64 * 4, EncodedInst(u64::MAX));
        let err = t.push(extra).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(t, before, "a rejected record leaves the trace unchanged");
        // A word already interned still fits.
        t.push(TraceRecord::plain(0, EncodedInst(0))).unwrap();
    }
}
