//! Trace records and sinks.

use racesim_isa::EncodedInst;

pub(crate) const F_HAS_EA: u8 = 1 << 0;
const F_IS_BRANCH: u8 = 1 << 1;
pub(crate) const F_TAKEN: u8 = 1 << 2;

/// One dynamically executed instruction as observed by the front-end.
///
/// Construct with [`TraceRecord::plain`], [`TraceRecord::memory`] or
/// [`TraceRecord::branch`]; the kind determines which accessors return
/// values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    pc: u64,
    word: EncodedInst,
    ea: u64,
    target: u64,
    flags: u8,
}

impl TraceRecord {
    /// A non-memory, non-branch instruction.
    pub fn plain(pc: u64, word: EncodedInst) -> TraceRecord {
        TraceRecord {
            pc,
            word,
            ea: 0,
            target: 0,
            flags: 0,
        }
    }

    /// A load or store with its effective address.
    pub fn memory(pc: u64, word: EncodedInst, ea: u64) -> TraceRecord {
        TraceRecord {
            pc,
            word,
            ea,
            target: 0,
            flags: F_HAS_EA,
        }
    }

    /// A branch with its architectural outcome.
    ///
    /// `target` is meaningful only when `taken` is true.
    pub fn branch(pc: u64, word: EncodedInst, taken: bool, target: u64) -> TraceRecord {
        TraceRecord {
            pc,
            word,
            ea: 0,
            target: if taken { target } else { 0 },
            flags: F_IS_BRANCH | if taken { F_TAKEN } else { 0 },
        }
    }

    /// The record with an effective address attached. The wire format
    /// admits one on any record kind; a [`CompactTrace`](crate::CompactTrace)
    /// rejects one on a taken branch, whose payload slot holds the target.
    pub fn with_ea(mut self, ea: u64) -> TraceRecord {
        self.ea = ea;
        self.flags |= F_HAS_EA;
        self
    }

    pub(crate) fn from_raw(pc: u64, word: EncodedInst, ea: u64, target: u64, flags: u8) -> Self {
        TraceRecord {
            pc,
            word,
            ea,
            target,
            flags,
        }
    }

    /// The program counter.
    #[inline]
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// The raw instruction word.
    #[inline]
    pub fn word(&self) -> EncodedInst {
        self.word
    }

    /// The effective address, for memory operations.
    #[inline]
    pub fn ea(&self) -> Option<u64> {
        (self.flags & F_HAS_EA != 0).then_some(self.ea)
    }

    /// Whether this record is a branch.
    #[inline]
    pub fn is_branch(&self) -> bool {
        self.flags & F_IS_BRANCH != 0
    }

    /// Whether a branch was taken.
    #[inline]
    pub fn taken(&self) -> bool {
        self.flags & F_TAKEN != 0
    }

    /// The branch target, for taken branches.
    #[inline]
    pub fn target(&self) -> Option<u64> {
        (self.flags & F_TAKEN != 0).then_some(self.target)
    }

    /// The address control flow continued at after this instruction.
    #[inline]
    pub fn next_pc(&self) -> u64 {
        if self.taken() {
            self.target
        } else {
            self.pc + racesim_isa::INST_BYTES
        }
    }

    pub(crate) fn flags(&self) -> u8 {
        self.flags
    }

    pub(crate) fn raw_ea(&self) -> u64 {
        self.ea
    }

    pub(crate) fn raw_target(&self) -> u64 {
        self.target
    }
}

/// Anything that can consume a stream of trace records.
///
/// Implemented by [`CompactTrace`](crate::CompactTrace) (the replay
/// form), [`TraceBuffer`](crate::TraceBuffer) (in-memory records) and
/// [`TraceWriter`](crate::TraceWriter) (serialised), so trace producers —
/// the functional front-end in `racesim-kernels` — are agnostic about where
/// the trace goes.
pub trait TraceSink {
    /// Consumes one record.
    ///
    /// # Errors
    ///
    /// I/O-backed sinks report write failures.
    fn push(&mut self, record: TraceRecord) -> std::io::Result<()>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_reflect_kind() {
        let p = TraceRecord::plain(0x10, EncodedInst(7));
        assert_eq!(p.ea(), None);
        assert!(!p.is_branch());
        assert_eq!(p.target(), None);
        assert_eq!(p.next_pc(), 0x14);

        let m = TraceRecord::memory(0x10, EncodedInst(7), 0x999);
        assert_eq!(m.ea(), Some(0x999));

        let b = TraceRecord::branch(0x10, EncodedInst(7), true, 0x40);
        assert!(b.is_branch() && b.taken());
        assert_eq!(b.target(), Some(0x40));
        assert_eq!(b.next_pc(), 0x40);

        let nt = TraceRecord::branch(0x10, EncodedInst(7), false, 0x40);
        assert!(nt.is_branch() && !nt.taken());
        assert_eq!(nt.target(), None);
        assert_eq!(nt.next_pc(), 0x14);
    }
}
