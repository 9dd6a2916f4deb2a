//! In-memory traces.

use crate::record::{TraceRecord, TraceSink};
use crate::summary::TraceSummary;
use std::io;

/// An in-memory instruction trace: the records themselves, 40 bytes each.
///
/// The tuning framework does not keep traces in this form. Each workload
/// is recorded once (paper, Section III-C: "benchmark traces are generated
/// on the real hardware platform only once") and replayed thousands of
/// times, so it is held as a [`CompactTrace`](crate::CompactTrace) behind
/// an `Arc`; a buffer is compacted before it is simulated.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceBuffer {
    records: Vec<TraceRecord>,
}

impl TraceBuffer {
    /// Creates an empty buffer.
    pub fn new() -> TraceBuffer {
        TraceBuffer::default()
    }

    /// Creates a buffer with pre-allocated capacity.
    pub fn with_capacity(n: usize) -> TraceBuffer {
        TraceBuffer {
            records: Vec::with_capacity(n),
        }
    }

    /// The records in execution order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over the records.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceRecord> {
        self.records.iter()
    }

    /// Computes summary statistics.
    pub fn summary(&self) -> TraceSummary {
        TraceSummary::of(&self.records)
    }
}

impl TraceSink for TraceBuffer {
    fn push(&mut self, record: TraceRecord) -> io::Result<()> {
        self.records.push(record);
        Ok(())
    }
}

impl FromIterator<TraceRecord> for TraceBuffer {
    fn from_iter<T: IntoIterator<Item = TraceRecord>>(iter: T) -> Self {
        TraceBuffer {
            records: iter.into_iter().collect(),
        }
    }
}

impl Extend<TraceRecord> for TraceBuffer {
    fn extend<T: IntoIterator<Item = TraceRecord>>(&mut self, iter: T) {
        self.records.extend(iter);
    }
}

impl<'a> IntoIterator for &'a TraceBuffer {
    type Item = &'a TraceRecord;
    type IntoIter = std::slice::Iter<'a, TraceRecord>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racesim_isa::EncodedInst;

    #[test]
    fn sink_and_extend() {
        let mut buf = TraceBuffer::with_capacity(2);
        assert!(buf.is_empty());
        buf.push(TraceRecord::plain(0, EncodedInst(0))).unwrap();
        buf.extend([TraceRecord::plain(4, EncodedInst(1))]);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.iter().count(), 2);
        assert_eq!((&buf).into_iter().count(), 2);
    }
}
