//! In-memory traces.

use crate::format::{TraceReader, TraceWriter};
use crate::record::{TraceRecord, TraceSink};
use crate::summary::TraceSummary;
use std::io::{self, Read, Write};

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

    /// Drains a [`TraceReader`] into a buffer.
    ///
    /// # Errors
    ///
    /// Propagates decoding errors from the reader.
    pub fn from_reader<R: Read>(reader: TraceReader<R>) -> io::Result<TraceBuffer> {
        let records = reader.collect::<io::Result<Vec<_>>>()?;
        Ok(TraceBuffer { records })
    }

    /// Serialises the buffer to a writer in the trace format.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: Write>(&self, w: W) -> io::Result<W> {
        let mut tw = TraceWriter::new(w)?;
        for r in &self.records {
            tw.write(r)?;
        }
        tw.finish()
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
    fn buffer_roundtrips_through_serialisation() {
        let buf: TraceBuffer = (0..100u64)
            .map(|i| TraceRecord::memory(0x1000 + i * 4, EncodedInst(i), i * 64))
            .collect();
        let bytes = buf.write_to(Vec::new()).unwrap();
        let back = TraceBuffer::from_reader(TraceReader::new(bytes.as_slice()).unwrap()).unwrap();
        assert_eq!(back, buf);
    }

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
