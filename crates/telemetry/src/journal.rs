//! Buffered JSONL sinks and journal readers.
//!
//! Events are rendered to lines immediately (so they capture state at
//! emit time) but buffered in memory and written out in batches — one
//! `write_all` per flush instead of one syscall per event. I/O errors
//! are counted and swallowed: telemetry must never kill a campaign.

use crate::event::{JournalEntry, JournalError};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// How many buffered lines trigger an automatic flush.
pub(crate) const FLUSH_EVERY: usize = 256;

/// Where flushed journal lines go.
pub(crate) enum Sink {
    /// Append to a file through a [`BufWriter`].
    File(BufWriter<File>),
    /// Keep everything in memory (tests, `racesim report` self-checks).
    Memory(Vec<String>),
}

impl std::fmt::Debug for Sink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Sink::File(_) => f.write_str("Sink::File"),
            Sink::Memory(lines) => write!(f, "Sink::Memory({} lines)", lines.len()),
        }
    }
}

/// A ring of pending lines in front of a [`Sink`].
#[derive(Debug)]
pub(crate) struct Buffered {
    buf: Vec<String>,
    sink: Sink,
    io_errors: u64,
}

impl Buffered {
    pub(crate) fn memory() -> Buffered {
        Buffered {
            buf: Vec::with_capacity(FLUSH_EVERY),
            sink: Sink::Memory(Vec::new()),
            io_errors: 0,
        }
    }

    /// Opens `path` for journal output. `append` keeps any existing
    /// journal (resume); otherwise the file is truncated.
    pub(crate) fn file(path: &Path, append: bool) -> std::io::Result<Buffered> {
        let file = OpenOptions::new()
            .create(true)
            .append(append)
            .write(true)
            .truncate(!append)
            .open(path)?;
        Ok(Buffered {
            buf: Vec::with_capacity(FLUSH_EVERY),
            sink: Sink::File(BufWriter::new(file)),
            io_errors: 0,
        })
    }

    pub(crate) fn push(&mut self, line: String) {
        self.buf.push(line);
        if self.buf.len() >= FLUSH_EVERY {
            self.flush();
        }
    }

    pub(crate) fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        match &mut self.sink {
            Sink::Memory(lines) => lines.append(&mut self.buf),
            Sink::File(w) => {
                let mut batch = String::new();
                for line in self.buf.drain(..) {
                    batch.push_str(&line);
                    batch.push('\n');
                }
                if w.write_all(batch.as_bytes()).is_err() || w.flush().is_err() {
                    self.io_errors += 1;
                }
            }
        }
    }

    /// Lines flushed to a memory sink plus any still pending.
    pub(crate) fn lines(&self) -> Vec<String> {
        let mut out = match &self.sink {
            Sink::Memory(lines) => lines.clone(),
            Sink::File(_) => Vec::new(),
        };
        out.extend(self.buf.iter().cloned());
        out
    }

    pub(crate) fn io_errors(&self) -> u64 {
        self.io_errors
    }
}

impl Drop for Buffered {
    fn drop(&mut self) {
        self.flush();
    }
}

/// One unparseable journal line, classified for reporting.
///
/// A malformed **final** line is the expected signature of a writer that
/// was killed mid-`write` (`torn_tail`); readers should warn softly and
/// keep the valid prefix. A bad line anywhere else — or an unknown event
/// on the last line — means genuine corruption or a version mismatch and
/// deserves a louder warning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalWarning {
    /// 1-based line number.
    pub line: usize,
    /// Why the line failed to parse.
    pub error: JournalError,
    /// True when this is a torn final line (crashed writer), as opposed
    /// to mid-file corruption.
    pub torn_tail: bool,
}

impl std::fmt::Display for JournalWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.torn_tail {
            write!(
                f,
                "line {}: torn final line (writer crashed mid-write?): {}",
                self.line, self.error
            )
        } else {
            write!(f, "line {}: {}", self.line, self.error)
        }
    }
}

/// A parsed journal: its entries plus one warning per unparseable line.
pub type ParsedJournal = (Vec<JournalEntry>, Vec<JournalWarning>);

/// Parses a whole journal (one JSON object per line; blank lines are
/// skipped). Returns the entries plus one warning per unparseable line,
/// so a journal truncated by a crash still yields its good prefix (and
/// any valid lines after a bad one). A JSON error on the final non-empty
/// line is a *torn tail* (a crash mid-write truncated it); anything else
/// is corruption. Strict readers check that no warning came back.
pub fn parse_journal(text: &str) -> ParsedJournal {
    let mut entries = Vec::new();
    let mut warnings = Vec::new();
    let mut last_line = 0;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        last_line = idx + 1;
        match JournalEntry::parse(line) {
            Ok(e) => entries.push(e),
            Err(error) => warnings.push(JournalWarning {
                line: idx + 1,
                error,
                torn_tail: false,
            }),
        }
    }
    if let Some(w) = warnings.last_mut() {
        w.torn_tail = w.line == last_line && matches!(w.error, JournalError::Json(_));
    }
    (entries, warnings)
}

/// Reads and parses a journal file.
pub fn read_journal(path: &PathBuf) -> std::io::Result<ParsedJournal> {
    Ok(parse_journal(&std::fs::read_to_string(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn entry(t: u64) -> JournalEntry {
        JournalEntry {
            t_us: t,
            event: Event::IterationStart {
                iteration: t as usize,
                configs: 8,
            },
        }
    }

    #[test]
    fn memory_sink_preserves_order_across_flushes() {
        let mut b = Buffered::memory();
        for t in 0..(FLUSH_EVERY as u64 * 2 + 3) {
            b.push(entry(t).render());
        }
        let lines = b.lines();
        assert_eq!(lines.len(), FLUSH_EVERY * 2 + 3);
        let (entries, warnings) = parse_journal(&lines.join("\n"));
        assert!(warnings.is_empty());
        assert_eq!(entries.len(), lines.len());
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.t_us, i as u64);
        }
    }

    #[test]
    fn file_sink_roundtrips_and_append_preserves() {
        let path = std::env::temp_dir().join(format!(
            "racesim_telemetry_{}_file_sink.jsonl",
            std::process::id()
        ));
        {
            let mut b = Buffered::file(&path, false).unwrap();
            b.push(entry(1).render());
            // Drop flushes the pending line.
        }
        {
            let mut b = Buffered::file(&path, true).unwrap();
            b.push(entry(2).render());
            b.flush();
            assert_eq!(b.io_errors(), 0);
        }
        let (entries, warnings) = read_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(warnings.is_empty());
        assert_eq!(entries.len(), 2, "append must not truncate");
        assert_eq!(entries[0].t_us, 1);
        assert_eq!(entries[1].t_us, 2);
    }

    #[test]
    fn truncating_open_discards_old_journal() {
        let path = std::env::temp_dir().join(format!(
            "racesim_telemetry_{}_truncate.jsonl",
            std::process::id()
        ));
        {
            let mut b = Buffered::file(&path, false).unwrap();
            b.push(entry(1).render());
        }
        {
            let mut b = Buffered::file(&path, false).unwrap();
            b.push(entry(9).render());
        }
        let (entries, _) = read_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].t_us, 9);
    }

    #[test]
    fn parse_journal_survives_a_torn_tail() {
        let good = entry(1).render();
        let text = format!("{good}\n\n{{\"t\":2,\"ev\":\"iteration_st");
        let (entries, warnings) = parse_journal(&text);
        assert_eq!(entries.len(), 1);
        assert_eq!(warnings.len(), 1);
        assert_eq!(warnings[0].line, 3, "line numbers are 1-based");
        assert!(warnings[0].torn_tail, "final malformed line is a tear");
        assert!(warnings[0].to_string().contains("torn final line"));
    }

    #[test]
    fn parse_journal_flags_mid_file_garbage_as_corruption() {
        let good = entry(1).render();
        let also_good = entry(2).render();
        // Garbage in the middle, then a valid line: not a torn tail, and
        // the valid suffix is still kept.
        let text = format!("{good}\ngarbage not json\n{also_good}");
        let (entries, warnings) = parse_journal(&text);
        assert_eq!(entries.len(), 2, "valid lines around the bad one survive");
        assert_eq!(warnings.len(), 1);
        assert!(!warnings[0].torn_tail);

        // An unknown event on the final line is a version mismatch, not
        // a tear.
        let text = format!("{good}\n{{\"t\":3,\"ev\":\"warp_drive\"}}");
        let (_, warnings) = parse_journal(&text);
        assert_eq!(warnings.len(), 1);
        assert!(!warnings[0].torn_tail);
    }
}
