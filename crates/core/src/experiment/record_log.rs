//! The crash-safe record log behind the journal
//! ([`journal`](super::journal)): one schema for sweeps and oracle runs
//! alike, whose records are completed replications and, in an oracle
//! run, completed search restarts.
//!
//! A log is an append-only JSONL file. Line 1 is a **header** carrying
//! the log's schema version and the fingerprint of the computation it
//! belongs to; every further line is one **record**. [`RecordLog::append`]
//! writes a record with one `write_all` and makes it durable with one
//! `sync_data` before it returns, so a crash can tear at most the final
//! line. Reading a log back therefore forgives damage there only: a final
//! line without its newline, or one that no longer parses, is a *torn
//! tail* and is cut off on open. Damage anywhere else means the file was
//! edited or corrupted, and resuming from it would silently skew results,
//! so it is an error. A torn header leaves nothing to resume, and the log
//! starts afresh.

use super::journal::{JournalLine, JOURNAL_VERSION};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

pub(crate) fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// One line's bytes, newline included.
fn encode(line: &JournalLine) -> io::Result<Vec<u8>> {
    let mut bytes = serde_json::to_vec(line)
        .map_err(|e| invalid(format!("log line does not serialise: {e}")))?;
    bytes.push(b'\n');
    Ok(bytes)
}

/// Parses a log's bytes: checks the header's version, and its
/// fingerprint against `fingerprint` (any fingerprint when `None`), then
/// returns the record lines and the length of the intact prefix. Anything
/// past that length is a torn tail.
pub(crate) fn parse(
    data: &[u8],
    fingerprint: Option<&str>,
) -> io::Result<(Vec<JournalLine>, usize)> {
    let mut records = Vec::new();
    let mut valid_len = 0;
    while let Some(nl) = data[valid_len..].iter().position(|&b| b == b'\n') {
        let line_end = valid_len + nl + 1;
        let first = valid_len == 0;
        let parsed = std::str::from_utf8(&data[valid_len..line_end - 1])
            .ok()
            .and_then(|text| serde_json::from_str::<JournalLine>(text).ok());
        match parsed {
            Some(line) if first && line.header().is_some() => {
                let (version, fp) = line.header().expect("checked by the guard");
                if version != JOURNAL_VERSION || fingerprint.is_some_and(|f| f != fp) {
                    let this = fingerprint.unwrap_or("any");
                    return Err(invalid(format!(
                        "log belongs to a different run (fingerprint {fp}, schema v{version}; \
                         this run is {this}, schema v{JOURNAL_VERSION}): refusing to resume"
                    )));
                }
            }
            Some(line) if !first && line.header().is_none() => records.push(line),
            _ if line_end == data.len() => break, // torn final line: drop it
            _ if first => {
                return Err(invalid(
                    "log does not start with a valid header line".to_string(),
                ));
            }
            _ => {
                return Err(invalid(format!(
                    "log is corrupt at byte {valid_len}: only the final record may be torn"
                )));
            }
        }
        valid_len = line_end;
    }
    Ok((records, valid_len))
}

/// Makes the directory entries under `dir` durable: a file created or
/// renamed there survives a power cut only once its directory is synced.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// An open log, with what opening it found.
pub(crate) struct RecordLog {
    /// The append handle and the first write error, under one lock.
    writer: Mutex<Writer>,
    /// 1 when an existing log was resumed, else 0.
    pub(crate) resumes: u64,
    /// 1 when a torn tail was cut off on open, else 0.
    pub(crate) torn_tails: u64,
}

struct Writer {
    file: File,
    /// Records made durable since open.
    appended: u64,
    /// The first failed append. Sticky: every later append is skipped,
    /// so no record follows a lost one.
    error: Option<io::Error>,
}

impl RecordLog {
    /// Opens the log at `path` for appending, creating its directory,
    /// and returns it with the records it already holds.
    ///
    /// With `resume`, an existing log whose header has `header`'s
    /// fingerprint and this schema version is kept: its records are read
    /// back and its torn tail, if any, is truncated away. A mismatched or
    /// damaged log is an error. Otherwise (no resume, no file, or nothing
    /// intact, as when the header itself is torn) the file is rewritten
    /// from scratch with `header` as its first line.
    pub(crate) fn open(
        path: &Path,
        header: &JournalLine,
        resume: bool,
    ) -> io::Result<(Self, Vec<JournalLine>)> {
        let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
        let dir = dir.unwrap_or(Path::new("."));
        std::fs::create_dir_all(dir)?;
        let existing = match resume.then(|| std::fs::read(path)) {
            Some(Ok(data)) => data,
            Some(Err(e)) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => Vec::new(),
        };
        let (_, fingerprint) = header.header().expect("`header` is a header line");
        let (records, valid_len) = parse(&existing, Some(fingerprint))?;
        let file = if valid_len > 0 {
            let file = OpenOptions::new().append(true).open(path)?;
            file.set_len(valid_len as u64)?;
            file.sync_data()?;
            file
        } else {
            let mut file = File::create(path)?;
            file.write_all(&encode(header)?)?;
            file.sync_data()?;
            // A fresh log's directory entry must outlive a power cut too.
            sync_dir(dir)?;
            file
        };
        let writer = Mutex::new(Writer {
            file,
            appended: 0,
            error: None,
        });
        let log = RecordLog {
            writer,
            resumes: u64::from(valid_len > 0),
            torn_tails: u64::from(valid_len < existing.len()),
        };
        Ok((log, records))
    }

    /// Appends `line` and makes it durable. True once the record is on
    /// disk; false when this append or an earlier one failed.
    pub(crate) fn append(&self, line: &JournalLine) -> bool {
        let bytes = encode(line);
        let mut w = self.writer.lock();
        if w.error.is_some() {
            return false;
        }
        let attempt = bytes.and_then(|bytes| {
            w.file.write_all(&bytes)?;
            w.file.sync_data()
        });
        match attempt {
            Ok(()) => w.appended += 1,
            Err(e) => w.error = Some(e),
        }
        w.error.is_none()
    }

    /// The records appended since open, or the first append's error.
    pub(crate) fn finish(&self) -> io::Result<u64> {
        let mut w = self.writer.lock();
        match w.error.take() {
            Some(e) => Err(e),
            None => Ok(w.appended),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::scenario::fixed_rule;
    use crate::experiment::{run_matrix_journaled, run_sweep, SweepOptions};
    use crate::experiment::{OracleConfig, RepGuard, Scenario};
    use crate::policy::PolicyKind;
    use std::iter::once;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let name = format!("dgsched-record-log-{name}-{}.jsonl", std::process::id());
        std::env::temp_dir().join(name)
    }

    fn bytes<'a>(lines: impl IntoIterator<Item = &'a JournalLine>) -> Vec<u8> {
        lines.into_iter().flat_map(|l| encode(l).unwrap()).collect()
    }

    /// The record-log battery, run on a journal file with a header and at
    /// least three records:
    ///
    /// 1. its lines decode and re-encode to the same bytes;
    /// 2. the log cut at every byte offset, as a kill mid-append can
    ///    leave it, reopens with exactly its intact records, counts a torn
    ///    tail exactly when the cut is not at a line end, starts afresh
    ///    when the header is torn, and takes the lost records back;
    /// 3. a foreign fingerprint or schema version, and damage before the
    ///    final line, are errors that leave the file as it is;
    /// 4. a failed append is sticky and returned by `finish`.
    fn battery(name: &str, full: &[u8]) {
        let path = tmp(name);
        let header_end = full.iter().position(|&b| b == b'\n').unwrap();
        let first = std::str::from_utf8(&full[..header_end]).unwrap();
        let ours: JournalLine = serde_json::from_str(first).unwrap();
        let (records, _) = parse(full, None).unwrap();
        assert!(records.len() >= 3, "{name}: {} records", records.len());
        assert_eq!(bytes(once(&ours).chain(&records)), full);

        let line_ends: Vec<usize> = once(0)
            .chain((1..=full.len()).filter(|&i| full[i - 1] == b'\n'))
            .collect();
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (log, read) = RecordLog::open(&path, &ours, true).unwrap();
            let lines = line_ends[1..].iter().filter(|&&end| end <= cut).count();
            let intact = lines.saturating_sub(1);
            let (torn, resumed) = (!line_ends.contains(&cut), lines > 0);
            assert_eq!(format!("{read:?}"), format!("{:?}", &records[..intact]));
            assert_eq!(
                (log.torn_tails, log.resumes),
                (torn.into(), resumed.into()),
                "cut {cut}"
            );
            let kept = line_ends[lines.max(1)]; // a fresh start holds the header
            assert_eq!(std::fs::read(&path).unwrap(), full[..kept], "cut {cut}");
            assert!(records[intact..].iter().all(|r| log.append(r)));
            assert_eq!(log.finish().unwrap(), (records.len() - intact) as u64);
            assert_eq!(std::fs::read(&path).unwrap(), full, "cut {cut}");
        }

        let (_, fingerprint) = ours.header().unwrap();
        let version = |v: u32| format!("\"version\":{v}");
        let foreign: JournalLine =
            serde_json::from_str(&first.replace(fingerprint, "beef")).unwrap();
        let newer = first.replace(&version(JOURNAL_VERSION), &version(JOURNAL_VERSION + 1));
        let newer: JournalLine = serde_json::from_str(&newer).unwrap();
        let [r0, r1, r2] = [&records[0], &records[1], &records[2]];
        let garbled = [
            bytes([&ours, r0]),
            b"{not json}\n".to_vec(),
            bytes([r1, r2]),
        ];
        for (data, error) in [
            (bytes([&foreign, r0]), "different run"),
            (bytes([&newer, r0]), "different run"),
            (garbled.concat(), "only the final record may be torn"),
            (
                bytes([&ours, r0, &ours, r1]),
                "only the final record may be torn",
            ),
            (bytes([r0, r1]), "does not start with a valid header"),
        ] {
            std::fs::write(&path, &data).unwrap();
            let err = RecordLog::open(&path, &ours, true).err().expect(error);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(error), "{err}");
            assert_eq!(std::fs::read(&path).unwrap(), data, "{error}: file touched");
        }
        // Read without a fingerprint, only the schema version counts.
        assert!(parse(&bytes([&foreign, r0]), None).is_ok());
        assert!(parse(&bytes([&newer, r0]), None).is_err());

        let (log, _) = RecordLog::open(&path, &ours, false).unwrap();
        assert!(log.append(r0));
        let writable = std::mem::replace(&mut log.writer.lock().file, File::open(&path).unwrap());
        assert!(!log.append(r1), "a read-only handle takes no write");
        log.writer.lock().file = writable;
        assert!(!log.append(r2), "the first error is sticky");
        assert!(log.finish().is_err());
        assert_eq!(std::fs::read(&path).unwrap(), bytes([&ours, r0]));
        std::fs::remove_file(&path).ok();
    }

    /// A sweep journal of two scenarios, two replications each.
    #[test]
    fn sweep_journal_passes_the_record_log_battery() {
        let scenarios =
            [PolicyKind::Rr, PolicyKind::Sbf].map(|p| Scenario::small(&p.to_string(), p));
        let (path, rule) = (tmp("sweep-source"), fixed_rule(2));
        run_matrix_journaled(&scenarios, 11, &rule, &path, false, RepGuard::default()).unwrap();
        battery("sweep", &std::fs::read(&path).unwrap());
        std::fs::remove_file(&path).ok();
    }

    /// An oracle run's journal: two replications and two oracle
    /// replications of two restarts each, in one schema.
    #[test]
    fn oracle_journal_passes_the_record_log_battery() {
        let scenarios = [Scenario::small("a", PolicyKind::Rr)];
        let ocfg = OracleConfig {
            restarts: 2,
            iters: 4,
            seed: 5,
            replications: 2,
        };
        let path = tmp("oracle-source");
        let opts = SweepOptions {
            journal: Some(&path),
            oracle: Some(&ocfg),
            ..SweepOptions::default()
        };
        run_sweep(&scenarios, 11, &fixed_rule(2), opts, |_, _, _| {}).unwrap();
        let full = std::fs::read(&path).unwrap();
        let (records, _) = parse(&full, None).unwrap();
        let restarts = records
            .iter()
            .filter(|r| matches!(r, JournalLine::Restart { .. }))
            .count();
        assert_eq!((records.len(), restarts), (6, 4));
        battery("oracle", &full);
        std::fs::remove_file(&path).ok();
    }
}
