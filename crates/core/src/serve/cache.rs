//! Content-addressed result cache, keyed by the 128-bit sweep
//! fingerprint and verified against the canonical request bytes.
//!
//! Layout on disk, under the service's state directory:
//!
//! ```text
//! <fp>.request.json    canonical (scenarios, base_seed, rule) bytes
//! <fp>.response.json   cached SweepResponse bytes, served verbatim
//! <fp>.journal.jsonl   the sweep's replication journal (kept for warm
//!                      resume and replication reuse; owned by the
//!                      journal runner, not here)
//! ```
//!
//! Open also loads every journal into a [`RepIndex`], so a sweep that
//! shares scenarios with any journaled sweep — before or after a restart
//! — replays their replications instead of recomputing them. A journal
//! that does not parse is left out of the index; it never fails open.
//!
//! A fingerprint is strong (2⁻¹²⁸ accidental collision odds) but the
//! cache still refuses to *trust* it: every hit compares the stored
//! request bytes with the incoming canonical bytes byte-for-byte and
//! reports [`CacheLookup::Collision`] on mismatch, so a colliding —
//! or corrupted — entry can never serve the wrong sweep's numbers.
//!
//! Request and response files are each written to a temp name, synced
//! and renamed into place, request first, so a daemon killed mid-insert —
//! or a power cut after it — leaves no half-written file under a final
//! name; warm-up additionally validates that both files parse as JSON
//! before trusting the pair. An entry that fails warm-up is simply
//! skipped: the next request for it is a miss that re-inserts it, and
//! the journal, if intact, lets that request resume instead of
//! recomputing from scratch. (A request file with the wrong bytes would
//! instead read as a collision on every request and never be cached
//! again.)

use crate::experiment::{sync_dir, RepIndex};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One cached sweep: the canonical request bytes it answers, and the
/// response bytes served verbatim on every hit.
#[derive(Debug)]
pub struct CacheEntry {
    /// Canonical `(scenarios, base_seed, rule)` bytes (see
    /// [`canonical_sweep_bytes`](crate::experiment::canonical_sweep_bytes)).
    pub request: Vec<u8>,
    /// The [`SweepResponse`](super::SweepResponse) JSON bytes.
    pub response: Vec<u8>,
}

/// Outcome of a cache probe.
#[derive(Debug)]
pub enum CacheLookup {
    /// Entry present and its stored request bytes match the incoming
    /// canonical bytes exactly.
    Hit(Arc<CacheEntry>),
    /// No entry under this fingerprint.
    Miss,
    /// Entry present but its stored request bytes differ — a fingerprint
    /// collision or a corrupted store. Never served; the caller computes
    /// fresh and leaves the stored entry alone.
    Collision,
}

/// The in-memory entry index and replication index, plus their backing
/// directory.
pub struct ResultCache {
    dir: PathBuf,
    entries: Mutex<BTreeMap<String, Arc<CacheEntry>>>,
    reps: RepIndex,
    warmed: u64,
    pending_journals: u64,
}

fn fingerprint_of(file_name: &str, suffix: &str) -> Option<String> {
    let fp = file_name.strip_suffix(suffix)?;
    (!fp.is_empty() && fp.bytes().all(|b| b.is_ascii_hexdigit())).then(|| fp.to_string())
}

impl ResultCache {
    /// Opens (creating if needed) the cache under `dir` and warms the
    /// in-memory index from every intact `request`/`response` pair found
    /// there, and the replication index from every sweep journal.
    /// Damaged or unpaired entries are skipped, not deleted: a sweep
    /// whose response is missing but whose journal survived will resume
    /// from the journal on its next request.
    pub fn open(dir: &Path) -> io::Result<ResultCache> {
        fs::create_dir_all(dir)?;
        let mut entries = BTreeMap::new();
        let mut journals = Vec::new();
        let reps = RepIndex::default();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(fp) = fingerprint_of(name, ".response.json") {
                let request = match fs::read(dir.join(format!("{fp}.request.json"))) {
                    Ok(bytes) => bytes,
                    Err(_) => continue, // unpaired response: not trustworthy
                };
                let Ok(response) = fs::read(entry.path()) else {
                    continue;
                };
                // A torn or truncated file must not be trusted; JSON
                // well-formedness is the cheap integrity check the
                // rename-into-place writes should already guarantee.
                let json =
                    |bytes: &[u8]| serde_json::from_slice::<serde_json::Value>(bytes).is_ok();
                if !json(&request) || !json(&response) {
                    continue;
                }
                entries.insert(fp, Arc::new(CacheEntry { request, response }));
            } else if let Some(fp) = fingerprint_of(name, ".journal.jsonl") {
                // Oracle journals share the suffix and are refused here,
                // like any journal that is damaged before its last line.
                let _ = reps.load_journal(&entry.path());
                journals.push(fp);
            }
        }
        // Journals whose response made it to disk are resume sources for
        // nothing — only count the ones still awaiting completion.
        let warmed = entries.len() as u64;
        let pending_journals = journals
            .iter()
            .filter(|fp| !entries.contains_key(*fp))
            .count() as u64;
        Ok(ResultCache {
            dir: dir.to_path_buf(),
            entries: Mutex::new(entries),
            reps,
            warmed,
            pending_journals,
        })
    }

    /// Entries loaded from disk at open time.
    pub fn warmed(&self) -> u64 {
        self.warmed
    }

    /// Journals found at open time with no completed response — sweeps a
    /// crash interrupted, waiting to be resumed by their next request.
    pub fn pending_journals(&self) -> u64 {
        self.pending_journals
    }

    /// The replication index: every journaled replication in the
    /// directory, growing as sweeps append.
    pub fn rep_index(&self) -> &RepIndex {
        &self.reps
    }

    /// Where the journal runner should journal the sweep with this
    /// fingerprint.
    pub fn journal_path(&self, fingerprint: &str) -> PathBuf {
        self.dir.join(format!("{fingerprint}.journal.jsonl"))
    }

    /// Probes the cache, verifying any hit against the canonical request
    /// bytes byte-for-byte.
    pub fn lookup(&self, fingerprint: &str, request: &[u8]) -> CacheLookup {
        match self.entries.lock().get(fingerprint) {
            Some(entry) if entry.request == request => CacheLookup::Hit(entry.clone()),
            Some(_) => CacheLookup::Collision,
            None => CacheLookup::Miss,
        }
    }

    /// Writes `bytes` to `<fingerprint>.<kind>.json` durably: to a temp
    /// name, synced, then renamed into place.
    fn write_durable(&self, fingerprint: &str, kind: &str, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join(format!("{fingerprint}.{kind}.tmp"));
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_data()?;
        fs::rename(&tmp, self.dir.join(format!("{fingerprint}.{kind}.json")))
    }

    /// Inserts a computed result, persisting it under the cache
    /// directory (request first, then response — the order warm-up
    /// relies on). Returns the shared entry.
    pub fn insert(
        &self,
        fingerprint: &str,
        request: &[u8],
        response: Vec<u8>,
    ) -> io::Result<Arc<CacheEntry>> {
        self.write_durable(fingerprint, "request", request)?;
        self.write_durable(fingerprint, "response", &response)?;
        sync_dir(&self.dir)?;
        let entry = Arc::new(CacheEntry {
            request: request.to_vec(),
            response,
        });
        self.entries
            .lock()
            .insert(fingerprint.to_string(), entry.clone());
        Ok(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dgsched-cache-unit-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn insert_then_lookup_hits_with_matching_request() {
        let dir = tmp_dir("hit");
        let cache = ResultCache::open(&dir).unwrap();
        assert!(matches!(cache.lookup("ab12", b"req"), CacheLookup::Miss));
        cache.insert("ab12", b"req", b"resp".to_vec()).unwrap();
        match cache.lookup("ab12", b"req") {
            CacheLookup::Hit(e) => assert_eq!(e.response, b"resp"),
            other => panic!("expected hit, got {other:?}"),
        }
        assert!(matches!(
            cache.lookup("ab12", b"DIFFERENT"),
            CacheLookup::Collision
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_reloads_intact_pairs_and_skips_damage() {
        let dir = tmp_dir("warm");
        let cache = ResultCache::open(&dir).unwrap();
        cache
            .insert("aa11", br#"["a"]"#, br#"{"ok":1}"#.to_vec())
            .unwrap();
        cache
            .insert("bb22", br#"["b"]"#, br#"{"ok":2}"#.to_vec())
            .unwrap();
        drop(cache);
        // Damage bb22's response (torn JSON) and add an orphan journal.
        fs::write(dir.join("bb22.response.json"), b"{\"torn").unwrap();
        fs::write(dir.join("cc33.journal.jsonl"), b"{}\n").unwrap();
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.warmed(), 1, "only the intact pair reloads");
        assert_eq!(cache.pending_journals(), 1);
        assert!(matches!(
            cache.lookup("aa11", br#"["a"]"#),
            CacheLookup::Hit(_)
        ));
        assert!(matches!(
            cache.lookup("bb22", br#"["b"]"#),
            CacheLookup::Miss
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_request_is_not_warmed_and_reinserts_cleanly() {
        let dir = tmp_dir("torn-request");
        let request = br#"[["scenario"],7]"#;
        let cache = ResultCache::open(&dir).unwrap();
        cache
            .insert("cc33", request, br#"{"ok":3}"#.to_vec())
            .unwrap();
        drop(cache);
        // What a power cut could leave of an unsynced request file.
        fs::write(dir.join("cc33.request.json"), &request[..5]).unwrap();
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.warmed(), 0, "a torn request is not trusted");
        assert!(matches!(cache.lookup("cc33", request), CacheLookup::Miss));
        cache
            .insert("cc33", request, br#"{"ok":3}"#.to_vec())
            .unwrap();
        drop(cache);
        let cache = ResultCache::open(&dir).unwrap();
        assert!(matches!(cache.lookup("cc33", request), CacheLookup::Hit(_)));
        let leftovers = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().path().extension() == Some("tmp".as_ref()))
            .count();
        assert_eq!(leftovers, 0, "every temp file was renamed into place");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_path_is_fingerprint_scoped() {
        let dir = tmp_dir("jpath");
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.journal_path("ff00"), dir.join("ff00.journal.jsonl"));
        fs::remove_dir_all(&dir).ok();
    }
}
