//! Trace serialisation: line-delimited JSON, the one trace format.
//!
//! The header carries the event count **and the number of events the
//! tracer dropped** (ring-buffer eviction), so a truncated trace is
//! always identifiable as such — decoding never silently pretends a
//! partial trace is complete.
//!
//! Line 1 is the header object, every following line is one event:
//!
//! ```text
//! {"format":"dgsched-trace","version":1,"events":3,"dropped":0}
//! {"kind":"bag_arrival","at":0.0,"bag":0}
//! ...
//! ```

use crate::event::TraceEvent;
use serde::{Deserialize, Serialize};

/// Current version of the trace format.
pub const TRACE_FORMAT_VERSION: u16 = 1;

/// A decoded trace: the surviving events plus the tracer's drop count.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFile {
    /// Events in record order (the most recent window when `dropped > 0`).
    pub events: Vec<TraceEvent>,
    /// Events the tracer evicted before export; `> 0` means truncated.
    pub dropped: u64,
}

impl TraceFile {
    /// True when the tracer evicted events before export.
    pub fn truncated(&self) -> bool {
        self.dropped > 0
    }
}

/// Why a trace failed to decode.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceCodecError {
    /// The JSONL header line is missing or malformed.
    BadHeader(String),
    /// A JSONL event line failed to parse (1-based line number).
    BadLine(usize, String),
    /// Header promised a different number of events than were present.
    CountMismatch {
        /// Events promised by the header.
        expected: u64,
        /// Events actually decoded.
        found: u64,
    },
    /// The format version is unknown.
    BadVersion(u16),
}

impl std::fmt::Display for TraceCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceCodecError::BadHeader(m) => write!(f, "bad trace header: {m}"),
            TraceCodecError::BadLine(n, m) => write!(f, "bad trace line {n}: {m}"),
            TraceCodecError::CountMismatch { expected, found } => {
                write!(
                    f,
                    "trace count mismatch: header says {expected}, found {found}"
                )
            }
            TraceCodecError::BadVersion(v) => write!(f, "unsupported trace format version {v}"),
        }
    }
}

impl std::error::Error for TraceCodecError {}

#[derive(Serialize, Deserialize)]
struct JsonlHeader {
    format: String,
    version: u16,
    events: u64,
    dropped: u64,
}

/// Renders `events` as JSONL with a truncation-aware header line.
pub fn write_jsonl(events: &[TraceEvent], dropped: u64) -> String {
    let header = JsonlHeader {
        format: "dgsched-trace".into(),
        version: TRACE_FORMAT_VERSION,
        events: events.len() as u64,
        dropped,
    };
    let mut out = serde_json::to_string(&header).expect("header serialises");
    out.push('\n');
    for ev in events {
        out.push_str(&serde_json::to_string(ev).expect("event serialises"));
        out.push('\n');
    }
    out
}

/// Parses a JSONL trace produced by [`write_jsonl`].
pub fn read_jsonl(text: &str) -> Result<TraceFile, TraceCodecError> {
    let mut lines = text.lines();
    let header_line = lines
        .next()
        .ok_or_else(|| TraceCodecError::BadHeader("empty input".into()))?;
    let header: JsonlHeader =
        serde_json::from_str(header_line).map_err(|e| TraceCodecError::BadHeader(e.to_string()))?;
    if header.format != "dgsched-trace" {
        return Err(TraceCodecError::BadHeader(format!(
            "unknown format '{}'",
            header.format
        )));
    }
    if header.version != TRACE_FORMAT_VERSION {
        return Err(TraceCodecError::BadVersion(header.version));
    }
    let mut events = Vec::with_capacity(header.events as usize);
    for (i, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev: TraceEvent = serde_json::from_str(line)
            .map_err(|e| TraceCodecError::BadLine(i + 2, e.to_string()))?;
        events.push(ev);
    }
    if events.len() as u64 != header.events {
        return Err(TraceCodecError::CountMismatch {
            expected: header.events,
            found: events.len() as u64,
        });
    }
    Ok(TraceFile {
        events,
        dropped: header.dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::BagArrival { at: 0.0, bag: 0 },
            TraceEvent::Dispatch {
                at: 0.0,
                bag: 0,
                task: 1,
                machine: 2,
                is_replication: false,
            },
            TraceEvent::Outage {
                at: 5.25,
                duration: 3600.0,
            },
            TraceEvent::MachineFail {
                at: 5.25,
                machine: 2,
            },
            TraceEvent::ReplicaKilled {
                at: 5.25,
                bag: 0,
                task: 1,
                machine: 2,
                by_failure: true,
            },
            TraceEvent::MachineRepair {
                at: 3605.25,
                machine: 2,
            },
            TraceEvent::Dispatch {
                at: 3605.25,
                bag: 0,
                task: 1,
                machine: 2,
                is_replication: false,
            },
            TraceEvent::CheckpointSaved {
                at: 3700.0,
                bag: 0,
                task: 1,
                work: 123.456789,
            },
            TraceEvent::TaskComplete {
                at: 4000.5,
                bag: 0,
                task: 1,
                machine: 2,
            },
            TraceEvent::BagComplete { at: 4000.5, bag: 0 },
        ]
    }

    #[test]
    fn jsonl_round_trips_with_drop_count() {
        let events = sample_events();
        let text = write_jsonl(&events, 7);
        let back = read_jsonl(&text).unwrap();
        assert_eq!(back.events, events);
        assert_eq!(back.dropped, 7);
        assert!(back.truncated());
    }

    #[test]
    fn ring_drop_count_survives_jsonl() {
        // A full run pushed through a 4-slot ring: the export must carry
        // the ring's eviction count, and the decoder must read the trace
        // as a truncated window, not a complete run.
        let events = sample_events();
        let mut ring = crate::ring::TraceRing::new(4);
        for ev in &events {
            ring.push(*ev);
        }
        assert_eq!(ring.dropped(), events.len() as u64 - 4);

        let text = write_jsonl(&ring.events(), ring.dropped());
        let decoded = read_jsonl(&text).unwrap();
        assert_eq!(decoded.events, events[events.len() - 4..]);
        assert_eq!(decoded.dropped, ring.dropped());
        assert!(decoded.truncated());
    }

    #[test]
    fn jsonl_header_must_be_sane() {
        assert!(matches!(read_jsonl(""), Err(TraceCodecError::BadHeader(_))));
        assert!(matches!(
            read_jsonl("{\"format\":\"other\",\"version\":1,\"events\":0,\"dropped\":0}\n"),
            Err(TraceCodecError::BadHeader(_))
        ));
        assert!(matches!(
            read_jsonl("{\"format\":\"dgsched-trace\",\"version\":9,\"events\":0,\"dropped\":0}\n"),
            Err(TraceCodecError::BadVersion(9))
        ));
        // Header claims more events than the body holds.
        let text = "{\"format\":\"dgsched-trace\",\"version\":1,\"events\":2,\"dropped\":0}\n\
                    {\"kind\":\"bag_arrival\",\"at\":0.0,\"bag\":0}\n";
        assert_eq!(
            read_jsonl(text),
            Err(TraceCodecError::CountMismatch {
                expected: 2,
                found: 1
            })
        );
    }
}
