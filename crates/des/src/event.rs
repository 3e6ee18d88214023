//! Event handles issued by the pending-event sets.

/// Opaque handle identifying a scheduled event, usable for cancellation.
///
/// Handles are unique for the lifetime of a queue; they are never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(pub(crate) u64);

impl EventId {
    /// A handle that no queue will ever issue; useful as a sentinel.
    pub const NONE: EventId = EventId(u64::MAX);
}
