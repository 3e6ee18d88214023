//! Lint canary: one violation of each `clippy.toml` rule, one `#[allow]`
//! without a reason and one stale `#[expect]` — 8 diagnostics in all.
//!
//! A `clippy.toml` path that does not resolve, or that names the wrong
//! item, switches its rule off without failing the build, so a typo
//! there would leave the lint gate green. `scripts/ci.sh` compiles this
//! file with
//!
//! ```text
//! CLIPPY_CONF_DIR=. clippy-driver --edition 2021 --crate-type lib \
//!     --emit=metadata -W clippy::allow_attributes_without_reason \
//!     scripts/lint_canary.rs
//! ```
//!
//! and fails unless every one of the 8 diagnostics appears.

pub fn hash_map() -> std::collections::HashMap<u8, u8> {
    Default::default()
}

pub fn hash_set() -> std::collections::HashSet<u8> {
    Default::default()
}

pub fn system_time() -> Option<std::time::SystemTime> {
    None
}

pub fn instant_now() -> bool {
    std::time::Instant::now().elapsed().is_zero()
}

pub fn thread_current() -> std::thread::Thread {
    std::thread::current()
}

pub fn partial_cmp(a: f64, b: f64) -> Option<std::cmp::Ordering> {
    a.partial_cmp(&b)
}

#[allow(dead_code)]
fn allow_without_reason() {}

#[expect(clippy::disallowed_methods, reason = "stale: nothing here is disallowed")]
pub fn stale_expect() {}
