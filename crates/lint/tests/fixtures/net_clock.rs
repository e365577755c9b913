//! Fixture: the service connection layer's wall-clock log stamp — the
//! one legitimate nondet source in the workspace. Clean under
//! `crates/service/src/net/`, a violation anywhere else.

use std::time::{SystemTime, UNIX_EPOCH};

pub fn log_stamp() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0)
}
