//! The JSON reader and writer for fault plans and campaign reports: a
//! re-export of [`hb_core::json`], the workspace's one JSON module.

pub use hb_core::json::*;
