//! Empty offline stand-in; see this package's `description`.
#![forbid(unsafe_code)]
