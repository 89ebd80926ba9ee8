//! Offline stand-in for the subset of `crossbeam` that the repository
//! uses: the multi-producer multi-consumer `channel` module.

pub mod channel;
