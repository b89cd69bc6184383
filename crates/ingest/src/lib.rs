//! Live rating ingestion for MapRat.
//!
//! The demo paper treats the rating corpus as frozen at load time; this
//! crate makes it *live*: new ratings — including ratings by previously
//! unseen reviewers and for previously unseen items — are buffered
//! ([`IngestBuffer`]), validated against the current dataset at the
//! commit boundary, and published as a fresh immutable dataset snapshot
//! through the engine's hot-swap ([`IngestService::commit`]). In-flight
//! explains keep the snapshot they pinned; cache invalidation stays
//! scoped to the partitions the commit touched.
//!
//! A commit is three steps under one writer lock:
//!
//! 1. **resolve** — user/item specs become dense ids: existing ids are
//!    bounds-checked, titles are looked up, and new entities are
//!    allocated through the same [`maprat_data::IdAllocator`] contract
//!    the loader and subsetter use;
//! 2. **append** — [`maprat_data::Dataset::with_appended`] splices the
//!    batch into a new snapshot, repacking reviewer codes and score bins
//!    for the new rows only, and reports the changed items;
//! 3. **publish** — the engine hot-swaps to the new snapshot with
//!    partition-scoped cache invalidation, and the commit watermark
//!    (month key + commit sequence) advances. The next explain of a
//!    changed item rebuilds its cube from the new snapshot.
//!
//! With a write-ahead log attached ([`IngestService::with_wal`]) a fourth
//! step slots in between 1 and 2: the validated events are serialized to
//! a CRC-framed, fsynced segment ([`wal`]) *before* the splice, so a
//! crash at any point recovers — by deterministic replay — to a dataset
//! that explains byte-identically to an uncrashed run.

#![warn(missing_docs)]

mod buffer;
mod service;
pub mod wal;

pub use buffer::{IngestBuffer, ItemSpec, NewItem, NewUser, RatingEvent, UserSpec};
pub use service::{CommitReceipt, IngestService, RecoveryReport, Watermark};
pub use wal::{Wal, WalStats};

use maprat_data::{DataError, ItemId, UserId};

/// Why an ingest buffer or commit was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// A rating referenced a reviewer id that neither exists in the
    /// dataset nor was introduced earlier in the same batch.
    UnknownUser(UserId),
    /// A rating referenced an item id that neither exists in the
    /// dataset nor was introduced earlier in the same batch.
    UnknownItem(ItemId),
    /// A by-title reference matched no item (dataset or batch).
    UnknownTitle(String),
    /// A spec field failed boundary validation (empty title, …).
    Invalid(String),
    /// The buffer was empty — nothing to commit.
    EmptyCommit,
    /// The spliced batch was rejected by the dataset layer (formatted
    /// [`DataError`] message).
    Data(String),
    /// The write-ahead log could not durably record the commit (I/O
    /// failure) or refused to replay it (divergence, duplicate history).
    /// The commit was **not** applied — durability fails closed.
    Wal(String),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::UnknownUser(id) => write!(f, "unknown reviewer id {}", id.0),
            IngestError::UnknownItem(id) => write!(f, "unknown item id {}", id.0),
            IngestError::UnknownTitle(t) => write!(f, "no item titled {t:?}"),
            IngestError::Invalid(msg) => write!(f, "invalid ingest spec: {msg}"),
            IngestError::EmptyCommit => f.write_str("empty commit: no ratings buffered"),
            IngestError::Data(e) => write!(f, "append rejected: {e}"),
            IngestError::Wal(e) => write!(f, "write-ahead log: {e}"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<DataError> for IngestError {
    fn from(e: DataError) -> Self {
        IngestError::Data(e.to_string())
    }
}
