//! Data model, loaders and synthetic generators for MapRat.
//!
//! A collaborative rating site is modeled, following §2.1 of the paper, as a
//! triple `D = ⟨I, U, R⟩` of items, reviewers (users) and ratings. Every
//! rating is itself a triple `⟨i, u, s⟩` with `s ∈ [1, 5]`, extended here —
//! as the MapRat demo requires for its time slider — with a timestamp.
//!
//! This crate provides:
//!
//! * strongly-typed identifiers and attribute domains ([`ids`], [`attrs`],
//!   [`genre`], [`score`], [`time`]);
//! * the [`dataset::Dataset`] store: one `Arc`-shared rating chunk per
//!   item behind a global item-offset table, so a live commit copies only
//!   the chunks it touched;
//! * a loader and writer for the on-disk MovieLens‑1M format ([`loader`],
//!   [`writer`]);
//! * a statistically faithful synthetic generator at MovieLens‑1M scale with
//!   *planted* demographic rating structure reproducing the scenarios the
//!   paper narrates ([`synth`]);
//! * the zipcode → state/city mapping used to give every reviewer the
//!   geo attribute MapRat anchors its visualization on ([`zipcode`],
//!   [`cities`]).

#![warn(missing_docs)]

pub mod append;
pub mod attrs;
pub mod cities;
pub mod dataset;
pub mod error;
pub mod genre;
pub mod ids;
pub mod item;
pub mod loader;
pub mod packed;
pub mod partition;
pub mod rating;
pub mod score;
pub mod stats;
pub mod subset;
pub mod synth;
pub mod time;
pub mod user;
pub mod writer;
pub mod zipcode;

pub use append::{AppendBatch, AppendResult, IdAllocator};
pub use attrs::{AVPair, AgeGroup, AttrValue, Gender, Occupation, UsState, UserAttr};
pub use dataset::{Dataset, DatasetBuilder, RatingChunk, RatingCursor};
pub use error::DataError;
pub use genre::{Genre, GenreSet};
pub use ids::{ItemId, PersonId, RatingIdx, UserId};
pub use item::{Item, Person, Role};
pub use packed::PackedUserCode;
pub use partition::MonthPartition;
pub use rating::Rating;
pub use score::Score;
pub use stats::RatingStats;
pub use time::{MonthKey, TimeRange, Timestamp};
pub use user::User;
pub use zipcode::Zip;
