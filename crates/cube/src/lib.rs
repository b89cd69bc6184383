//! Data-cube group machinery for MapRat.
//!
//! Following §2.1 of the paper, a *group* is the set of rating tuples
//! describable by a conjunction of reviewer attribute/value pairs — a cell
//! of the data cube of Gray et al. \[3\] over the reviewer schema
//! `{age, gender, occupation, state}`. Given the input rating set `R_I` of
//! a query, this crate materializes every non-empty group above a support
//! threshold (an *iceberg cube*), each with:
//!
//! * a rendered, human-meaningful label ("male reviewers from California"),
//! * its cover — the set of `R_I` positions it contains — as a fast
//!   [`bitmap::Bitmap`],
//! * its aggregate [`maprat_data::RatingStats`].
//!
//! The mining layer (`maprat-core`) treats these candidates as the search
//! space of the SM/DM optimization problems.

#![warn(missing_docs)]

pub mod bitmap;
pub mod builder;
pub mod delta;
pub mod drill;
pub mod group;
pub mod kernels;
pub mod lattice;
#[doc(hidden)]
pub mod oracle;

pub use bitmap::Bitmap;
pub use builder::{CandidateGroup, CubeOptions, RatingCube};
pub use delta::ProfileSummary;
pub use group::GroupDesc;
pub use lattice::{attribute_subsets, Cuboid};
